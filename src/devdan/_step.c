/* Compiled training loop of DevdanModel: both phases over a run of rows.
 *
 * Every value equals the numpy step's bit for bit:
 *   - exp, logaddexp, log and every sum call numpy's own float64 inner loops,
 *     whose addresses the loader reads from the ufunc loop tables; a sum is
 *     the add loop in reduce mode (strides 0, 8, 0) over a 0.0 accumulator,
 *     which is what np.add.reduce does;
 *   - every product follows numpy's matmul dispatch: a one-element result is
 *     0.0 + ddot, an inner dimension of 1 is numpy's plain loop (0.0 + one
 *     product), anything else is the dgemv call numpy makes, through the BLAS
 *     numpy itself uses;
 *   - the mask draw is Generator.permutation's Fisher-Yates shuffle on the
 *     model generator's own bitgen_t, so it draws what numpy would;
 *   - the control charts repeat SpcTracker.update, kappa, should_grow and
 *     should_prune operation for operation, with libm's exp and sqrt, which
 *     math.exp and math.sqrt call;
 *   - the rest is elementwise + - * / and sqrt, each rounded once, in the
 *     order the numpy step writes them. Build with -ffp-contract=off and
 *     without -ffast-math so that no two of them fuse.
 *
 * devdan_train_rows runs one phase over a run of rows and returns to Python
 * when the rows run out, at a non-finite result, or when a chart fires;
 * Python then makes the structural edit, which draws from the generator, and
 * resumes at the same row. The model struct points into the model's own
 * arrays, its charts included.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

typedef void (*loop_fn)(char **args, const ptrdiff_t *dims, const ptrdiff_t *steps, void *data);
typedef void (*gemv_fn)(int order, int trans, int64_t m, int64_t n, double alpha,
                        const double *a, int64_t lda, const double *x, int64_t incx,
                        double beta, double *y, int64_t incy);
typedef double (*dot_fn)(int64_t n, const double *x, int64_t incx,
                         const double *y, int64_t incy);

enum { ROW_MAJOR = 101, COL_MAJOR = 102, TRANS = 112 };

/* numpy's loops and BLAS entry points, set once per process by the loader */
struct numerics {
    loop_fn exp, logaddexp, add, log;
    void *exp_data, *logaddexp_data, *add_data, *log_data;
    gemv_fn gemv;
    dot_fn dot;
};

static struct numerics np_;

void devdan_set_numerics(const struct numerics *numerics) { np_ = *numerics; }

/* One model: n inputs, width hidden nodes, m classes. params is
 * [c | w | b | theta | eta], grads the same layout, vel [w | b | theta | eta];
 * w is (n, width) and theta (width, m), both in C order. work holds, in
 * order: x (n), x_tilde (n), hid (2 width: the hidden activation, then the
 * expected activation ey), pre (3 k: the output, ez and ez2 rows, k = n in
 * the generative and m in the discriminative step), tmp (max(n, m, width))
 * and the three scalars bias2, variance, loss. charts is DevdanModel.charts:
 * four rows of CHART_FIELDS, the generative bias and variance charts, then
 * the discriminative ones. */
struct model {
    int64_t n, width, m;
    double *params, *vel, *grads;
    int64_t *gen_count, *disc_count;
    double *gen_mean, *gen_m2, *disc_mean, *disc_m2;
    double *charts;
    double *work;
};

enum { BIAS2, VARIANCE, LOSS };

/* ---------------------------------------------------------------- numpy */

/* np.add.reduce over v[0:len] */
static double sum(const double *v, ptrdiff_t len)
{
    double acc = 0.0;
    char *args[3] = {(char *)&acc, (char *)v, (char *)&acc};
    ptrdiff_t steps[3] = {0, sizeof(double), 0};
    np_.add(args, &len, steps, np_.add_data);
    return acc;
}

/* numerics.sigmoid in place: exp(-logaddexp(0, -v)) */
static void sigmoid(double *v, ptrdiff_t len)
{
    static const double zero = 0.0;
    char *args[3] = {(char *)&zero, (char *)v, (char *)v};
    ptrdiff_t steps[3] = {0, sizeof(double), sizeof(double)};
    for (ptrdiff_t i = 0; i < len; i++)
        v[i] = -v[i];
    np_.logaddexp(args, &len, steps, np_.logaddexp_data);
    for (ptrdiff_t i = 0; i < len; i++)
        v[i] = -v[i];
    np_.exp(args + 1, &len, steps + 1, np_.exp_data);
}

/* numerics.softmax_row in place on rows x cols values, one row at a time */
static void softmax(double *v, ptrdiff_t rows, ptrdiff_t cols)
{
    ptrdiff_t len = rows * cols;
    char *args[2] = {(char *)v, (char *)v};
    ptrdiff_t steps[2] = {sizeof(double), sizeof(double)};
    for (ptrdiff_t r = 0; r < rows; r++) {
        double *row = v + r * cols, top = row[0];
        for (ptrdiff_t k = 1; k < cols; k++)  /* np.maximum: NaN propagates */
            top = (top >= row[k] || isnan(top)) ? top : row[k];
        for (ptrdiff_t k = 0; k < cols; k++)
            row[k] = row[k] - top;
    }
    np_.exp(args, &len, steps, np_.exp_data);
    for (ptrdiff_t r = 0; r < rows; r++) {
        double *row = v + r * cols, total = sum(row, cols);
        for (ptrdiff_t k = 0; k < cols; k++)
            row[k] = row[k] / total;
    }
}

/* np.log of one float64, which numpy evaluates with its loop at length 1 */
static double log_one(double v)
{
    double out;
    char *args[2] = {(char *)&v, (char *)&out};
    ptrdiff_t len = 1, steps[2] = {sizeof(double), sizeof(double)};
    np_.log(args, &len, steps, np_.log_data);
    return out;
}

/* out = v @ M for v of length k and a (k, len) matrix M with element [i, j]
 * at mat[i * rs + j * cs], where cs == 1 (C order) or rs == 1 (the transpose
 * of a C-order matrix) */
static void vecmat(const double *v, const double *mat, ptrdiff_t k, ptrdiff_t len,
                   ptrdiff_t rs, ptrdiff_t cs, double *out)
{
    if (len == 1)
        out[0] = 0.0 + np_.dot(k, v, 1, mat, rs);
    else if (k == 1)
        for (ptrdiff_t j = 0; j < len; j++)
            out[j] = 0.0 + v[0] * mat[j * cs];
    else if (cs == 1)
        np_.gemv(ROW_MAJOR, TRANS, k, len, 1.0, mat, rs, v, 1, 0.0, out, 1);
    else
        np_.gemv(COL_MAJOR, TRANS, k, len, 1.0, mat, cs, v, 1, 0.0, out, 1);
}

/* out = M @ v for a C-order (rows, k) matrix M */
static void matvec(const double *mat, const double *v, ptrdiff_t rows, ptrdiff_t k, double *out)
{
    if (rows == 1)
        out[0] = 0.0 + np_.dot(k, mat, 1, v, 1);
    else if (k == 1)
        for (ptrdiff_t r = 0; r < rows; r++)
            out[r] = 0.0 + mat[r] * v[0];
    else
        np_.gemv(COL_MAJOR, TRANS, k, rows, 1.0, mat, k, v, 1, 0.0, out, 1);
}

/* The primitives on their own, for the load-time self-check and the tests. */
void devdan_sum(const double *v, int64_t len, double *out) { *out = sum(v, len); }
void devdan_sigmoid(double *v, int64_t len) { sigmoid(v, len); }
void devdan_softmax(double *v, int64_t rows, int64_t cols) { softmax(v, rows, cols); }
void devdan_vecmat(const double *v, const double *mat, int64_t k, int64_t len,
                   int64_t rs, int64_t cs, double *out)
{
    vecmat(v, mat, k, len, rs, cs, out);
}
void devdan_matvec(const double *mat, const double *v, int64_t rows, int64_t k, double *out)
{
    matvec(mat, v, rows, k, out);
}

/* ---------------------------------------------------------------- steps */

struct view {
    ptrdiff_t n, width, m;
    double *c, *w, *b, *theta, *eta;
    double *x, *xt, *hid, *ey, *pre, *tmp, *scalars;
};

static struct view view_of(const struct model *md)
{
    struct view s;
    ptrdiff_t n = md->n, width = md->width, m = md->m, k = n > m ? n : m;
    s.n = n, s.width = width, s.m = m;
    s.c = md->params;
    s.w = s.c + n;
    s.b = s.w + n * width;
    s.theta = s.b + width;
    s.eta = s.theta + width * m;
    s.x = md->work;
    s.xt = s.x + n;
    s.hid = s.xt + n;
    s.ey = s.hid + width;
    s.pre = s.ey + width;
    s.tmp = s.pre + 3 * k;
    s.scalars = s.tmp + (width > k ? width : k);
    return s;
}

/* a = input @ w + b into hid[0:width] */
static void encode(const struct view *s, const double *input)
{
    vecmat(input, s->w, s->n, s->width, s->width, 1, s->hid);
    for (ptrdiff_t j = 0; j < s->width; j++)
        s->hid[j] = s->hid[j] + s->b[j];
}

/* NodeStats.update with the pre-activation a */
static void stats_update(ptrdiff_t width, int64_t *count, double *mean, double *m2,
                         const double *a)
{
    for (ptrdiff_t j = 0; j < width; j++) {
        count[j] += 1;
        double delta = a[j] - mean[j];
        mean[j] = mean[j] + delta / (double)count[j];
        m2[j] = m2[j] + (a[j] - mean[j]) * delta;
    }
}

/* ey = mu / sqrt(1 + pi/8 sigma^2), sigma = sqrt(m2 / max(count, 1)), into
 * hid[width:]; the caller squashes */
static void probit_arg(const struct view *s, const int64_t *count, const double *mean,
                       const double *m2)
{
    const double scale = 3.14159265358979323846 / 8.0;  /* math.pi / 8 */
    for (ptrdiff_t j = 0; j < s->width; j++) {
        double sd = sqrt(m2[j] / (double)(count[j] > 1 ? count[j] : 1));
        s->ey[j] = mean[j] / sqrt(1.0 + scale * sd * sd);
    }
}

/* The three output rows pre[r] = row_r @ weight + bias for row_r the hidden
 * activation, ey and ey * ey; weight is (width, k) with strides (rs, cs). */
static void output_rows(const struct view *s, const double *weight, ptrdiff_t k,
                        ptrdiff_t rs, ptrdiff_t cs, const double *bias)
{
    for (ptrdiff_t j = 0; j < s->width; j++)
        s->tmp[j] = s->ey[j] * s->ey[j];
    vecmat(s->hid, weight, s->width, k, rs, cs, s->pre);
    vecmat(s->ey, weight, s->width, k, rs, cs, s->pre + k);
    vecmat(s->tmp, weight, s->width, k, rs, cs, s->pre + 2 * k);
    for (ptrdiff_t r = 0; r < 3; r++)
        for (ptrdiff_t i = 0; i < k; i++)
            s->pre[r * k + i] = s->pre[r * k + i] + bias[i];
}

/* bias2 and variance of the expected outputs ez = pre[k:2k], ez2 = pre[2k:]
 * against target (label < 0: the clean input x; else the one-hot of label) */
static void bias_variance(const struct view *s, ptrdiff_t k, int64_t label)
{
    const double *ez = s->pre + k, *ez2 = s->pre + 2 * k;
    for (ptrdiff_t i = 0; i < k; i++) {
        double target = label < 0 ? s->x[i] : (i == label ? 1.0 : 0.0);
        double d = target - ez[i];
        s->tmp[i] = d * d;
    }
    s->scalars[BIAS2] = sum(s->tmp, k) / (double)k;
    for (ptrdiff_t i = 0; i < k; i++)
        s->tmp[i] = ez2[i] - ez[i] * ez[i];
    s->scalars[VARIANCE] = sum(s->tmp, k) / (double)k;
}

/* Generative step before the charts: encode x_tilde, update the node
 * statistics, then the snapshot with the forward pass riding along. */
static void gen_forward(const struct model *md)
{
    struct view s = view_of(md);
    encode(&s, s.xt);
    stats_update(s.width, md->gen_count, md->gen_mean, md->gen_m2, s.hid);
    probit_arg(&s, md->gen_count, md->gen_mean, md->gen_m2);
    sigmoid(s.hid, 2 * s.width);
    output_rows(&s, s.w, s.n, 1, s.width, s.c);
    sigmoid(s.pre, 3 * s.n);
    bias_variance(&s, s.n, -1);
}

/* Generative step after the charts: gradients of the reconstruction loss and
 * the plain update of [c | w | b]. refresh recomputes the forward pass after
 * a structural edit. Returns 0, or without touching the parameters 1 for a
 * non-finite loss and 2, 3, 4 for a non-finite gradient of w, b, c. */
static int gen_update(const struct model *md, double lr, int refresh)
{
    struct view s = view_of(md);
    ptrdiff_t n = s.n, width = s.width;
    double *y = s.hid, *z = s.pre;
    double *dc = md->grads, *dw = dc + n, *db = dw + n * width;
    if (refresh) {
        encode(&s, s.xt);
        sigmoid(y, width);
        vecmat(y, s.w, width, n, 1, width, z);
        for (ptrdiff_t i = 0; i < n; i++)
            z[i] = z[i] + s.c[i];
        sigmoid(z, n);
    }
    for (ptrdiff_t i = 0; i < n; i++)
        dc[i] = ((z[i] - s.x[i]) * z[i]) * (1.0 - z[i]);
    vecmat(dc, s.w, n, width, width, 1, db);
    for (ptrdiff_t j = 0; j < width; j++)
        db[j] = (db[j] * y[j]) * (1.0 - y[j]);
    for (ptrdiff_t i = 0; i < n; i++)
        for (ptrdiff_t j = 0; j < width; j++)
            dw[i * width + j] = dc[i] * y[j] + s.xt[i] * db[j];
    for (ptrdiff_t i = 0; i < n; i++)
        s.tmp[i] = s.x[i] - z[i];
    s.scalars[LOSS] = 0.5 * (0.0 + np_.dot(n, s.tmp, 1, s.tmp, 1));
    if (!isfinite(s.scalars[LOSS]))
        return 1;
    const double *blocks[3] = {dw, db, dc};
    const ptrdiff_t sizes[3] = {n * width, width, n};
    for (int k = 0; k < 3; k++)
        for (ptrdiff_t i = 0; i < sizes[k]; i++)
            if (!isfinite(blocks[k][i]))
                return 2 + k;
    for (ptrdiff_t i = 0, end = n + n * width + width; i < end; i++)
        md->params[i] = md->params[i] - lr * md->grads[i];
    return 0;
}

/* Discriminative step before the charts: encode x, update the node
 * statistics, then the snapshot with the class probabilities riding along. */
static void disc_forward(const struct model *md, int64_t label)
{
    struct view s = view_of(md);
    encode(&s, s.x);
    stats_update(s.width, md->disc_count, md->disc_mean, md->disc_m2, s.hid);
    probit_arg(&s, md->disc_count, md->disc_mean, md->disc_m2);
    sigmoid(s.hid, 2 * s.width);
    output_rows(&s, s.theta, s.m, s.m, 1, s.eta);
    softmax(s.pre, 3, s.m);
    bias_variance(&s, s.m, label);
}

/* The hidden activation and class probabilities again, after a structural
 * edit. */
static void disc_refresh(const struct model *md)
{
    struct view s = view_of(md);
    encode(&s, s.x);
    sigmoid(s.hid, s.width);
    vecmat(s.hid, s.theta, s.width, s.m, s.m, 1, s.pre);
    for (ptrdiff_t k = 0; k < s.m; k++)
        s.pre[k] = s.pre[k] + s.eta[k];
    softmax(s.pre, 1, s.m);
}

/* Discriminative step after the charts and the loss: softmax cross-entropy
 * gradients back through head and encoder, then momentum descent over
 * [w | b | theta | eta]. */
static void disc_update(const struct model *md, int64_t label, double lr, double momentum)
{
    struct view s = view_of(md);
    ptrdiff_t n = s.n, width = s.width, m = s.m;
    const double *h = s.hid, *probs = s.pre;
    double *dw = md->grads + n, *da = dw + n * width, *dtheta = da + width;
    double *dlogits = dtheta + width * m;
    for (ptrdiff_t k = 0; k < m; k++)
        dlogits[k] = probs[k] - (k == label ? 1.0 : 0.0);
    for (ptrdiff_t j = 0; j < width; j++)
        for (ptrdiff_t k = 0; k < m; k++)
            dtheta[j * m + k] = h[j] * dlogits[k];
    matvec(s.theta, dlogits, width, m, da);
    for (ptrdiff_t j = 0; j < width; j++)
        da[j] = (da[j] * h[j]) * (1.0 - h[j]);
    for (ptrdiff_t i = 0; i < n; i++)
        for (ptrdiff_t j = 0; j < width; j++)
            dw[i * width + j] = s.x[i] * da[j];
    double *p = md->params + n, *g = md->grads + n, *v = md->vel;
    for (ptrdiff_t i = 0, end = n * width + width + width * m + m; i < end; i++) {
        v[i] = v[i] * momentum;
        v[i] = v[i] + g[i];
        p[i] = p[i] - lr * v[i];
    }
}

/* ------------------------------------------------------------ mask draw */

/* numpy's bitgen_t (numpy/random/bitgen.h) */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* numpy's random_interval: a uniform integer in [0, max] by masked rejection */
static uint64_t random_interval(bitgen_t *bg, uint64_t max)
{
    uint64_t mask = max, value;
    if (max == 0)
        return 0;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    if (max <= 0xffffffffUL)
        while ((value = (bg->next_uint32(bg->state) & mask)) > max)
            ;
    else
        while ((value = (bg->next_uint64(bg->state) & mask)) > max)
            ;
    return value;
}

/* dae.mask_input: xt = x with entries rng.permutation(n)[:k] set to 0.0,
 * perm an n-element scratch; draws nothing when k is 0 */
static void mask_draw(bitgen_t *bg, const double *x, double *xt, ptrdiff_t n, ptrdiff_t k,
                      int64_t *perm)
{
    memcpy(xt, x, n * sizeof(double));
    if (k == 0)
        return;
    for (ptrdiff_t i = 0; i < n; i++)
        perm[i] = i;
    for (ptrdiff_t i = n - 1; i >= 1; i--) {  /* Generator.shuffle */
        ptrdiff_t j = (ptrdiff_t)random_interval(bg, (uint64_t)i);
        int64_t swap = perm[j];
        perm[j] = perm[i];
        perm[i] = swap;
    }
    for (ptrdiff_t i = 0; i < k; i++)
        xt[perm[i]] = 0.0;
}

void devdan_mask(void *bitgen, const double *x, double *out, int64_t n, int64_t k, int64_t *perm)
{
    mask_draw(bitgen, x, out, n, k, perm);
}

/* --------------------------------------------------------------- charts */

/* One SpcTracker row, in the column order of monitors.py */
enum { COUNT, MEAN, M2, MIN_MEAN, MIN_STD, RESEED, CHART_FIELDS };
enum { GROW = 1, PRUNE = 2, RAISES = 4 };

/* SpcTracker.update; returns the chart's std, or -1 where math.sqrt would
 * raise */
static double chart_update(double *c, double x)
{
    c[COUNT] = c[COUNT] + 1.0;
    double delta = x - c[MEAN];
    c[MEAN] = c[MEAN] + delta / c[COUNT];
    c[M2] = c[M2] + delta * (x - c[MEAN]);
    double q = c[COUNT] > 1.0 ? c[M2] / c[COUNT] : 0.0;
    if (q < 0.0)
        return -1.0;
    double std = sqrt(q);
    if (c[RESEED] != 0.0) {
        c[MIN_MEAN] = c[MEAN];
        c[MIN_STD] = std;
        c[RESEED] = 0.0;
    } else {
        if (c[MEAN] < c[MIN_MEAN])
            c[MIN_MEAN] = c[MEAN];
        if (std < c[MIN_STD])
            c[MIN_STD] = std;
    }
    return std;
}

/* monitors.kappa, or -1 where math.exp would overflow */
static double kappa(double level)
{
    double e = exp(-level);
    return isinf(e) && !isinf(level) ? -1.0 : 1.3 * e + 0.7;
}

/* DevdanModel._evolve's chart work for one row, without the edits and the
 * resets: the bias chart takes bias2 and may call for a grow, then the
 * variance chart takes variance and may call for a prune. Returns GROW,
 * PRUNE or RAISES where a Python call would raise; limits gets each test's
 * limit, NaN where the test did not run. */
static int charts_step(double *bias, double *var, double bias2, double variance, int64_t width,
                       int64_t enable_grow, int64_t enable_prune, double *limits)
{
    int out = 0;
    double std = chart_update(bias, bias2), k;
    limits[0] = limits[1] = NAN;
    if (std < 0.0)
        return RAISES;
    if (enable_grow) {
        if ((k = kappa(bias2)) < 0.0)
            return RAISES;
        limits[0] = bias[MIN_MEAN] + k * bias[MIN_STD];
        out = bias[MEAN] + std >= limits[0] ? GROW : 0;
    }
    if ((std = chart_update(var, variance)) < 0.0)
        return RAISES;
    if (enable_prune && !out && width > 1) {
        if ((k = kappa(0.0 > variance ? 0.0 : variance)) < 0.0)  /* max(variance, 0.0) */
            return RAISES;
        limits[1] = var[MIN_MEAN] + 2.0 * k * var[MIN_STD];
        out = var[MEAN] + std >= limits[1] ? PRUNE : 0;
    }
    return out;
}

int devdan_charts(double *charts, double bias2, double variance, int64_t width,
                  int64_t enable_grow, int64_t enable_prune, double *limits)
{
    return charts_step(charts, charts + CHART_FIELDS, bias2, variance, width, enable_grow,
                       enable_prune, limits);
}

/* ------------------------------------------------------------ row loop */

/* One phase over a run of rows. feats is a C-order (rows, n) array; index
 * lists the rows to train, in order; labels (per feats row, each in [0, m),
 * which the caller checks) is NULL for the generative phase. pos is where to
 * start, and on return the row that returned; resume tells whether that row
 * starts afresh or, after Python handled a chart that fired, goes on to its
 * update, recomputing the forward pass first when Python edited the layer. */
struct rows {
    const double *feats;
    const int64_t *index, *labels;
    int64_t count, pos, resume;
    double *losses;   /* per index entry */
    void *bitgen;     /* the model generator's bitgen_t */
    int64_t *perm;    /* n int64 scratch for the mask draw */
    int64_t n_masked, enable_grow, enable_prune;
    double lr, momentum;
};

enum { FRESH, UPDATE, REFRESH };
enum { DONE, CHART, GEN_LOSS, GRAD_W, GRAD_B, GRAD_C, DISC_LOSS };

/* The phase's two charts on a copy, kept only when neither fires: Python
 * redoes a row whose chart fires, or where a Python call would raise. */
static int row_charts(const struct model *md, const struct rows *r)
{
    double next[2 * CHART_FIELDS], limits[2], *scalars = view_of(md).scalars;
    double *charts = md->charts + (r->labels ? 2 * CHART_FIELDS : 0);
    memcpy(next, charts, sizeof next);
    if (charts_step(next, next + CHART_FIELDS, scalars[BIAS2], scalars[VARIANCE], md->width,
                    r->enable_grow, r->enable_prune, limits))
        return CHART;
    memcpy(charts, next, sizeof next);
    return DONE;
}

static int generative_rows(const struct model *md, struct rows *r)
{
    struct view s = view_of(md);
    for (; r->pos < r->count; r->pos++) {
        int64_t resume = r->resume;
        r->resume = FRESH;
        if (resume == FRESH) {
            memcpy(s.x, r->feats + r->index[r->pos] * s.n, s.n * sizeof(double));
            mask_draw(r->bitgen, s.x, s.xt, s.n, r->n_masked, r->perm);
            gen_forward(md);
            if (row_charts(md, r) != DONE)
                return CHART;
        }
        int status = gen_update(md, r->lr, resume == REFRESH);
        r->losses[r->pos] = s.scalars[LOSS];
        if (status)
            return GEN_LOSS + status - 1;
    }
    return DONE;
}

static int discriminative_rows(const struct model *md, struct rows *r)
{
    struct view s = view_of(md);
    for (; r->pos < r->count; r->pos++) {
        int64_t resume = r->resume, row = r->index[r->pos], label = r->labels[row];
        r->resume = FRESH;
        if (resume == FRESH) {
            memcpy(s.x, r->feats + row * s.n, s.n * sizeof(double));
            disc_forward(md, label);
            if (row_charts(md, r) != DONE)
                return CHART;
        } else if (resume == REFRESH) {
            disc_refresh(md);
        }
        double p = s.pre[label];
        double loss = -log_one(1e-300 > p ? 1e-300 : p);  /* max(p, 1e-300) */
        r->losses[r->pos] = loss;
        if (!isfinite(loss))
            return DISC_LOSS;
        disc_update(md, label, r->lr, r->momentum);
    }
    return DONE;
}

int devdan_train_rows(const struct model *md, struct rows *r)
{
    return r->labels ? discriminative_rows(md, r) : generative_rows(md, r);
}
