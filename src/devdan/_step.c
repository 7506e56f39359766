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
 * devdan_train_rows is the one row loop of both phases (phase_of holds what
 * differs). It returns to Python when the rows run out, at a non-finite
 * result, or when a chart fires; Python then makes the structural edit,
 * which draws from the generator, and resumes at the same row, whose forward
 * pass is redone against the edited layer. The model struct points at the
 * model's own arrays, its charts included, which both steps update in place.
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

/* One model: n inputs, width hidden nodes, m classes, then one pointer per
 * array of STATE_SLOTS in model.py, in its order and of its shape and dtype,
 * each C order (w is (n, width), theta and vel_theta (width, m)). charts is
 * DevdanModel.charts: four rows of CHART_FIELDS, the generative bias and
 * variance charts, then the discriminative ones. work holds, in order: x (n),
 * x_tilde (n), hid (2 width: the hidden activation, then the expected
 * activation ey), pre (3 k: the output, ez and ez2 rows, k = n in the
 * generative and m in the discriminative step), tmp (max(n, m, width)), grad
 * (the gradients [c | w | b | theta | eta]) and the three scalars bias2,
 * variance, loss. */
struct model {
    int64_t n, width, m;
    double *w, *b, *c, *theta, *eta, *vel_theta, *vel_eta, *vel_w, *vel_b;
    int64_t *gen_stats_count;
    double *gen_stats_mean, *gen_stats_m2;
    int64_t *disc_stats_count;
    double *disc_stats_mean, *disc_stats_m2;
    double *charts;
    double *work;
};

enum { BIAS2, VARIANCE, LOSS };
/* why devdan_train_rows returned */
enum { DONE, CHART, GEN_LOSS, GRAD_W, GRAD_B, GRAD_C, DISC_LOSS };

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

/* The primitives on their own, for the load-time self-check and the tests. */
void devdan_sum(const double *v, int64_t len, double *out) { *out = sum(v, len); }
void devdan_sigmoid(double *v, int64_t len) { sigmoid(v, len); }
void devdan_softmax(double *v, int64_t rows, int64_t cols) { softmax(v, rows, cols); }
void devdan_vecmat(const double *v, const double *mat, int64_t k, int64_t len,
                   int64_t rs, int64_t cs, double *out)
{
    vecmat(v, mat, k, len, rs, cs, out);
}

/* ---------------------------------------------------------------- steps */

/* The extents and the parts of the work vector */
struct view {
    ptrdiff_t n, width, m;
    double *x, *xt, *hid, *ey, *pre, *tmp, *grad, *scalars;
};

static struct view view_of(const struct model *md)
{
    struct view s;
    ptrdiff_t n = md->n, width = md->width, m = md->m, k = n > m ? n : m;
    s.n = n, s.width = width, s.m = m;
    s.x = md->work;
    s.xt = s.x + n;
    s.hid = s.xt + n;
    s.ey = s.hid + width;
    s.pre = s.ey + width;
    s.tmp = s.pre + 3 * k;
    s.grad = s.tmp + (width > k ? width : k);
    s.scalars = s.grad + n + n * width + width + width * m + m;
    return s;
}

/* What differs between the phases, label < 0 being the generative one: the
 * encoded input (x_tilde or x), the node statistics, and the output layer,
 * weight (width, k) with strides (rs, cs) plus bias (k): the reconstruction
 * through w.T and c, or the head theta and eta. */
struct phase {
    const double *input, *weight, *bias;
    int64_t *count;
    double *mean, *m2;
    ptrdiff_t k, rs, cs;
};

static struct phase phase_of(const struct model *md, const struct view *s, int64_t label)
{
    if (label < 0)
        return (struct phase){s->xt, md->w, md->c, md->gen_stats_count, md->gen_stats_mean,
                              md->gen_stats_m2, s->n, 1, s->width};
    return (struct phase){s->x, md->theta, md->eta, md->disc_stats_count, md->disc_stats_mean,
                          md->disc_stats_m2, s->m, s->m, 1};
}

/* a = input @ w + b into hid[0:width] */
static void encode(const struct model *md, const struct view *s, const double *input)
{
    vecmat(input, md->w, s->n, s->width, s->width, 1, s->hid);
    for (ptrdiff_t j = 0; j < s->width; j++)
        s->hid[j] = s->hid[j] + md->b[j];
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

/* The first `rows` of the output rows pre[r] = squash(row_r @ weight + bias),
 * row_r being the hidden activation, ey and ey * ey (in tmp), and squash the
 * phase's: sigmoid, or softmax row by row. */
static void output_rows(const struct view *s, const struct phase *p, ptrdiff_t rows,
                        int64_t label)
{
    const double *from[3] = {s->hid, s->ey, s->tmp};
    for (ptrdiff_t r = 0; r < rows; r++)
        vecmat(from[r], p->weight, s->width, p->k, p->rs, p->cs, s->pre + r * p->k);
    for (ptrdiff_t r = 0; r < rows; r++)
        for (ptrdiff_t i = 0; i < p->k; i++)
            s->pre[r * p->k + i] = s->pre[r * p->k + i] + p->bias[i];
    if (label < 0)
        sigmoid(s->pre, rows * p->k);
    else
        softmax(s->pre, rows, p->k);
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

/* A row before the charts: encode the phase's input, update its node
 * statistics, then the snapshot, with the forward pass riding along as its
 * first output row. */
static void forward(const struct model *md, int64_t label)
{
    struct view s = view_of(md);
    struct phase p = phase_of(md, &s, label);
    encode(md, &s, p.input);
    stats_update(s.width, p.count, p.mean, p.m2, s.hid);
    probit_arg(&s, p.count, p.mean, p.m2);
    sigmoid(s.hid, 2 * s.width);
    for (ptrdiff_t j = 0; j < s.width; j++)
        s.tmp[j] = s.ey[j] * s.ey[j];
    output_rows(&s, &p, 3, label);
    bias_variance(&s, p.k, label);
}

/* The forward pass again, after a structural edit: the hidden activation
 * and the first output row. */
static void refresh(const struct model *md, int64_t label)
{
    struct view s = view_of(md);
    struct phase p = phase_of(md, &s, label);
    encode(md, &s, p.input);
    sigmoid(s.hid, s.width);
    output_rows(&s, &p, 1, label);
}

/* Generative step after the charts: gradients of the reconstruction loss and
 * the plain update of w, b and c. Returns DONE, or without touching the
 * parameters GEN_LOSS for a non-finite loss and GRAD_W, GRAD_B, GRAD_C for a
 * non-finite gradient of w, b, c. */
static int gen_update(const struct model *md, double lr)
{
    struct view s = view_of(md);
    ptrdiff_t n = s.n, width = s.width;
    const double *y = s.hid, *z = s.pre;
    double *dc = s.grad, *dw = dc + n, *db = dw + n * width;
    for (ptrdiff_t i = 0; i < n; i++)
        dc[i] = ((z[i] - s.x[i]) * z[i]) * (1.0 - z[i]);
    vecmat(dc, md->w, n, width, width, 1, db);
    for (ptrdiff_t j = 0; j < width; j++)
        db[j] = (db[j] * y[j]) * (1.0 - y[j]);
    for (ptrdiff_t i = 0; i < n; i++)
        for (ptrdiff_t j = 0; j < width; j++)
            dw[i * width + j] = dc[i] * y[j] + s.xt[i] * db[j];
    for (ptrdiff_t i = 0; i < n; i++)
        s.tmp[i] = s.x[i] - z[i];
    s.scalars[LOSS] = 0.5 * (0.0 + np_.dot(n, s.tmp, 1, s.tmp, 1));
    if (!isfinite(s.scalars[LOSS]))
        return GEN_LOSS;
    double *params[3] = {md->w, md->b, md->c};
    const double *blocks[3] = {dw, db, dc};
    const ptrdiff_t sizes[3] = {n * width, width, n};
    for (int k = 0; k < 3; k++)
        for (ptrdiff_t i = 0; i < sizes[k]; i++)
            if (!isfinite(blocks[k][i]))
                return GRAD_W + k;
    for (int k = 0; k < 3; k++)
        for (ptrdiff_t i = 0; i < sizes[k]; i++)
            params[k][i] = params[k][i] - lr * blocks[k][i];
    return DONE;
}

/* Discriminative step after the charts: the loss -log(max(p, 1e-300)) of the
 * label's probability p, then softmax cross-entropy gradients back through
 * head and encoder, and momentum descent of w, b, theta and eta. Returns
 * DONE, or DISC_LOSS without touching the parameters for a non-finite loss. */
static int disc_update(const struct model *md, int64_t label, double lr, double momentum)
{
    struct view s = view_of(md);
    ptrdiff_t n = s.n, width = s.width, m = s.m;
    const double *h = s.hid, *probs = s.pre;
    double *dw = s.grad + n, *da = dw + n * width, *dtheta = da + width;
    double *dlogits = dtheta + width * m;
    double p = probs[label];
    s.scalars[LOSS] = -log_one(1e-300 > p ? 1e-300 : p);  /* max(p, 1e-300) */
    if (!isfinite(s.scalars[LOSS]))
        return DISC_LOSS;
    for (ptrdiff_t k = 0; k < m; k++)
        dlogits[k] = probs[k] - (k == label ? 1.0 : 0.0);
    for (ptrdiff_t j = 0; j < width; j++)
        for (ptrdiff_t k = 0; k < m; k++)
            dtheta[j * m + k] = h[j] * dlogits[k];
    vecmat(dlogits, md->theta, m, width, 1, m, da);  /* theta @ dlogits */
    for (ptrdiff_t j = 0; j < width; j++)
        da[j] = (da[j] * h[j]) * (1.0 - h[j]);
    for (ptrdiff_t i = 0; i < n; i++)
        for (ptrdiff_t j = 0; j < width; j++)
            dw[i * width + j] = s.x[i] * da[j];
    double *params[4] = {md->w, md->b, md->theta, md->eta};
    double *vels[4] = {md->vel_w, md->vel_b, md->vel_theta, md->vel_eta};
    const double *grads[4] = {dw, da, dtheta, dlogits};
    const ptrdiff_t sizes[4] = {n * width, width, width * m, m};
    for (int k = 0; k < 4; k++)
        for (ptrdiff_t i = 0; i < sizes[k]; i++) {
            vels[k][i] = vels[k][i] * momentum;
            vels[k][i] = vels[k][i] + grads[k][i];
            params[k][i] = params[k][i] - lr * vels[k][i];
        }
    return DONE;
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
 * start, and on return the row that returned. resume is set when that row's
 * chart fired and Python edited the layer: the row then goes on to its
 * update, recomputing the forward pass against the edited layer first. */
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

int devdan_train_rows(const struct model *md, struct rows *r)
{
    struct view s = view_of(md);
    for (; r->pos < r->count; r->pos++) {
        int64_t row = r->index[r->pos], label = r->labels ? r->labels[row] : -1;
        if (r->resume) {
            r->resume = 0;
            refresh(md, label);
        } else {
            memcpy(s.x, r->feats + row * s.n, s.n * sizeof(double));
            if (label < 0)
                mask_draw(r->bitgen, s.x, s.xt, s.n, r->n_masked, r->perm);
            forward(md, label);
            if (row_charts(md, r) != DONE)
                return CHART;
        }
        int status = label < 0 ? gen_update(md, r->lr)
                               : disc_update(md, label, r->lr, r->momentum);
        r->losses[r->pos] = s.scalars[LOSS];
        if (status != DONE)
            return status;
    }
    return DONE;
}
