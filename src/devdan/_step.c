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
 *   - the control charts repeat monitors.update_charts operation for
 *     operation, in place, with libm's exp and sqrt, which math.exp and
 *     math.sqrt call;
 *   - the rest is elementwise + - * / and sqrt, each rounded once, in the
 *     order the numpy step writes them. Build with -ffp-contract=off and
 *     without -ffast-math so that no two of them fuse.
 *
 * devdan_train_rows is the one row loop of both phases (phase_of holds what
 * differs). It returns to Python when the rows run out, at a non-finite
 * result, or when a chart fires, with the edit (GROW or PRUNE) as its status;
 * Python makes the edit, which draws from the generator, and resumes at the
 * same row, whose forward pass is redone against the edited layer. The model
 * struct points at the model's own arrays, its charts included, which both
 * steps update in place, and at the parts of a work vector that carries the
 * row, its forward pass and its gradients. A row's bias2, variance and loss
 * stay in C; the loss goes straight to the caller's losses.
 *
 * It is compiled after the header that kernel.header() renders from the Python
 * tables: the enums (kernel.Status, state.Column), struct numerics
 * (kernel.NUMERICS), struct rows (ROWS), struct model (model_fields(), from
 * state.STATE_SLOTS and work_lengths()) and each export's prototype (EXPORTS),
 * with <stddef.h> and <stdint.h>.
 */
#include <math.h>
#include <string.h>

enum { ROW_MAJOR = 101, COL_MAJOR = 102, TRANS = 112 };

/* numpy's loops and BLAS entry points, set once per process by the loader */
static struct numerics np_;

void devdan_set_numerics(const struct numerics *numerics) { np_ = *numerics; }

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

/* ---------------------------------------------------------------- steps */

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

static struct phase phase_of(const struct model *md, int64_t label)
{
    if (label < 0)
        return (struct phase){md->xt, md->w, md->c, md->gen_stats_count, md->gen_stats_mean,
                              md->gen_stats_m2, md->n, 1, md->width};
    return (struct phase){md->x, md->theta, md->eta, md->disc_stats_count, md->disc_stats_mean,
                          md->disc_stats_m2, md->m, md->m, 1};
}

/* a = input @ w + b into hid */
static void encode(const struct model *md, const double *input)
{
    vecmat(input, md->w, md->n, md->width, md->width, 1, md->hid);
    for (ptrdiff_t j = 0; j < md->width; j++)
        md->hid[j] = md->hid[j] + md->b[j];
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
 * ey; the caller squashes */
static void probit_arg(const struct model *md, const int64_t *count, const double *mean,
                       const double *m2)
{
    const double scale = 3.14159265358979323846 / 8.0;  /* math.pi / 8 */
    for (ptrdiff_t j = 0; j < md->width; j++) {
        double sd = sqrt(m2[j] / (double)(count[j] > 1 ? count[j] : 1));
        md->ey[j] = mean[j] / sqrt(1.0 + scale * sd * sd);
    }
}

/* The first `rows` of the output rows pre[r] = squash(row_r @ weight + bias),
 * row_r being the hidden activation, ey and ey * ey (in tmp), and squash the
 * phase's: sigmoid, or softmax row by row. */
static void output_rows(const struct model *md, const struct phase *p, ptrdiff_t rows,
                        int64_t label)
{
    const double *from[3] = {md->hid, md->ey, md->tmp};
    for (ptrdiff_t r = 0; r < rows; r++)
        vecmat(from[r], p->weight, md->width, p->k, p->rs, p->cs, md->pre + r * p->k);
    for (ptrdiff_t r = 0; r < rows; r++)
        for (ptrdiff_t i = 0; i < p->k; i++)
            md->pre[r * p->k + i] = md->pre[r * p->k + i] + p->bias[i];
    if (label < 0)
        sigmoid(md->pre, rows * p->k);
    else
        softmax(md->pre, rows, p->k);
}

/* bias2 and variance of the expected outputs ez = pre[k:2k], ez2 = pre[2k:]
 * against target (label < 0: the clean input x; else the one-hot of label) */
static void bias_variance(const struct model *md, ptrdiff_t k, int64_t label, double *bias2,
                          double *variance)
{
    const double *ez = md->pre + k, *ez2 = md->pre + 2 * k;
    for (ptrdiff_t i = 0; i < k; i++) {
        double target = label < 0 ? md->x[i] : (i == label ? 1.0 : 0.0);
        double d = target - ez[i];
        md->tmp[i] = d * d;
    }
    *bias2 = sum(md->tmp, k) / (double)k;
    for (ptrdiff_t i = 0; i < k; i++)
        md->tmp[i] = ez2[i] - ez[i] * ez[i];
    *variance = sum(md->tmp, k) / (double)k;
}

/* A row before the charts: encode the phase's input, update its node
 * statistics, then the snapshot, with the forward pass riding along as its
 * first output row; hands back the snapshot's bias2 and variance. */
static void forward(const struct model *md, int64_t label, double *bias2, double *variance)
{
    struct phase p = phase_of(md, label);
    encode(md, p.input);
    stats_update(md->width, p.count, p.mean, p.m2, md->hid);
    probit_arg(md, p.count, p.mean, p.m2);
    sigmoid(md->hid, 2 * md->width);  /* hid, then ey, which follows it */
    for (ptrdiff_t j = 0; j < md->width; j++)
        md->tmp[j] = md->ey[j] * md->ey[j];
    output_rows(md, &p, 3, label);
    bias_variance(md, p.k, label, bias2, variance);
}

/* The forward pass again, after a structural edit: the hidden activation
 * and the first output row. */
static void refresh(const struct model *md, int64_t label)
{
    struct phase p = phase_of(md, label);
    encode(md, p.input);
    sigmoid(md->hid, md->width);
    output_rows(md, &p, 1, label);
}

/* Generative step after the charts: the reconstruction loss *loss, its
 * gradients and the plain update of w, b and c. Returns DONE, or without
 * touching the parameters GEN_LOSS for a non-finite loss and GRAD_W, GRAD_B,
 * GRAD_C for a non-finite gradient of w, b, c. */
static int gen_update(const struct model *md, double lr, double *loss)
{
    ptrdiff_t n = md->n, width = md->width;
    const double *y = md->hid, *z = md->pre;
    double *dc = md->grad, *dw = dc + n, *db = dw + n * width;
    for (ptrdiff_t i = 0; i < n; i++)
        dc[i] = ((z[i] - md->x[i]) * z[i]) * (1.0 - z[i]);
    vecmat(dc, md->w, n, width, width, 1, db);
    for (ptrdiff_t j = 0; j < width; j++)
        db[j] = (db[j] * y[j]) * (1.0 - y[j]);
    for (ptrdiff_t i = 0; i < n; i++)
        for (ptrdiff_t j = 0; j < width; j++)
            dw[i * width + j] = dc[i] * y[j] + md->xt[i] * db[j];
    for (ptrdiff_t i = 0; i < n; i++)
        md->tmp[i] = md->x[i] - z[i];
    *loss = 0.5 * (0.0 + np_.dot(n, md->tmp, 1, md->tmp, 1));
    if (!isfinite(*loss))
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

/* Discriminative step after the charts: *loss = -log(max(p, 1e-300)) of the
 * label's probability p, then softmax cross-entropy gradients back through
 * head and encoder, and momentum descent of w, b, theta and eta. Returns
 * DONE, or DISC_LOSS without touching the parameters for a non-finite loss. */
static int disc_update(const struct model *md, int64_t label, double lr, double momentum,
                       double *loss)
{
    ptrdiff_t n = md->n, width = md->width, m = md->m;
    const double *h = md->hid, *probs = md->pre;
    double *dw = md->grad + n, *da = dw + n * width, *dtheta = da + width;
    double *dlogits = dtheta + width * m;
    double p = probs[label];
    *loss = -log_one(1e-300 > p ? 1e-300 : p);  /* max(p, 1e-300) */
    if (!isfinite(*loss))
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
            dw[i * width + j] = md->x[i] * da[j];
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

/* --------------------------------------------------------------- charts */

/* SpcTracker.update; returns the chart's std */
static double chart_update(double *c, double x)
{
    c[COUNT] = c[COUNT] + 1.0;
    double delta = x - c[MEAN];
    c[MEAN] = c[MEAN] + delta / c[COUNT];
    c[M2] = c[M2] + delta * (x - c[MEAN]);
    double std = c[COUNT] > 1.0 ? sqrt(c[M2] / c[COUNT]) : 0.0;
    if (c[RESEED] != 0.0 || c[MEAN] < c[MIN_MEAN])  /* a re-seed, or a new minimum */
        c[MIN_MEAN] = c[MEAN];
    if (c[RESEED] != 0.0 || std < c[MIN_STD])
        c[MIN_STD] = std;
    c[RESEED] = 0.0;
    return std;
}

/* monitors.kappa */
static double kappa(double level) { return 1.3 * exp(-level) + 0.7; }

/* monitors.update_charts, in place on a bias and a variance chart: the bias
 * chart takes bias2 and its grow test, then the variance chart takes variance
 * and its prune test. A chart that fires arms its re-seed (SpcTracker.
 * reset_min), which its update has just cleared, so the flags are the
 * decision: GROW, PRUNE or DONE. */
static int charts_step(double *bias, double *var, double bias2, double variance, int64_t width,
                       int64_t enable_grow, int64_t enable_prune)
{
    double std = chart_update(bias, bias2);
    if (enable_grow)
        bias[RESEED] = bias[MEAN] + std >= bias[MIN_MEAN] + kappa(bias2) * bias[MIN_STD];
    std = chart_update(var, variance);
    if (enable_prune && bias[RESEED] == 0.0 && width > 1) {
        double level = 0.0 > variance ? 0.0 : variance;  /* max(variance, 0.0) */
        var[RESEED] = var[MEAN] + std >= var[MIN_MEAN] + 2.0 * kappa(level) * var[MIN_STD];
    }
    return bias[RESEED] != 0.0 ? GROW : var[RESEED] != 0.0 ? PRUNE : DONE;
}

/* ------------------------------------------------------------ row loop */

/* One phase over a run of rows (struct rows) */
int devdan_train_rows(const struct model *md, struct rows *r)
{
    for (; r->pos < r->count; r->pos++) {
        int64_t row = r->index[r->pos], label = r->labels ? r->labels[row] : -1;
        if (r->resume) {
            r->resume = 0;
            refresh(md, label);
        } else {
            memcpy(md->x, r->feats + row * md->n, md->n * sizeof(double));
            if (label < 0)
                mask_draw(r->bitgen, md->x, md->xt, md->n, r->n_masked, r->perm);
            double bias2, variance;
            forward(md, label, &bias2, &variance);
            double *charts = md->charts + (label < 0 ? 0 : 2 * CHART_FIELDS);
            int edit = charts_step(charts, charts + CHART_FIELDS, bias2, variance, md->width,
                                   r->enable_grow, r->enable_prune);
            if (edit != DONE)  /* the phase's charts are committed, re-seeds included */
                return edit;
        }
        int status = label < 0 ? gen_update(md, r->lr, r->losses + r->pos)
                               : disc_update(md, label, r->lr, r->momentum, r->losses + r->pos);
        if (status != DONE)
            return status;
    }
    return DONE;
}
