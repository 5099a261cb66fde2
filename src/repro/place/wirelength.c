/* The compiled net pass: the exact HPWL and the weighted-average (WA)
   wirelength with its gradient, one C loop over the nets of a CSR where
   NumPy took some thirty calls over a degree-bucketed layout.

   Every value reproduces, bit for bit, the segmented-reduceat program kept
   as the oracle in tests/reference_wirelength.py: a pin coordinate is its
   cell's plus its offset; a per-net max / min is a fold from the net's
   first pin under NumPy's rules (a NaN operand wins); a per-net sum is
   what add.reduceat computes, the first term plus NumPy's pairwise_sum of
   the rest; gradients are added into their cells in CSR pin order from
   0.0, as bincount adds them.  The file is built with -ffp-contract=off,
   so no multiply-add is fused.  exp is left to NumPy, whose vectorised
   loop rounds differently from the C library's: a WA evaluation is
   wa_exponents, NumPy's exp and wa_gradient. */

#include <math.h>
#include <stdint.h>

#include "wirelength.h"

/* Two lanes, the x and the y axis of a pin (or of a net): each lane runs
   the scalar operations of its axis, so the bits are the scalar ones and
   one SSE2 divide does the work of two. */
typedef double v2d __attribute__((vector_size(16)));

static inline double np_maximum(double a, double b)
{
    return (isnan(a) || a > b) ? a : b;
}

static inline double np_minimum(double a, double b)
{
    return (isnan(a) || a < b) ? a : b;
}

/* NumPy's pairwise_sum of a[0..n), or of a[i] * m[i] with ``m``: a plain
   sum from -0.0 below 8 terms, 8 accumulators up to 128, two halves (cut
   at a multiple of 8) above. */
static double pairwise_sum(const double *a, const double *m, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += m ? a[i] * m[i] : a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = m ? a[j] * m[j] : a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += m ? a[i + j] * m[i + j] : a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += m ? a[i] * m[i] : a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, m, n2) + pairwise_sum(a + n2, m ? m + n2 : 0, n - n2);
}

/* add.reduceat over one segment of n >= 2 terms. */
static inline double segment_sum(const double *a, const double *m, int64_t n)
{
    return (m ? a[0] * m[0] : a[0]) + pairwise_sum(a + 1, m ? m + 1 : 0, n - 1);
}

/* Net k's pin coordinates (stored in cx / cy unless NULL) and their
   maxima ``hi`` and minima ``lo``, lanes x and y. */
static inline void extremes(const net_csr_t *csr, int64_t k,
                            const double *cell_x, const double *cell_y,
                            double *cx, double *cy, v2d *hi, v2d *lo)
{
    int64_t p = csr->start[k], end = csr->start[k + 1];
    double x = cell_x[csr->cell[p]] + csr->offset_x[p];
    double y = cell_y[csr->cell[p]] + csr->offset_y[p];
    double x_hi = x, x_lo = x, y_hi = y, y_lo = y;
    for (;;) {
        if (cx) {
            cx[p] = x;
            cy[p] = y;
        }
        if (++p == end)
            break;
        x = cell_x[csr->cell[p]] + csr->offset_x[p];
        y = cell_y[csr->cell[p]] + csr->offset_y[p];
        x_hi = np_maximum(x_hi, x);
        x_lo = np_minimum(x_lo, x);
        y_hi = np_maximum(y_hi, y);
        y_lo = np_minimum(y_lo, y);
    }
    *hi = (v2d){x_hi, y_hi};
    *lo = (v2d){x_lo, y_lo};
}

void wl_spans(const net_csr_t *csr, const double *cell_x,
              const double *cell_y, double *span)
{
    for (int64_t k = 0; k < csr->n_nets; k++) {
        v2d hi, lo;
        extremes(csr, k, cell_x, cell_y, 0, 0, &hi, &lo);
        span[csr->net[k]] = hi[0] - lo[0] + hi[1] - lo[1];
    }
}

void wa_exponents(const net_csr_t *csr, const double *cell_x,
                  const double *cell_y, double gamma, double *work)
{
    const int64_t n = csr->n_pins;
    double *cx = work, *cy = work + n;
    double *xp = work + 2 * n, *yp = work + 3 * n, *xn = work + 4 * n, *yn = work + 5 * n;
    for (int64_t k = 0; k < csr->n_nets; k++) {
        v2d hi, lo;
        extremes(csr, k, cell_x, cell_y, cx, cy, &hi, &lo);
        for (int64_t p = csr->start[k]; p < csr->start[k + 1]; p++) {
            v2d xy = {cx[p], cy[p]};
            v2d pos = (xy - hi) / gamma, neg = (lo - xy) / gamma;
            xp[p] = pos[0];
            yp[p] = pos[1];
            xn[p] = neg[0];
            yn[p] = neg[1];
        }
    }
}

void wa_gradient(const net_csr_t *csr, const double *work, double gamma,
                 const double *net_weights, double *span, double *grad_x,
                 double *grad_y)
{
    const int64_t n_pins = csr->n_pins;
    const double *cx = work, *cy = work + n_pins;
    const double *xp = work + 2 * n_pins, *yp = work + 3 * n_pins;
    const double *xn = work + 4 * n_pins, *yn = work + 5 * n_pins;
    for (int64_t k = 0; k < csr->n_nets; k++) {
        int64_t s = csr->start[k], n = csr->start[k + 1] - s;
        v2d b_pos, b_neg, sx_pos, sx_neg;  /* lanes x, y */
        if (n <= 8) {
            /* The rest is under 8 terms, a plain sum: all four in one loop. */
            v2d xy = {cx[s], cy[s]}, pos = {xp[s], yp[s]}, neg = {xn[s], yn[s]};
            v2d r0 = {-0.0, -0.0}, r1 = r0, r2 = r0, r3 = r0;
            for (int64_t p = s + 1; p < s + n; p++) {
                v2d q = {cx[p], cy[p]}, qp = {xp[p], yp[p]}, qn = {xn[p], yn[p]};
                r0 += qp;
                r1 += qn;
                r2 += q * qp;
                r3 += q * qn;
            }
            b_pos = pos + r0;
            b_neg = neg + r1;
            sx_pos = xy * pos + r2;
            sx_neg = xy * neg + r3;
        } else {
            b_pos = (v2d){segment_sum(xp + s, 0, n), segment_sum(yp + s, 0, n)};
            b_neg = (v2d){segment_sum(xn + s, 0, n), segment_sum(yn + s, 0, n)};
            sx_pos = (v2d){segment_sum(cx + s, xp + s, n), segment_sum(cy + s, yp + s, n)};
            sx_neg = (v2d){segment_sum(cx + s, xn + s, n), segment_sum(cy + s, yn + s, n)};
        }
        v2d wa_pos = sx_pos / b_pos, wa_neg = sx_neg / b_neg, v = wa_pos - wa_neg;
        int32_t net = csr->net[k];
        double w = net_weights ? net_weights[net] : 1.0;
        if (net_weights)
            v = v * w;
        span[net] = v[0];
        span[csr->n_design_nets + net] = v[1];
        /* dWL/dx = (a+/b+)(1 + (x - WA+)/gamma) - (a-/b-)(1 - (x - WA-)/gamma) */
        for (int64_t p = s; p < s + n; p++) {
            v2d xy = {cx[p], cy[p]};
            v2d g = ((v2d){xp[p], yp[p]} / b_pos) * (1.0 + (xy - wa_pos) / gamma) -
                    ((v2d){xn[p], yn[p]} / b_neg) * (1.0 - (xy - wa_neg) / gamma);
            if (net_weights)
                g = g * w;
            grad_x[csr->cell[p]] += g[0];
            grad_y[csr->cell[p]] += g[1];
        }
    }
}
