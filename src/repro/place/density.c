/* The compiled density pass: the electrostatic density term of a placer
   iteration, a C pre-pass and post-pass around SciPy's DCT round trip.

   Every value reproduces, bit for bit, the NumPy pipeline kept as the
   oracle in tests/reference_density.py: the stencil is computed with its
   operations in its order (offset, clamp, floor, the fused weights); the
   splat adds the four corner passes in sequence, each over the cells in
   order, from 0.0, as np.bincount adds them; every sum over the grid is
   NumPy's pairwise sum over all its bins; the gather associates as
   ((a * w00 + b * w10) + c * w01) + d * w11.  The file is built with
   -ffp-contract=off, so no multiply-add is fused. */

#include <math.h>
#include <stdint.h>

#include "density.h"
#include "pairwise.h"

static inline double np_maximum(double a, double b)
{
    return (isnan(a) || a > b) ? a : b;
}

static inline double np_minimum(double a, double b)
{
    return (isnan(a) || a < b) ? a : b;
}

/* Grid coordinate of a cell center, clamped to the stencil's range. */
static inline double grid_coordinate(double v, double lo, double h, double top)
{
    return np_minimum(np_maximum((v - lo) / h - 0.5, 0.0), top);
}

int64_t density_splat(const density_grid_t *g, int64_t n, const int64_t *cell,
                      const double *x, const double *y, const stencil_t *s,
                      double *rho)
{
    const int64_t nb = g->nb;
    double *w00 = s->weight, *w10 = w00 + n, *w01 = w10 + n, *w11 = w01 + n;
    for (int64_t k = 0; k < n; k++)
        if (isnan(x[cell[k]]) || isnan(y[cell[k]]))
            return cell[k];
    for (int64_t k = 0; k < n; k++) {
        int64_t i = cell[k];
        double gx = grid_coordinate(x[i], g->xl, g->hx, g->top);
        double gy = grid_coordinate(y[i], g->yl, g->hy, g->top);
        /* floor(): the clamp leaves gx, gy >= 0, where it truncates. */
        double ix = (double)(int64_t)gx, iy = (double)(int64_t)gy;
        double fx = gx - ix, fy = gy - iy;
        double ax = g->area[i] * (1.0 - fx), bx = g->area[i] * fx;
        w00[k] = ax * (1.0 - fy);
        w10[k] = bx * (1.0 - fy);
        w01[k] = ax * fy;
        w11[k] = bx * fy;
        s->base[k] = (int64_t)ix * nb + (int64_t)iy;
    }
    for (int64_t b = 0; b < nb * nb; b++)
        rho[b] = 0.0;
    const int64_t corner[4] = {0, nb, 1, nb + 1};
    for (int c = 0; c < 4; c++) {
        const double *w = s->weight + c * n;
        for (int64_t k = 0; k < n; k++)
            rho[s->base[k] + corner[c]] += w[k];
    }
    return -1;
}

int64_t density_prepass(const density_grid_t *g, const double *x,
                        const double *y, const stencil_t *s, double *density,
                        double *source, double *overflow)
{
    const int64_t bins = g->nb * g->nb;
    double *rho = source;  /* the splat, until the source replaces it */
    int64_t bad = density_splat(g, g->n, g->cell, x, y, s, rho);
    if (bad >= 0)
        return bad;
    for (int64_t b = 0; b < bins; b++) {
        if (g->fixed)
            rho[b] = rho[b] + g->fixed[b];
        density[b] = rho[b] / g->bin_area;
        rho[b] = np_maximum(rho[b] - g->capacity, 0.0);
    }
    *overflow = pairwise_sum(rho, 0, bins) / g->movable_area;
    double mean = pairwise_sum(density, 0, bins) / (double)bins;
    for (int64_t b = 0; b < bins; b++)
        source[b] = density[b] - mean;
    return -1;
}

void density_divide(const density_grid_t *g, double *coeff)
{
    for (int64_t b = 0; b < g->nb * g->nb; b++)
        coeff[b] = coeff[b] / g->denominator[b];
    coeff[0] = 0.0;
}

void density_postpass(const density_grid_t *g, const stencil_t *s,
                      const double *density, const double *phi,
                      double *field, double *grad_x, double *grad_y,
                      double *energy)
{
    const int64_t nb = g->nb, n = g->n;
    double *ex = field, *ey = field + nb * nb;
    /* Central differences inside the grid, one-sided at its edges: the
       expressions of np.gradient, divided by the negated spans. */
    for (int64_t i = 0; i < nb; i++) {
        const double *lo = phi + (i ? i - 1 : 0) * nb;
        const double *hi = phi + (i < nb - 1 ? i + 1 : nb - 1) * nb;
        const double *row = phi + i * nb;
        for (int64_t j = 0; j < nb; j++) {
            ex[i * nb + j] = (hi[j] - lo[j]) / g->div_x[i];
            double left = row[j ? j - 1 : 0], right = row[j < nb - 1 ? j + 1 : nb - 1];
            ey[i * nb + j] = (right - left) / g->div_y[j];
        }
    }
    const double *w00 = s->weight, *w10 = w00 + n, *w01 = w10 + n, *w11 = w01 + n;
    for (int64_t k = 0; k < n; k++) {
        int64_t b = s->base[k];
        double gx = ((ex[b] * w00[k] + ex[b + nb] * w10[k]) + ex[b + 1] * w01[k]) +
                    ex[b + nb + 1] * w11[k];
        double gy = ((ey[b] * w00[k] + ey[b + nb] * w10[k]) + ey[b + 1] * w01[k]) +
                    ey[b + nb + 1] * w11[k];
        grad_x[g->cell[k]] = -gx;
        grad_y[g->cell[k]] = -gy;
    }
    *energy = 0.5 * pairwise_sum(density, phi, nb * nb) * g->bin_area;
}
