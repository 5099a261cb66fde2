/* Declarations of the compiled density pass (density.c); also part of the
   cffi cdef, so plain C declarations only. */

/* The bin grid of a DensityModel and the cells it splats. */
typedef struct {
    int64_t nb;                    /* bins per side, >= 2 */
    double xl, yl, hx, hy;         /* the die's lower corner, the bin size */
    double top;                    /* nb - 1.000001, the stencil's clamp */
    double bin_area, capacity;     /* capacity: target density * bin area */
    double movable_area;           /* total area of the movable cells */
    int64_t n;                     /* movable cells */
    const int64_t *cell;           /* the movable cells, ascending */
    const double *area;            /* (n_cells,) cell areas */
    const double *fixed;           /* (nb, nb) fixed-macro map, or NULL */
    const double *denominator;     /* (nb, nb) Laplacian eigenvalues */
    const double *div_x, *div_y;   /* (nb,) the field's negated spans */
} density_grid_t;

/* The cloud-in-cell stencil of the cells splatted: each cell's first
   corner bin and the weights of its four corners, pass by pass. */
typedef struct {
    int64_t *base;                 /* (n,) */
    double *weight;                /* (4, n) */
} stencil_t;

/* The splat of cells ``cell[0..n)`` into ``rho`` (nb, nb), from 0.0.
   Returns -1, or the first cell with a NaN coordinate (no bin written). */
int64_t density_splat(const density_grid_t *g, int64_t n, const int64_t *cell,
                      const double *x, const double *y, const stencil_t *s,
                      double *rho);
/* The movable cells' splat plus the fixed map: the density map, the
   Poisson source (density less its mean) and the overflow.  Returns as
   density_splat does. */
int64_t density_prepass(const density_grid_t *g, const double *x,
                        const double *y, const stencil_t *s, double *density,
                        double *source, double *overflow);
/* The DCT coefficients of the source, divided in place by the Laplacian
   eigenvalues, the DC term zeroed. */
void density_divide(const density_grid_t *g, double *coeff);
/* The field -grad(phi) into ``field`` (2, nb, nb), the per-cell
   gradients (movable cells only; the rest is left as it is) and the
   energy. */
void density_postpass(const density_grid_t *g, const stencil_t *s,
                      const double *density, const double *phi,
                      double *field, double *grad_x, double *grad_y,
                      double *energy);
