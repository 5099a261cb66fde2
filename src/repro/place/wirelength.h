/* Declarations of the compiled net pass (wirelength.c); also part of the
   cffi cdef, so plain C declarations only. */

/* The nets of >= 2 pins of a design as one CSR, in design net order. */
typedef struct {
    int64_t n_nets, n_pins;
    int64_t n_design_nets;       /* row length of a span array */
    const int64_t *start;        /* (n_nets + 1,) into the pin arrays */
    const int32_t *cell;         /* cell of each pin */
    const double *offset_x, *offset_y;  /* rigid pin offsets */
    const int32_t *net;          /* design net id of each net */
} net_csr_t;

void wl_spans(const net_csr_t *csr, const double *cell_x,
              const double *cell_y, double *span);
/* ``work`` is (6, n_pins): the pin coordinates x and y, then the
   exponents (x - max) / gamma, (y - max) / gamma, (min - x) / gamma and
   (min - y) / gamma, which NumPy's exp replaces in place between the
   two calls. */
void wa_exponents(const net_csr_t *csr, const double *cell_x,
                  const double *cell_y, double gamma, double *work);
void wa_gradient(const net_csr_t *csr, const double *work, double gamma,
                 const double *net_weights, double *span, double *grad_x,
                 double *grad_y);
