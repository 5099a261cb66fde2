/* Declarations of the compiled Steiner-forest builder (rsmt.c); also part of
   the cffi cdef, so plain C declarations only. */

/* A RoutePlan: its routable nets, in ascending net order, as one CSR. */
typedef struct {
    int64_t n_nets;
    const int64_t *pin_start;    /* (n_nets + 1,) into pins */
    const int64_t *pins;         /* global pin ids, each net's in pin order */
    const int64_t *driver;       /* local index of each net's driver pin */
    int64_t max_steiner_degree;  /* MAX_STEINER_DEGREE */
} route_plan_t;

/* The trees of a plan as Forest.from_rows takes them: one row per net, the
   node arrays of the rows concatenated (pins first, then Steiner points). */
typedef struct {
    int64_t *size;               /* (n_nets,) nodes of each tree */
    int64_t *parent;             /* tree-local, -1 at the root */
    int64_t *node_pin;           /* global pin, -1 on a Steiner point */
    int64_t *owner_x, *owner_y;  /* the pin each coordinate is copied from */
    int64_t *depth;              /* edges to the root */
    uint8_t *is_root;
} route_rows_t;

int64_t route_forest(const route_plan_t *plan, const double *px,
                     const double *py, route_rows_t *rows);
