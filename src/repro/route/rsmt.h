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

/* The rows of a Forest (one tree per routed net, in ascending net order,
   the node arrays concatenated), as Forest._assemble flattens them. */
typedef struct {
    int64_t n_nets, n_rows, n_nodes;
    const int64_t *net, *size;   /* (n_rows,) each row's net and node count */
} forest_rows_t;

/* Fills node_offset (n_nets + 1,) and makes the row-local ``parent``
   (n_nodes,; -1 at a root) global in place.  Returns -1; or the first row
   whose net is out of order or range or whose nodes overrun n_nodes
   (n_rows: the rows end short of it); or n_rows + 1 + the first node
   whose parent is outside its row. */
int64_t forest_offsets(const forest_rows_t *rows, int64_t *node_offset,
                       int64_t *parent);

/* The node arrays of a Forest, as Forest._finalize lays its tables out
   from them. */
typedef struct {
    int64_t n_nodes, n_pins;
    const int64_t *parent;       /* global node id, -1 at a root */
    const int64_t *depth;        /* edges to the root */
    const int64_t *node_pin;     /* global pin, -1 on a Steiner point */
} forest_nodes_t;

/* The lengths of the tables, from forest_sizes. */
typedef struct {
    int64_t max_depth, n_roots, n_groups, n_pin_nodes, n_drivers;
} forest_sizes_t;

/* The tables (Forest.level_tables, the pin maps, up and the drivers). */
typedef struct {
    int64_t *order;              /* (n_nodes,) nodes by depth, stable */
    int32_t *parent, *group_of;  /* (n_nodes - n_roots,) of order[n_roots:] */
    int32_t *groups;             /* (n_groups,) the distinct parents */
    int64_t *level_start;        /* (max_depth + 2,) into order */
    int64_t *group_start;        /* (max_depth + 1,) into groups */
    int64_t *pin_node;           /* (n_pins,) node of each pin, or -1 */
    int32_t *up;                 /* (n_nodes,) parent, a root its own */
    int32_t *pin_nodes, *pins_of_nodes;   /* (n_pin_nodes,) */
    int32_t *driver_nodes, *driver_pins;  /* (n_drivers,) */
} forest_tables_t;

/* Checks the node arrays and sizes the tables; ``group`` (n_nodes,) is
   left for forest_tables.  Returns -1, or the first node whose depth,
   parent or pin is out of range. */
int64_t forest_sizes(const forest_nodes_t *f, int32_t *group,
                     forest_sizes_t *sizes);
void forest_tables(const forest_nodes_t *f, const forest_sizes_t *sizes,
                   int32_t *group, forest_tables_t *t);
