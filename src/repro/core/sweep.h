/* Declarations of the compiled timer (sweep.c); also the cffi cdef, so
   plain C declarations only. */

/* One level of a LevelPlan: its net arcs, its cell-arc contributions and,
   for the golden required-time sweep, their reverse segments. */
typedef struct {
    int64_t net_lo, net_hi;     /* net arcs [net_lo, net_hi) */
    int64_t c_lo, c_hi;         /* contributions [c_lo, c_hi) */
    const int64_t *seg;         /* CellLevel.seg: 2k compact merge segments */
    const int64_t *touched;     /* CellLevel.touched: the segments' slots */
    int64_t n_touched;
    int32_t x_shared;           /* the level's tables share one slew axis */
    const int64_t *src_seg;     /* SourceSegments.seg (k), or NULL */
    const int64_t *src_touched; /* SourceSegments.touched */
    int64_t n_src_touched;
    const int64_t *run_starts;  /* NetRuns.starts, level-relative, or NULL */
    const int64_t *run_drivers; /* NetRuns.drivers */
    int64_t n_runs;
} level_t;

/* The placement-independent side of a sweep: a LevelPlan. */
typedef struct {
    int64_t n_levels;
    level_t *levels;
    int64_t n_pins, n_contribs;
    const int64_t *c_src, *c_dst;  /* pin * 2 + transition */
    const int32_t *lut;            /* (2, n_contribs) delay | slew table ids */
    int32_t y_shared;              /* all those tables share one load axis */
    int64_t n_net_arcs;
    const int64_t *net_sink, *net_src;
    const uint8_t *is_net_sink;    /* (n_pins,) */
    int64_t n_start;
    const int64_t *start_pins;     /* pins holding boundary values */
} plan_t;

/* A LutBank: padded breakpoint axes and values. */
typedef struct {
    const double *values;          /* LutBank.values, flat */
    const double *x_axis, *y_axis; /* LutBank.x (n_tables, nx), .y (.., ny) */
    const int64_t *x_len, *y_len;
    int64_t nx, ny;
} bank_t;

/* One forward sweep: the timer's arrays, the tape and the LUT bank. */
typedef struct {
    double *at, *slew;             /* flat (2 * n_pins,) */
    double *cand;                  /* (2, n_contribs) merge candidates */
    double *delay;                 /* (n_contribs,) arc delays, or NULL */
    double *d_dslew, *d_dload;     /* (2, n_contribs) LUT partials, or NULL */
    const double *net_delay, *impulse2, *driver_load;  /* per pin */
    const bank_t *bank;
    double slew_clip;              /* cell_prop.SLEW_CLIP_MAX */
    double gamma;
    double *work;                  /* LSE: a level's 2k exponents */
    double *seg_max, *seg_sum, *seg_log;  /* LSE: per merge segment */
} sweep_t;

/* The endpoints of a LevelPlan (EndpointTables): setup checks, then
   output ports. */
typedef struct {
    int64_t n_endpoints, n_setup;
    const int64_t *slots;          /* (n_endpoints, 2) pin * 2 + transition */
    const int64_t *setup_lut;      /* (n_setup, 2) rise | fall tables */
    int32_t x_shared, y_shared;    /* those tables share one axis */
    const double *output_delay;    /* (n_endpoints - n_setup,) */
    double period, clock_slew;
} endpoints_t;

/* A Forest: its per-depth tables (Forest.level_tables) and maps. */
typedef struct {
    int64_t n_nodes, max_depth, n_pins;
    const int64_t *order;          /* nodes by depth */
    const int32_t *parent;         /* parent of order[n_roots:] */
    const int32_t *group_of;       /* its compact parent group */
    const int32_t *groups;         /* the distinct parents, by depth */
    const int64_t *level_start;    /* (max_depth + 2,) into order */
    const int64_t *group_start;    /* (max_depth + 1,) into groups */
    const int32_t *up;             /* parent, a root its own */
    const int64_t *owner_x, *owner_y;  /* pin owning each coordinate */
    int64_t n_pin_nodes, n_drivers;
    const int32_t *pin_nodes, *pins_of_nodes;
    const int32_t *driver_nodes, *driver_pins;
    double *scratch;               /* the widest depth's groups */
} forest_t;

/* ElmoreResult: per node. */
typedef struct {
    double *edge_res, *cap, *load, *delay, *ldelay, *beta;
    int8_t *dir_x, *dir_y;
} elmore_t;

/* The wire model and the wire-delay metric. */
typedef struct {
    double res_per_um, cap_per_um;
    int32_t d2m;                   /* net delay by D2M instead of Elmore */
    double ln2;                    /* NumPy's log(2.0) */
} wire_t;

/* The differentiable timer's backward pass: seeds, tape and design. */
typedef struct {
    int64_t n_seeds;
    const double *seeds;           /* (n_seeds, 2): d_tns, d_wns */
    const double *g_tns, *w_ep;    /* (n_endpoints,) */
    const double *w_t;             /* (n_endpoints, 2) */
    const double *dsetup;          /* (n_setup, 2) setup slew partials */
    const double *w_cand;          /* (2, n_contribs) merge weights */
    const double *d_dslew, *d_dload, *slew;
    const double *dd_dm1, *dd_dm2; /* D2M chain per pin node, or NULL */
    int64_t n_cells, n_fixed;
    const int64_t *pin2cell, *fixed;
    double *work;                  /* adjoint_work_size(...) doubles */
    double *g_cells;               /* (2, n_seeds, n_cells) */
} adjoint_t;

void sweep_exact(const plan_t *plan, sweep_t *sw, int32_t merge_min);
void lse_step(const plan_t *plan, sweep_t *sw, int64_t merged, int64_t level);
void lse_sum(const plan_t *plan, sweep_t *sw, int64_t level);
void start_state(const plan_t *plan, double *at, double *slew,
                 double fill_at, double fill_slew, const double *start_at,
                 const double *start_slew);
void zero_clipped(const plan_t *plan, sweep_t *sw);
void sweep_required(const plan_t *plan, double *rat, const double *arc_delay,
                    const double *net_delay, double *scratch);
void endpoint_slacks(const endpoints_t *ep, const bank_t *bank,
                     double slew_clip, const double *at, const double *slew,
                     const double *ck_at, const double *ck_slew,
                     double *rat, double *ep_slack_t, double *dsetup);
void elmore_forward(const forest_t *f, const double *x, const double *y,
                    int32_t at_pins, const double *intrinsic_cap,
                    const wire_t *wire, elmore_t *e, double *pins);
void elmore_adjoint(const forest_t *f, const elmore_t *e, const wire_t *wire,
                    int64_t n_rows, double *g_delay, double *g_imp2,
                    double *g_load, const double *g_beta, double *g_x,
                    double *g_y, double *work);
void cand_exponents(const plan_t *plan, const double *at, const double *slew,
                    const double *cand, double gamma, double *out);
int64_t adjoint_work_size(const plan_t *plan, const forest_t *f);
void timer_adjoint(const plan_t *plan, const endpoints_t *ep,
                   const forest_t *f, const elmore_t *e, const wire_t *wire,
                   const adjoint_t *a);
