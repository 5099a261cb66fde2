/* Declarations of the compiled timing sweep (sweep.c); also the cffi cdef,
   so plain C declarations only. */

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
    int64_t n_contribs;
    const int64_t *c_src, *c_dst;  /* pin * 2 + transition */
    const int32_t *lut;            /* (2, n_contribs) delay | slew table ids */
    const int64_t *net_sink, *net_src;
} plan_t;

/* One forward sweep: the timer's arrays, the tape and the LUT bank. */
typedef struct {
    double *at, *slew;             /* flat (2 * n_pins,) */
    double *cand;                  /* (2, n_contribs) merge candidates */
    double *delay;                 /* (n_contribs,) arc delays, or NULL */
    double *d_dslew, *d_dload;     /* (2, n_contribs) LUT partials, or NULL */
    const int64_t *corner;         /* LoadSide.corner, (2, n_contribs) */
    const double *ty, *dy;         /* LoadSide.ty / .dy */
    int64_t load_stride;           /* their row stride: 0 or n_contribs */
    const double *net_delay, *impulse2;  /* per pin */
    const double *values;          /* LutBank.values, flat */
    const double *x_axis;          /* LutBank.x, (n_tables, nx) */
    const int64_t *x_len;          /* LutBank.x_len */
    int64_t nx, ny;
    double slew_clip;              /* cell_prop.SLEW_CLIP_MAX */
    double gamma;
    double *work;                  /* LSE: a level's 2k exponents */
    double *seg_max, *seg_sum, *seg_log;  /* LSE: per merge segment */
} sweep_t;

/* Flat per-depth tables of a Forest (Forest.level_tables). */
typedef struct {
    int64_t n_nodes, max_depth;
    const int64_t *order;          /* nodes by depth */
    const int32_t *parent;         /* parent of order[n_roots:] */
    const int32_t *group_of;       /* its compact parent group */
    const int32_t *groups;         /* the distinct parents, by depth */
    const int64_t *level_start;    /* (max_depth + 2,) into order */
    const int64_t *group_start;    /* (max_depth + 1,) into groups */
} forest_t;

void sweep_exact(const plan_t *plan, sweep_t *sw, int32_t merge_min);
void lse_candidates(const plan_t *plan, sweep_t *sw, int64_t level);
void lse_sum(const plan_t *plan, sweep_t *sw, int64_t level);
void lse_merge(const plan_t *plan, sweep_t *sw, int64_t level);
void zero_clipped(const plan_t *plan, sweep_t *sw);
void sweep_adjoint(const plan_t *plan, double *g_at, double *g_slew,
                   int64_t n_seeds, int64_t n_slots, const double *w_cand,
                   const double *d_dslew, const double *slew);
void sweep_required(const plan_t *plan, double *rat, const double *arc_delay,
                    const double *net_delay, double *scratch);
void elmore_moments(const forest_t *f, const double *cap,
                    const double *edge_res, double *load, double *delay,
                    double *ldelay, double *beta, double *scratch);
void tree_sum_into_parents(const forest_t *f, double *g, int64_t n_rows);
void tree_add_from_parents(const forest_t *f, double *g, int64_t n_rows);
