/* The compiled timer: the timers' level sweeps, the Elmore model and its
   adjoint, the endpoint required times and everything between them, one
   C loop where NumPy took one call per operation per level.

   Every kernel reproduces, bit for bit, the NumPy program it replaced
   (kept as the oracle in tests/reference_sweep.py and
   tests/reference_timer.py): the same operations on the same operands in
   the same order - scatters fold into each slot in input order, a
   segment or bin sum starts from 0.0 - and NumPy's rules for maximum /
   minimum (a NaN operand wins, a tie goes to the second operand).  The
   file is built with -ffp-contract=off, so no multiply-add is fused.
   Only exp and log are left to NumPy, whose vectorised versions round
   differently from the C library's in the last bit: an LSE sweep is, per
   level with cell arcs, lse_step, NumPy's exp, lse_sum and NumPy's log,
   and the backward pass cand_exponents, NumPy's exp and timer_adjoint. */

#include <math.h>
#include <stdint.h>

#include "sweep.h"

#define SENTINEL (-1e30)     /* smoothing._SENTINEL: an empty merge */
#define EXP_FLOOR (-700.0)   /* the clamp of every LSE exponent */

static inline double np_maximum(double a, double b)
{
    return (isnan(a) || a > b) ? a : b;
}

static inline double np_minimum(double a, double b)
{
    return (isnan(a) || a < b) ? a : b;
}

/* ------------------------------------------------------------------ */
/* Forward: net arcs, LUT lookups, merges                              */
/* ------------------------------------------------------------------ */

/* AT(v) = AT(u) + Delay(v), Slew(v) = sqrt(Slew(u)^2 + Impulse(v)^2) over
   the level's net arcs, both transitions. */
static void net_arcs(const plan_t *p, sweep_t *sw, const level_t *lv)
{
    for (int64_t j = lv->net_lo; j < lv->net_hi; j++) {
        int64_t sink = p->net_sink[j], src = p->net_src[j];
        double delay = sw->net_delay[sink], impulse2 = sw->impulse2[sink];
        for (int t = 0; t < 2; t++) {
            double s = sw->slew[2 * src + t];
            sw->at[2 * sink + t] = sw->at[2 * src + t] + delay;
            sw->slew[2 * sink + t] = sqrt(s * s + impulse2);
        }
    }
}

/* LutBank._cell along one dimension of table ``id`` (its padded axis row
   of ``n_cols`` breakpoints, ``len`` of them real): the boundary cell of
   query ``q``, its lower breakpoint and width.  A batch on one shared axis
   is located by searchsorted, which puts NaN past the last cell; a mixed
   batch by a compare-and-count, which puts it in the first. */
static inline int64_t axis_cell(const double *axes, const int64_t *len,
                                int64_t n_cols, int64_t id, int shared,
                                double q, double *q0, double *dq)
{
    const double *axis = axes + id * n_cols;
    int64_t last = len[id] - 2, i;
    if (shared && isnan(q)) {
        i = last;
    } else {
        int64_t count = 0;
        for (int64_t k = 0; k < n_cols; k++)
            count += axis[k] <= q;
        i = count - 1;
        if (i < 0)
            i = 0;
        if (i > last)
            i = last;
    }
    *q0 = axis[i];
    *dq = axis[i + 1] - axis[i];
    return i;
}

/* LutBank.interpolate of table ``id`` at slew cell ``i`` (``tx`` = (x -
   x0) / dx) and load cell ``j`` (``ty`` = (y - y0) / dy).  Returns the
   value; with ``d_dx`` also both partials (LutBank's ``partials``). */
static inline double lut_value(const bank_t *b, int64_t id, int64_t i,
                               double tx, double dx, int64_t j, double ty,
                               double dy, double *d_dx, double *d_dy)
{
    const double *q = b->values + id * b->nx * b->ny + j + i * b->ny;
    double e0 = q[1] - q[0], e1 = q[b->ny + 1] - q[b->ny];
    double y0 = q[0] + ty * e0, y1 = q[b->ny] + ty * e1;
    double dv = y1 - y0;
    if (d_dx) {
        *d_dx = dv / dx;
        e0 /= dy;
        e1 /= dy;
        *d_dy = e0 + tx * (e1 - e0);
    }
    return y0 + tx * dv;
}

/* The query clip of every LUT slew: clip_slew. */
static inline double clip_slew(double s, double bound)
{
    return np_minimum(np_maximum(s, 0.0), bound);
}

/* The level's merge candidates (LutBank.interpolate at the clipped source
   slews and the sinks' net loads, then AT(u) + Delay_u(v)), written to
   the tape with the arc delays and the LUT partials where it has rows for
   them.  A contribution's load is its sink pin's driver_load, located on
   the load axis as LutBank.locate_load places the whole plan's batch. */
static void cell_candidates(const plan_t *p, sweep_t *sw, const level_t *lv)
{
    const int64_t n = p->n_contribs;
    const bank_t *b = sw->bank;
    for (int64_t c = lv->c_lo; c < lv->c_hi; c++) {
        double x = clip_slew(sw->slew[p->c_src[c]], sw->slew_clip);
        double y = sw->driver_load[p->c_dst[c] >> 1];
        double x0, dx = 1.0, y0, dy = 1.0, tx = 0.0, ty = 0.0;
        int64_t i = 0, j = 0;
        for (int r = 0; r < 2; r++) {
            int64_t rc = r * n + c, id = p->lut[rc];
            /* On a shared axis both tables put a query in the same cell. */
            if (r == 0 || !lv->x_shared) {
                i = axis_cell(b->x_axis, b->x_len, b->nx, id, lv->x_shared,
                              x, &x0, &dx);
                tx = (x - x0) / dx;
            }
            if (r == 0 || !p->y_shared) {
                j = axis_cell(b->y_axis, b->y_len, b->ny, id, p->y_shared,
                              y, &y0, &dy);
                ty = (y - y0) / dy;
            }
            double partials[2];
            double value = lut_value(b, id, i, tx, dx, j, ty, dy,
                                     sw->d_dslew ? &partials[0] : 0,
                                     &partials[1]);
            if (sw->d_dslew) {
                sw->d_dslew[rc] = partials[0];
                sw->d_dload[rc] = partials[1];
            }
            if (r == 0) {
                if (sw->delay)
                    sw->delay[c] = value;
                value += sw->at[p->c_src[c]];
            }
            sw->cand[rc] = value;
        }
    }
}

/* segment_max over the level's stacked AT | slew candidates, each negated
   first with ``negate`` (the early mode's -max(-x)). */
static void segment_maxima(const plan_t *p, sweep_t *sw, const level_t *lv,
                           int negate)
{
    const int64_t k = lv->c_hi - lv->c_lo;
    double *m = sw->seg_max;
    for (int64_t s = 0; s < 2 * lv->n_touched; s++)
        m[s] = SENTINEL;
    for (int r = 0; r < 2; r++) {
        const double *cand = sw->cand + r * p->n_contribs + lv->c_lo;
        const int64_t *seg = lv->seg + r * k;
        for (int64_t c = 0; c < k; c++) {
            double v = negate ? -cand[c] : cand[c];
            m[seg[c]] = np_maximum(m[seg[c]], v);
        }
    }
}

/* Merged values of the level's segments into the AT | slew slots. */
static void scatter_merged(sweep_t *sw, const level_t *lv, const double *merged)
{
    for (int64_t s = 0; s < lv->n_touched; s++) {
        sw->at[lv->touched[s]] = merged[s];
        sw->slew[lv->touched[s]] = merged[lv->n_touched + s];
    }
}

/* The whole sweep with an exact merge: late (max, slews from 0) or early
   (min). */
void sweep_exact(const plan_t *plan, sweep_t *sw, int32_t merge_min)
{
    for (int64_t l = 0; l < plan->n_levels; l++) {
        const level_t *lv = &plan->levels[l];
        net_arcs(plan, sw, lv);
        if (lv->c_hi == lv->c_lo)
            continue;
        cell_candidates(plan, sw, lv);
        segment_maxima(plan, sw, lv, merge_min);
        double *m = sw->seg_max;
        int64_t nt = lv->n_touched;
        if (merge_min) {
            for (int64_t s = 0; s < 2 * nt; s++)
                m[s] = -m[s];
        } else {
            for (int64_t s = nt; s < 2 * nt; s++)
                m[s] = np_maximum(m[s], 0.0);
        }
        scatter_merged(sw, lv, m);
    }
}

/* LSE cell level, first part: its candidates, segment maxima and each
   candidate's clamped exponent (x - max) / gamma into ``work``. */
static void lse_candidates(const plan_t *plan, sweep_t *sw,
                           const level_t *lv)
{
    cell_candidates(plan, sw, lv);
    segment_maxima(plan, sw, lv, 0);
    const int64_t k = lv->c_hi - lv->c_lo;
    for (int r = 0; r < 2; r++) {
        const double *cand = sw->cand + r * plan->n_contribs + lv->c_lo;
        const int64_t *seg = lv->seg + r * k;
        double *z = sw->work + r * k;
        for (int64_t c = 0; c < k; c++) {
            double e = (cand[c] - sw->seg_max[seg[c]]) / sw->gamma;
            z[c] = np_minimum(np_maximum(e, EXP_FLOOR), 0.0);
        }
    }
}

/* LSE level, second part: the segment sums of the exponentials (a
   bincount, in candidate order) and the log argument of each segment. */
void lse_sum(const plan_t *plan, sweep_t *sw, int64_t level)
{
    const level_t *lv = &plan->levels[level];
    const int64_t k = lv->c_hi - lv->c_lo, n_seg = 2 * lv->n_touched;
    double *s = sw->seg_sum;
    for (int64_t i = 0; i < n_seg; i++)
        s[i] = 0.0;
    for (int64_t i = 0; i < 2 * k; i++)
        s[lv->seg[i]] += sw->work[i];
    for (int64_t i = 0; i < n_seg; i++)
        sw->seg_log[i] = s[i] > 0 ? s[i] : 1.0;
}

/* LSE cell level, last part: max + gamma * log(sum) where the sum is
   positive, the sentinel where it is not, into the AT | slew slots. */
static void lse_merge(sweep_t *sw, const level_t *lv)
{
    const int64_t n_seg = 2 * lv->n_touched;
    double *out = sw->seg_log;
    for (int64_t i = 0; i < n_seg; i++) {
        double merged = sw->seg_max[i] + sw->gamma * out[i];
        out[i] = sw->seg_sum[i] > 0 ? merged : SENTINEL;
    }
    scatter_merged(sw, lv, out);
}

/* The LSE sweep between two NumPy calls: the merge of cell level
   ``merged`` (none if negative), the net arcs of the levels after it up
   to ``level`` and the first part of cell level ``level`` (none past the
   last level). */
void lse_step(const plan_t *plan, sweep_t *sw, int64_t merged, int64_t level)
{
    if (merged >= 0)
        lse_merge(sw, &plan->levels[merged]);
    for (int64_t l = merged + 1; l <= level && l < plan->n_levels; l++)
        net_arcs(plan, sw, &plan->levels[l]);
    if (level < plan->n_levels)
        lse_candidates(plan, sw, &plan->levels[level]);
}

/* The timer arrays' start state: ``fill_at`` / ``fill_slew`` everywhere
   but at the plan's start pins, which take ``start_at`` / ``start_slew``
   ((n_start, 2) rows). */
void start_state(const plan_t *plan, double *at, double *slew,
                 double fill_at, double fill_slew, const double *start_at,
                 const double *start_slew)
{
    for (int64_t i = 0; i < 2 * plan->n_pins; i++) {
        at[i] = fill_at;
        slew[i] = fill_slew;
    }
    for (int64_t k = 0; k < plan->n_start; k++) {
        for (int t = 0; t < 2; t++) {
            at[2 * plan->start_pins[k] + t] = start_at[2 * k + t];
            slew[2 * plan->start_pins[k] + t] = start_slew[2 * k + t];
        }
    }
}

/* Where the slew clip was active the lookup saw a constant: zero the taped
   slew partials of those contributions (a source's slew is final once its
   level is swept, so this runs once, after the sweep). */
void zero_clipped(const plan_t *plan, sweep_t *sw)
{
    const int64_t n = plan->n_contribs;
    for (int64_t c = 0; c < n; c++) {
        double s = sw->slew[plan->c_src[c]];
        if (s < 0.0 || s > sw->slew_clip)
            sw->d_dslew[c] = sw->d_dslew[n + c] = 0.0;
    }
}

/* ------------------------------------------------------------------ */
/* Backward: the differentiable timer's level sweep                     */
/* ------------------------------------------------------------------ */

/* Equations (10) and (12) level by level, from the last, for one seed:
   the sink gradients of a level are final when it is swept, and its cell
   arcs (merge weight into AT(u), both LUT slew partials into Slew(u)) go
   before its net arcs (straight into AT(u), Slew(u) / Slew(v) into
   Slew(u), ``ratio`` per net-arc slot). */
static void sweep_adjoint(const plan_t *plan, double *g_at, double *g_slew,
                          const double *w_cand, const double *d_dslew,
                          const double *ratio)
{
    const int64_t n = plan->n_contribs;
    for (int64_t l = plan->n_levels - 1; l >= 0; l--) {
        const level_t *lv = &plan->levels[l];
        for (int64_t c = lv->c_lo; c < lv->c_hi; c++) {
            int64_t dst = plan->c_dst[c], src = plan->c_src[c];
            double g0 = g_at[dst] * w_cand[c];
            double g1 = g_slew[dst] * w_cand[n + c];
            g_at[src] += g0;
            g_slew[src] += g0 * d_dslew[c] + g1 * d_dslew[n + c];
        }
        for (int64_t j = lv->net_lo; j < lv->net_hi; j++) {
            for (int t = 0; t < 2; t++) {
                int64_t sink = 2 * plan->net_sink[j] + t;
                int64_t src = 2 * plan->net_src[j] + t;
                g_at[src] += g_at[sink];
                g_slew[src] += g_slew[sink] * ratio[2 * j + t];
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* Golden required times                                                */
/* ------------------------------------------------------------------ */

/* Backward RAT propagation of the late mode, levels from the last: a cell
   level's sources take min(RAT(v) - Delay) over their compact source
   segments, a net level's drivers the minimum over each net's arc run.
   ``scratch`` holds the widest level's source segments. */
void sweep_required(const plan_t *plan, double *rat, const double *arc_delay,
                    const double *net_delay, double *scratch)
{
    for (int64_t l = plan->n_levels - 1; l >= 0; l--) {
        const level_t *lv = &plan->levels[l];
        if (lv->c_hi > lv->c_lo) {
            for (int64_t q = 0; q < lv->n_src_touched; q++)
                scratch[q] = SENTINEL;
            for (int64_t c = lv->c_lo; c < lv->c_hi; c++) {
                int64_t q = lv->src_seg[c - lv->c_lo];
                double v = arc_delay[c] - rat[plan->c_dst[c]];
                scratch[q] = np_maximum(scratch[q], v);
            }
            for (int64_t q = 0; q < lv->n_src_touched; q++) {
                int64_t slot = lv->src_touched[q];
                rat[slot] = np_minimum(rat[slot], -scratch[q]);
            }
        }
        const int64_t n_arcs = lv->net_hi - lv->net_lo;
        for (int64_t r = 0; r < lv->n_runs; r++) {
            int64_t a = lv->net_lo + lv->run_starts[r];
            int64_t b = lv->net_lo + (r + 1 < lv->n_runs ? lv->run_starts[r + 1] : n_arcs);
            int64_t driver = lv->run_drivers[r];
            for (int t = 0; t < 2; t++) {
                int64_t sink = plan->net_sink[a];
                double worst = rat[2 * sink + t] - net_delay[sink];
                for (int64_t j = a + 1; j < b; j++) {
                    sink = plan->net_sink[j];
                    worst = np_minimum(worst, rat[2 * sink + t] - net_delay[sink]);
                }
                rat[2 * driver + t] = np_minimum(rat[2 * driver + t], worst);
            }
        }
    }
}


/* ------------------------------------------------------------------ */
/* Endpoint required times and slacks                                   */
/* ------------------------------------------------------------------ */

/* Required times at the endpoints, golden STA's and the timer's: T +
   at_ck - setup(slew_D, slew_ck) at a setup check (the data slew clipped
   to [0, slew_clip] as every LUT query is), T - output_delay at an output
   port.  Under the ideal clock ``ck_at`` is NULL (0.0) and ``ck_slew``
   NULL (the library's clock slew).  Writes what it is given: the required
   times into their slots of the flat ``rat``, the slacks rat - at per
   endpoint and transition into ``ep_slack_t``, and the setup time's slew
   partials (0 where the clip is active) into ``dsetup``. */
void endpoint_slacks(const endpoints_t *ep, const bank_t *bank,
                     double slew_clip, const double *at, const double *slew,
                     const double *ck_at, const double *ck_slew,
                     double *rat, double *ep_slack_t, double *dsetup)
{
    for (int64_t e = 0; e < ep->n_endpoints; e++) {
        for (int t = 0; t < 2; t++) {
            int64_t slot = ep->slots[2 * e + t];
            double required;
            if (e < ep->n_setup) {
                double raw = slew[slot], x = clip_slew(raw, slew_clip);
                double y = ck_slew ? ck_slew[e] : ep->clock_slew;
                int64_t id = ep->setup_lut[2 * e + t];
                double x0, dx, y0, dy, d_dx, d_dy;
                int64_t i = axis_cell(bank->x_axis, bank->x_len, bank->nx, id,
                                      ep->x_shared, x, &x0, &dx);
                int64_t j = axis_cell(bank->y_axis, bank->y_len, bank->ny, id,
                                      ep->y_shared, y, &y0, &dy);
                double setup = lut_value(bank, id, i, (x - x0) / dx, dx, j,
                                         (y - y0) / dy, dy, &d_dx, &d_dy);
                required = (ep->period + (ck_at ? ck_at[e] : 0.0)) - setup;
                if (dsetup)
                    dsetup[2 * e + t] =
                        (raw < 0.0 || raw > slew_clip) ? 0.0 : d_dx;
            } else {
                required = ep->period - ep->output_delay[e - ep->n_setup];
            }
            if (rat)
                rat[slot] = required;
            if (ep_slack_t)
                ep_slack_t[2 * e + t] = required - at[slot];
        }
    }
}

/* ------------------------------------------------------------------ */
/* Elmore model: Equation (7) and its adjoint, Equation (8)             */
/* ------------------------------------------------------------------ */

/* Bottom-up values[u] += sum_child values[v], a depth at a time: each
   parent adds one sum of its children, folded from 0.0 in node order. */
static void group_sums(const forest_t *f, double *values)
{
    double *scratch = f->scratch;
    for (int64_t d = f->max_depth; d >= 1; d--) {
        int64_t a = f->level_start[d], b = f->level_start[d + 1];
        int64_t roots = f->level_start[1];
        const int32_t *groups = f->groups + f->group_start[d - 1];
        int64_t n_groups = f->group_start[d] - f->group_start[d - 1];
        for (int64_t g = 0; g < n_groups; g++)
            scratch[g] = 0.0;
        for (int64_t i = a; i < b; i++)
            scratch[f->group_of[i - roots]] += values[f->order[i]];
        for (int64_t g = 0; g < n_groups; g++)
            values[groups[g]] += scratch[g];
    }
}

/* Top-down values[v] = values[fa(v)] + res[v] * src[v], roots left as
   they are. */
static void parent_steps(const forest_t *f, double *values,
                         const double *res, const double *src)
{
    int64_t roots = f->level_start[1];
    for (int64_t i = roots; i < f->level_start[f->max_depth + 1]; i++) {
        int64_t v = f->order[i];
        values[v] = values[f->parent[i - roots]] + res[v] * src[v];
    }
}

/* Equation (7) over the forest at node coordinates ``x``/``y`` or, with
   ``at_pins``, at pin coordinates that each node reads through the pins
   owning its coordinates (Forest.node_coords).  Each edge's rectilinear
   length gives its resistance and half its wire capacitance to either end
   (a root's own zero-length edge adds an exact 0.0 to itself; the halves
   a parent receives are summed from 0.0 in node order, as a bincount);
   then the four passes: Load (bottom-up, Cap plus the children's loads),
   Delay (top-down, the parent's plus Res * Load), LDelay (bottom-up over
   Cap * Delay) and Beta (top-down, the parent's plus Res * LDelay).
   With ``pins`` also the timers' per-pin inputs, (3, n_pins), zero off
   the forest: the wire delay at pin nodes (Elmore, or D2M = ln2 * m1^2 /
   sqrt(m2), 0 where m2 <= 0), the squared impulse max(2 Beta - Delay^2,
   0) there and the net load at the driver pins. */
void elmore_forward(const forest_t *f, const double *x, const double *y,
                    int32_t at_pins, const double *intrinsic_cap,
                    const wire_t *wire, elmore_t *e, double *pins)
{
    const int64_t n = f->n_nodes;
    const double half = 0.5 * wire->cap_per_um;
    double *halves = e->ldelay;
    for (int64_t v = 0; v < n; v++)
        halves[v] = 0.0;
    for (int64_t v = 0; v < n; v++) {
        int64_t u = f->up[v];
        double dx, dy;
        if (at_pins) {
            dx = x[f->owner_x[v]] - x[f->owner_x[u]];
            dy = y[f->owner_y[v]] - y[f->owner_y[u]];
        } else {
            dx = x[v] - x[u];
            dy = y[v] - y[u];
        }
        double len = fabs(dx) + fabs(dy), half_wire = half * len;
        e->edge_res[v] = wire->res_per_um * len;
        e->cap[v] = intrinsic_cap[v] + half_wire;
        halves[u] += half_wire;
        e->dir_x[v] = (int8_t)((dx > 0) - (dx < 0));
        e->dir_y[v] = (int8_t)((dy > 0) - (dy < 0));
    }
    for (int64_t v = 0; v < n; v++) {
        e->cap[v] += halves[v];
        e->load[v] = e->cap[v];
        e->delay[v] = e->beta[v] = 0.0;
    }
    group_sums(f, e->load);
    /* Delay top-down, and Cap * Delay of each node once its delay is
       final. */
    const int64_t roots = f->level_start[1];
    for (int64_t i = 0; i < n; i++) {
        int64_t v = f->order[i];
        if (i >= roots)
            e->delay[v] = e->delay[f->parent[i - roots]]
                          + e->edge_res[v] * e->load[v];
        e->ldelay[v] = e->cap[v] * e->delay[v];
    }
    group_sums(f, e->ldelay);
    parent_steps(f, e->beta, e->edge_res, e->ldelay);
    if (!pins)
        return;

    double *net_delay = pins, *impulse2 = pins + f->n_pins;
    double *driver_load = pins + 2 * f->n_pins;
    for (int64_t p = 0; p < 3 * f->n_pins; p++)
        pins[p] = 0.0;
    for (int64_t k = 0; k < f->n_pin_nodes; k++) {
        int64_t v = f->pin_nodes[k], pin = f->pins_of_nodes[k];
        double d = e->delay[v], b = e->beta[v];
        if (wire->d2m) {
            double d2m = wire->ln2 * d * d / sqrt(np_maximum(b, 1e-30));
            net_delay[pin] = b > 0 ? d2m : 0.0;
        } else {
            net_delay[pin] = d;
        }
        impulse2[pin] = np_maximum(2.0 * b - d * d, 0.0);
    }
    for (int64_t k = 0; k < f->n_drivers; k++)
        driver_load[f->driver_pins[k]] = e->load[f->driver_nodes[k]];
}

/* Adjoint of a top-down pass: g[fa(v)] += g[v], deepest level first, one
   child at a time. */
static void sum_into_parents(const forest_t *f, double *g)
{
    int64_t roots = f->level_start[1];
    for (int64_t d = f->max_depth; d >= 1; d--)
        for (int64_t i = f->level_start[d]; i < f->level_start[d + 1]; i++)
            g[f->parent[i - roots]] += g[f->order[i]];
}

/* Adjoint of a bottom-up pass: g[v] += g[fa(v)], roots first. */
static void add_from_parents(const forest_t *f, double *g)
{
    int64_t roots = f->level_start[1];
    for (int64_t i = roots; i < f->level_start[f->max_depth + 1]; i++) {
        int64_t v = f->order[i];
        g[v] = g[v] + g[f->parent[i - roots]];
    }
}

/* Equation (8) for one objective, in its node-gradient buffers: from d/d
   Delay, d/d Impulse^2, d/d Load (at roots) and optionally a direct d/d
   Beta to d/d node coordinates.  The passes of Equation (7) in reverse:
   impulse^2 = 2 Beta - Delay^2 first, then the Beta, LDelay, Delay and
   Load passes, each a node's local terms once its sweep is complete,
   then edge lengths (res = r * len, the wire cap half-lumped on both
   ends) and the rectilinear length's sign subgradient, each edge pulling
   its node one way and its parent the other.  ``g_x`` / ``g_y`` may be
   ``g_delay`` / ``g_imp2``; ``work`` holds 2 n_nodes. */
static void elmore_adjoint_row(const forest_t *f, const elmore_t *e,
                               const wire_t *wire, double *g_delay,
                               double *g_imp2, double *g_load,
                               const double *g_beta_ext, double *g_x,
                               double *g_y, double *work)
{
    const int64_t n = f->n_nodes;
    double *g_res = work, *g_cap = work + n;
    double *g_beta = g_imp2;
    for (int64_t v = 0; v < n; v++) {
        g_delay[v] -= 2.0 * e->delay[v] * g_imp2[v];
        g_beta[v] *= 2.0;
        if (g_beta_ext)
            g_beta[v] += g_beta_ext[v];
    }
    /* Reverse of pass 4 (Beta top-down). */
    sum_into_parents(f, g_beta);
    double *g_ldelay = g_beta;
    for (int64_t v = 0; v < n; v++) {
        g_res[v] = e->ldelay[v] * g_beta[v];
        g_ldelay[v] = e->edge_res[v] * g_beta[v];
    }
    /* Reverse of pass 3 (LDelay bottom-up). */
    add_from_parents(f, g_ldelay);
    for (int64_t v = 0; v < n; v++) {
        g_cap[v] = e->delay[v] * g_ldelay[v];
        g_delay[v] += e->cap[v] * g_ldelay[v];
    }
    /* Reverse of pass 2 (Delay top-down). */
    sum_into_parents(f, g_delay);
    for (int64_t v = 0; v < n; v++) {
        g_res[v] += e->load[v] * g_delay[v];
        g_load[v] += e->edge_res[v] * g_delay[v];
    }
    /* Reverse of pass 1 (Load bottom-up). */
    add_from_parents(f, g_load);
    for (int64_t v = 0; v < n; v++)
        g_cap[v] += g_load[v];

    const double half = 0.5 * wire->cap_per_um;
    double *g_len = g_res;
    for (int64_t v = 0; v < n; v++) {
        double g_wire = g_cap[f->up[v]] + g_cap[v];
        g_wire *= half;
        g_len[v] = wire->res_per_um * g_res[v];
        g_len[v] += g_wire;
    }
    for (int64_t v = 0; v < n; v++) {
        g_y[v] = (double)e->dir_y[v] * g_len[v];
        g_x[v] = (double)e->dir_x[v] * g_len[v];
    }
    /* g[fa(v)] -= g[v], every edge reading the gradients as they were. */
    double *before = work;
    for (int c = 0; c < 2; c++) {
        double *g = c ? g_y : g_x;
        for (int64_t v = 0; v < n; v++)
            before[v] = -g[v];
        for (int64_t v = 0; v < n; v++)
            g[f->up[v]] += before[v];
    }
}

/* elmore_adjoint_row over ``n_rows`` rows of n_nodes each. */
void elmore_adjoint(const forest_t *f, const elmore_t *e, const wire_t *wire,
                    int64_t n_rows, double *g_delay, double *g_imp2,
                    double *g_load, const double *g_beta, double *g_x,
                    double *g_y, double *work)
{
    const int64_t n = f->n_nodes;
    for (int64_t r = 0; r < n_rows; r++)
        elmore_adjoint_row(f, e, wire, g_delay + r * n, g_imp2 + r * n,
                           g_load + r * n, g_beta ? g_beta + r * n : 0,
                           g_x + r * n, g_y + r * n, work);
}

/* ------------------------------------------------------------------ */
/* The differentiable timer's backward pass                             */
/* ------------------------------------------------------------------ */

/* The exponents of every merge candidate's softmax weight, w = exp((x -
   LSE) / gamma), the merged AT | slew of its sink being the LSE; x <= LSE,
   so they are clamped to [-700, 0] (a corrupted tape must not overflow). */
void cand_exponents(const plan_t *plan, const double *at, const double *slew,
                    const double *cand, double gamma, double *out)
{
    const int64_t n = plan->n_contribs;
    for (int64_t c = 0; c < n; c++) {
        int64_t dst = plan->c_dst[c];
        double e0 = (cand[c] - at[dst]) / gamma;
        double e1 = (cand[n + c] - slew[dst]) / gamma;
        out[c] = np_minimum(np_maximum(e0, EXP_FLOOR), 0.0);
        out[n + c] = np_minimum(np_maximum(e1, EXP_FLOOR), 0.0);
    }
}

/* Doubles of timer_adjoint's ``work``. */
int64_t adjoint_work_size(const plan_t *plan, const forest_t *f)
{
    return 5 * plan->n_pins + 6 * f->n_nodes + 2 * plan->n_net_arcs;
}

/* Every seed's gradient, from the endpoint slacks to the cells, a seed at
   a time.  The endpoint seeds (slack = rat - at; at a setup check rat = T
   - setup(slew_D), so the data slew gets the setup partial too), then the
   level sweep.  Sinks of a level's arcs are final when it is swept, so
   what the Elmore model receives is folded after the sweep: the net-arc
   sink gradients into the wire delay and the squared impulse (Eq. 10;
   Slew(v) = sqrt(Slew(u)^2 + Impulse(v)^2) gives Impulse^2 the slew
   gradient over 2 Slew(v)), the candidate gradients into Load(v) via
   both LUT load partials (Eq. 12e, summed per sink pin from 0.0 in
   contribution order), both onto their forest nodes (D2M chaining the
   delay into both moments).  Then the Elmore adjoint, the Steiner-owner
   scatter onto pins (Figure 4) and the pin -> cell scatter, each summed
   from 0.0 in node / pin order; fixed cells get zero. */
void timer_adjoint(const plan_t *plan, const endpoints_t *ep,
                   const forest_t *f, const elmore_t *e, const wire_t *wire,
                   const adjoint_t *a)
{
    const int64_t n_pins = plan->n_pins, n_slots = 2 * n_pins;
    const int64_t n = plan->n_contribs, n_nodes = f->n_nodes;
    const int64_t n_seeds = a->n_seeds, n_cells = a->n_cells;
    double *ga = a->work, *gs = ga + n_slots, *per_pin = gs + n_slots;
    double *g_delay = per_pin + n_pins, *g_imp2 = g_delay + n_nodes;
    double *g_load = g_imp2 + n_nodes, *g_beta = g_load + n_nodes;
    double *work = g_beta + n_nodes, *ratio = work + 2 * n_nodes;

    /* Slew(u) / Slew(v) of every net-arc slot, the same for every seed. */
    for (int64_t j = 0; j < plan->n_net_arcs; j++) {
        for (int t = 0; t < 2; t++) {
            double sink = a->slew[2 * plan->net_sink[j] + t];
            ratio[2 * j + t] =
                a->slew[2 * plan->net_src[j] + t] / np_maximum(sink, 1e-12);
        }
    }
    for (int64_t s = 0; s < n_seeds; s++) {
        for (int64_t i = 0; i < 2 * n_slots; i++)
            ga[i] = 0.0;
        double d_tns = a->seeds[2 * s], d_wns = a->seeds[2 * s + 1];
        int with_wns = d_wns != 0.0 && ep->n_endpoints > 0;
        for (int64_t k = 0; k < ep->n_endpoints; k++) {
            double g_sep = with_wns ? d_tns * a->g_tns[k] + d_wns * a->w_ep[k]
                                    : d_tns * a->g_tns[k];
            for (int t = 0; t < 2; t++) {
                int64_t slot = ep->slots[2 * k + t];
                double g = -(g_sep * a->w_t[2 * k + t]);
                ga[slot] += g;
                if (k < ep->n_setup)
                    gs[slot] += g * a->dsetup[2 * k + t];
            }
        }
        sweep_adjoint(plan, ga, gs, a->w_cand, a->d_dslew, ratio);

        /* Load(v) of every sink pin. */
        for (int64_t p = 0; p < n_pins; p++)
            per_pin[p] = 0.0;
        for (int64_t c = 0; c < n; c++) {
            int64_t dst = plan->c_dst[c];
            double g0 = ga[dst] * a->w_cand[c];
            g0 *= a->d_dload[c];
            double g1 = gs[dst] * a->w_cand[n + c];
            g1 *= a->d_dload[n + c];
            per_pin[dst >> 1] += g0 + g1;
        }
        /* Onto the forest's nodes. */
        for (int64_t v = 0; v < 4 * n_nodes; v++)
            g_delay[v] = 0.0;
        for (int64_t k = 0; k < f->n_pin_nodes; k++) {
            int64_t v = f->pin_nodes[k], pin = f->pins_of_nodes[k];
            double g_net = 0.0, g_imp = 0.0;
            if (plan->is_net_sink[pin]) {
                int64_t r = 2 * pin, fl = 2 * pin + 1;
                g_net = ga[r] + ga[fl];
                g_imp = gs[r] / (2.0 * np_maximum(a->slew[r], 1e-12))
                        + gs[fl] / (2.0 * np_maximum(a->slew[fl], 1e-12));
            }
            if (a->dd_dm1) {
                g_beta[v] = g_net * a->dd_dm2[k];
                g_delay[v] = g_net * a->dd_dm1[k];
            } else {
                g_delay[v] = g_net;
            }
            g_imp2[v] = g_imp;
        }
        for (int64_t k = 0; k < f->n_drivers; k++)
            g_load[f->driver_nodes[k]] = per_pin[f->driver_pins[k]];

        /* Node coordinates (into g_delay / g_imp2), pins, cells. */
        elmore_adjoint_row(f, e, wire, g_delay, g_imp2, g_load,
                           a->dd_dm1 ? g_beta : 0, g_delay, g_imp2, work);
        for (int c = 0; c < 2; c++) {
            const double *g_node = c ? g_imp2 : g_delay;
            const int64_t *owner = c ? f->owner_y : f->owner_x;
            double *g_cell = a->g_cells + (c * n_seeds + s) * n_cells;
            for (int64_t p = 0; p < n_pins; p++)
                per_pin[p] = 0.0;
            for (int64_t v = 0; v < n_nodes; v++)
                per_pin[owner[v]] += g_node[v];
            for (int64_t i = 0; i < n_cells; i++)
                g_cell[i] = 0.0;
            for (int64_t p = 0; p < n_pins; p++)
                g_cell[a->pin2cell[p]] += per_pin[p];
        }
    }
    for (int64_t r = 0; r < 2 * n_seeds; r++)
        for (int64_t k = 0; k < a->n_fixed; k++)
            a->g_cells[r * n_cells + a->fixed[k]] = 0.0;
}
