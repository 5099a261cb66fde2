/* The compiled timing sweep: the level loops of the timers and the tree
   passes of the Elmore model, one C loop where NumPy took one call per
   operation per level.

   Every kernel reproduces, bit for bit, the NumPy program it replaced
   (kept as the oracle in tests/reference_sweep.py): the same operations on
   the same operands in the same order - scatters fold into each slot in
   input order, a segment sum starts from 0.0 - and NumPy's rules for
   maximum / minimum (a NaN operand wins, a tie goes to the second operand).
   The file is built with -ffp-contract=off, so no multiply-add is fused.
   Only exp and log are left to NumPy, whose vectorised versions round
   differently from the C library's in the last bit: an LSE level is
   lse_candidates, NumPy's exp, lse_sum, NumPy's log and lse_merge. */

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

/* LutBank._cell along the slew axis of table ``id``: the boundary cell of
   query ``x``, its lower breakpoint and width.  A level on one shared axis
   is located by searchsorted, which puts NaN past the last cell; a mixed
   level by a compare-and-count, which puts it in the first. */
static inline int64_t slew_cell(const sweep_t *sw, int32_t id, int shared,
                                double x, double *x0, double *dx)
{
    const double *axis = sw->x_axis + (int64_t)id * sw->nx;
    int64_t last = sw->x_len[id] - 2, i;
    if (shared && isnan(x)) {
        i = last;
    } else {
        int64_t count = 0;
        for (int64_t k = 0; k < sw->nx; k++)
            count += axis[k] <= x;
        i = count - 1;
        if (i < 0)
            i = 0;
        if (i > last)
            i = last;
    }
    *x0 = axis[i];
    *dx = axis[i + 1] - axis[i];
    return i;
}

/* The level's merge candidates (LutBank.interpolate at the clipped source
   slews, then AT(u) + Delay_u(v)), written to the tape with the arc delays
   and the LUT partials where it has rows for them. */
static void cell_candidates(const plan_t *p, sweep_t *sw, const level_t *lv)
{
    const int64_t n = p->n_contribs;
    for (int64_t c = lv->c_lo; c < lv->c_hi; c++) {
        double x = np_minimum(np_maximum(sw->slew[p->c_src[c]], 0.0),
                              sw->slew_clip);
        double x0 = 0.0, dx = 1.0;
        int64_t i = 0;
        for (int r = 0; r < 2; r++) {
            int64_t rc = r * n + c, lc = r * sw->load_stride + c;
            /* On a shared axis both tables put x in the same cell. */
            if (r == 0 || !lv->x_shared)
                i = slew_cell(sw, p->lut[rc], lv->x_shared, x, &x0, &dx);
            double tx = (x - x0) / dx, ty = sw->ty[lc];
            const double *q = sw->values + sw->corner[rc] + i * sw->ny;
            double e0 = q[1] - q[0], e1 = q[sw->ny + 1] - q[sw->ny];
            double y0 = q[0] + ty * e0, y1 = q[sw->ny] + ty * e1;
            double dv = y1 - y0, value = y0 + tx * dv;
            if (sw->d_dslew) {
                double dy = sw->dy[lc];
                sw->d_dslew[rc] = dv / dx;
                e0 /= dy;
                e1 /= dy;
                sw->d_dload[rc] = e0 + tx * (e1 - e0);
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

/* LSE level, first part: net arcs, candidates, segment maxima and each
   candidate's clamped exponent (x - max) / gamma into ``work``. */
void lse_candidates(const plan_t *plan, sweep_t *sw, int64_t level)
{
    const level_t *lv = &plan->levels[level];
    net_arcs(plan, sw, lv);
    if (lv->c_hi == lv->c_lo)
        return;
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

/* LSE level, last part: max + gamma * log(sum) where the sum is positive,
   the sentinel where it is not, into the AT | slew slots. */
void lse_merge(const plan_t *plan, sweep_t *sw, int64_t level)
{
    const level_t *lv = &plan->levels[level];
    const int64_t n_seg = 2 * lv->n_touched;
    double *out = sw->seg_log;
    for (int64_t i = 0; i < n_seg; i++) {
        double merged = sw->seg_max[i] + sw->gamma * out[i];
        out[i] = sw->seg_sum[i] > 0 ? merged : SENTINEL;
    }
    scatter_merged(sw, lv, out);
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
/* Backward: the differentiable timer's level sweep, all seeds          */
/* ------------------------------------------------------------------ */

/* Equations (10) and (12) level by level, from the last: the sink
   gradients of a level are final when it is swept, and its cell arcs
   (merge weight into AT(u), both LUT slew partials into Slew(u)) go before
   its net arcs (straight into AT(u), Slew(u) / Slew(v) into Slew(u)).
   Seed s owns slots [s * n_slots, (s + 1) * n_slots) of g_at / g_slew. */
void sweep_adjoint(const plan_t *plan, double *g_at, double *g_slew,
                   int64_t n_seeds, int64_t n_slots, const double *w_cand,
                   const double *d_dslew, const double *slew)
{
    const int64_t n = plan->n_contribs;
    for (int64_t l = plan->n_levels - 1; l >= 0; l--) {
        const level_t *lv = &plan->levels[l];
        for (int64_t s = 0; s < n_seeds; s++) {
            double *ga = g_at + s * n_slots, *gs = g_slew + s * n_slots;
            for (int64_t c = lv->c_lo; c < lv->c_hi; c++) {
                int64_t dst = plan->c_dst[c], src = plan->c_src[c];
                double g0 = ga[dst] * w_cand[c];
                double g1 = gs[dst] * w_cand[n + c];
                ga[src] += g0;
                gs[src] += g0 * d_dslew[c] + g1 * d_dslew[n + c];
            }
        }
        for (int64_t s = 0; s < n_seeds; s++) {
            double *ga = g_at + s * n_slots, *gs = g_slew + s * n_slots;
            for (int64_t j = lv->net_lo; j < lv->net_hi; j++) {
                for (int t = 0; t < 2; t++) {
                    int64_t sink = 2 * plan->net_sink[j] + t;
                    int64_t src = 2 * plan->net_src[j] + t;
                    double ratio = slew[src] / np_maximum(slew[sink], 1e-12);
                    ga[src] += ga[sink];
                    gs[src] += gs[sink] * ratio;
                }
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
/* Elmore tree passes                                                   */
/* ------------------------------------------------------------------ */

/* Bottom-up values[u] += sum_child values[v], a depth at a time: each
   parent adds one sum of its children, folded from 0.0 in node order.
   ``scratch`` holds the widest depth's groups. */
static void group_sums(const forest_t *f, double *values, double *scratch)
{
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

/* The four passes of Equation (7): Load (bottom-up), Delay (top-down),
   LDelay (bottom-up), Beta (top-down).  ``load`` holds the node caps on
   entry; ``delay`` and ``beta`` hold zeros. */
void elmore_moments(const forest_t *f, const double *cap,
                    const double *edge_res, double *load, double *delay,
                    double *ldelay, double *beta, double *scratch)
{
    group_sums(f, load, scratch);
    parent_steps(f, delay, edge_res, load);
    for (int64_t v = 0; v < f->n_nodes; v++)
        ldelay[v] = cap[v] * delay[v];
    group_sums(f, ldelay, scratch);
    parent_steps(f, beta, edge_res, ldelay);
}

/* Adjoint of a top-down pass in each of ``n_rows`` rows of n_nodes:
   g[fa(v)] += g[v], deepest level first, one child at a time. */
void tree_sum_into_parents(const forest_t *f, double *g, int64_t n_rows)
{
    int64_t roots = f->level_start[1];
    for (int64_t d = f->max_depth; d >= 1; d--) {
        for (int64_t r = 0; r < n_rows; r++) {
            double *row = g + r * f->n_nodes;
            for (int64_t i = f->level_start[d]; i < f->level_start[d + 1]; i++)
                row[f->parent[i - roots]] += row[f->order[i]];
        }
    }
}

/* Adjoint of a bottom-up pass in each row: g[v] += g[fa(v)], roots
   first. */
void tree_add_from_parents(const forest_t *f, double *g, int64_t n_rows)
{
    int64_t roots = f->level_start[1];
    for (int64_t r = 0; r < n_rows; r++) {
        double *row = g + r * f->n_nodes;
        for (int64_t i = roots; i < f->level_start[f->max_depth + 1]; i++) {
            int64_t v = f->order[i];
            row[v] = row[v] + row[f->parent[i - roots]];
        }
    }
}
