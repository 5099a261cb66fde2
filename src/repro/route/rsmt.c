/* The compiled Steiner-forest builder: every net of a route plan, one net
   after another in ascending net order, in one call.

   Policy by net degree d (MAX_STEINER_DEGREE is passed in by the plan):
   - d = 2: one edge;
   - d = 3: the exact RSMT, a star around the median point;
   - 4 <= d <= MAX_STEINER_DEGREE: iterated 1-Steiner (Kahng-Robins) over
     the off-diagonal Hanan candidates (x of pin i, y of pin j), inserting
     the candidate of least MST length while it gains more than TOL;
   - larger nets: a plain rectilinear MST.
   Then Steiner points left with no child are peeled, the tree is re-rooted
   at the driver and the depths are counted.

   The trees are, bit for bit, those of the scalar construction kept as the
   oracle in tests/reference_rsmt.py: Prim seeded at node 0, keys updated
   on a strict '<' and picked as NumPy's argmin picks (the first minimum,
   in-tree keys held at +inf), candidate MST lengths summed in pick order,
   distances |dx| + |dy| (the file is built with -ffp-contract=off), a
   candidate coincident with a node never scored, and ties among the three
   coordinates of a degree-3 net broken as a stable argsort breaks them.
   Pin coordinates must be finite; route_forest checks that first. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#include "rsmt.h"

#define TOL 1e-9  /* least MST-length gain of an inserted Steiner point */

/* Per-net working arrays, sized once per call for the plan's widest net. */
typedef struct {
    double *x, *y;           /* node coordinates: pins, then Steiner points */
    int64_t *own_i, *own_j;  /* local pins owning a Steiner point's x / y */
    int64_t *parent;
    int64_t *count;          /* children (peel) or new ids (emit) */
    int64_t *stack;
    double *key;
    uint8_t *done;           /* in the Prim tree, then alive (peel, emit) */
    double *dist;            /* (nodes, nodes) table of a Steiner net */
    double *cand;            /* (candidates, nodes) candidate-node table */
    uint8_t *coincide;       /* a candidate coincides with some node */
    int64_t *pick;           /* base_prim: the node of each step, */
    double *inc, *before;    /* its key, the length before the step */
    double *keys;            /* and the keys before it, one row a step */
    int64_t ld;              /* row stride of dist, cand and keys */
} work_t;

static inline double rect(double ax, double ay, double bx, double by)
{
    return fabs(ax - bx) + fabs(ay - by);
}

/* NumPy's argmin: index of the first minimum. */
static inline int64_t first_min(const double *key, int64_t n)
{
    int64_t v = 0;
    for (int64_t k = 1; k < n; k++)
        if (key[k] < key[v])
            v = k;
    return v;
}

/* Rectilinear MST of nodes 0..n-1 by Prim from node 0: parent[v] is the
   tree node v was attached to (-1 at node 0); returns the MST length. */
static double prim(int64_t n, const double *x, const double *y,
                   int64_t *parent, double *key, uint8_t *done)
{
    for (int64_t k = 0; k < n; k++) {
        key[k] = INFINITY;
        parent[k] = 0;
        done[k] = 0;
    }
    done[0] = 1;
    for (int64_t k = 1; k < n; k++) {
        double d = rect(x[k], y[k], x[0], y[0]);
        if (d < key[k])
            key[k] = d;
    }
    double total = 0.0;
    for (int64_t step = 1; step < n; step++) {
        int64_t v = first_min(key, n);
        total += key[v];
        done[v] = 1;
        for (int64_t k = 0; k < n; k++) {
            if (done[k])
                continue;
            double d = rect(x[k], y[k], x[v], y[v]);
            if (d < key[k]) {
                key[k] = d;
                parent[k] = v;
            }
        }
        key[v] = INFINITY;
    }
    parent[0] = -1;
    return total;
}

/* Prim over nodes 0..m-1 from the node table, recording what scoring the
   candidates shares: a candidate is not in the tree until it is picked, so
   until then its Prim is this one.  Per step s: the node picked, its key,
   the length before the step and the keys before it (+inf in the tree). */
static void base_prim(int64_t m, const double *dist, work_t *w)
{
    int64_t ld = w->ld;
    double *key = w->keys, total = 0.0;
    for (int64_t k = 0; k < m; k++) {
        key[k] = dist[k];
        w->done[k] = 0;
    }
    key[0] = INFINITY;
    w->done[0] = 1;
    for (int64_t s = 0; s < m - 1; s++, key += ld) {
        int64_t v = first_min(key, m);
        const double *row = dist + v * ld;
        w->pick[s] = v;
        w->inc[s] = key[v];
        w->before[s] = total;
        total += key[v];
        w->done[v] = 1;
        for (int64_t k = 0; k < m; k++)
            key[ld + k] = w->done[k] ? INFINITY : row[k] < key[k] ? row[k] : key[k];
    }
    w->before[m - 1] = total;
}

/* MST length of nodes 0..m-1 plus one candidate (node m, `cand` its
   distances to the nodes) after base_prim, or +inf once the length is
   known not to be below `bound`: keys are >= 0, so the running sum never
   falls.  The candidate is picked at the first step whose least node key
   its own key is below (a tie goes to the node, the lower index). */
static double candidate_length(int64_t m, const double *dist, const double *cand,
                               double bound, work_t *w)
{
    double kc = cand[0];
    int64_t s = 0;
    for (; s < m - 1 && !(kc < w->inc[s]); s++) {
        if (w->before[s] >= bound)
            return INFINITY;
        if (cand[w->pick[s]] < kc)
            kc = cand[w->pick[s]];
    }
    double total = w->before[s] + kc;
    if (total >= bound)
        return INFINITY;
    double *key = w->key;
    uint8_t *done = w->done;
    const double *before = w->keys + s * w->ld;
    for (int64_t k = 0; k < m; k++)
        done[k] = 0;
    done[0] = 1;
    for (int64_t t = 0; t < s; t++)
        done[w->pick[t]] = 1;
    for (int64_t k = 0; k < m; k++)
        key[k] = !done[k] && cand[k] < before[k] ? cand[k] : before[k];
    for (int64_t step = s + 1; step < m; step++) {
        int64_t v = first_min(key, m);
        const double *row = dist + v * w->ld;
        total += key[v];
        if (total >= bound)
            return INFINITY;
        done[v] = 1;
        for (int64_t k = 0; k < m; k++)
            if (!done[k] && row[k] < key[k])
                key[k] = row[k];
        key[v] = INFINITY;
    }
    return total;
}

/* Iterated 1-Steiner over n pins (4 <= n): appends the inserted points to
   the node arrays and returns the node count.  Candidate c = i * n + j,
   i != j, is (x[i], y[j]), scored in that order; the tables gain one column
   per insertion instead of being recomputed.  A candidate no shorter than
   the best so far (or than the tree) is never the first minimum that
   gains, so its scoring stops as soon as that is known. */
static int64_t one_steiner(int64_t n, work_t *w)
{
    double *x = w->x, *y = w->y, *dist = w->dist, *cand = w->cand;
    int64_t ld = w->ld, m = n;
    for (int64_t k = 0; k < n; k++)
        for (int64_t l = 0; l < n; l++)
            dist[k * ld + l] = rect(x[k], y[k], x[l], y[l]);
    for (int64_t c = 0; c < n * n; c++) {
        double cx = x[c / n], cy = y[c % n];
        uint8_t hit = 0;
        for (int64_t k = 0; k < n; k++) {
            cand[c * ld + k] = rect(cx, cy, x[k], y[k]);
            hit |= cx == x[k] && cy == y[k];
        }
        w->coincide[c] = hit;  /* always set on the diagonal */
    }
    double length = 0.0;
    for (int64_t round = 0; round < n - 2; round++) {
        base_prim(m, dist, w);
        if (round == 0)
            length = w->before[m - 1];
        int64_t best = -1;
        double best_length = length;
        for (int64_t c = 0; c < n * n; c++) {
            if (w->coincide[c])
                continue;
            double l = candidate_length(m, dist, cand + c * ld, best_length, w);
            if (l < best_length) {
                best = c;
                best_length = l;
            }
        }
        if (best < 0 || length - best_length <= TOL)
            break;
        double sx = x[best / n], sy = y[best % n];
        x[m] = sx;
        y[m] = sy;
        w->own_i[m] = best / n;
        w->own_j[m] = best % n;
        for (int64_t k = 0; k < m; k++)
            dist[m * ld + k] = dist[k * ld + m] = cand[best * ld + k];
        dist[m * ld + m] = 0.0;
        for (int64_t c = 0; c < n * n; c++) {
            double cx = x[c / n], cy = y[c % n];
            cand[c * ld + m] = rect(cx, cy, sx, sy);
            w->coincide[c] |= cx == sx && cy == sy;
        }
        m++;
        length = best_length;
    }
    return m;
}

/* Clear done[] on every Steiner point (node >= n) left with no child in
   the tree rooted at pin 0, to a fixed point. */
static void peel(int64_t m, int64_t n, work_t *w)
{
    int64_t *parent = w->parent, *count = w->count, *stack = w->stack, top = 0;
    for (int64_t k = 0; k < m; k++) {
        count[k] = 0;
        w->done[k] = 1;
    }
    for (int64_t k = 1; k < m; k++)
        count[parent[k]]++;
    for (int64_t k = n; k < m; k++)
        if (count[k] == 0)
            stack[top++] = k;
    while (top) {
        int64_t k = stack[--top], up = parent[k];
        w->done[k] = 0;
        if (--count[up] == 0 && up >= n)
            stack[top++] = up;
    }
}

/* Re-root at node r by reversing the pointers on the path to the root. */
static void reroot(int64_t *parent, int64_t r)
{
    int64_t below = -1;
    while (r >= 0) {
        int64_t above = parent[r];
        parent[r] = below;
        below = r;
        r = above;
    }
}

/* Degree 3: a star around the (first) pin at the median point, else around
   a Steiner point owned by the pins of median x and median y rank.
   Returns the node count. */
static int64_t median3(work_t *w)
{
    const double *x = w->x, *y = w->y;
    int64_t ox = 0, oy = 0, hub = -1;
    for (int64_t i = 0; i < 3; i++) {
        int64_t rank_x = 0, rank_y = 0;
        for (int64_t k = 0; k < 3; k++) {
            rank_x += x[k] < x[i] || (k < i && x[k] == x[i]);
            rank_y += y[k] < y[i] || (k < i && y[k] == y[i]);
        }
        if (rank_x == 1)
            ox = i;
        if (rank_y == 1)
            oy = i;
    }
    for (int64_t k = 2; k >= 0; k--)
        if (x[k] == x[ox] && y[k] == y[oy])
            hub = k;
    if (hub >= 0) {
        for (int64_t k = 0; k < 3; k++)
            w->parent[k] = k == hub ? -1 : hub;
        return 3;
    }
    for (int64_t k = 0; k < 3; k++)
        w->parent[k] = 3;
    w->parent[3] = -1;
    w->own_i[3] = ox;
    w->own_j[3] = oy;
    return 4;
}

/* Write the alive nodes (done[]) of a net's tree rooted at `root` as one
   row at `at`; returns the row's node count. */
static int64_t emit(int64_t m, int64_t n, int64_t root, const int64_t *pins,
                    work_t *w, route_rows_t *rows, int64_t at)
{
    const int64_t *parent = w->parent;
    const uint8_t *alive = w->done;
    int64_t *new_id = w->count, *stack = w->stack, size = 0;
    for (int64_t k = 0; k < m; k++)
        new_id[k] = alive[k] ? size++ : -1;
    int64_t *depth = rows->depth + at;
    for (int64_t k = 0; k < size; k++)
        depth[k] = -1;
    depth[new_id[root]] = 0;
    for (int64_t k = 0; k < m; k++) {
        if (!alive[k])
            continue;
        int64_t v = new_id[k];
        rows->parent[at + v] = parent[k] >= 0 ? new_id[parent[k]] : -1;
        rows->node_pin[at + v] = k < n ? pins[k] : -1;
        rows->owner_x[at + v] = pins[k < n ? k : w->own_i[k]];
        rows->owner_y[at + v] = pins[k < n ? k : w->own_j[k]];
        rows->is_root[at + v] = k == root;
    }
    for (int64_t v = 0; v < size; v++) {
        int64_t top = 0, u = v;
        while (depth[u] < 0) {
            stack[top++] = u;
            u = rows->parent[at + u];
        }
        for (int64_t d = depth[u]; top;)
            depth[stack[--top]] = ++d;
    }
    return size;
}

/* Routes every net of the plan into rows; returns the nodes written, or
   -1 - k when a pin of net row k has a non-finite coordinate (nothing is
   written), or -1 - n_nets when the working arrays cannot be allocated. */
int64_t route_forest(const route_plan_t *plan, const double *px,
                     const double *py, route_rows_t *rows)
{
    int64_t widest = 3, top = plan->max_steiner_degree;
    for (int64_t r = 0; r < plan->n_nets; r++) {
        for (int64_t p = plan->pin_start[r]; p < plan->pin_start[r + 1]; p++)
            if (!isfinite(px[plan->pins[p]]) || !isfinite(py[plan->pins[p]]))
                return -1 - r;
        int64_t d = plan->pin_start[r + 1] - plan->pin_start[r];
        if (d > widest)
            widest = d;
    }
    /* A Steiner net of degree n holds up to 2n - 2 nodes, scored against
       n * n candidates (the diagonal included, never scored). */
    int64_t ld = top >= 4 ? 2 * top - 2 : 1, n_cand = top >= 4 ? top * top : 1;
    int64_t nodes = (widest > ld ? widest : ld) + 1;
    /* One block: the float64 arrays, then the int64 ones, then bytes. */
    double *block = malloc((3 * nodes + 2 * ld + 2 * ld * ld + n_cand * ld)
                               * sizeof(double)
                           + (5 * nodes + ld) * sizeof(int64_t) + nodes + n_cand);
    if (!block)
        return -1 - plan->n_nets;
    work_t w;
    w.ld = ld;
    w.x = block;
    w.y = w.x + nodes;
    w.key = w.y + nodes;
    w.inc = w.key + nodes;
    w.before = w.inc + ld;
    w.dist = w.before + ld;
    w.keys = w.dist + ld * ld;
    w.cand = w.keys + ld * ld;
    w.own_i = (int64_t *)(w.cand + n_cand * ld);
    w.own_j = w.own_i + nodes;
    w.parent = w.own_j + nodes;
    w.count = w.parent + nodes;
    w.stack = w.count + nodes;
    w.pick = w.stack + nodes;
    w.done = (uint8_t *)(w.pick + ld);
    w.coincide = w.done + nodes;
    int64_t at = 0;
    for (int64_t r = 0; r < plan->n_nets; r++) {
        const int64_t *pins = plan->pins + plan->pin_start[r];
        int64_t n = plan->pin_start[r + 1] - plan->pin_start[r], m = n;
        int64_t root = plan->driver[r];
        for (int64_t k = 0; k < n; k++) {
            w.x[k] = px[pins[k]];
            w.y[k] = py[pins[k]];
        }
        if (n == 2) {
            w.parent[root] = -1;
            w.parent[1 - root] = root;
        } else if (n == 3) {
            m = median3(&w);
        } else {
            if (n <= top)
                m = one_steiner(n, &w);
            prim(m, w.x, w.y, w.parent, w.key, w.done);
        }
        if (n > 3 && m > n) {
            peel(m, n, &w);
        } else {
            for (int64_t k = 0; k < m; k++)
                w.done[k] = 1;
        }
        if (n > 2)
            reroot(w.parent, root);
        rows->size[r] = emit(m, n, root, pins, &w, rows, at);
        at += rows->size[r];
    }
    free(block);
    return at;
}

/* ----------------------------------------------------------------------
   The tables of a Forest, laid out once per forest for the timers: the
   values and the order of the NumPy program kept as the oracle in
   tests/reference_rsmt.py (a stable argsort by depth, the distinct parents
   of each depth in that order, int32 columns). */

int64_t forest_offsets(const forest_rows_t *rows, int64_t *node_offset,
                       int64_t *parent)
{
    int64_t at = 0, next = 0;
    for (int64_t r = 0; r < rows->n_rows; r++) {
        int64_t net = rows->net[r], size = rows->size[r];
        if (net < next || net >= rows->n_nets || size < 0 || size > rows->n_nodes - at)
            return r;
        while (next <= net)
            node_offset[next++] = at;
        for (int64_t v = at; v < at + size; v++) {
            if (parent[v] < -1 || parent[v] >= size)
                return rows->n_rows + 1 + v;
            if (parent[v] >= 0)
                parent[v] += at;
        }
        at += size;
    }
    if (at != rows->n_nodes)
        return rows->n_rows;
    while (next <= rows->n_nets)
        node_offset[next++] = at;
    return -1;
}

int64_t forest_sizes(const forest_nodes_t *f, int32_t *group,
                     forest_sizes_t *sizes)
{
    const int64_t n = f->n_nodes;
    forest_sizes_t s = {0, 0, 0, 0, 0};
    for (int64_t v = 0; v < n; v++) {
        int64_t d = f->depth[v], p = f->parent[v], pin = f->node_pin[v];
        if (d < 0 || p < -1 || p >= n || (d > 0 && p < 0) || pin < -1 ||
            pin >= f->n_pins)
            return v;
        group[v] = -1;
        if (d > s.max_depth)
            s.max_depth = d;
        s.n_roots += d == 0;
        s.n_pin_nodes += pin >= 0;
        s.n_drivers += d == 0 && pin >= 0;
    }
    /* A group is a node with a child: marked 0 here, numbered by
       forest_tables. */
    for (int64_t v = 0; v < n; v++)
        if (f->depth[v] > 0 && group[f->parent[v]] < 0) {
            group[f->parent[v]] = 0;
            s.n_groups++;
        }
    *sizes = s;
    return -1;
}

void forest_tables(const forest_nodes_t *f, const forest_sizes_t *sizes,
                   int32_t *group, forest_tables_t *t)
{
    const int64_t n = f->n_nodes, top = sizes->max_depth;
    int64_t *start = t->level_start, *cursor = t->group_start;
    /* Pins and nodes, parents-or-self, and the depths counted. */
    for (int64_t d = 0; d <= top + 1; d++)
        start[d] = 0;
    for (int64_t p = 0; p < f->n_pins; p++)
        t->pin_node[p] = -1;
    int64_t k = 0;
    for (int64_t v = 0; v < n; v++) {
        int64_t pin = f->node_pin[v];
        start[f->depth[v] + 1]++;
        t->up[v] = (int32_t)(f->parent[v] >= 0 ? f->parent[v] : v);
        if (pin >= 0) {
            t->pin_node[pin] = v;
            t->pin_nodes[k] = (int32_t)v;
            t->pins_of_nodes[k++] = (int32_t)pin;
        }
    }
    /* Counting sort by depth; group_start holds the cursors meanwhile. */
    for (int64_t d = 1; d <= top + 1; d++)
        start[d] += start[d - 1];
    for (int64_t d = 0; d <= top; d++)
        cursor[d] = start[d];
    for (int64_t v = 0; v < n; v++)
        t->order[cursor[f->depth[v]]++] = v;
    /* The groups in that order; group_start[d]: the groups above depth d. */
    int64_t g = 0, d = 0;
    for (int64_t r = 0; r < n; r++) {
        while (d <= top && start[d] == r)
            t->group_start[d++] = g;
        int64_t v = t->order[r];
        if (group[v] >= 0) {
            group[v] = (int32_t)g;
            t->groups[g++] = (int32_t)v;
        }
    }
    while (d <= top)
        t->group_start[d++] = g;
    for (int64_t r = sizes->n_roots; r < n; r++) {
        int64_t v = t->order[r], p = f->parent[v];
        t->parent[r - sizes->n_roots] = (int32_t)p;
        t->group_of[r - sizes->n_roots] =
            (int32_t)(group[p] - t->group_start[f->depth[v] - 1]);
    }
    /* The roots that are pins. */
    k = 0;
    for (int64_t r = 0; r < sizes->n_roots; r++) {
        int64_t v = t->order[r];
        if (f->node_pin[v] >= 0) {
            t->driver_nodes[k] = (int32_t)v;
            t->driver_pins[k++] = (int32_t)f->node_pin[v];
        }
    }
}
