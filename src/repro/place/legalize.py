"""Row legalization (Abacus-style) and a small greedy detailed placer.

Global placement leaves fractional overlaps; :func:`legalize` assigns each
movable cell to a row with available capacity (searching outward from its
preferred row) and then solves each row with the Abacus clustering
algorithm, which finds the displacement-optimal non-overlapping positions
for a fixed left-to-right order.  :func:`greedy_refine` optionally follows
with profitable same-row adjacent swaps under the HPWL objective.

The paper's scope is global placement; legalization here exists so that
end-to-end flows and evaluations are realistic, not to compete with
dedicated legalizers.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..netlist.design import Design
from .wirelength import NetLayout

__all__ = ["legalize", "greedy_refine", "max_overlap"]


def _abacus_row(
    desired_left: np.ndarray, widths: np.ndarray, xl: float, xh: float
) -> np.ndarray:
    """Displacement-optimal left edges for one row, preserving x order.

    Classic Abacus clustering: walk the cells in increasing desired
    position; whenever a cell would overlap the previous cluster, merge and
    re-optimize the cluster position (mean of member targets), clamped to
    the row span.
    """
    order = np.argsort(desired_left, kind="stable")
    # Each cluster: [sum_target, n_members, width, member_indices]
    clusters: List[List] = []
    for idx in order:
        w = widths[idx]
        target = desired_left[idx]
        clusters.append([target, 1.0, w, [idx]])
        # Merge while the new cluster overlaps its predecessor.
        while len(clusters) > 1:
            prev = clusters[-2]
            cur = clusters[-1]
            prev_pos = _cluster_pos(prev, xl, xh)
            cur_pos = _cluster_pos(cur, xl, xh)
            if prev_pos + prev[2] <= cur_pos + 1e-12:
                break
            # Merge cur into prev; member targets shift by prev's width.
            prev[0] += cur[0] - cur[1] * prev[2]
            prev[1] += cur[1]
            prev[3].extend(cur[3])
            prev[2] += cur[2]
            clusters.pop()
    out = np.empty(len(desired_left))
    for cluster in clusters:
        pos = _cluster_pos(cluster, xl, xh)
        for member in cluster[3]:
            out[member] = pos
            pos += widths[member]
    return out


def _cluster_pos(cluster: List, xl: float, xh: float) -> float:
    """Optimal (clamped) left edge of a cluster: mean of member targets."""
    pos = cluster[0] / cluster[1]
    return float(np.clip(pos, xl, max(xh - cluster[2], xl)))


def legalize(
    design: Design,
    x: np.ndarray,
    y: np.ndarray,
    capacity_margin: float = 1e-9,
) -> Tuple[np.ndarray, np.ndarray]:
    """Snap movable cells into non-overlapping row positions.

    Rows are chosen per cell by smallest displacement among rows with
    remaining width capacity; each row is then solved exactly (for its
    cell order) with Abacus clustering.  Fixed cells are untouched.
    Raises ``RuntimeError`` if the movable width exceeds total capacity.
    """
    xl, yl, xh, yh = design.die
    row_h = design.row_height
    n_rows = max(int((yh - yl) / row_h), 1)
    row_width = xh - xl
    row_used = np.zeros(n_rows)
    row_members: List[List[int]] = [[] for _ in range(n_rows)]

    out_x = x.copy()
    out_y = y.copy()
    movable = np.nonzero(~design.cell_fixed)[0]
    # Wider cells first: they are hardest to fit.
    order = movable[np.argsort(-design.cell_w[movable], kind="stable")]

    for ci in order:
        w = design.cell_w[ci]
        pref_row = int(np.clip((y[ci] - yl) / row_h - 0.5, 0, n_rows - 1))
        chosen = -1
        for offset in range(n_rows):
            for row in ({pref_row + offset, pref_row - offset}):
                if 0 <= row < n_rows and row_used[row] + w <= row_width + capacity_margin:
                    chosen = row
                    break
            if chosen >= 0:
                break
        if chosen < 0:
            raise RuntimeError(
                "legalization failed: movable width exceeds row capacity"
            )
        row_used[chosen] += w
        row_members[chosen].append(ci)
        out_y[ci] = yl + (chosen + 0.5) * row_h

    for row, members in enumerate(row_members):
        if not members:
            continue
        idx = np.array(members, dtype=np.int64)
        desired_left = x[idx] - 0.5 * design.cell_w[idx]
        left = _abacus_row(desired_left, design.cell_w[idx], xl, xh)
        out_x[idx] = left + 0.5 * design.cell_w[idx]
    return out_x, out_y


def max_overlap(design: Design, x: np.ndarray, y: np.ndarray) -> float:
    """Largest pairwise overlap area among movable cells (0 if legal)."""
    movable = np.nonzero(~design.cell_fixed)[0]
    if len(movable) < 2:
        return 0.0
    rows = np.round((y[movable] - design.die[1]) / design.row_height, 6)
    worst = 0.0
    for row in np.unique(rows):
        members = movable[rows == row]
        if len(members) < 2:
            continue
        order = members[np.argsort(x[members])]
        lo = x[order] - 0.5 * design.cell_w[order]
        hi = x[order] + 0.5 * design.cell_w[order]
        overlap_x = np.maximum(hi[:-1] - lo[1:], 0.0)
        if len(overlap_x):
            worst = max(worst, float(overlap_x.max() * design.row_height))
    return worst


def greedy_refine(
    design: Design,
    x: np.ndarray,
    y: np.ndarray,
    passes: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Profitable adjacent same-row swaps under exact HPWL.

    A deliberately small detailed-placement step: repeatedly try swapping
    horizontally adjacent movable cells of equal width and keep the swap if
    HPWL improves.
    """
    out_x = x.copy()
    out_y = y.copy()
    movable = np.nonzero(~design.cell_fixed)[0]
    layout = NetLayout(design)
    base = layout.hpwl(out_x, out_y)
    for _ in range(passes):
        improved = False
        rows = np.round((out_y[movable] - design.die[1]) / design.row_height, 6)
        for row in np.unique(rows):
            members = movable[rows == row]
            order = members[np.argsort(out_x[members])]
            for a, b in zip(order[:-1], order[1:]):
                if abs(design.cell_w[a] - design.cell_w[b]) > 1e-9:
                    continue
                out_x[a], out_x[b] = out_x[b], out_x[a]
                trial = layout.hpwl(out_x, out_y)
                if trial < base - 1e-9:
                    base = trial
                    improved = True
                else:
                    out_x[a], out_x[b] = out_x[b], out_x[a]
        if not improved:
            break
    return out_x, out_y
