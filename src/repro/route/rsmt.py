"""Rectilinear Steiner minimal tree construction.

This is the FLUTE substitute of the reproduction (the paper notes FLUTE is
replaceable by any RSMT generator).  Strategy by net degree:

- degree 2: a single edge;
- degree 3: the median point (the exact RSMT for three terminals);
- degree 4..``MAX_STEINER_DEGREE`` (= 8): iterated 1-Steiner over the
  off-diagonal Hanan candidates (Kahng-Robins), inserting the candidate
  with the best exact MST-length gain until no candidate helps;
- larger nets: plain rectilinear minimum spanning tree (no Steiner points;
  FLUTE likewise stops being exact at degree 9 and breaks larger nets).

Whole forests are built by :func:`build_forest_from_plan`: one call of the
compiled builder ``rsmt.c`` (built by :mod:`repro.core.cbuild`) routes
every net of a :class:`~repro.route.plan.RoutePlan` and writes the flat
:class:`Forest` arrays in net order; no per-net Python runs and no per-net
object is created.  Each tree is a pure function of its own pins'
coordinates, bit for bit the scalar construction kept as the oracle in
``tests/reference_rsmt.py``.

Every Steiner point is a Hanan point ``(x of pin i, y of pin j)`` and
records ``(i, j)`` as its coordinate owners, which is what makes the tree
differentiable with respect to pin locations (Figure 4 of the paper).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.cbuild import load_kernels
from ..netlist.design import Design
from .plan import MAX_STEINER_DEGREE, RoutePlan, route_plan
from .tree import Forest, RoutingTree

__all__ = [
    "build_trees",
    "build_forest",
    "build_forest_for_nets",
    "build_forest_from_pins",
    "build_forest_from_plan",
]

ffi, lib = load_kernels()


class _PlanView:
    """A :class:`RoutePlan` as the compiled builder reads it."""

    def __init__(self, plan: RoutePlan) -> None:
        self.keep = [
            ffi.from_buffer("int64_t[]", array)
            for array in (plan.pin_start, plan.pins, plan.driver)
        ]
        self.plan = view = ffi.new("route_plan_t *")
        view.n_nets = len(plan.net_ids)
        view.pin_start, view.pins, view.driver = self.keep
        view.max_steiner_degree = MAX_STEINER_DEGREE


def build_forest_from_plan(plan: RoutePlan, px: np.ndarray, py: np.ndarray) -> Forest:
    """Route every net of ``plan`` from explicit *pin* coordinates.

    Raises ``ValueError`` when ``px``/``py`` are not one value per pin of
    the design, or when a pin of a routed net has a non-finite coordinate
    (pins of other nets are not read).
    """
    px = np.ascontiguousarray(px, dtype=np.float64)
    py = np.ascontiguousarray(py, dtype=np.float64)
    if px.shape != (plan.n_pins,) or py.shape != (plan.n_pins,):
        raise ValueError(
            f"pin coordinates of shape {px.shape} / {py.shape} for a design "
            f"of {plan.n_pins} pins"
        )
    if plan.kernel_view is None:
        plan.kernel_view = _PlanView(plan)
    size = np.empty(len(plan.net_ids), dtype=np.int64)
    nodes = np.empty((5, plan.max_nodes), dtype=np.int64)
    is_root = np.empty(plan.max_nodes, dtype=bool)
    rows = ffi.new("route_rows_t *")
    keep = [ffi.from_buffer("int64_t[]", size)]
    keep += [ffi.from_buffer("int64_t[]", row) for row in nodes]
    keep.append(ffi.from_buffer("uint8_t[]", is_root))
    rows.size = keep[0]
    rows.parent, rows.node_pin, rows.owner_x, rows.owner_y, rows.depth = keep[1:6]
    rows.is_root = keep[6]
    total = lib.route_forest(
        plan.kernel_view.plan,
        ffi.from_buffer("double[]", px),
        ffi.from_buffer("double[]", py),
        rows,
    )
    if total < 0:
        bad = -1 - total
        if bad == len(plan.net_ids):
            raise MemoryError("cannot allocate the Steiner-forest builder's work arrays")
        raise ValueError(f"net {plan.net_ids[bad]} has a pin at a non-finite coordinate")
    # from_rows makes its own (global) copy of the parents.
    node_pin, owner_x_pin, owner_y_pin, depth = (row[:total].copy() for row in nodes[1:])
    return Forest.from_rows(
        plan.n_nets,
        plan.n_pins,
        plan.net_ids,
        size,
        nodes[0, :total],
        node_pin,
        owner_x_pin,
        owner_y_pin,
        is_root[:total].copy(),
        depth,
    )


def build_forest_for_nets(
    design: Design,
    px: np.ndarray,
    py: np.ndarray,
    include_clock: bool = False,
) -> Forest:
    """The one forest builder: route nets from explicit *pin* coordinates.

    Routes every routable net (>= 2 pins, driven, non-clock unless
    ``include_clock``) of the design's route plan.
    """
    return build_forest_from_plan(route_plan(design, include_clock), px, py)


def build_forest(
    design: Design,
    cell_x: Optional[np.ndarray] = None,
    cell_y: Optional[np.ndarray] = None,
) -> Forest:
    """Route every timing net of a placement into a flat Forest."""
    return build_forest_for_nets(design, *design.pin_positions(cell_x, cell_y))


def build_forest_from_pins(design: Design, px: np.ndarray, py: np.ndarray) -> Forest:
    """Route every timing net from explicit per-pin coordinates."""
    return build_forest_for_nets(design, px, py)


def build_trees(
    design: Design,
    cell_x: Optional[np.ndarray] = None,
    cell_y: Optional[np.ndarray] = None,
    include_clock: bool = False,
) -> List[Optional[RoutingTree]]:
    """Tree view of every net of a design (``None`` where none is routed).

    Clock nets are skipped by default (the evaluation uses an ideal clock),
    as are driverless and single-pin nets.
    """
    px, py = design.pin_positions(cell_x, cell_y)
    return build_forest_for_nets(design, px, py, include_clock).trees(px, py)
