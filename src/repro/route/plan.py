"""Placement-independent route plan of a design.

Everything the Steiner-forest build needs that does not depend on where
the cells are - which nets get a tree, their pins, where the driver sits
in each net's pin list - is laid out once per
:class:`~repro.netlist.design.Design` as one CSR over the routable nets,
which the compiled builder (``rsmt.c``) reads in place on every rebuild.
The plan is derived data: :func:`route_plan` caches it on the design
instance and ``Design.__getstate__`` drops it, so design bundles and
their cache format never contain it.
"""

from __future__ import annotations

import numpy as np

from ..netlist.design import Design
from .tree import gather_csr

__all__ = ["MAX_STEINER_DEGREE", "RoutePlan", "route_plan"]

#: The one forest-policy number.  Nets of up to this many pins are searched
#: for Steiner points (iterated 1-Steiner, all ``d * (d - 1) <= 56``
#: off-diagonal Hanan candidates scored every round); larger nets get a
#: plain rectilinear MST.
MAX_STEINER_DEGREE = 8


class RoutePlan:
    """The routable nets (>= 2 pins, driven) among ``nets`` as one CSR.

    ``nets`` is a boolean mask over the design's nets.  Row ``r`` is net
    ``net_ids[r]`` (ascending): its pins are
    ``pins[pin_start[r]:pin_start[r + 1]]`` in net pin order, its driver
    is local pin ``driver[r]``.  ``max_nodes`` bounds the nodes of the
    forest, Steiner points included.
    """

    def __init__(self, design: Design, nets: np.ndarray) -> None:
        degrees = design.net_degrees
        routable = (degrees >= 2) & (design.net_driver >= 0) & nets
        self.n_nets = design.n_nets
        self.n_pins = design.n_pins
        self.net_ids = np.nonzero(routable)[0]
        self.degree = degrees[self.net_ids]
        self.pin_start = np.zeros(len(self.net_ids) + 1, dtype=np.int64)
        np.cumsum(self.degree, out=self.pin_start[1:])
        starts = design.net2pin_start[self.net_ids]
        flat = gather_csr(starts, self.degree)
        self.pins = np.ascontiguousarray(design.net2pin[flat], dtype=np.int64)
        # Local index of the driver: first pin of the net equal to it.
        local = np.arange(len(flat)) - np.repeat(self.pin_start[:-1], self.degree)
        is_driver = self.pins == np.repeat(
            design.net_driver[self.net_ids], self.degree
        )
        self.driver = np.minimum.reduceat(
            np.where(is_driver, local, degrees.max(initial=0)),
            self.pin_start[:-1],
        ).astype(np.int64, copy=False)
        # A degree-3 net may gain a Steiner point, one of degree
        # 4..MAX_STEINER_DEGREE up to degree - 2.
        steiner = (self.degree >= 4) & (self.degree <= MAX_STEINER_DEGREE)
        self.max_nodes = int(
            self.pin_start[-1]
            + np.count_nonzero(self.degree == 3)
            + (self.degree[steiner] - 2).sum()
        )
        #: The plan as the compiled builder reads it (built on first use).
        self.kernel_view = None


def route_plan(design: Design, include_clock: bool = False) -> RoutePlan:
    """The plan of the design's non-clock nets, cached on the design (with
    ``include_clock``, of all its nets, built fresh)."""
    if include_clock:
        return RoutePlan(design, np.ones(design.n_nets, dtype=bool))
    plan = design.__dict__.get("_route_plan")
    if plan is None:
        plan = design.__dict__["_route_plan"] = RoutePlan(
            design, ~design.net_is_clock
        )
    return plan
