"""Placement-independent route plan of a design.

Everything the Steiner-forest build needs that does not depend on where
the cells are - which nets get a tree, their pins as rectangular
per-degree matrices, where the driver sits in each net's pin list - is
computed once per :class:`~repro.netlist.design.Design` and reused by
every rebuild.  The plan is derived data: :func:`route_plan` caches it on
the design instance and ``Design.__getstate__`` drops it, so design
bundles and their cache format never contain it.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

import numpy as np

from ..netlist.design import Design
from .batch import MAX_STEINER_DEGREE
from .tree import gather_csr

__all__ = ["Bucket", "RoutePlan", "route_plan"]


class Bucket(NamedTuple):
    """All routable nets of one width class ``w`` (see ``bucket_width``)."""

    nets: np.ndarray  # (B,) net ids, ascending
    pins: np.ndarray  # (B, w) global pin ids in net pin order, -1 padded
    driver: np.ndarray  # (B,) local index of the driver pin
    degree: np.ndarray  # (B,) pins of each net, <= w


def bucket_width(degree: np.ndarray) -> np.ndarray:
    """Lane count of the bucket a net of the given degree is routed in.

    Degrees up to ``MAX_STEINER_DEGREE`` (every Hanan candidate is scored,
    nets are plentiful) get exact buckets, which is what marks them for
    the Steiner search.  Larger nets are few, get a plain MST, and each
    kernel step is a fixed launch cost whatever the row count, so they
    share buckets padded to the next multiple of 4.
    """
    return np.where(degree <= MAX_STEINER_DEGREE, degree, -(-degree // 4) * 4)


class RoutePlan:
    """Routable nets (>= 2 pins, driven, non-clock) in degree buckets."""

    def __init__(self, design: Design, include_clock: bool = False) -> None:
        degrees = design.net_degrees
        routable = (degrees >= 2) & (design.net_driver >= 0)
        if not include_clock:
            routable &= ~design.net_is_clock
        self.n_nets = design.n_nets
        self.n_pins = design.n_pins
        self.net_ids = np.nonzero(routable)[0]
        self.degree = degrees[self.net_ids]
        starts = design.net2pin_start[self.net_ids]
        # Local index of the driver: first pin of the net equal to it.
        flat = gather_csr(starts, self.degree)
        local = flat - np.repeat(starts, self.degree)
        is_driver = design.net2pin[flat] == np.repeat(
            design.net_driver[self.net_ids], self.degree
        )
        driver = np.minimum.reduceat(
            np.where(is_driver, local, degrees.max(initial=0)),
            np.cumsum(self.degree) - self.degree,
        )
        width = bucket_width(self.degree)
        self.buckets: Dict[int, Bucket] = {}
        for w in np.unique(width).tolist():
            rows = np.nonzero(width == w)[0]
            lane = np.arange(w)
            pins = np.where(
                lane < self.degree[rows, None],
                design.net2pin[
                    np.minimum(starts[rows, None] + lane, len(design.net2pin) - 1)
                ],
                -1,
            )
            self.buckets[w] = Bucket(
                self.net_ids[rows], pins, driver[rows], self.degree[rows]
            )


def route_plan(design: Design, include_clock: bool = False) -> RoutePlan:
    """The design's cached plan (clock-inclusive plans are built fresh)."""
    if include_clock:
        return RoutePlan(design, include_clock=True)
    plan = design.__dict__.get("_route_plan")
    if plan is None:
        plan = design.__dict__["_route_plan"] = RoutePlan(design)
    return plan
