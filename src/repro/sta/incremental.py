"""Incremental static timing analysis after cell moves.

The ICCAD 2015 contest the paper evaluates on is *incremental*
timing-driven placement: a few cells move, and timing must be refreshed
without re-analysing the whole design (the TAU 2015 setting of the paper's
reference [30]).  :class:`IncrementalTimer` keeps the full late/setup
timing state and, per move:

1. re-routes only the nets touching moved cells and replays their Elmore
   passes (a mini-forest of just those trees);
2. seeds a dirty set with the affected sink pins and driver pins (whose
   cell-arc delays depend on the changed load);
3. sweeps the affected cone level by level, recomputing all dirty pins of
   a level in one batch (the shared engine of :mod:`repro.core.propagate`
   restricted to those pins) and early-terminating the fan-out of pins
   whose arrival time and slew settle;
4. refreshes the slacks of affected endpoints and the running WNS/TNS.

Moves are symmetric: to reject a trial move, move the cells back - the
incremental update restores the previous state exactly (asserted in the
test-suite).  This engine powers the timing-driven detailed placer in
:mod:`repro.place.detailed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.propagate import endpoint_rat, propagate
from ..netlist.design import Design
from ..netlist.library import FALL, RISE
from ..perf import PROFILER
from ..route.rsmt import build_forest_for_nets
from ..route.tree import gather_csr
from ..telemetry.events import current_recorder
from .analysis import StaticTimingAnalyzer, wns_tns
from .elmore import design_elmore, pin_elmore
from .graph import TimingGraph

__all__ = ["IncrementalTimer", "VerifyReport"]

_EPS = 1e-9


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of :meth:`IncrementalTimer.verify`.

    Truthy iff the incremental state matches the full re-analysis, so it
    drops into boolean assertions; on mismatch it carries the worst
    offender instead of leaving the caller with a bare ``False``.
    """

    ok: bool
    #: Endpoint pin with the largest tolerance-normalised slack deviation
    #: (-1 when the design has no endpoints).
    worst_endpoint_pin: int
    worst_endpoint_name: str
    #: |incremental - golden| slack at that endpoint.
    worst_slack_delta: float
    wns_delta: float
    tns_delta: float
    n_endpoints: int

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return f"verify OK ({self.n_endpoints} endpoints)"
        return (
            f"verify FAILED: worst endpoint {self.worst_endpoint_name!r} "
            f"(pin {self.worst_endpoint_pin}) slack off by "
            f"{self.worst_slack_delta:.3e}; "
            f"dWNS={self.wns_delta:.3e} dTNS={self.tns_delta:.3e}"
        )


class IncrementalTimer:
    """Maintains setup timing under incremental cell movement."""

    def __init__(
        self,
        design: Design,
        graph: Optional[TimingGraph] = None,
    ) -> None:
        self.design = design
        self.graph = graph if graph is not None else TimingGraph(design)
        g = self.graph
        self.plan = g.plan
        n_pins = design.n_pins

        # Fan-out adjacency over unique (src, dst) propagation edges.
        edges_src = np.concatenate([g.net_src, g.c_src])
        edges_dst = np.concatenate([g.net_sink, g.c_dst])
        if len(edges_src):
            pairs = np.unique(np.stack([edges_src, edges_dst], axis=1), axis=0)
            edges_src, edges_dst = pairs[:, 0], pairs[:, 1]
        out_order = np.argsort(edges_src, kind="stable")
        self._out_dst = edges_dst[out_order]
        counts = np.bincount(edges_src, minlength=n_pins)
        self._out_start = np.zeros(n_pins + 1, dtype=np.int64)
        np.cumsum(counts, out=self._out_start[1:])

        # Pins of each cell (CSR), endpoint bookkeeping.
        cell_order = np.argsort(design.pin2cell, kind="stable")
        self._cell_pins = cell_order
        counts = np.bincount(design.pin2cell, minlength=design.n_cells)
        self._cell_pin_start = np.zeros(design.n_cells + 1, dtype=np.int64)
        np.cumsum(counts, out=self._cell_pin_start[1:])


        # Endpoint index of each pin (-1: not an endpoint).
        self._endpoint_idx_of_pin = np.full(n_pins, -1, dtype=np.int64)
        self._endpoint_idx_of_pin[g.endpoint_pins] = np.arange(
            len(g.endpoint_pins)
        )

        self._sta = StaticTimingAnalyzer(design, self.graph)
        self.x: np.ndarray
        self.y: np.ndarray
        self.n_incremental_updates = 0
        self.n_pins_recomputed = 0

    # ------------------------------------------------------------------
    def reset(
        self,
        cell_x: Optional[np.ndarray] = None,
        cell_y: Optional[np.ndarray] = None,
    ) -> None:
        """Full analysis at the given placement; establishes the baseline."""
        design = self.design
        self.x = (design.cell_x if cell_x is None else cell_x).astype(float).copy()
        self.y = (design.cell_y if cell_y is None else cell_y).astype(float).copy()
        result = self._sta.run(self.x, self.y)
        self.at = result.at.copy()
        self.slew = result.slew.copy()
        self.net_delay = result.net_delay.copy()
        self.impulse2 = result.impulse**2
        self.driver_load = result.driver_load.copy()
        self.ep_slack = result.endpoint_slack.copy()
        self._refresh_totals()

    def _refresh_totals(self) -> None:
        self.wns, self.tns = wns_tns(self.ep_slack)

    # ------------------------------------------------------------------
    # Elmore refresh for a set of nets
    # ------------------------------------------------------------------
    def _reroute_nets(self, nets: Sequence[int]) -> None:
        """Rebuild the trees of ``nets`` and replay their Elmore values."""
        design = self.design
        px, py = design.pin_positions(self.x, self.y)
        # Sub-forest of just these nets, from the same builder (and so
        # the same trees) as the full analysis `verify` compares against.
        mini = build_forest_for_nets(design, px, py, nets)
        if not mini.n_nodes:
            return
        elm = design_elmore(design, mini, px, py, self.graph.extra_pin_cap)
        pin_elmore(
            mini, elm, design.n_pins, self._sta.wire_delay_model,
            out=(self.net_delay, self.impulse2, self.driver_load),
        )

    # ------------------------------------------------------------------
    # Single-pin recompute (late mode, exact max merge)
    #
    # Scalar reference implementation of one pin of the shared engine's
    # restricted sweep; kept for debugging and as the oracle the
    # test-suite checks the vectorised sweep against.
    # ------------------------------------------------------------------
    def _recompute_pin(self, p: int) -> Tuple[np.ndarray, np.ndarray]:
        g = self.graph
        arc = self.plan.net_arc_of[p]
        if arc >= 0:
            src = g.net_src[arc]
            at = self.at[src] + self.net_delay[p]
            slew = np.sqrt(self.slew[src] ** 2 + self.impulse2[p])
            return at, slew
        idx = self.plan.fanin(np.array([p]))
        if len(idx) == 0:
            return self.at[p].copy(), self.slew[p].copy()  # start point
        c_src = g.c_src[idx]
        c_tin = g.c_tin[idx]
        c_tout = g.c_tout[idx]
        slew_in = np.clip(self.slew[c_src, c_tin], 0.0, 1e6)
        load = np.full(len(idx), self.driver_load[p])
        delay = g.lutbank.lookup(g.c_lut_delay[idx], slew_in, load)
        out_slew = g.lutbank.lookup(g.c_lut_slew[idx], slew_in, load)
        at_cand = self.at[c_src, c_tin] + delay
        at = np.full(2, -1e30)
        slew = np.zeros(2)
        for t in (RISE, FALL):
            m = c_tout == t
            if np.any(m):
                at[t] = at_cand[m].max()
                slew[t] = out_slew[m].max()
        return at, slew

    def _endpoint_slack(self, p: int) -> float:
        g = self.graph
        period = self.design.constraints.clock_period
        k = self._endpoint_idx_of_pin[p]
        if k < len(g.setup_d):  # setup checks come first
            slacks = np.empty(2)
            for t in (RISE, FALL):
                setup_time = g.lutbank.lookup(
                    np.array([g.setup_lut[k, t]]),
                    np.array([np.clip(self.slew[p, t], 0.0, 1e6)]),
                    np.array([g.clock_slew]),
                )[0]
                slacks[t] = (period - setup_time) - self.at[p, t]
            return float(slacks.min())
        # Output port endpoint.
        which = np.nonzero(g.po_pins == p)[0][0]
        rat = period - g.po_output_delay[which]
        return float((rat - self.at[p]).min())

    # ------------------------------------------------------------------
    def move(
        self,
        cells: Iterable[int],
        new_x: Iterable[float],
        new_y: Iterable[float],
    ) -> Tuple[float, float]:
        """Move cells and incrementally refresh timing; returns (WNS, TNS)."""
        design = self.design
        cells = np.fromiter(cells, dtype=np.int64)
        self.x[cells] = np.fromiter(new_x, dtype=float)
        self.y[cells] = np.fromiter(new_y, dtype=float)
        self.n_incremental_updates += 1

        # Nets touching any moved cell.
        starts = self._cell_pin_start[cells]
        counts = self._cell_pin_start[cells + 1] - starts
        nets = np.unique(design.pin2net[self._cell_pins[gather_csr(starts, counts)]])
        nets = nets[nets >= 0]
        with PROFILER.stage("incremental.reroute"):
            self._reroute_nets(nets)

        # Dirty pins: sinks of changed nets (net-arc values changed) and
        # drivers of changed nets (their input cell arcs see a new load).
        nets = nets[~design.net_is_clock[nets]]
        starts = design.net2pin_start[nets]
        counts = design.net2pin_start[nets + 1] - starts
        with PROFILER.stage("incremental.sweep"):
            touched_endpoints = self._sweep(
                design.net2pin[gather_csr(starts, counts)]
            )
        with PROFILER.stage("incremental.endpoints"):
            self._refresh_endpoint_slacks(touched_endpoints)
        self._refresh_totals()
        recorder = current_recorder()
        # Throttled: one event per 32 moves keeps high-churn ECO loops
        # from dominating the stream.
        if recorder is not None and (self.n_incremental_updates & 31) == 1:
            recorder.event(
                "incremental",
                updates=self.n_incremental_updates,
                pins_recomputed=self.n_pins_recomputed,
                wns=self.wns,
                tns=self.tns,
            )
        return self.wns, self.tns

    def counters(self) -> Dict[str, int]:
        """Cumulative work counters for telemetry/reporting."""
        return {
            "incremental_updates": self.n_incremental_updates,
            "pins_recomputed": self.n_pins_recomputed,
        }

    # ------------------------------------------------------------------
    # Batched level-ordered sweep
    # ------------------------------------------------------------------
    def _sweep(self, dirty: np.ndarray) -> np.ndarray:
        """Level-ordered batched sweep of the affected cone.

        Returns the endpoint pins whose slack needs refreshing.  Levels
        strictly increase along propagation edges, so each level is
        finalised in one batch before any of its fan-out levels runs.
        """
        is_dirty = np.zeros(self.design.n_pins, dtype=bool)
        is_dirty[dirty] = True
        touched: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        for level_pins in self.plan.level_pins:
            pins = level_pins[is_dirty[level_pins]]
            if not len(pins):
                continue
            self.n_pins_recomputed += len(pins)
            old_at, old_slew = self.at[pins], self.slew[pins]
            propagate(
                self.plan, self.graph.lutbank, self.net_delay, self.impulse2,
                self.driver_load, self.at, self.slew, "max", pins=pins,
            )
            touched.append(pins[self._endpoint_idx_of_pin[pins] >= 0])
            changed = pins[
                (np.abs(self.at[pins] - old_at).max(axis=1) > _EPS)
                | (np.abs(self.slew[pins] - old_slew).max(axis=1) > _EPS)
            ]
            starts = self._out_start[changed]
            counts = self._out_start[changed + 1] - starts
            is_dirty[self._out_dst[gather_csr(starts, counts)]] = True
        return np.concatenate(touched)

    def _refresh_endpoint_slacks(self, pins: np.ndarray) -> None:
        """Batched slack refresh for the given endpoint pins."""
        ep_idx = self._endpoint_idx_of_pin[pins]
        rat, _ = endpoint_rat(self.graph, self.slew, ep_idx)
        self.ep_slack[ep_idx] = (rat - self.at[pins]).min(axis=1)

    # ------------------------------------------------------------------
    def verify(self, rtol: float = 1e-6, atol: float = 1e-6) -> "VerifyReport":
        """Cross-check the incremental state against a full re-analysis.

        Returns a :class:`VerifyReport` that is truthy when the state
        matches (so ``assert timer.verify()`` still works) and, on a
        mismatch, names the worst-offending endpoint pin and the
        magnitude of the slack/WNS/TNS drift - the data actually needed to
        debug a divergent incremental update.

        Note: the full analysis re-routes every net from scratch, so trees
        of *unmoved* nets must coincide; this holds because RSMT
        construction is deterministic in the pin coordinates.
        """
        result = self._sta.run(self.x, self.y)
        delta = np.abs(self.ep_slack - result.endpoint_slack)
        tolerance = atol + rtol * np.abs(result.endpoint_slack)
        slack_ok = bool(np.all(delta <= tolerance))
        wns_delta = self.wns - result.wns_setup
        tns_delta = self.tns - result.tns_setup
        wns_ok = abs(wns_delta) <= atol + rtol * abs(result.wns_setup)
        tns_ok = abs(tns_delta) <= atol + rtol * abs(result.tns_setup)

        worst_pin = -1
        worst_pin_name = ""
        worst_delta = 0.0
        if len(delta):
            k = int(np.argmax(delta - tolerance))
            worst_pin = int(self.graph.endpoint_pins[k])
            worst_pin_name = self.design.pin_name[worst_pin]
            worst_delta = float(delta[k])
        return VerifyReport(
            ok=slack_ok and wns_ok and tns_ok,
            worst_endpoint_pin=worst_pin,
            worst_endpoint_name=worst_pin_name,
            worst_slack_delta=worst_delta,
            wns_delta=float(wns_delta),
            tns_delta=float(tns_delta),
            n_endpoints=len(delta),
        )
