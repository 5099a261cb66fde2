"""Speedup measurement: vectorised levelisation & incremental cone sweep.

The two remaining scalar Python loops on the timing hot path - the Kahn
levelisation inner loop and the per-pin worklist of the incremental
engine - were replaced by wave/level batched NumPy kernels.  This
benchmark re-implements the scalar loops as oracles, times both variants
on the largest miniblue design (miniblue7) and asserts the acceptance
floor of a >= 2x speedup for each, dumping the measured times plus the
``--profile``-style per-layer span table to ``benchmarks/results/``.
"""

import time
from typing import Dict, List, Set, Tuple

import numpy as np
import pytest
from conftest import write_artifact

from repro.harness import load_design
from repro.perf import PROFILER, flow_stats, format_stats, install
from repro.sta import IncrementalTimer, TimingGraph, levelize
from repro.sta.graph import levelize as vector_levelize

_EPS = 1e-9


# ----------------------------------------------------------------------
# Scalar oracles: the pre-vectorisation implementations.
# ----------------------------------------------------------------------
def scalar_levelize(
    edges_src: np.ndarray, edges_dst: np.ndarray, n_pins: int
) -> np.ndarray:
    """The old per-edge Kahn inner loop."""
    level = np.zeros(n_pins, dtype=np.int64)
    indegree = np.bincount(edges_dst, minlength=n_pins)
    frontier = np.nonzero(indegree == 0)[0]
    remaining = indegree.copy()
    order = np.argsort(edges_src, kind="stable")
    dst_sorted = edges_dst[order]
    out_start = np.zeros(n_pins + 1, dtype=np.int64)
    np.cumsum(np.bincount(edges_src, minlength=n_pins), out=out_start[1:])
    while len(frontier):
        next_set: List[int] = []
        for u in frontier:
            for k in range(out_start[u], out_start[u + 1]):
                v = dst_sorted[k]
                level[v] = max(level[v], level[u] + 1)
                remaining[v] -= 1
                if remaining[v] == 0:
                    next_set.append(v)
        frontier = np.array(next_set, dtype=np.int64)
    return level


class ScalarSweepTimer(IncrementalTimer):
    """IncrementalTimer with the old per-pin dict-of-sets worklist."""

    def _sweep(self, dirty: np.ndarray) -> np.ndarray:
        levels_of = self.graph.level
        worklist: Dict[int, Set[int]] = {}
        for p in dirty:
            worklist.setdefault(int(levels_of[p]), set()).add(int(p))
        touched: Set[int] = set()
        while worklist:
            level = min(worklist)
            pins = worklist.pop(level)
            for p in sorted(pins):
                self.n_pins_recomputed += 1
                at, slew = self._recompute_pin(p)
                changed = (
                    np.abs(at - self.at[p]).max() > _EPS
                    or np.abs(slew - self.slew[p]).max() > _EPS
                )
                if self._endpoint_idx_of_pin[p] >= 0:
                    touched.add(p)
                if not changed:
                    continue
                self.at[p] = at
                self.slew[p] = slew
                for k in range(self._out_start[p], self._out_start[p + 1]):
                    q = int(self._out_dst[k])
                    worklist.setdefault(int(levels_of[q]), set()).add(q)
        return np.array(sorted(touched), dtype=np.int64)

    def _refresh_endpoint_slacks(self, pins: np.ndarray) -> None:
        for p in pins:
            self.ep_slack[self._endpoint_idx_of_pin[int(p)]] = (
                self._endpoint_slack(int(p))
            )


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def miniblue7():
    """The largest suite design (superblue7 analogue)."""
    return load_design("miniblue7")


@pytest.fixture(scope="module")
def propagation_edges(miniblue7):
    graph = TimingGraph(miniblue7)
    edges_src = np.concatenate([graph.net_src, graph.c_src])
    edges_dst = np.concatenate([graph.net_sink, graph.c_dst])
    pairs = np.unique(np.stack([edges_src, edges_dst], axis=1), axis=0)
    return graph, pairs[:, 0], pairs[:, 1]


def _move_sequence(design, n_moves: int = 40):
    rng = np.random.default_rng(77)
    movable = np.nonzero(~design.cell_fixed)[0]
    xl, yl, xh, yh = design.die
    cells = rng.choice(movable, n_moves)
    dx = rng.normal(0, 6, n_moves)
    dy = rng.normal(0, 6, n_moves)
    return cells, dx, dy, (xl, yl, xh, yh)


def _run_moves(timer, design, cells, dx, dy, die) -> Tuple[float, float, float]:
    xl, yl, xh, yh = die
    start = time.perf_counter()
    wns = tns = 0.0
    for ci, ddx, ddy in zip(cells, dx, dy):
        nx = float(np.clip(timer.x[ci] + ddx, xl, xh))
        ny = float(np.clip(timer.y[ci] + ddy, yl, yh))
        wns, tns = timer.move([ci], [nx], [ny])
    return time.perf_counter() - start, wns, tns


@pytest.fixture(scope="module")
def measurements(miniblue7, propagation_edges):
    graph, edges_src, edges_dst = propagation_edges
    n_pins = miniblue7.n_pins

    # --- Levelisation: scalar loop vs wave-vectorised sweep. ----------
    t0 = time.perf_counter()
    ref_level = scalar_levelize(edges_src, edges_dst, n_pins)
    t_scalar_lvl = time.perf_counter() - t0
    t0 = time.perf_counter()
    vec_level = vector_levelize(edges_src, edges_dst, n_pins)
    t_vector_lvl = time.perf_counter() - t0
    np.testing.assert_array_equal(vec_level, ref_level)

    # --- Incremental cone sweep: per-pin worklist vs batched levels. --
    cells, dx, dy, die = _move_sequence(miniblue7)
    scalar_timer = ScalarSweepTimer(miniblue7, graph)
    scalar_timer.reset()
    t_scalar_sweep, wns_s, tns_s = _run_moves(
        scalar_timer, miniblue7, cells, dx, dy, die
    )
    vector_timer = IncrementalTimer(miniblue7, graph)
    vector_timer.reset()
    uninstall = install(PROFILER)
    try:
        t_vector_sweep, wns_v, tns_v = _run_moves(
            vector_timer, miniblue7, cells, dx, dy, die
        )
        profile = format_stats(
            flow_stats(PROFILER.spans), "miniblue7 incremental move sequence"
        )
    finally:
        uninstall()
        PROFILER.reset()
    assert wns_v == pytest.approx(wns_s, abs=1e-6)
    assert tns_v == pytest.approx(tns_s, abs=1e-5)
    np.testing.assert_allclose(
        vector_timer.ep_slack, scalar_timer.ep_slack, atol=1e-8
    )

    return {
        "scalar_levelize": t_scalar_lvl,
        "vector_levelize": t_vector_lvl,
        "scalar_sweep": t_scalar_sweep,
        "vector_sweep": t_vector_sweep,
        "n_pins": n_pins,
        "n_edges": len(edges_src),
        "n_moves": len(cells),
        "profile": profile,
    }


def test_hotpath_artifact(benchmark, measurements):
    m = measurements
    lines = [
        f"design=miniblue7 pins={m['n_pins']} prop_edges={m['n_edges']} "
        f"moves={m['n_moves']}",
        f"{'kernel':<22} {'scalar(s)':>10} {'vector(s)':>10} {'speedup':>8}",
        f"{'levelisation':<22} {m['scalar_levelize']:>10.4f} "
        f"{m['vector_levelize']:>10.4f} "
        f"{m['scalar_levelize'] / m['vector_levelize']:>8.1f}",
        f"{'incremental sweep':<22} {m['scalar_sweep']:>10.4f} "
        f"{m['vector_sweep']:>10.4f} "
        f"{m['scalar_sweep'] / m['vector_sweep']:>8.1f}",
        "",
        m["profile"],
    ]
    write_artifact("hotpath_vectorization.txt", "\n".join(lines))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_levelisation_speedup_floor(measurements):
    speedup = (
        measurements["scalar_levelize"] / measurements["vector_levelize"]
    )
    assert speedup >= 2.0, f"levelisation speedup only {speedup:.2f}x"


def test_incremental_sweep_speedup_floor(measurements):
    speedup = measurements["scalar_sweep"] / measurements["vector_sweep"]
    assert speedup >= 2.0, f"incremental sweep speedup only {speedup:.2f}x"


def test_profile_breakdown_covers_sweep_stages(measurements):
    for stage in (
        "sta.incremental.reroute",
        "sta.incremental.sweep",
        "sta.incremental.endpoints",
    ):
        assert stage in measurements["profile"]
