"""Speedup measurement: vectorised levelisation.

The Kahn levelisation inner loop on the timing set-up path was replaced
by a wave-batched NumPy kernel.  This benchmark re-implements the scalar
loop as an oracle, times both variants on the largest miniblue design
(miniblue7), asserts the acceptance floor of a >= 2x speedup and dumps
the measured times to ``benchmarks/results/``.
"""

import time
from typing import List

import numpy as np
import pytest
from conftest import write_artifact

from repro.harness import load_design
from repro.sta import TimingGraph
from repro.sta.graph import levelize as vector_levelize


# ----------------------------------------------------------------------
# Scalar oracle: the pre-vectorisation implementation.
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
    return pairs[:, 0], pairs[:, 1]


@pytest.fixture(scope="module")
def measurements(miniblue7, propagation_edges):
    edges_src, edges_dst = propagation_edges
    n_pins = miniblue7.n_pins
    t0 = time.perf_counter()
    ref_level = scalar_levelize(edges_src, edges_dst, n_pins)
    t_scalar_lvl = time.perf_counter() - t0
    t0 = time.perf_counter()
    vec_level = vector_levelize(edges_src, edges_dst, n_pins)
    t_vector_lvl = time.perf_counter() - t0
    np.testing.assert_array_equal(vec_level, ref_level)
    return {
        "scalar_levelize": t_scalar_lvl,
        "vector_levelize": t_vector_lvl,
        "n_pins": n_pins,
        "n_edges": len(edges_src),
    }


def test_hotpath_artifact(benchmark, measurements):
    m = measurements
    lines = [
        f"design=miniblue7 pins={m['n_pins']} prop_edges={m['n_edges']}",
        f"{'kernel':<22} {'scalar(s)':>10} {'vector(s)':>10} {'speedup':>8}",
        f"{'levelisation':<22} {m['scalar_levelize']:>10.4f} "
        f"{m['vector_levelize']:>10.4f} "
        f"{m['scalar_levelize'] / m['vector_levelize']:>8.1f}",
    ]
    write_artifact("hotpath_vectorization.txt", "\n".join(lines))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_levelisation_speedup_floor(measurements):
    speedup = (
        measurements["scalar_levelize"] / measurements["vector_levelize"]
    )
    assert speedup >= 2.0, f"levelisation speedup only {speedup:.2f}x"
