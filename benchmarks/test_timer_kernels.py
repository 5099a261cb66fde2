"""Kernel throughput benchmarks for the differentiable timer (Section 3.6).

The paper's efficiency claims rest on fast forward and backward timing
kernels plus Steiner-tree reuse.  These micro benchmarks measure every
stage of Figure 3 on a mid-size design: RSMT construction (the FLUTE
substitute), the compiled pre-pass (pin coordinates to the 4-pass Elmore
DP and the timers' per-pin inputs), the Elmore adjoint, the whole
forward, the two-seed backward (one compiled adjoint from the endpoint
seeds to the cells), and the golden STA for comparison.
"""

import numpy as np
import pytest

from repro.core import DifferentiableTimer
from repro.core.elmore_grad import elmore_backward
from repro.place import DensityModel, WAWirelength
from repro.route import build_forest
from repro.sta import StaticTimingAnalyzer
from repro.sta.elmore import design_elmore, elmore_forward, node_caps


@pytest.fixture(scope="module")
def env(kernel_design):
    design, x, y = kernel_design
    forest = build_forest(design, x, y)
    timer = DifferentiableTimer(design, gamma=20.0)
    tape = timer.forward(x, y, forest)
    px, py = design.pin_positions(x, y)
    nx, ny = forest.node_coords(px, py)
    caps = node_caps(forest, design.pin_cap, timer.graph.extra_pin_cap)
    return design, x, y, forest, timer, tape, nx, ny, caps


def test_bench_rsmt_build(benchmark, kernel_design):
    """FLUTE-substitute: route every net of the design."""
    design, x, y = kernel_design
    forest = benchmark(build_forest, design, x, y)
    assert forest.n_nodes > design.n_pins * 0.5


def test_bench_timer_prepass(benchmark, env):
    """Pin coordinates -> Elmore moments and the per-pin timer inputs."""
    design, x, y, forest, timer, tape, *_ = env
    px, py = design.pin_positions(x, y)
    elm, pins = benchmark(
        design_elmore, design, forest, px, py, timer.graph.extra_pin_cap
    )
    assert (elm.delay >= 0).all() and (pins >= 0).all()


def test_bench_elmore_backward(benchmark, env):
    design, x, y, forest, timer, tape, nx, ny, caps = env
    elm = elmore_forward(forest, nx, ny, caps, design.library.wire)
    rng = np.random.default_rng(0)
    g = rng.normal(size=forest.n_nodes)
    z = np.zeros(forest.n_nodes)
    gx, gy = benchmark(
        elmore_backward, forest, elm, design.library.wire, g, z, z
    )
    assert np.isfinite(gx).all()


def test_bench_timer_forward(benchmark, env):
    design, x, y, forest, timer, tape, *_ = env
    out = benchmark(timer.forward, x, y, forest)
    assert out.tns <= 0.0


def test_bench_timer_backward(benchmark, env):
    """Both term gradients of the placement objective in one call."""
    design, x, y, forest, timer, tape, *_ = env
    seeds = [(-1.0, 0.0), (0.0, -1.0)]
    (gx, gy), _ = benchmark(timer.backward, tape, seeds=seeds)
    assert np.isfinite(gx).all()


def test_bench_golden_sta_with_routing(benchmark, kernel_design):
    """The cost of one net-weighting STA call (fresh routing, as in [24])."""
    design, x, y = kernel_design
    sta = StaticTimingAnalyzer(design)
    result = benchmark(sta.run, x, y)
    assert result.wns_setup < 0


def test_bench_golden_sta_forest_reuse(benchmark, env):
    """The same STA when trees are reused (our Section 3.6 strategy)."""
    design, x, y, forest, *_ = env
    sta = StaticTimingAnalyzer(design)
    result = benchmark(sta.run, x, y, forest)
    assert result.wns_setup < 0


def test_bench_wirelength_gradient(benchmark, kernel_design):
    design, x, y = kernel_design
    wa = WAWirelength(design)
    wl, gx, gy = benchmark(wa.evaluate, x, y, 2.0)
    assert wl > 0


def test_bench_density_evaluation(benchmark, kernel_design):
    design, x, y = kernel_design
    model = DensityModel(design, n_bins=32)
    result = benchmark(model.evaluate, x, y)
    assert result.overflow >= 0


def test_timer_faster_than_fresh_sta_plus_routing(env, kernel_design):
    """Sanity: fwd+bwd with tree reuse beats one route-from-scratch STA.

    This is the mechanism behind the paper's 1.80x speed-up over the
    net-weighting placer: the expensive step is FLUTE, and our flow calls
    it every 10 iterations instead of at every STA evaluation.
    """
    import time

    design, x, y, forest, timer, tape, *_ = env
    sta = StaticTimingAnalyzer(design)

    t0 = time.perf_counter()
    for _ in range(5):
        tp = timer.forward(x, y, forest)
        timer.backward(tp, -0.01, -0.001)
    timer_cost = (time.perf_counter() - t0) / 5

    t0 = time.perf_counter()
    for _ in range(5):
        sta.run(x, y)  # re-routes every call
    sta_cost = (time.perf_counter() - t0) / 5
    assert timer_cost < sta_cost
