"""Whole timer calls against the NumPy glue they replaced, bit for bit.

The compiled pre-pass, sweep, post-pass and adjoint of
``repro.core.sweep`` must give every array of the
:class:`~repro.core.difftimer.TimerTape`, TNS/WNS and every seed's cell
gradients exactly as ``tests/reference_timer.py`` (the deleted Python
glue around the NumPy kernels of ``tests/reference_sweep.py``) does:
miniblue18 at its seed placement and at a scatter, with one and two
seeds, under both wire-delay models, with an eighth of the LUT bank NaN
(the ``lut_corrupt`` fault), with NaN cells on a reused forest, and on a
design without endpoints.
"""

import warnings

import numpy as np
import pytest

import tests.reference_timer as timer_ref
from repro.core import DifferentiableTimer
from repro.harness import load_design
from repro.netlist import DesignBuilder, default_library
from repro.route import RoutePlan, build_forest
from repro.route.rsmt import build_forest_from_plan
from repro.sta import TimingGraph, run_sta
from repro.sta.clock import propagate_clock

TAPE_ARRAYS = (
    "at", "slew", "cand", "d_dslew", "d_dload", "ep_slack_t", "ep_slack",
    "setup_dsetup_dslew",
)
ELMORE_ARRAYS = (
    "edge_res", "cap", "load", "delay", "ldelay", "beta", "dir_x", "dir_y",
)
SEEDS = [(-1.0, 0.0), (0.0, -1.0)]


def mixed_axes(graph: TimingGraph) -> None:
    """Stretch the slew axis of every other table and the load axis of
    every third: the plan's batch is no longer on one axis along either,
    and neither are most of its levels."""
    bank = graph.lutbank
    bank.x[::2] *= 1.25
    bank.y[::3] *= 1.5
    bank.__dict__.pop("_dims", None)
    graph.__dict__.pop("plan", None)


def nan_entries(graph: TimingGraph) -> None:
    """What a ``lut_corrupt`` fault does to the bank."""
    flat = graph.lutbank.values.reshape(-1)
    rng = np.random.default_rng(0)
    flat[rng.choice(len(flat), size=len(flat) // 8, replace=False)] = np.nan


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


def assert_call_matches(timer, x, y, forest, n_seeds):
    """Forward and backward of ``timer`` against the oracle's."""
    got = timer.forward(x, y, forest)
    want = timer_ref.forward(timer, x, y, forest)
    for field in TAPE_ARRAYS:
        assert _same(getattr(got, field), getattr(want, field)), field
    for field in ELMORE_ARRAYS:
        assert _same(getattr(got.elmore, field), getattr(want.elmore, field)), field
    for field in ("tns", "wns", "lse_saturation"):
        assert _same(getattr(got, field), getattr(want, field)), field
    seeds = SEEDS[:n_seeds]
    grads = timer.backward(got, seeds=seeds)
    ref_grads = timer_ref.backward(timer, want, seeds=seeds)
    assert len(grads) == n_seeds
    for (gx, gy), (wx, wy) in zip(grads, ref_grads):
        assert _same(gx, wx) and _same(gy, wy)
    single = timer.backward(got, *SEEDS[0])
    ref_single = timer_ref.backward(timer, want, *SEEDS[0])
    assert _same(single[0], ref_single[0]) and _same(single[1], ref_single[1])
    return got, grads


@pytest.fixture(scope="module")
def mini18():
    design = load_design("miniblue18")
    return design, TimingGraph(design)


def _placement(design, where):
    if where == "seed":
        return design.cell_x.copy(), design.cell_y.copy()
    rng = np.random.default_rng(39)
    x = design.cell_x + rng.normal(0, 25, design.n_cells)
    y = design.cell_y + rng.normal(0, 25, design.n_cells)
    x[design.cell_fixed] = design.cell_x[design.cell_fixed]
    y[design.cell_fixed] = design.cell_y[design.cell_fixed]
    return x, y


@pytest.mark.parametrize("model", ["elmore", "d2m"])
@pytest.mark.parametrize("n_seeds", [1, 2])
@pytest.mark.parametrize("where", ["seed", "scatter"])
def test_miniblue18(mini18, where, n_seeds, model):
    design, graph = mini18
    x, y = _placement(design, where)
    forest = build_forest(design, x, y)
    timer = DifferentiableTimer(design, graph=graph, gamma=20.0, wire_delay_model=model)
    tape, grads = assert_call_matches(timer, x, y, forest, n_seeds)
    assert tape.tns < 0.0
    fixed = design.cell_fixed
    assert fixed.any()
    for gx, gy in grads:
        assert not gx[fixed].any() and not gy[fixed].any()
        assert gx[~fixed].any() and gy[~fixed].any()


@pytest.mark.parametrize("n_seeds", [1, 2])
def test_nan_lut_bank(n_seeds):
    """A ``lut_corrupt`` bank: NaN travels the same way through both."""
    design = load_design("miniblue18")
    graph = TimingGraph(design)
    nan_entries(graph)
    x, y = _placement(design, "scatter")
    forest = build_forest(design, x, y)
    timer = DifferentiableTimer(design, graph=graph)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        tape, grads = assert_call_matches(timer, x, y, forest, n_seeds)
    assert np.isnan(tape.cand).any()
    assert np.isnan(grads[0][0]).any()


@pytest.mark.parametrize("axes", ["shared", "mixed"])
def test_nan_cell_positions(axes):
    """NaN cells on a reused forest (a diverged step): NaN loads are placed
    on the load axis as searchsorted (one shared axis) or the compare-and-
    count (mixed axes) places them, and travel on the same way."""
    design = load_design("miniblue18")
    graph = TimingGraph(design)
    if axes == "mixed":
        mixed_axes(graph)
    x, y = _placement(design, "scatter")
    forest = build_forest(design, x, y)
    movable = np.flatnonzero(~design.cell_fixed)
    x[movable[::50]] = np.nan
    timer = DifferentiableTimer(design, graph=graph)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        tape, grads = assert_call_matches(timer, x, y, forest, 2)
    assert np.isnan(tape.d_dload).any() and np.isnan(grads[0][0]).any()


def test_no_endpoints():
    b = DesignBuilder("noend", default_library(), die=(0.0, 0.0, 60.0, 20.0))
    b.add_input("a", x=0.0, y=10.0)
    b.add_cell("u1", "INV_X1", x=20.0, y=10.0)
    b.add_cell("u2", "INV_X1", x=40.0, y=10.0)
    b.add_net("n0", ["a", "u1/A"])
    b.add_net("n1", ["u1/Y", "u2/A"])
    design = b.build()
    timer = DifferentiableTimer(design)
    assert timer.graph.n_endpoints == 0
    forest = build_forest(design, design.cell_x, design.cell_y)
    for n_seeds in (1, 2):
        tape, grads = assert_call_matches(
            timer, design.cell_x, design.cell_y, forest, n_seeds
        )
        assert tape.tns == tape.wns == 0.0
        assert not any(g.any() for pair in grads for g in pair)


def test_golden_sta_and_clock_share_the_pre_pass(mini18):
    """Golden STA's per-pin Elmore inputs and endpoint required times, and
    the propagated clock's arrivals, come from the same compiled passes:
    equal to the oracle's per-pin outputs and ``endpoint_rat``."""
    design, graph = mini18
    x, y = _placement(design, "scatter")
    result = run_sta(design, x, y, graph=graph)
    forest = result.forest
    elm = timer_ref.design_elmore(
        design, forest, *design.pin_positions(x, y), graph.extra_pin_cap
    )
    net_delay, impulse2, driver_load = timer_ref.pin_elmore(
        forest, elm, design.n_pins, "elmore"
    )
    assert _same(result.net_delay, net_delay)
    assert _same(result.driver_load, driver_load)
    assert _same(result.impulse, np.sqrt(impulse2))
    want_rat = timer_ref.endpoint_rat(graph, result.slew)[0]
    assert _same(result.rat[graph.endpoint_pins], want_rat)
    clocked = run_sta(design, x, y, graph=graph, propagated_clock=True)
    want_rat = timer_ref.endpoint_rat(graph, clocked.slew, clock=clocked.clock)[0]
    assert _same(clocked.rat[graph.endpoint_pins], want_rat)
    clock = propagate_clock(design, graph, x, y)
    px, py = design.pin_positions(x, y)
    clock_forest = build_forest_from_plan(RoutePlan(design, design.net_is_clock), px, py)
    elm = timer_ref.design_elmore(design, clock_forest, px, py, graph.extra_pin_cap)
    want_at = timer_ref.pin_elmore(clock_forest, elm, design.n_pins, "elmore")[0]
    assert _same(clock.at, want_at) and clock.skew > 0.0


def test_wrong_sizes_are_refused_before_the_kernels(mini18):
    """The public Elmore entry points hand user arrays to C: arrays of the
    wrong length are a ValueError, never an out-of-bounds read."""
    from repro.core.elmore_grad import elmore_backward
    from repro.sta.elmore import elmore_forward, node_caps

    design, _ = mini18
    forest = build_forest(design, design.cell_x, design.cell_y)
    nx, ny = forest.node_coords(*design.pin_positions())
    caps = node_caps(forest, design.pin_cap)
    wire = design.library.wire
    with pytest.raises(ValueError, match="forest of"):
        elmore_forward(forest, nx[:-1], ny, caps, wire)
    with pytest.raises(ValueError, match="forest of"):
        elmore_forward(forest, nx, ny, caps[:-1], wire)
    elm = elmore_forward(forest, nx, ny, caps, wire)
    ones = np.ones(forest.n_nodes)
    with pytest.raises(ValueError, match="forest of"):
        elmore_backward(forest, elm, wire, ones[:-1], ones[:-1], ones[:-1])
    with pytest.raises(ValueError, match="forest of"):
        elmore_backward(forest, elm, wire, ones, np.ones((2, forest.n_nodes)), ones)
