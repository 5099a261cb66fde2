"""The compiled sweep against the NumPy kernels it replaced, bit for bit.

``tests/reference_sweep.py`` keeps the per-level NumPy kernels and the
Python tree loops (``tests/reference_timer.py`` the glue around them);
every compiled entry point must return exactly their arrays (NaN where they have NaN) on miniblue18 at a spread placement, on
the same graph with half its slew axes and a third of its load axes moved
(a mixed-axis LUT batch, located by compare-and-count), on the same graph
with an eighth of its LUT entries NaN (the ``lut_corrupt`` fault) and with
both (NaN queries located by compare-and-count).
"""

import contextlib
import logging
import warnings

import numpy as np
import pytest

import tests.reference_sweep as ref
import tests.reference_timer as timer_ref
from tests.test_timer_oracle import assert_call_matches, mixed_axes, nan_entries
from repro.core import DifferentiableTimer
from repro.core.elmore_grad import elmore_backward
from repro.core.propagate import propagate, start_state
from repro.harness import load_design
from repro.route import build_forest
from repro.sta import TimingGraph
from repro.sta.analysis import StaticTimingAnalyzer
from repro.sta.elmore import design_elmore, elmore_forward

CASES = ("miniblue18", "mixed", "nan", "mixed-nan")


@pytest.fixture(scope="module", params=CASES)
def case(request):
    design = load_design("miniblue18")
    graph = TimingGraph(design)
    if "mixed" in request.param:
        mixed_axes(graph)
        levels = [cell for _, cell in graph.plan.levels if cell is not None]
        assert graph.plan.query.x_axis == graph.plan.query.y_axis == -1
        assert any(cell.query.x_axis == -1 for cell in levels)
    if "nan" in request.param:
        nan_entries(graph)
    rng = np.random.default_rng(18)
    x = design.cell_x + rng.normal(0, 20, design.n_cells)
    y = design.cell_y + rng.normal(0, 20, design.n_cells)
    x[design.cell_fixed] = design.cell_x[design.cell_fixed]
    y[design.cell_fixed] = design.cell_y[design.cell_fixed]
    forest = build_forest(design, x, y)
    elm, pins = design_elmore(
        design, forest, *design.pin_positions(x, y), graph.extra_pin_cap
    )
    return request.param, design, graph, x, y, forest, elm, pins


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a, b, equal_nan=True)


@contextlib.contextmanager
def _quiet(case_name):
    """NaN operands make NumPy warn (an error under pytest): on the NaN
    tape both sides run with RuntimeWarnings ignored."""
    with warnings.catch_warnings():
        if "nan" in case_name:
            warnings.simplefilter("ignore", RuntimeWarning)
        yield


@pytest.mark.parametrize("merge", ["lse", "max", "min"])
def test_forward_sweep(case, merge):
    name, design, graph, _, _, forest, elm, pin_values = case
    want = timer_ref.pin_elmore(forest, elm, design.n_pins, "elmore")
    assert all(_same(a, b) for a, b in zip(pin_values, want))
    fill = (-1e30, 0.0) if merge != "min" else (1e30, 1e30)
    runs = []
    for sweep, start in ((propagate, start_state), (ref.propagate, timer_ref.start_state)):
        at, slew = start(graph.plan, *fill)
        with _quiet(name):
            tape = sweep(
                graph.plan, graph.lutbank, *pin_values, at, slew, merge,
                20.0, partials=merge == "lse",
            )
        runs.append((at, slew, *tape))
    got, want = runs
    for field, a, b in zip(("at", "slew", *tape._fields), got, want):
        assert _same(a, b), field
    if "nan" in name:
        assert np.isnan(got[2]).any()


@pytest.mark.parametrize("n_seeds", [1, 2])
def test_backward_sweep(case, n_seeds):
    """The level sweep inside the compiled timer call: the whole forward
    and backward against the NumPy sweep and glue, every tape array and
    every seed's gradients."""
    name, design, graph, x, y, forest, *_ = case
    timer = DifferentiableTimer(design, graph=graph)
    with _quiet(name):
        _, grads = assert_call_matches(timer, x, y, forest, n_seeds)
    assert np.any(grads[0][0] != 0.0)


def test_required_times(case):
    name, design, graph, x, y, forest, *_ = case
    analyzer = StaticTimingAnalyzer(design, graph=graph)
    with _quiet(name):
        result = analyzer.run(x, y, forest=forest)
        want = ref.required_times(graph, result.slew, result.net_delay, result.tape.delay)
    assert _same(result.rat, want)
    assert (result.rat < 1e29).any()


def test_elmore_forward(case):
    _, design, _, x, y, forest, elm, _ = case
    node_x, node_y = forest.node_coords(*design.pin_positions(x, y))
    caps = forest.caps_cache[2]
    want = ref.elmore_forward(forest, node_x, node_y, caps, design.library.wire)
    got = elmore_forward(forest, node_x, node_y, caps, design.library.wire)
    for field in ("load", "delay", "ldelay", "beta"):
        assert _same(getattr(got, field), getattr(want, field)), field
        assert _same(getattr(elm, field), getattr(want, field)), field


@pytest.mark.parametrize("n_seeds", [1, 2])
def test_elmore_adjoint(case, n_seeds):
    _, design, _, _, _, forest, elm, _ = case
    rng = np.random.default_rng(7 + n_seeds)
    shape = (n_seeds, forest.n_nodes) if n_seeds > 1 else (forest.n_nodes,)
    grads = [rng.standard_normal(shape) for _ in range(4)]
    wire = design.library.wire
    want = ref.elmore_adjoint(forest, elm, wire, [g.copy() for g in grads])
    got = elmore_backward(forest, elm, wire, *grads)
    assert _same(got[0], want[0]) and _same(got[1], want[1])


def test_nan_tape_trips_the_guard_at_the_fault(monkeypatch, caplog):
    """A ``lut_corrupt`` fault at iteration 8 poisons that iteration's
    timing term and the guard quarantines it there, as it did when the
    sweep was NumPy's."""
    from repro.core.objective import TimingObjectiveOptions
    from repro.core.timing_placer import TimingDrivenPlacer, TimingPlacerOptions
    from repro.place.placer import PlacerOptions

    monkeypatch.setenv("REPRO_INJECT_FAULT", "lut_corrupt@8")
    caplog.set_level(logging.WARNING, logger="repro.runtime")
    result = TimingDrivenPlacer(
        load_design("miniblue1"),
        TimingPlacerOptions(
            placer=PlacerOptions(max_iters=12, min_iters=5, seed=0),
            timing=TimingObjectiveOptions(start_iteration=5),
            sta_in_trace=False,
        ),
    ).run()
    assert result.nonfinite_events.get("timing", 0) >= 1
    timing = [r.getMessage() for r in caplog.records if "timing" in r.getMessage()]
    assert timing and timing[0].startswith("iteration 8:")
