"""Property-based fuzzing across subsystem boundaries.

Random generator specs, placements and netlists are pushed through the
full stack (generation -> routing -> STA -> legalization) and global
invariants are asserted.  Examples are deliberately small: the goal is
structural coverage of odd shapes (tiny depths, huge fanout, degenerate
coordinates), not statistical load.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import GeneratorSpec, generate_design
from repro.place import hpwl, legalize, max_overlap
from repro.route import build_forest
from repro.sta import TimingGraph, run_sta

spec_strategy = st.builds(
    GeneratorSpec,
    n_cells=st.integers(min_value=40, max_value=220),
    depth=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=10**6),
    ff_fraction=st.floats(min_value=0.05, max_value=0.3),
    n_inputs=st.integers(min_value=2, max_value=16),
    n_outputs=st.integers(min_value=2, max_value=16),
    max_fanout=st.integers(min_value=3, max_value=12),
    n_high_fanout_nets=st.integers(min_value=0, max_value=3),
    utilization=st.floats(min_value=0.4, max_value=0.85),
)


@settings(max_examples=12, deadline=None)
@given(spec=spec_strategy)
def test_generated_designs_satisfy_global_invariants(spec):
    design = generate_design(spec)
    # Structure.
    assert (design.net_driver >= 0).all()
    assert (design.net_degrees >= 2).all()
    assert design.net_is_clock.sum() == 1
    assert design.movable_area / design.die_area == pytest.approx(
        spec.utilization, abs=0.03
    )
    # Timing graph builds (acyclic) and STA is finite at the default
    # placement.
    graph = TimingGraph(design)
    assert graph.n_endpoints > 0
    result = run_sta(design)
    assert np.isfinite(result.wns_setup)
    assert result.tns_setup <= 0.0
    assert (np.abs(result.endpoint_slack) < 1e29).all()


@settings(max_examples=10, deadline=None)
@given(
    spec=spec_strategy,
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_random_placements_route_time_and_legalize(spec, seed):
    design = generate_design(spec)
    rng = np.random.default_rng(seed)
    xl, yl, xh, yh = design.die
    x = rng.uniform(xl, xh, design.n_cells)
    y = rng.uniform(yl, yh, design.n_cells)
    x[design.cell_fixed] = design.cell_x[design.cell_fixed]
    y[design.cell_fixed] = design.cell_y[design.cell_fixed]

    # Routing: every timing net gets a connected tree not longer than HPWL
    # would allow being shorter (RSMT >= half-perimeter per net).
    forest = build_forest(design, x, y)
    px, py = design.pin_positions(x, y)
    assert forest.total_wirelength(px, py) >= 0

    # Timing is finite at arbitrary placements.
    result = run_sta(design, x, y)
    assert np.isfinite(result.wns_setup)
    # AT at a net sink is never earlier than at its driver (wire delay >= 0).
    g = result.graph
    reached = result.at[g.net_src].max(axis=1) > -1e29
    assert (
        result.at[g.net_sink].max(axis=1)[reached]
        >= result.at[g.net_src].max(axis=1)[reached] - 1e-9
    ).all()

    # Legalization always yields an overlap-free in-die placement.
    lx, ly = legalize(design, x, y)
    assert max_overlap(design, lx, ly) < 1e-9
    movable = ~design.cell_fixed
    assert (lx[movable] - 0.5 * design.cell_w[movable] >= xl - 1e-9).all()
    assert (lx[movable] + 0.5 * design.cell_w[movable] <= xh + 1e-9).all()


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=16),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_elmore_delay_monotone_along_root_paths(n, seed):
    """Downstream of the driver, Elmore delay can only accumulate."""
    from repro.route import Forest
    from tests.reference_rsmt import build_rsmt
    from repro.sta.elmore import elmore_forward, node_caps
    from repro.netlist import WireModel

    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 50, n)
    y = rng.uniform(0, 50, n)
    tree = build_rsmt(x, y, np.arange(n), driver_local=0)
    forest = Forest([tree], n)
    caps = np.zeros(forest.n_nodes)
    caps[forest.node_pin >= 0] = rng.uniform(0.5, 5.0, tree.n_pins)
    elm = elmore_forward(
        forest, tree.x, tree.y, caps, WireModel(0.01, 0.2)
    )
    hp = forest.parent >= 0
    assert (elm.delay[hp] >= elm.delay[forest.parent[hp]] - 1e-12).all()
    assert (elm.load <= elm.load[forest.is_root].max() + 1e-9).all()


@settings(max_examples=15, deadline=None)
@given(
    n_cells=st.integers(min_value=5, max_value=60),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_wa_wirelength_bounds_hold_for_random_inputs(n_cells, seed):
    """Smoothed wirelength stays within its theoretical HPWL bounds."""
    from repro.place.wirelength import WAWirelength

    design = generate_design(
        GeneratorSpec(n_cells=max(n_cells, 40), depth=3, seed=seed)
    )
    rng = np.random.default_rng(seed)
    x = design.cell_x + rng.normal(0, 4, design.n_cells)
    y = design.cell_y + rng.normal(0, 4, design.n_cells)
    wa = WAWirelength(design)
    gamma = float(rng.uniform(0.5, 8.0))
    smooth, gx, gy = wa.evaluate(x, y, gamma)
    exact = hpwl(design, x, y)
    assert smooth <= exact + 1e-6
    assert np.isfinite(gx).all() and np.isfinite(gy).all()
