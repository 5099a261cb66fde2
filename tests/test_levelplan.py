"""The timers' level sweeps run on one per-graph level plan.

The plan only re-indexes the sweep (compact merge segments, flat
``pin * 2 + transition`` slots, stacked delay|slew lookups, seeds swept
together); the arithmetic and every slot's fold order are those of the
plain per-level formulation.  These tests hold it to that bit for bit,
against an in-test reference that merges over global ``2 * n_pins``
segment ids with one lookup per table.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DifferentiableTimer, check_gradient
from repro.core import cell_prop as cell_prop_mod
from repro.netlist import Constraints, DesignBuilder, default_library
from repro.route import build_forest
from repro.sta import TimingGraph, run_sta, worst_paths
from tests.reference_sweep import segment_lse_max
from tests.reference_timer import pin_elmore

SEEDS = [(-1.0, 0.0), (0.0, -1.0), (0.6, 0.4)]


def reference_forward(timer, tape, clip_max):
    """Level sweep of ``timer.forward`` in its plain form.

    Takes the Elmore outputs from ``tape`` and returns ``(at, slew, cand,
    d_dslew, d_dload)`` laid out like the tape's.
    """
    g = timer.graph
    bank = g.lutbank
    n_pins = timer.design.n_pins
    net_delay, impulse2, driver_load = pin_elmore(
        tape.forest, tape.elmore, n_pins, timer.wire_delay_model
    )
    at = np.full((n_pins, 2), -1e30)
    slew = np.zeros((n_pins, 2))
    at[g.start_pins] = g.start_at
    slew[g.start_pins] = g.start_slew
    n = len(g.c_dst)
    cand, d_dslew, d_dload = np.zeros((2, n)), np.zeros((2, n)), np.zeros((2, n))
    for level in range(1, g.n_levels):
        sl = g.net_arcs.level_slice(level)
        sinks, srcs = g.net_sink[sl], g.net_src[sl]
        at[sinks] = at[srcs] + net_delay[sinks][:, None]
        slew[sinks] = np.sqrt(slew[srcs] ** 2 + impulse2[sinks][:, None])
        sl = g.cell_arcs.level_slice(level)
        if sl.stop == sl.start:
            continue
        s, d, ti, to = g.c_src[sl], g.c_dst[sl], g.c_tin[sl], g.c_tout[sl]
        slew_raw = slew[s, ti]
        slew_in = np.clip(slew_raw, 0.0, clip_max)
        load = driver_load[d]
        clipped = (slew_raw < 0.0) | (slew_raw > clip_max)
        for row, table in enumerate((g.c_lut_delay, g.c_lut_slew)):
            v, dv_ds, dv_dl = bank.lookup_with_grad(table[sl], slew_in, load)
            cand[row, sl] = v
            d_dslew[row, sl] = np.where(clipped, 0.0, dv_ds)
            d_dload[row, sl] = dv_dl
        cand[0, sl] += at[s, ti]
        seg = d * 2 + to
        merged_at = segment_lse_max(cand[0, sl], seg, n_pins * 2, timer.gamma)
        merged_slew = segment_lse_max(cand[1, sl], seg, n_pins * 2, timer.gamma)
        touched = np.unique(seg)
        at.reshape(-1)[touched] = merged_at[touched]
        slew.reshape(-1)[touched] = merged_slew[touched]
    return at, slew, cand, d_dslew, d_dload


def assert_forward_matches_reference(timer, tape, clip_max=cell_prop_mod.SLEW_CLIP_MAX):
    ref = reference_forward(timer, tape, clip_max)
    got = (tape.at, tape.slew, tape.cand, tape.d_dslew, tape.d_dload)
    for name, a, b in zip(("at", "slew", "cand", "d_dslew", "d_dload"), got, ref):
        assert np.array_equal(a, b), name


@pytest.fixture(scope="module")
def env(small_design):
    rng = np.random.default_rng(21)
    x = small_design.cell_x + rng.normal(0, 6, small_design.n_cells)
    y = small_design.cell_y + rng.normal(0, 6, small_design.n_cells)
    x[small_design.cell_fixed] = small_design.cell_x[small_design.cell_fixed]
    y[small_design.cell_fixed] = small_design.cell_y[small_design.cell_fixed]
    forest = build_forest(small_design, x, y)
    timer = DifferentiableTimer(small_design, gamma=15.0)
    return timer, x, y, forest, timer.forward(x, y, forest)


class TestPlan:
    def test_levels_partition_the_arc_tables(self, env):
        timer = env[0]
        g, plan = timer.graph, timer.plan
        assert len(plan.levels) == g.n_levels - 1
        nets = [net for net, _ in plan.levels if net is not None]
        cells = [cell for _, cell in plan.levels if cell is not None]
        assert np.array_equal(np.concatenate([n.sinks for n in nets]), g.net_sink)
        assert np.array_equal(
            np.concatenate([c.dst for c in cells]), g.c_dst * 2 + g.c_tout
        )
        assert np.array_equal(
            np.concatenate([c.src for c in cells]), g.c_src * 2 + g.c_tin
        )
        # The cell levels' tape slices tile [0, n_contribs) in order, so
        # the sweep's uninitialised tape block is written before it is read.
        bounds = [(c.sl.start, c.sl.stop) for c in cells]
        assert bounds[0][0] == 0 and bounds[-1][1] == plan.n_contribs
        assert all(stop == start for (_, stop), (start, _) in zip(bounds, bounds[1:]))
        assert all(start < stop for start, stop in bounds)
        for c in cells:
            k, n = len(c.dst), len(c.touched)
            # Compact ids name the touched slots, AT block then slew block.
            assert np.array_equal(c.touched[c.seg[:k]], c.dst)
            assert np.array_equal(c.seg[k:], c.seg[:k] + n)
            assert np.array_equal(c.lut[0], g.c_lut_delay[c.sl])
            assert np.array_equal(c.lut[1], g.c_lut_slew[c.sl])

    def test_plan_is_not_pickled_with_the_graph(self, small_design):
        """The graph is pickled into design bundles; the plan is derived:
        cached on the graph for every timer to share, dropped from its
        pickle, rebuilt on first use after a round trip."""
        graph = TimingGraph(small_design)
        before = pickle.dumps(graph)
        plan = graph.plan
        assert plan.nbytes > 0
        assert DifferentiableTimer(small_design, graph).plan is plan
        assert pickle.dumps(graph) == before
        clone = pickle.loads(before)
        assert "plan" not in vars(clone)
        assert len(clone.plan.levels) == len(plan.levels)
        assert clone.plan is clone.plan

    def test_single_caller_indices_are_built_on_first_use(self, small_design):
        """The difftimer builds the forward levels only; the golden STA
        adds its reverse-sweep indices, path tracing the by-sink tables -
        each on its first use, and ``nbytes`` counts them."""
        graph = TimingGraph(small_design)
        plan = graph.plan
        assert not hasattr(plan, "graph")  # no graph <-> plan cycle
        timer = DifferentiableTimer(small_design, graph)
        timer.backward(timer.forward())
        lazy = {"_sink_csr", "net_arc_of", "net_runs", "reverse"}
        assert not lazy & set(vars(plan))
        forward_only = plan.nbytes

        result = run_sta(small_design, graph=graph)
        result.net_worst_slack()
        assert lazy & set(vars(plan)) == {"net_runs", "reverse"}
        golden = plan.nbytes
        assert golden > forward_only

        assert len(worst_paths(result, 2)) == 2
        assert lazy <= set(vars(plan))
        assert plan.nbytes > golden


class TestForwardOnThePlan:
    def test_matches_global_segment_reference(self, env):
        timer, _, _, _, tape = env
        assert_forward_matches_reference(timer, tape)

    def test_clipped_slews_zero_the_slew_partials(self, env, monkeypatch):
        """With the clip bound inside the range of cell-input slews, the
        clipped contributions record zero slew partials (both tables) and
        the rest do not - exactly as the reference does."""
        timer, x, y, forest, tape = env
        g = timer.graph
        clip = float(np.median(tape.slew[g.c_src, g.c_tin]))
        monkeypatch.setattr(cell_prop_mod, "SLEW_CLIP_MAX", clip)
        clipped_tape = timer.forward(x, y, forest)
        assert_forward_matches_reference(timer, clipped_tape, clip)
        clipped = clipped_tape.slew[g.c_src, g.c_tin] > clip
        assert clipped.any() and not clipped.all()
        assert np.all(clipped_tape.d_dslew[:, clipped] == 0.0)
        assert np.any(clipped_tape.d_dslew[:, ~clipped] != 0.0)


class TestMultiSeedBackward:
    def test_equals_the_per_seed_calls(self, env):
        timer, _, _, _, tape = env
        together = timer.backward(tape, seeds=SEEDS)
        assert len(together) == len(SEEDS)
        for (gx, gy), (d_tns, d_wns) in zip(together, SEEDS):
            ref_x, ref_y = timer.backward(tape, d_tns=d_tns, d_wns=d_wns)
            assert np.array_equal(gx, ref_x)
            assert np.array_equal(gy, ref_y)
            assert np.any(gx != 0.0)

    @pytest.mark.parametrize("wire_delay_model", ["elmore", "d2m"])
    @pytest.mark.parametrize("n_seeds", [1, 2, 3])
    def test_seeds_travel_together_through_the_tail(
        self, env, wire_delay_model, n_seeds
    ):
        """All seeds travel as the rows of one flat problem - level sweep,
        Elmore adjoint (with D2M's direct beta gradient), Steiner-owner
        and pin -> cell scatters - and each row is its own call's bits."""
        _, x, y, forest, _ = env
        timer = DifferentiableTimer(
            env[0].design, env[0].graph, gamma=15.0,
            wire_delay_model=wire_delay_model,
        )
        tape = timer.forward(x, y, forest)
        seeds = SEEDS[:n_seeds]
        together = timer.backward(tape, seeds=seeds)
        assert len(together) == n_seeds
        for (gx, gy), (d_tns, d_wns) in zip(together, seeds):
            ref_x, ref_y = timer.backward(tape, d_tns=d_tns, d_wns=d_wns)
            assert np.array_equal(gx, ref_x)
            assert np.array_equal(gy, ref_y)
            assert np.any(gx != 0.0)
            assert not gx[timer.design.cell_fixed].any()

    @pytest.mark.parametrize("wire_delay_model", ["elmore", "d2m"])
    def test_zero_endpoints(self, library, wire_delay_model):
        b = DesignBuilder("noend", library, die=(0.0, 0.0, 60.0, 20.0))
        b.add_input("a", x=0.0, y=10.0)
        b.add_cell("u1", "INV_X1", x=20.0, y=10.0)
        b.add_cell("u2", "INV_X1", x=40.0, y=10.0)
        b.add_net("n0", ["a", "u1/A"])
        b.add_net("n1", ["u1/Y", "u2/A"])
        design = b.build()
        timer = DifferentiableTimer(design, wire_delay_model=wire_delay_model)
        assert timer.graph.n_endpoints == 0
        pairs = timer.backward(timer.forward(), seeds=SEEDS)
        assert len(pairs) == len(SEEDS)
        for gx, gy in pairs:
            assert gx.shape == gy.shape == (design.n_cells,)
            assert not gx.any() and not gy.any()

    def test_one_seed_list_is_the_scalar_call(self, env):
        timer, _, _, _, tape = env
        [(gx, gy)] = timer.backward(tape, seeds=[(0.3, 0.7)])
        ref_x, ref_y = timer.backward(tape, 0.3, 0.7)
        assert np.array_equal(gx, ref_x) and np.array_equal(gy, ref_y)

    def test_linear_in_the_seeds(self, env):
        timer, _, _, _, tape = env
        (tx, ty), (wx, wy), (mx, my) = timer.backward(
            tape, seeds=[(1.0, 0.0), (0.0, 1.0), (0.6, 0.4)]
        )
        scale = np.abs(mx).max() + np.abs(my).max()
        np.testing.assert_allclose(mx, 0.6 * tx + 0.4 * wx, rtol=1e-10, atol=1e-12 * scale)
        np.testing.assert_allclose(my, 0.6 * ty + 0.4 * wy, rtol=1e-10, atol=1e-12 * scale)


# ----------------------------------------------------------------------
# Random small DAGs: reconvergent fan-in, non-unate arcs (a source slot
# feeds both transitions of its sink, so segments see several candidates
# of one arc), wide and single-arc levels.  Every odd level holds net
# arcs only - the "level with no cell arcs" case of the sweep.
# ----------------------------------------------------------------------
_GATES = (("INV_X1", 1), ("BUF_X1", 1), ("NAND2_X1", 2), ("XOR2_X1", 2), ("MUX2_X1", 3))


@st.composite
def dag_designs(draw):
    n_inputs = draw(st.integers(2, 4))
    n_gates = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    b = DesignBuilder(
        "dag", default_library(), die=(0.0, 0.0, 120.0, 60.0),
        constraints=Constraints(clock_period=60.0, clock_port="clk"),
    )
    b.add_input("clk", x=0.0, y=0.0)
    drivers = []  # (driver pin, [sink pins])
    for i in range(n_inputs):
        b.add_input(f"i{i}", x=0.0, y=5.0 + 10.0 * i)
        drivers.append((f"i{i}", []))
    for k in range(n_gates):
        ctype, n_in = _GATES[draw(st.integers(0, len(_GATES) - 1))]
        b.add_cell(f"g{k}", ctype, x=float(rng.uniform(5, 115)), y=float(rng.uniform(5, 55)))
        # Prefer recent drivers so depth builds up; repeats reconverge.
        for pin in "ABC"[:n_in]:
            lo = max(0, len(drivers) - 5)
            drivers[int(rng.integers(lo, len(drivers)))][1].append(f"g{k}/{pin}")
        drivers.append((f"g{k}/Y", []))
    n_out = 0
    for name, sinks in drivers:
        if not sinks and "/" in name:  # dangling gate output -> output port
            b.add_output(f"o{n_out}", x=120.0, y=5.0 + 7.0 * n_out)
            sinks.append(f"o{n_out}")
            n_out += 1
    for k, (name, sinks) in enumerate(drivers):
        if sinks:
            b.add_net(f"n{k}", [name] + sinks)
    return b.build()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(design=dag_designs(), gamma=st.sampled_from([2.0, 15.0]))
def test_random_dags_sweep_bit_for_bit(design, gamma):
    timer = DifferentiableTimer(design, graph=TimingGraph(design), gamma=gamma)
    assert any(cell is None for _, cell in timer.plan.levels)
    forest = build_forest(design, design.cell_x, design.cell_y)
    tape = timer.forward(design.cell_x, design.cell_y, forest)
    assert_forward_matches_reference(timer, tape)
    together = timer.backward(tape, seeds=SEEDS)
    for (gx, gy), (d_tns, d_wns) in zip(together, SEEDS):
        ref_x, ref_y = timer.backward(tape, d_tns=d_tns, d_wns=d_wns)
        assert np.array_equal(gx, ref_x) and np.array_equal(gy, ref_y)

    gx, gy = together[2]
    n = design.n_cells

    def fn(z):
        t = timer.forward(z[:n], z[n:], forest)
        return 0.6 * t.tns + 0.4 * t.wns

    movable = np.nonzero(~design.cell_fixed)[0]
    report = check_gradient(
        fn,
        np.concatenate([gx, gy]),
        np.concatenate([design.cell_x, design.cell_y]).astype(float),
        indices=np.concatenate([movable, n + movable]),
        eps=1e-4,
        rtol=2e-3,
    )
    assert report.ok, str(report)
