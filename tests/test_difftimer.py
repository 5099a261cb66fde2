"""Validation of the differentiable timing engine (the paper's core).

Three pillars:
1. the forward pass converges to the golden STA as gamma shrinks (the
   engine-level property is in ``test_propagate.py``);
2. the backward pass matches central finite differences of the forward
   pass exactly (the trees are held fixed, which is the quantity the
   gradient models - Figure 4's reuse rule);
3. the gradients point the right way on hand-analysable designs.
"""

import numpy as np
import pytest

from repro.core import DifferentiableTimer
from repro.netlist import make_chain_design
from repro.route import build_forest
from repro.sta import run_sta


@pytest.fixture(scope="module")
def env(small_design):
    rng = np.random.default_rng(21)
    x = small_design.cell_x + rng.normal(0, 6, small_design.n_cells)
    y = small_design.cell_y + rng.normal(0, 6, small_design.n_cells)
    x[small_design.cell_fixed] = small_design.cell_x[small_design.cell_fixed]
    y[small_design.cell_fixed] = small_design.cell_y[small_design.cell_fixed]
    forest = build_forest(small_design, x, y)
    return small_design, x, y, forest


class TestForwardAgainstGolden:
    def test_smoothing_monotone_in_gamma(self, env):
        """Larger gamma -> more smoothing -> more pessimistic AT (LSE >= max)."""
        design, x, y, forest = env
        wns = []
        for gamma in (1.0, 10.0, 40.0):
            tape = DifferentiableTimer(design, gamma=gamma).forward(x, y, forest)
            wns.append(tape.wns)
        assert wns[0] > wns[1] > wns[2]

    def test_arrival_times_upper_bound_golden(self, env):
        design, x, y, forest = env
        golden = run_sta(design, x, y)
        tape = DifferentiableTimer(design, gamma=10.0).forward(x, y, forest)
        reached = golden.at > -1e29
        assert (tape.at[reached] >= golden.at[reached] - 1e-6).all()

    def test_endpoint_count(self, env):
        design, x, y, forest = env
        tape = DifferentiableTimer(design).forward(x, y, forest)
        assert tape.ep_slack.shape == (
            DifferentiableTimer(design).graph.n_endpoints,
        )


class TestBackwardFiniteDifference:
    def test_exercises_registered_level_kernels(self):
        """The finite-difference gradchecks below certify the propagation
        kernels the timer composes; pin that composition by name so a
        kernel rename breaks this file loudly instead of leaving the
        registry's gradcheck pointing at a test that no longer touches
        it (reprolint ``contract-closure``)."""
        from repro.contracts import KERNEL_REGISTRY
        from repro.core.cell_prop import cell_backward_level, cell_forward_level
        from repro.core.net_prop import net_backward_level, net_forward_level

        for forward, backward in (
            (cell_forward_level, cell_backward_level),
            (net_forward_level, net_backward_level),
        ):
            key = f"{forward.__module__}.{forward.__qualname__}"
            contract = KERNEL_REGISTRY[key]
            assert contract["backward"].endswith(backward.__qualname__)
            assert "test_difftimer.py" in contract["gradcheck"]

    @pytest.mark.parametrize(
        "d_tns,d_wns", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.4)]
    )
    def test_gradient_matches_fd(self, env, d_tns, d_wns):
        design, x, y, forest = env
        timer = DifferentiableTimer(design, gamma=15.0)
        tape = timer.forward(x, y, forest)
        gx, gy = timer.backward(tape, d_tns=d_tns, d_wns=d_wns)

        def objective(xx, yy):
            t = timer.forward(xx, yy, forest)
            return d_tns * t.tns + d_wns * t.wns

        rng = np.random.default_rng(5)
        movable = np.nonzero(~design.cell_fixed)[0]
        strong = movable[np.argsort(-np.abs(gx[movable]))[:6]]
        probes = np.unique(np.concatenate([strong, rng.choice(movable, 8)]))
        eps = 1e-4
        for ci in probes:
            for arr, grad in ((x, gx), (y, gy)):
                a, b = arr.copy(), arr.copy()
                a[ci] += eps
                b[ci] -= eps
                if arr is x:
                    fd = (objective(a, y) - objective(b, y)) / (2 * eps)
                else:
                    fd = (objective(x, a) - objective(x, b)) / (2 * eps)
                assert grad[ci] == pytest.approx(fd, rel=2e-3, abs=1e-6)

    def test_fixed_cells_get_zero_gradient(self, env):
        design, x, y, forest = env
        timer = DifferentiableTimer(design)
        tape = timer.forward(x, y, forest)
        gx, gy = timer.backward(tape)
        assert np.abs(gx[design.cell_fixed]).max() == 0.0
        assert np.abs(gy[design.cell_fixed]).max() == 0.0

    def test_tns_wns_with_grad_consistency(self, env):
        design, x, y, forest = env
        timer = DifferentiableTimer(design)
        tns, wns, gx, gy, tape = timer.tns_wns_with_grad(x, y, forest)
        assert tns == pytest.approx(tape.tns)
        assert wns == pytest.approx(tape.wns)


class TestGradientDirection:
    def test_chain_gradient_pulls_cells_toward_shorter_wires(self):
        """On a stretched chain, increasing TNS means compressing the path.

        Gradient-descent direction is -grad(objective) with objective
        -TNS; equivalently cells should move along +d(TNS)/dx steps.
        Moving the middle cell slightly along the positive gradient of TNS
        must not reduce TNS.
        """
        design = make_chain_design(4, clock_period=80.0, die=(0, 0, 200, 20))
        x = design.cell_x.copy()
        y = design.cell_y.copy()
        # Stretch: move middle gates far away vertically.
        gi = design.cell_index("g1")
        y[gi] += 80.0
        forest = build_forest(design, x, y)
        timer = DifferentiableTimer(design, gamma=5.0)
        tape0 = timer.forward(x, y, forest)
        gx, gy = timer.backward(tape0, d_tns=1.0)
        assert gy[gi] != 0.0
        step = 0.5
        x2 = x + step * np.sign(gx) * (np.abs(gx) > 1e-12)
        y2 = y + step * np.sign(gy) * (np.abs(gy) > 1e-12)
        tape1 = timer.forward(x2, y2, forest)
        assert tape1.tns >= tape0.tns

    def test_gradient_descent_step_improves_smoothed_tns(self, env):
        design, x, y, forest = env
        timer = DifferentiableTimer(design, gamma=15.0)
        tape0 = timer.forward(x, y, forest)
        gx, gy = timer.backward(tape0, d_tns=1.0)
        norm = np.abs(gx).max() + np.abs(gy).max()
        step = 0.2 / max(norm, 1e-12)
        tape1 = timer.forward(x + step * gx, y + step * gy, forest)
        assert tape1.tns > tape0.tns


class TestZeroEndpointDesign:
    """A design with no setup checks and no output ports (satellite fix:
    the empty-endpoint reduction used to raise in ``lse_min``)."""

    @pytest.fixture(scope="class")
    def no_endpoint_design(self, library):
        from repro.netlist import DesignBuilder

        b = DesignBuilder("noend", library, die=(0.0, 0.0, 60.0, 20.0))
        b.add_input("clk", x=0.0, y=0.0)
        b.add_input("a", x=0.0, y=10.0)
        b.add_cell("u1", "INV_X1", x=20.0, y=10.0)
        b.add_cell("u2", "INV_X1", x=40.0, y=10.0)
        b.add_net("n0", ["a", "u1/A"])
        b.add_net("n1", ["u1/Y", "u2/A"])
        return b.build()

    def test_forward_is_trivially_met(self, no_endpoint_design):
        timer = DifferentiableTimer(no_endpoint_design)
        assert timer.graph.n_endpoints == 0
        tape = timer.forward()
        assert tape.tns == 0.0
        assert tape.wns == 0.0
        assert tape.ep_slack.size == 0

    @pytest.mark.parametrize(
        "d_tns,d_wns", [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)]
    )
    def test_backward_returns_zero_gradients(
        self, no_endpoint_design, d_tns, d_wns
    ):
        timer = DifferentiableTimer(no_endpoint_design)
        tape = timer.forward()
        gx, gy = timer.backward(tape, d_tns=d_tns, d_wns=d_wns)
        assert gx.shape == (no_endpoint_design.n_cells,)
        assert np.abs(gx).max() == 0.0
        assert np.abs(gy).max() == 0.0

    def test_multi_seed_backward_returns_zero_gradients(self, no_endpoint_design):
        timer = DifferentiableTimer(no_endpoint_design)
        pairs = timer.backward(
            timer.forward(), seeds=[(-1.0, 0.0), (0.0, -1.0), (0.5, 0.5)]
        )
        assert len(pairs) == 3
        for gx, gy in pairs:
            assert gx.shape == (no_endpoint_design.n_cells,)
            assert not gx.any() and not gy.any()

    def test_gradcheck_passes(self, no_endpoint_design):
        from repro.core import check_gradient

        design = no_endpoint_design
        timer = DifferentiableTimer(design)
        forest = build_forest(design, design.cell_x, design.cell_y)
        tape = timer.forward(design.cell_x, design.cell_y, forest)
        gx, _ = timer.backward(tape)

        def fn(xx):
            return timer.forward(xx, design.cell_y, forest).tns

        report = check_gradient(fn, gx, design.cell_x.astype(float))
        assert report.ok


class TestSlewClipBoundary:
    """Setup-check slews are clipped before the LUT query; where the clip
    is active the recorded slew-derivative must vanish so the backward
    pass matches finite differences of the clipped forward (satellite
    fix: it used to apply ``setup_dsetup_dslew`` unconditionally)."""

    def _clip_between_slews(self, tape, graph):
        """A clip bound in the widest gap of the setup slews, so no pin
        sits near the boundary and central differences stay one-sided."""
        slews = np.sort(np.unique(tape.slew[graph.setup_d].reshape(-1)))
        assert len(slews) >= 2
        gaps = np.diff(slews)
        k = int(np.argmax(gaps))
        return float(0.5 * (slews[k] + slews[k + 1]))

    def test_clipped_slew_grad_is_zeroed(self, env, monkeypatch):
        from repro.core import propagate as propagate_mod

        design, x, y, forest = env
        timer = DifferentiableTimer(design, gamma=15.0)
        clip = self._clip_between_slews(
            timer.forward(x, y, forest), timer.graph
        )
        monkeypatch.setattr(propagate_mod, "SLEW_CLIP_MAX", clip)
        tape = timer.forward(x, y, forest)
        clipped = tape.slew[timer.graph.setup_d] > clip
        assert np.any(clipped)  # the boundary is actually exercised
        assert np.all(tape.setup_dsetup_dslew[clipped] == 0.0)
        assert np.any(tape.setup_dsetup_dslew[~clipped] != 0.0)

    def test_gradient_matches_fd_at_clip_boundary(self, env, monkeypatch):
        from repro.core import check_gradient
        from repro.core import propagate as propagate_mod

        design, x, y, forest = env
        timer = DifferentiableTimer(design, gamma=15.0)
        clip = self._clip_between_slews(
            timer.forward(x, y, forest), timer.graph
        )
        monkeypatch.setattr(propagate_mod, "SLEW_CLIP_MAX", clip)
        tape = timer.forward(x, y, forest)
        gx, gy = timer.backward(tape)

        n = design.n_cells

        def fn(z):
            return timer.forward(z[:n], z[n:], forest).tns

        movable = np.nonzero(~design.cell_fixed)[0]
        strong = movable[np.argsort(-np.abs(gx[movable]))[:6]]
        rng = np.random.default_rng(17)
        probes = np.unique(
            np.concatenate([strong, rng.choice(movable, 8), n + strong])
        )
        report = check_gradient(
            fn,
            np.concatenate([gx, gy]),
            np.concatenate([x, y]),
            indices=probes,
            eps=1e-4,
            rtol=2e-3,
        )
        assert report.ok, str(report)


class TestRowGathers:
    def test_take_rows_equal_fancy_indexing(self, env):
        """``(n_pins, 2)`` rows are gathered with ``take(axis=0)`` on the
        timing paths: bit for bit what fancy indexing returned."""
        from repro.core.propagate import endpoint_rat
        from repro.core.smoothing import segment_max

        design, x, y, forest = env
        timer = DifferentiableTimer(design)
        graph = timer.graph
        tape = timer.forward(x, y, forest)
        safe = np.maximum(tape.slew, 1e-12)
        old_ratio = tape.slew[graph.net_src] / safe[graph.net_sink]
        new_ratio = tape.slew.take(graph.net_src, axis=0) / safe.take(
            graph.net_sink, axis=0
        )
        assert np.array_equal(old_ratio, new_ratio)

        # StaticTimingAnalyzer._required_times with the old row reads.
        res = run_sta(design, x, y)
        plan = graph.plan
        rat = np.full((design.n_pins, 2), 1e30)
        rat[graph.endpoint_pins] = endpoint_rat(graph, res.slew)[0]
        rat_flat = rat.reshape(-1)
        for (net, cell), (runs, sources) in zip(
            reversed(plan.levels), reversed(plan.reverse)
        ):
            if cell is not None:
                worst = -segment_max(
                    res.tape.delay[cell.sl] - rat_flat[cell.dst],
                    sources.seg, len(sources.touched),
                )
                rat_flat[sources.touched] = np.minimum(
                    rat_flat[sources.touched], worst
                )
            if net is not None:
                worst = np.minimum.reduceat(
                    rat[net.sinks] - res.net_delay[net.sinks][:, None],
                    runs.starts, axis=0,
                )
                rat[runs.drivers] = np.minimum(rat[runs.drivers], worst)
        assert np.array_equal(rat, res.rat)
