"""Integration tests for the global placer substrate."""

import numpy as np
import pytest

from repro.place import GlobalPlacer, PlacerOptions, hpwl


@pytest.fixture(scope="module")
def placed(small_design):
    placer = GlobalPlacer(small_design, PlacerOptions(max_iters=400, seed=1))
    return placer, placer.run()


class TestConvergence:
    def test_reaches_overflow_target(self, placed):
        placer, result = placed
        assert result.stop_reason == "overflow"
        assert result.overflow < placer.options.stop_overflow

    def test_positions_inside_die(self, placed, small_design):
        _, result = placed
        xl, yl, xh, yh = small_design.die
        assert (result.x >= xl - 1e-9).all() and (result.x <= xh + 1e-9).all()
        assert (result.y >= yl - 1e-9).all() and (result.y <= yh + 1e-9).all()

    def test_fixed_cells_unmoved(self, placed, small_design):
        _, result = placed
        fixed = small_design.cell_fixed
        np.testing.assert_allclose(result.x[fixed], small_design.cell_x[fixed])
        np.testing.assert_allclose(result.y[fixed], small_design.cell_y[fixed])

    def test_beats_random_placement_hpwl(self, placed, small_design):
        _, result = placed
        rng = np.random.default_rng(0)
        xl, yl, xh, yh = small_design.die
        rand_x = rng.uniform(xl, xh, small_design.n_cells)
        rand_y = rng.uniform(yl, yh, small_design.n_cells)
        rand_x[small_design.cell_fixed] = small_design.cell_x[small_design.cell_fixed]
        rand_y[small_design.cell_fixed] = small_design.cell_y[small_design.cell_fixed]
        assert result.hpwl < hpwl(small_design, rand_x, rand_y)

    def test_trace_recorded(self, placed):
        _, result = placed
        assert len(result.trace) > 10
        assert {"iteration", "hpwl", "overflow", "lambda"} <= set(result.trace[0])
        its, vals = result.series("overflow")
        assert vals[-1] < vals[0]

    def test_deterministic_given_seed(self, small_design):
        r1 = GlobalPlacer(small_design, PlacerOptions(max_iters=60, seed=5)).run()
        r2 = GlobalPlacer(small_design, PlacerOptions(max_iters=60, seed=5)).run()
        np.testing.assert_allclose(r1.x, r2.x)
        assert r1.hpwl == pytest.approx(r2.hpwl)


class TestHooks:
    def test_net_weight_hook_called(self, small_design):
        calls = []

        def weight_fn(iteration, x, y):
            calls.append(iteration)
            return None

        GlobalPlacer(
            small_design, PlacerOptions(max_iters=20), net_weight_fn=weight_fn
        ).run()
        assert len(calls) == 20

    def test_extra_grad_metrics_in_trace(self, small_design):
        def grad_fn(iteration, x, y):
            zeros = np.zeros(small_design.n_cells)
            return zeros, zeros, {"probe": float(iteration)}

        result = GlobalPlacer(
            small_design, PlacerOptions(max_iters=15), extra_grad_fn=grad_fn
        ).run()
        assert any("probe" in t for t in result.trace)

    def test_constant_weights_match_default(self, small_design):
        base = GlobalPlacer(small_design, PlacerOptions(max_iters=50, seed=2)).run()
        ones = GlobalPlacer(
            small_design,
            PlacerOptions(max_iters=50, seed=2),
            net_weight_fn=lambda i, x, y: np.ones(small_design.n_nets),
        ).run()
        assert ones.hpwl == pytest.approx(base.hpwl, rel=1e-9)

    def test_wl_grad_norm_exposed(self, small_design):
        seen = []

        def grad_fn(iteration, x, y):
            return None

        placer = GlobalPlacer(
            small_design, PlacerOptions(max_iters=5), extra_grad_fn=grad_fn
        )
        placer.run()
        assert placer.last_wl_grad_l1 > 0
        assert placer.last_overflow <= 1.5


class TestPlainStep:
    def test_iterate_never_leaves_the_die(self, small_design):
        """The run loop does not clip: the optimizer projects the point
        it returns onto the die, exactly."""
        result = GlobalPlacer(
            small_design, PlacerOptions(max_iters=60, lr_fraction=2.0)
        ).run()
        xl, yl, xh, yh = small_design.die
        assert result.x.min() >= xl and result.x.max() <= xh
        assert result.y.min() >= yl and result.y.max() <= yh

    def test_hpwl_window_median_is_np_median(self):
        """The blow-up guard's median of the 20 recent HPWLs."""
        import statistics

        rng = np.random.default_rng(2)
        for _ in range(200):
            window = [float(v) for v in rng.lognormal(10, 3, 20)]
            assert statistics.median(window) == float(np.median(window))


class TestOptions:
    def test_initial_positions_near_center(self, small_design):
        placer = GlobalPlacer(small_design, PlacerOptions(noise_fraction=0.01))
        x, y = placer.initial_positions()
        xl, yl, xh, yh = small_design.die
        movable = ~small_design.cell_fixed
        assert np.abs(x[movable] - 0.5 * (xl + xh)).max() < 0.02 * (xh - xl)

    def test_explicit_start_positions_used(self, small_design):
        rng = np.random.default_rng(9)
        xl, yl, xh, yh = small_design.die
        x0 = rng.uniform(xl, xh, small_design.n_cells)
        y0 = rng.uniform(yl, yh, small_design.n_cells)
        result = GlobalPlacer(small_design, PlacerOptions(max_iters=1)).run(x0, y0)
        # After one iteration positions should still be close to x0.
        movable = ~small_design.cell_fixed
        assert np.abs(result.x[movable] - x0[movable]).mean() < 5.0
