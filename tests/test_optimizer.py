"""Unit tests for the placement optimizers."""

import numpy as np
import pytest

from repro.place import NesterovOptimizer
from repro.place.optimizer import _project


def quadratic(center, scale):
    def grad(x):
        return 2.0 * scale * (x - center)

    def value(x):
        return float(scale * np.sum((x - center) ** 2))

    return grad, value


class TestNesterov:
    def test_converges_on_quadratic(self):
        center = np.array([3.0, -2.0, 7.0])
        grad, value = quadratic(center, 1.0)
        opt = NesterovOptimizer(np.zeros(3), lr=0.1)
        for _ in range(200):
            opt.step(grad(opt.params))
        assert value(opt.u) < 1e-6

    def test_bb_step_adapts(self):
        # Moderately ill-conditioned quadratic: BB steps still converge
        # (heavily ill-conditioned cases rely on the placer's external
        # divergence guard, not on the bare optimizer).
        scale = np.array([1.0, 10.0])
        center = np.array([1.0, 1.0])

        def grad(x):
            return 2.0 * scale * (x - center)

        opt = NesterovOptimizer(np.zeros(2), lr=0.01)
        for _ in range(500):
            opt.step(grad(opt.params))
        assert np.abs(opt.u - center).max() < 1e-4

    def test_bounds_projection(self):
        grad, _ = quadratic(np.array([10.0]), 1.0)
        lo, hi = np.array([0.0]), np.array([2.0])
        opt = NesterovOptimizer(np.array([1.0]), lr=0.5, bounds=(lo, hi))
        for _ in range(50):
            opt.step(grad(opt.params))
        assert 0.0 <= opt.u[0] <= 2.0
        assert 0.0 <= opt.params[0] <= 2.0  # lookahead also projected
        assert opt.u[0] == pytest.approx(2.0, abs=1e-6)

    def test_projection_is_np_clip(self):
        """``_project`` is ``np.clip(x, lo, hi, out=x)`` less the wrapper:
        same values in place (NaN kept), nothing done without bounds."""
        rng = np.random.default_rng(5)
        lo, hi = rng.uniform(-2, 0, 400), rng.uniform(0, 2, 400)
        x = rng.normal(0, 3, 400)
        x[::37] = np.nan
        x[1::41] = np.inf
        expect = np.clip(x, lo, hi)
        assert _project(x, (lo, hi)) is x
        assert np.array_equal(x, expect, equal_nan=True)
        free = rng.normal(0, 3, 9)
        assert np.array_equal(_project(free.copy(), None), free)

    def test_restart_clears_momentum(self):
        opt = NesterovOptimizer(np.zeros(2), lr=0.1)
        for _ in range(5):
            opt.step(np.ones(2))
        lr_before = opt.lr_max
        opt.restart()
        assert opt.a == 1.0
        assert opt.lr_max <= lr_before
        np.testing.assert_allclose(opt.v, opt.u)

    def test_nonfinite_gradient_survived(self):
        opt = NesterovOptimizer(np.zeros(2), lr=0.1)
        opt.step(np.array([1.0, 1.0]))
        opt.step(np.array([np.inf, 1.0]))  # BB update must not poison lr
        assert np.isfinite(opt.lr)
