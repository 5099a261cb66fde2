"""Unit and property tests for the LSE smoothing kernels (Section 3.2)."""

import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.smoothing import (
    lse_max,
    lse_max_grad,
    lse_min,
    soft_clamp_neg,
    soft_clamp_neg_grad,
)
from tests.reference_sweep import segment_lse_max, segment_lse_weights, segment_max

finite_arrays = st.lists(
    st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=12
)


class TestLseMax:
    @settings(max_examples=100, deadline=None)
    @given(values=finite_arrays, gamma=st.floats(min_value=0.1, max_value=100))
    def test_bounds(self, values, gamma):
        """max(x) <= LSE(x) <= max(x) + gamma*log(n)."""
        v = np.array(values)
        out = lse_max(v, gamma)
        assert out >= v.max() - 1e-9
        assert out <= v.max() + gamma * np.log(len(v)) + 1e-9

    def test_single_element_is_identity(self):
        assert lse_max(np.array([5.0]), 10.0) == pytest.approx(5.0)

    def test_small_gamma_approaches_max(self):
        v = np.array([1.0, 4.0, -2.0])
        assert lse_max(v, 0.01) == pytest.approx(4.0, abs=1e-6)

    def test_shift_invariance(self):
        v = np.array([1.0, 2.0, 3.0])
        assert lse_max(v + 100.0, 5.0) == pytest.approx(lse_max(v, 5.0) + 100.0)

    def test_huge_values_no_overflow(self):
        v = np.array([1e8, 1e8 - 5.0])
        out = lse_max(v, 1.0)
        assert np.isfinite(out)
        assert out >= 1e8

    def test_axis_reduction(self):
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = lse_max(v, 0.01, axis=1)
        np.testing.assert_allclose(out, [2.0, 4.0], atol=1e-6)


class TestLseMin:
    @settings(max_examples=60, deadline=None)
    @given(values=finite_arrays, gamma=st.floats(min_value=0.1, max_value=100))
    def test_bounds(self, values, gamma):
        v = np.array(values)
        out = lse_min(v, gamma)
        assert out <= v.min() + 1e-9
        assert out >= v.min() - gamma * np.log(len(v)) - 1e-9

    def test_duality(self):
        v = np.array([3.0, -1.0, 2.0])
        assert lse_min(v, 2.0) == pytest.approx(-lse_max(-v, 2.0))


class TestLseGrad:
    @settings(max_examples=60, deadline=None)
    @given(values=finite_arrays, gamma=st.floats(min_value=0.5, max_value=50))
    def test_softmax_weights_sum_to_one(self, values, gamma):
        v = np.array(values)
        w = lse_max_grad(v, gamma)
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert (w >= 0).all()

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(-10, 10, 6)
        gamma = 3.0
        w = lse_max_grad(v, gamma)
        eps = 1e-6
        for i in range(6):
            vp, vm = v.copy(), v.copy()
            vp[i] += eps
            vm[i] -= eps
            fd = (lse_max(vp, gamma) - lse_max(vm, gamma)) / (2 * eps)
            assert w[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestSoftClampNeg:
    def test_limits(self):
        # Very positive slack -> ~0; very negative -> ~slack.
        assert soft_clamp_neg(np.array([1e4]), 10.0)[0] == pytest.approx(0.0, abs=1e-6)
        assert soft_clamp_neg(np.array([-1e4]), 10.0)[0] == pytest.approx(
            -1e4, rel=1e-6
        )

    def test_always_below_zero_and_above_slack(self):
        s = np.linspace(-100, 100, 41)
        out = soft_clamp_neg(s, 5.0)
        assert (out <= 0 + 1e-12).all()
        assert (out <= np.minimum(s, 0) + 5.0 * np.log(2) + 1e-9).all()
        assert (out >= np.minimum(s, 0) - 5.0 * np.log(2) - 1e-9).all()

    def test_grad_matches_fd(self):
        s = np.linspace(-30, 30, 13)
        g = soft_clamp_neg_grad(s, 7.0)
        eps = 1e-6
        fd = (soft_clamp_neg(s + eps, 7.0) - soft_clamp_neg(s - eps, 7.0)) / (2 * eps)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-9)

    def test_grad_in_unit_interval(self):
        s = np.array([-1e6, -10.0, 0.0, 10.0, 1e6])
        g = soft_clamp_neg_grad(s, 5.0)
        assert (g >= 0).all() and (g <= 1).all()
        assert g[0] == pytest.approx(1.0)
        assert g[-1] == pytest.approx(0.0, abs=1e-9)
        assert g[2] == pytest.approx(0.5)


class TestSegmentKernels:
    def test_matches_dense_lse_per_group(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(-20, 20, 30)
        seg = rng.integers(0, 5, 30)
        gamma = 4.0
        out = segment_lse_max(values, seg, 5, gamma)
        for g in range(5):
            members = values[seg == g]
            if len(members):
                assert out[g] == pytest.approx(lse_max(members, gamma))

    def test_empty_groups_get_sentinel(self):
        values = np.array([1.0])
        seg = np.array([2])
        out = segment_lse_max(values, seg, 4, 1.0, empty_value=-123.0)
        assert out[0] == -123.0
        assert out[2] == pytest.approx(1.0)

    def test_weights_sum_to_one_per_group(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(-5, 5, 40)
        seg = rng.integers(0, 6, 40)
        gamma = 2.0
        smoothed = segment_lse_max(values, seg, 6, gamma)
        w = segment_lse_weights(values, seg, smoothed, gamma)
        for g in range(6):
            members = w[seg == g]
            if len(members):
                assert members.sum() == pytest.approx(1.0, abs=1e-9)

    def test_sentinel_candidates_get_zero_weight(self):
        values = np.array([-1e30, 5.0])
        seg = np.array([0, 0])
        smoothed = segment_lse_max(values, seg, 1, 2.0)
        w = segment_lse_weights(values, seg, smoothed, 2.0)
        assert w[0] == pytest.approx(0.0, abs=1e-12)
        assert w[1] == pytest.approx(1.0, abs=1e-9)


class TestSegmentMaxOnUnpickledCandidates:
    """Candidates computed from a design that was read back from the
    bundle cache carry a dtype object of their own; ``np.maximum.at``
    would fall off its indexed loop on them (see ``same_descr`` in
    ``tests/reference_sweep.py``)."""

    N = 5000

    @pytest.fixture()
    def grouped(self):
        rng = np.random.default_rng(6)
        return rng.uniform(-50, 50, self.N), rng.integers(0, self.N // 4, self.N)

    def test_same_result(self, grouped):
        values, seg = grouped
        expect = segment_max(values, seg, self.N // 4)
        cached = pickle.loads(pickle.dumps(values))
        assert np.array_equal(segment_max(cached, seg, self.N // 4), expect)
        assert np.array_equal(
            -segment_max(-cached, seg, self.N // 4),
            -segment_max(-values, seg, self.N // 4),
        )

    def test_no_buffered_path_cliff(self, grouped):
        """The cliff is ~15-26x; 3x leaves room for a noisy box."""
        values, seg = grouped
        cached = pickle.loads(pickle.dumps(values))

        def best_of(candidates, repeats=40):
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                segment_max(candidates, seg, self.N // 4)
                best = min(best, time.perf_counter() - t0)
            return best

        assert best_of(cached) < 3.0 * best_of(values)
