"""Unit tests for the timing objective hook and the full timing placer."""

import numpy as np
import pytest

from repro.core import (
    TimingDrivenPlacer,
    TimingObjective,
    TimingObjectiveOptions,
    TimingPlacerOptions,
)
from repro.core.objective import _percentile
from repro.place import GlobalPlacer, PlacerOptions
from repro.sta import run_sta


class TestSpikeClipPercentile:
    def test_equals_np_percentile(self):
        """The spike-clip limit is ``np.percentile(nonzero, 98.0)`` to the
        bit, from the smallest input the caller passes (9) upwards."""
        rng = np.random.default_rng(12)
        sizes = list(range(9, 60)) + [int(n) for n in rng.integers(60, 4000, 150)]
        for n in sizes:
            values = np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-9, 9)
            assert _percentile(values, 98.0) == np.percentile(values, 98.0), n
            q = float(rng.uniform(0.0, 99.9))
            assert _percentile(values, q) == np.percentile(values, q), (n, q)
        ties = np.repeat(rng.standard_normal(5), 7)
        assert _percentile(ties, 98.0) == np.percentile(ties, 98.0)


class TestTimingObjectiveHook:
    def test_inactive_before_start(self, small_design, spread_positions):
        x, y = spread_positions
        obj = TimingObjective(
            small_design, TimingObjectiveOptions(start_iteration=100)
        )
        assert obj(0, x, y) is None
        assert obj(99, x, y) is None
        assert obj.n_timer_calls == 0

    def test_active_after_start(self, small_design, spread_positions):
        x, y = spread_positions
        obj = TimingObjective(
            small_design, TimingObjectiveOptions(start_iteration=10)
        )
        out = obj(10, x, y, wl_grad_l1=100.0)
        assert out is not None
        gx, gy, metrics = out
        assert gx.shape == (small_design.n_cells,)
        assert "tns_smoothed" in metrics and "wns_smoothed" in metrics
        assert metrics["tns_smoothed"] < 0

    def test_forest_reuse_period(self, small_design, spread_positions):
        x, y = spread_positions
        obj = TimingObjective(
            small_design,
            TimingObjectiveOptions(start_iteration=0, rsmt_period=10),
        )
        for it in range(25):
            obj(it, x, y, wl_grad_l1=100.0)
        assert obj.n_timer_calls == 25
        assert obj.n_rsmt_calls == 3  # iterations 0, 10, 20

    def test_gradient_norm_normalised_to_fraction(
        self, small_design, spread_positions
    ):
        x, y = spread_positions
        opts = TimingObjectiveOptions(
            start_iteration=0, tns_grad_frac=0.1, wns_grad_frac=0.0
        )
        obj = TimingObjective(small_design, opts)
        gx, gy, _ = obj(0, x, y, wl_grad_l1=500.0)
        norm = np.abs(gx).sum() + np.abs(gy).sum()
        # Per-cell clipping may only shrink the normalised gradient.
        assert norm <= 0.1 * 500.0 + 1e-6
        assert norm > 0.5 * 0.1 * 500.0

    def test_ramp_grows_then_freezes(self, small_design, spread_positions):
        x, y = spread_positions
        opts = TimingObjectiveOptions(start_iteration=0, ramp=1.05)
        obj = TimingObjective(small_design, opts)
        _, _, m0 = obj(0, x, y, wl_grad_l1=100.0)
        _, _, m5 = obj(5, x, y, wl_grad_l1=100.0)
        assert m5["tns_frac"] > m0["tns_frac"]
        obj.observe_overflow(6, 0.1)  # below freeze threshold
        _, _, m10 = obj(10, x, y, wl_grad_l1=100.0)
        _, _, m20 = obj(20, x, y, wl_grad_l1=100.0)
        assert m20["tns_frac"] == pytest.approx(m10["tns_frac"])

    def test_frac_ceiling(self, small_design, spread_positions):
        x, y = spread_positions
        opts = TimingObjectiveOptions(
            start_iteration=0, ramp=2.0, grad_frac_max=0.3
        )
        obj = TimingObjective(small_design, opts)
        _, _, metrics = obj(50, x, y, wl_grad_l1=100.0)
        assert metrics["tns_frac"] == pytest.approx(0.3)

    def test_weights_at_matches_paper_ramp(self, small_design):
        opts = TimingObjectiveOptions(start_iteration=100, t1=0.02, t2=0.01)
        obj = TimingObjective(small_design, opts)
        t1_0, t2_0 = obj.weights_at(100)
        t1_10, t2_10 = obj.weights_at(110)
        assert t1_0 == pytest.approx(0.02)
        assert t1_10 == pytest.approx(0.02 * 1.01**10)
        assert t2_10 / t2_0 == pytest.approx(1.01**10)


class TestTimingDrivenPlacer:
    def test_improves_timing_over_baseline(self, medium_design):
        popts = PlacerOptions(max_iters=450, seed=0)
        base = GlobalPlacer(medium_design, popts).run()
        ours = TimingDrivenPlacer(
            medium_design, TimingPlacerOptions(placer=popts, sta_in_trace=False)
        ).run()
        rb = run_sta(medium_design, base.x, base.y)
        ro = run_sta(medium_design, ours.x, ours.y)
        assert ro.tns_setup > rb.tns_setup
        assert ro.wns_setup > rb.wns_setup

    def test_trace_has_smoothed_metrics(self, medium_design):
        opts = TimingPlacerOptions(
            placer=PlacerOptions(max_iters=150),
            timing=TimingObjectiveOptions(start_iteration=50),
            sta_in_trace=True,
            sta_every=25,
        )
        result = TimingDrivenPlacer(medium_design, opts).run()
        assert any("tns_smoothed" in t for t in result.trace)
        assert any("wns" in t for t in result.trace)

    def test_converges_to_overflow(self, medium_design):
        opts = TimingPlacerOptions(
            placer=PlacerOptions(max_iters=600), sta_in_trace=False
        )
        result = TimingDrivenPlacer(medium_design, opts).run()
        assert result.stop_reason == "overflow"
