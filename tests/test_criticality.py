"""Tests for the net-criticality policies of the net-weighting baseline."""

import numpy as np
import pytest

from repro.place import CRITICALITY_POLICIES, make_criticality
from repro.place.netweight import MomentumNetWeighter, NetWeightOptions


class TestCriticalityPolicies:
    slacks = np.array([-100.0, -50.0, -1.0, 0.0, 25.0, 500.0])
    wns = -100.0

    @pytest.mark.parametrize("policy", sorted(CRITICALITY_POLICIES))
    def test_nonnegative_and_zero_for_relaxed(self, policy):
        fn = make_criticality(policy)
        c = fn(self.slacks, self.wns)
        assert (c >= 0).all()
        assert c[-1] == pytest.approx(0.0)  # very relaxed net

    def test_linear_matches_paper_form(self):
        fn = make_criticality("linear")
        c = fn(self.slacks, self.wns)
        np.testing.assert_allclose(c[:3], [1.0, 0.5, 0.01])
        assert c[3] == 0.0

    def test_exponential_sharper_than_linear(self):
        lin = make_criticality("linear")(self.slacks, self.wns)
        exp = make_criticality("exponential")(self.slacks, self.wns)
        # At the worst net exponential >= linear; near zero it is below.
        assert exp[0] >= lin[0]
        assert exp[2] < lin[2] * 3  # stays bounded

    def test_exponential_exponent_kwarg(self):
        e2 = make_criticality("exponential", exponent=2.0)(self.slacks, self.wns)
        e4 = make_criticality("exponential", exponent=4.0)(self.slacks, self.wns)
        assert e4[0] > e2[0]

    def test_threshold_binary(self):
        c = make_criticality("threshold")(self.slacks, self.wns)
        assert set(np.unique(c)) <= {0.0, 1.0}
        assert c[0] == 1.0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="criticality"):
            make_criticality("quantum")

    def test_weighter_accepts_policy(self, small_design, spread_positions):
        x, y = spread_positions
        w = MomentumNetWeighter(
            small_design,
            NetWeightOptions(start_iteration=0, criticality="exponential"),
        )
        weights = w(0, x, y)
        assert weights is not None
        assert weights.max() > 1.0

