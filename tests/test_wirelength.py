"""Unit tests for HPWL and the weighted-average wirelength model.

The degree-bucketed :class:`NetLayout` must reproduce, bit for bit, the
segmented-``reduceat`` formulation it replaced; that formulation lives on
here as the reference (``ref_evaluate`` / ``ref_hpwl``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.place import WAWirelength, hpwl
from repro.place import wirelength
from repro.place.wirelength import STRIP_PINS, NetLayout


# ----------------------------------------------------------------------
# Reference: one reduceat per reduction over the CSR pin list, per-net
# values gathered back to the pins through a pin->net index.  reduceat
# cannot express an empty segment (it reads the next net's first pin, or
# raises at the end of the array), so empty nets are dropped before the
# kernels and put back as exact zeros.
# ----------------------------------------------------------------------
class CsrDesign:
    """The slice of :class:`~repro.netlist.design.Design` wirelength reads."""

    def __init__(self, degrees, n_cells, rng):
        degrees = np.asarray(degrees, dtype=np.int64)
        n_pins = int(degrees.sum())
        self.n_cells = n_cells
        self.n_nets = len(degrees)
        self.net_degrees = degrees
        self.net2pin_start = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
        # A few unconnected pins; pin ids are not in CSR order.
        self.net2pin = rng.permutation(n_pins + 3)[:n_pins]
        self.pin2cell = rng.integers(0, max(n_cells, 1), n_pins + 3)
        self.pin_offset_x = rng.normal(0.0, 0.7, n_pins + 3)
        self.pin_offset_y = rng.normal(0.0, 0.7, n_pins + 3)
        self.cell_x = rng.uniform(0.0, 80.0, n_cells)
        self.cell_y = rng.uniform(0.0, 40.0, n_cells)


def _ref_csr(design, cell_x, cell_y):
    keep = design.net_degrees > 0
    order = design.net2pin
    starts = design.net2pin_start[:-1][keep]
    px = cell_x[design.pin2cell] + design.pin_offset_x
    py = cell_y[design.pin2cell] + design.pin_offset_y
    return keep, order, starts, px[order], py[order]


def _all_nets(keep, per_net):
    out = np.zeros(per_net.shape[:-1] + keep.shape)
    out[..., keep] = per_net
    return out


def ref_hpwl(design, cell_x, cell_y, net_weights=None):
    keep, order, starts, x, y = _ref_csr(design, cell_x, cell_y)
    if len(order) == 0:
        return 0.0
    span = _all_nets(
        keep,
        np.maximum.reduceat(x, starts)
        - np.minimum.reduceat(x, starts)
        + np.maximum.reduceat(y, starts)
        - np.minimum.reduceat(y, starts),
    )
    if net_weights is not None:
        span = span * net_weights
    return float(span.sum())


def ref_evaluate(design, cell_x, cell_y, gamma, net_weights=None):
    n_cells = design.n_cells
    keep, order, starts, x, y = _ref_csr(design, cell_x, cell_y)
    if len(order) == 0:
        return 0.0, np.zeros(n_cells), np.zeros(n_cells)
    degrees = design.net_degrees[keep]
    net = np.repeat(np.arange(len(degrees)), degrees)
    coord = np.stack([x, y])

    def per_pin(per_net):
        return np.take(per_net, net, axis=1)

    c_max = np.maximum.reduceat(coord, starts, axis=1)
    c_min = np.minimum.reduceat(coord, starts, axis=1)
    a_pos = np.exp((coord - per_pin(c_max)) / gamma)
    a_neg = np.exp((per_pin(c_min) - coord) / gamma)
    b_pos = np.add.reduceat(a_pos, starts, axis=1)
    b_neg = np.add.reduceat(a_neg, starts, axis=1)
    wa_pos = np.add.reduceat(coord * a_pos, starts, axis=1) / b_pos
    wa_neg = np.add.reduceat(coord * a_neg, starts, axis=1) / b_neg

    weight = (degrees >= 2).astype(np.float64)
    if net_weights is not None:
        weight = net_weights[keep] * weight
    span = np.sum(_all_nets(keep, weight * (wa_pos - wa_neg)), axis=1)
    grad = np.take(weight, net) * (
        (a_pos / per_pin(b_pos)) * (1.0 + (coord - per_pin(wa_pos)) / gamma)
        - (a_neg / per_pin(b_neg)) * (1.0 - (coord - per_pin(wa_neg)) / gamma)
    )
    pin_cells = design.pin2cell[order]
    grad_xy = np.zeros(2 * n_cells)
    np.add.at(grad_xy, np.concatenate([pin_cells, pin_cells + n_cells]), grad.reshape(-1))
    return float(span[0]) + float(span[1]), grad_xy[:n_cells], grad_xy[n_cells:]


#: Strip sizes the layout is checked at: the real one, and a few pins, at
#: which buckets split across strips, strips span buckets and the tail is
#: a strip of its own.
STRIP_SIZES = (STRIP_PINS, 7, 3)


def assert_matches_reference(design, gamma=1.7):
    rng = np.random.default_rng(design.n_nets)
    x, y = design.cell_x, design.cell_y
    for strip_pins in STRIP_SIZES:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wirelength, "STRIP_PINS", strip_pins)
            wa = WAWirelength(design)
            for weights in (None, rng.uniform(0.0, 3.0, design.n_nets)):
                got = wa.evaluate(x, y, gamma, weights)
                want = ref_evaluate(design, x, y, gamma, weights)
                assert got[0] == want[0]
                assert np.array_equal(got[1], want[1])
                assert np.array_equal(got[2], want[2])
                assert hpwl(design, x, y, weights) == ref_hpwl(design, x, y, weights)
                assert wa.hpwl(x, y, weights) == ref_hpwl(design, x, y, weights)


class TestHPWL:
    def test_two_pin_net_manhattan_box(self, chain_design):
        d = chain_design
        val = hpwl(d)
        assert val > 0
        # Manual recomputation.
        px, py = d.pin_positions()
        manual = 0.0
        for ni in range(d.n_nets):
            pins = d.net_pins(ni)
            manual += px[pins].max() - px[pins].min()
            manual += py[pins].max() - py[pins].min()
        assert val == pytest.approx(manual)

    def test_net_weights_scale(self, chain_design):
        d = chain_design
        w = np.full(d.n_nets, 2.0)
        assert hpwl(d, net_weights=w) == pytest.approx(2.0 * hpwl(d))

    def test_translation_invariance(self, small_design):
        d = small_design
        base = hpwl(d)
        shifted = hpwl(d, d.cell_x + 11.0, d.cell_y - 4.0)
        assert shifted == pytest.approx(base)


class TestWAWirelength:
    def test_wa_lower_bounds_hpwl(self, small_design, spread_positions):
        """WA-max underestimates max and WA-min overestimates min."""
        d = small_design
        x, y = spread_positions
        wa = WAWirelength(d)
        smooth, _, _ = wa.evaluate(x, y, gamma=2.0)
        assert smooth <= hpwl(d, x, y) + 1e-9

    def test_small_gamma_approaches_hpwl(self, small_design, spread_positions):
        d = small_design
        x, y = spread_positions
        wa = WAWirelength(d)
        smooth, _, _ = wa.evaluate(x, y, gamma=0.05)
        assert smooth == pytest.approx(hpwl(d, x, y), rel=0.02)

    def test_gradient_matches_finite_difference(self, small_design, spread_positions):
        d = small_design
        x, y = spread_positions
        wa = WAWirelength(d)
        _, gx, gy = wa.evaluate(x, y, gamma=2.0)
        rng = np.random.default_rng(0)
        movable = np.nonzero(~d.cell_fixed)[0]
        eps = 1e-6
        for ci in rng.choice(movable, 10, replace=False):
            xp, xm = x.copy(), x.copy()
            xp[ci] += eps
            xm[ci] -= eps
            fd = (
                wa.evaluate(xp, y, 2.0)[0] - wa.evaluate(xm, y, 2.0)[0]
            ) / (2 * eps)
            assert gx[ci] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_weighted_gradient_scales(self, small_design, spread_positions):
        d = small_design
        x, y = spread_positions
        wa = WAWirelength(d)
        w = np.full(d.n_nets, 3.0)
        _, gx1, gy1 = wa.evaluate(x, y, 2.0)
        _, gx3, gy3 = wa.evaluate(x, y, 2.0, net_weights=w)
        np.testing.assert_allclose(gx3, 3.0 * gx1, rtol=1e-12)
        np.testing.assert_allclose(gy3, 3.0 * gy1, rtol=1e-12)

    def test_gradient_sums_to_zero_per_axis(self, small_design, spread_positions):
        """Wirelength is translation invariant, so gradients sum to ~0."""
        d = small_design
        x, y = spread_positions
        wa = WAWirelength(d)
        _, gx, gy = wa.evaluate(x, y, 2.0)
        assert gx.sum() == pytest.approx(0.0, abs=1e-8)
        assert gy.sum() == pytest.approx(0.0, abs=1e-8)

    def test_gradient_pulls_outlier_inward(self, library):
        from repro.netlist import DesignBuilder

        b = DesignBuilder("pair", library, die=(0, 0, 100, 20))
        b.add_input("clk", x=0, y=0)
        b.add_input("a", x=0.0, y=10.0)
        b.add_cell("u1", "INV_X1", x=90.0, y=10.0)
        b.add_net("n", ["a", "u1/A"])
        d = b.build()
        wa = WAWirelength(d)
        _, gx, _ = wa.evaluate(d.cell_x, d.cell_y, 1.0)
        u1 = d.cell_index("u1")
        assert gx[u1] > 0  # moving right increases wirelength


class TestLayoutMatchesReduceat:
    @settings(max_examples=40, deadline=None)
    @given(
        degrees=st.lists(st.integers(0, 40), min_size=0, max_size=60),
        huge=st.one_of(st.none(), st.integers(200, 700)),
        n_cells=st.integers(1, 50),
        seed=st.integers(0, 2**16),
        gamma=st.sampled_from([0.3, 1.7, 25.0]),
    )
    def test_random_netlists(self, degrees, huge, n_cells, seed, gamma):
        rng = np.random.default_rng(seed)
        if huge is not None:
            degrees = degrees + [huge]
            degrees = [degrees[i] for i in rng.permutation(len(degrees))]
        assert_matches_reference(CsrDesign(degrees, n_cells, rng), gamma)

    @pytest.mark.parametrize("degree", [2, 3, 8, 9, 17])
    def test_all_nets_share_one_degree(self, degree):
        rng = np.random.default_rng(degree)
        design = CsrDesign([degree] * 23, 30, rng)
        assert_matches_reference(design)
        layout = NetLayout(design)
        assert [b[0] for b in layout.buckets] == ([degree] if degree <= 8 else [])

    def test_single_net_buckets(self):
        """A bucket of one net reduces over a length-1 axis."""
        assert_matches_reference(
            CsrDesign([2, 3, 4, 5, 6, 7, 8, 9], 12, np.random.default_rng(3))
        )

    @pytest.mark.parametrize("degrees", [[], [0], [1, 1], [0, 1, 0]])
    def test_nothing_to_reduce(self, degrees):
        design = CsrDesign(degrees, 4, np.random.default_rng(0))
        value, gx, gy = WAWirelength(design).evaluate(design.cell_x, design.cell_y, 2.0)
        assert value == 0.0 and not gx.any() and not gy.any()
        assert hpwl(design) == 0.0
        assert_matches_reference(design)

    def test_real_designs(self, small_design, medium_design, monkeypatch):
        assert_matches_reference(small_design)
        assert_matches_reference(medium_design)
        # A design of a few thousand pins is one strip: no more NumPy calls
        # than one pass over the whole layout.
        assert len(NetLayout(medium_design).strips) == 1
        monkeypatch.setattr(wirelength, "STRIP_PINS", 7)
        strips = NetLayout(medium_design).strips
        degrees = [[c[0] for c in s.chunks] for s in strips]
        assert any(len(set(d)) > 1 for d in degrees)  # a strip spans buckets
        firsts, lasts = [d[0] for d in degrees if d], [d[-1] for d in degrees if d]
        assert any(a == b for a, b in zip(lasts, firsts[1:]))  # a bucket splits
        assert strips[-1].tail is not None and not strips[-1].chunks
        assert all(s.tail is None for s in strips[:-1])
        assert max(s.pins.stop - s.pins.start for s in strips[:-1]) <= 7


class TestDegenerateNets:
    """Nets of 0 or 1 pins sit in no bucket and contribute exactly 0.

    The reduceat formulation raised ``IndexError`` on a trailing empty net
    and silently read the next net's first pin on any other.
    """

    @pytest.mark.parametrize("where", ["leading", "interior", "trailing"])
    @pytest.mark.parametrize("pins", [[], ["u3/A"]], ids=["empty", "single-pin"])
    def test_degenerate_net_contributes_nothing(self, library, where, pins):
        from repro.netlist import DesignBuilder

        def build(with_extra):
            b = DesignBuilder("deg", library, die=(0, 0, 100, 20))
            b.add_input("clk", x=0, y=0)
            b.add_input("a", x=3.0, y=4.0)
            b.add_cell("u1", "INV_X1", x=40.0, y=10.0)
            b.add_cell("u2", "INV_X1", x=90.0, y=16.0)
            b.add_cell("u3", "INV_X1", x=60.0, y=2.0)
            nets = [("n0", ["a", "u1/A"]), ("n1", ["u1/Y", "u2/A"])]
            if with_extra:
                at = {"leading": 0, "interior": 1, "trailing": 2}[where]
                nets.insert(at, ("extra", pins))
            for name, refs in nets:
                b.add_net(name, refs)
            return b.build()

        base, extra = build(False), build(True)
        assert extra.net_degree(extra.net_index("extra")) == len(pins)
        x = base.cell_x + np.array([0.0, 0.3, -1.1, 2.0, 7.0])
        y = base.cell_y + 0.5
        assert hpwl(extra, x, y) == hpwl(base, x, y)
        want = WAWirelength(base).evaluate(x, y, 1.5)
        got = WAWirelength(extra).evaluate(x, y, 1.5)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
        weights = np.full(extra.n_nets, 2.0)
        weights[extra.net_index("extra")] = 1e9
        assert hpwl(extra, x, y, weights) == 2.0 * hpwl(base, x, y)


class TestLayoutBudget:
    """What the layout may hold between calls (midiblue50: 155k pins)."""

    def test_tables_are_int32_and_bounded(self, medium_design):
        layout = NetLayout(medium_design)
        arrays = {k: v for k, v in vars(layout).items() if isinstance(v, np.ndarray)}
        # The rigid pin offsets are the only floating-point table: no
        # coordinate, exponential or gradient work array outlives a call.
        floats = [k for k, v in arrays.items() if v.dtype.kind == "f"]
        assert floats == ["offset"]
        assert arrays["offset"].shape == (2, layout.n_pins)
        per_pin = [k for k, v in arrays.items() if v.shape[-1] == layout.n_pins]
        assert sorted(per_pin) == ["cell", "csr_cell", "csr_order", "offset", "pin"]
        assert all(arrays[k].dtype == np.int32 for k in per_pin if k != "offset")
        assert arrays["net"].dtype == arrays["net_slot"].dtype == np.int32
        # 4 int32 + 2 float64 per pin (+ int32 per tail pin), 2 int32 per
        # net (+ int64 per tail / degenerate net).
        total = sum(v.nbytes for v in arrays.values())
        assert total <= 36 * layout.n_pins + 16 * medium_design.n_nets

    def test_wirelength_object_adds_nothing(self, medium_design):
        wa = WAWirelength(medium_design)
        x, y = medium_design.cell_x, medium_design.cell_y
        before = set(vars(wa)), set(vars(wa.layout))
        wa.evaluate(x, y, 2.0)
        wa.hpwl(x, y)
        assert (set(vars(wa)), set(vars(wa.layout))) == before
        assert not any(isinstance(v, np.ndarray) for v in vars(wa).values())

    def test_layout_lives_and_dies_with_its_owner(self, small_design):
        """Built in ``WAWirelength.__init__``, never hung on the design:
        design bundles (and the processes that keep them) do not grow."""
        before = set(vars(small_design))
        wa = WAWirelength(small_design)
        hpwl(small_design)
        assert isinstance(wa.layout, NetLayout)
        assert set(vars(small_design)) == before
