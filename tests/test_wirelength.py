"""Unit tests for HPWL and the weighted-average wirelength model.

The compiled net pass must reproduce, bit for bit, the segmented-
``reduceat`` program it replaced, kept as the oracle in
``tests/reference_wirelength.py`` (``ref_evaluate`` / ``ref_hpwl``).
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.suite import SUITE, load_design
from repro.place import WAWirelength, hpwl
from repro.place.wirelength import NetLayout
from tests.reference_wirelength import ref_evaluate, ref_hpwl


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


def assert_same(got, want):
    """Equal values, and NaN exactly where the oracle has NaN."""
    assert np.array_equal(got, want, equal_nan=True)


def assert_matches_reference(design, gamma=1.7, x=None, y=None):
    rng = np.random.default_rng(design.n_nets)
    x = design.cell_x if x is None else x
    y = design.cell_y if y is None else y
    wa = WAWirelength(design)
    for weights in (None, rng.uniform(0.0, 3.0, design.n_nets)):
        got = wa.evaluate(x, y, gamma, weights)
        want = ref_evaluate(design, x, y, gamma, weights)
        for g, w in zip(got, want):
            assert_same(g, w)
        want = ref_hpwl(design, x, y, weights)
        assert_same(hpwl(design, x, y, weights), want)
        assert_same(wa.hpwl(x, y, weights), want)


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
        assert_matches_reference(CsrDesign([degree] * 23, 30, rng))

    def test_single_net_buckets(self):
        """One net of each degree 2-9: a sum of 1-8 terms after the first."""
        assert_matches_reference(
            CsrDesign([2, 3, 4, 5, 6, 7, 8, 9], 12, np.random.default_rng(3))
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_pairwise_sum_branch(self, seed):
        """A segment sum is the first term plus NumPy's pairwise_sum of the
        rest: sequential below 8 terms, 8 accumulators up to 128 (degrees
        9, 16, 129), halves above (130, 300, down two levels)."""
        rng = np.random.default_rng(seed)
        degrees = [0, 1] + list(range(2, 10)) + [16, 129, 130, 300]
        degrees = [degrees[i] for i in rng.permutation(len(degrees))]
        assert_matches_reference(CsrDesign(degrees, 40, rng), gamma=[0.3, 1.7, 25.0][seed])

    @pytest.mark.parametrize("degrees", [[], [0], [1, 1], [0, 1, 0]])
    def test_nothing_to_reduce(self, degrees):
        design = CsrDesign(degrees, 4, np.random.default_rng(0))
        value, gx, gy = WAWirelength(design).evaluate(design.cell_x, design.cell_y, 2.0)
        assert value == 0.0 and not gx.any() and not gy.any()
        assert hpwl(design) == 0.0
        assert_matches_reference(design)

    def test_real_designs(self, small_design, medium_design):
        assert_matches_reference(small_design)
        assert_matches_reference(medium_design)

    @pytest.mark.parametrize("name", [entry.name for entry in SUITE])
    def test_suite_design(self, name):
        """At the seed placement and at a uniform scatter."""
        design = load_design(name)
        rng = np.random.default_rng(5)
        xl, yl, xh, yh = design.die
        assert_matches_reference(design, gamma=4.0)
        assert_matches_reference(
            design,
            gamma=40.0,
            x=rng.uniform(xl, xh, design.n_cells),
            y=rng.uniform(yl, yh, design.n_cells),
        )

    def test_midiblue50_sample(self):
        """Every net above degree 100 (its 6,001-pin net among them) and a
        stride over the rest, the others emptied, at a uniform scatter."""
        design = load_design("midiblue50")
        degrees = design.net_degrees
        assert degrees.max() >= 6001
        keep = degrees > 100
        keep[::25] = True
        pins = np.split(design.net2pin, design.net2pin_start[1:-1])
        kept = np.where(keep, degrees, 0)
        sample = SimpleNamespace(
            n_cells=design.n_cells,
            n_nets=design.n_nets,
            net_degrees=kept,
            net2pin_start=np.concatenate([[0], np.cumsum(kept)]),
            net2pin=np.concatenate([p for p, k in zip(pins, keep) if k]),
            pin2cell=design.pin2cell,
            pin_offset_x=design.pin_offset_x,
            pin_offset_y=design.pin_offset_y,
            cell_x=design.cell_x,
            cell_y=design.cell_y,
        )
        rng = np.random.default_rng(6)
        xl, yl, xh, yh = design.die
        assert_matches_reference(
            sample,
            gamma=40.0,
            x=rng.uniform(xl, xh, design.n_cells),
            y=rng.uniform(yl, yh, design.n_cells),
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate(self, medium_design, bad):
        """A NaN or infinite cell coordinate spoils its nets' values and
        gradients exactly where the oracle's are spoiled.  The oracle
        runs one-pin nets weighted by 0 (``0 * NaN`` is NaN), so the
        coordinate goes on a cell with pins of wider nets only."""
        design = medium_design
        degrees = np.repeat(design.net_degrees, design.net_degrees)
        pin_cell = design.pin2cell[design.net2pin]
        cells = np.setdiff1d(pin_cell[degrees >= 2], pin_cell[degrees < 2])
        x, y = design.cell_x.copy(), design.cell_y.copy()
        x[cells[len(cells) // 2]] = bad
        y[cells[len(cells) // 3]] = bad
        with np.errstate(invalid="ignore"):
            assert_matches_reference(design, x=x, y=y)
        _, gx, gy = WAWirelength(design).evaluate(x, y, 1.7)
        assert np.isnan(gx).any() and np.isfinite(gx).any()

    @pytest.mark.parametrize("which", ["x", "y", "weights"])
    def test_wrong_length_raises(self, small_design, which):
        wa = WAWirelength(small_design)
        args = {
            "x": small_design.cell_x,
            "y": small_design.cell_y,
            "weights": np.ones(small_design.n_nets),
        }
        args[which] = args[which][:-1]
        with pytest.raises(ValueError, match="for a design of"):
            wa.evaluate(args["x"], args["y"], 2.0, args["weights"])
        if which != "weights":
            with pytest.raises(ValueError, match="for a design of"):
                wa.hpwl(args["x"], args["y"])


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
        assert sorted(arrays) == ["cell", "net", "offset", "start"]
        assert arrays["offset"].shape == (2, layout.n_pins)
        assert arrays["cell"].dtype == arrays["net"].dtype == np.int32
        assert len(arrays["start"]) == len(arrays["net"]) + 1
        # 1 int32 + 2 float64 per pin, 1 int32 + 1 int64 per net.
        total = sum(v.nbytes for v in arrays.values())
        assert total <= 20 * layout.n_pins + 12 * medium_design.n_nets + 8

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
