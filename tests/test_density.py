"""Unit tests for the electrostatic density model.

The compiled density pass (``density.c``) is held bit for bit to the NumPy
pipeline it replaced, kept in ``tests/reference_density.py``, and to the
seed's formulation (four ``np.add.at`` splat passes, ``np.gradient``).
"""

import numpy as np
import pytest
from scipy.fft import dctn, idctn

from repro.harness import load_design
from repro.harness.suite import SUITE
from repro.netlist import DesignBuilder, default_library
from repro.place import DensityModel
from repro.place.density import _doubles, lib
from repro.place.placer import _auto_bins
from tests.reference_density import DensityModel as ReferenceDensityModel


class TestSplatting:
    def test_total_mass_conserved(self, small_design, spread_positions):
        x, y = spread_positions
        model = DensityModel(small_design, n_bins=16)
        rho = model.evaluate(x, y).density * model.bin_area
        assert rho.sum() == pytest.approx(model.movable_area_total, rel=1e-9)

    def test_point_in_bin_center(self, small_design):
        d = small_design
        model = DensityModel(d, n_bins=16)
        result = model.evaluate(d.cell_x, d.cell_y)
        assert result.density.shape == (16, 16)
        assert result.density.min() >= 0


class TestPoisson:
    def test_potential_satisfies_poisson_in_interior(self, small_design):
        """lap(phi) ~ -(rho - mean) away from the boundary."""
        d = small_design
        rng = np.random.default_rng(1)
        model = DensityModel(d, n_bins=32)
        x = rng.uniform(d.die[0], d.die[2], d.n_cells)
        y = rng.uniform(d.die[1], d.die[3], d.n_cells)
        res = model.evaluate(x, y)
        phi = res.potential
        source = res.density - res.density.mean()
        lap = (
            (np.roll(phi, 1, 0) - 2 * phi + np.roll(phi, -1, 0)) / model.hx**2
            + (np.roll(phi, 1, 1) - 2 * phi + np.roll(phi, -1, 1)) / model.hy**2
        )
        interior = (slice(2, -2), slice(2, -2))
        resid = lap[interior] + source[interior]
        scale = np.abs(source).max() + 1e-12
        assert np.abs(resid).max() / scale < 0.05

    def test_uniform_density_zero_field(self, small_design):
        d = small_design
        model = DensityModel(d, n_bins=16)
        source = np.full((16, 16), 3.0)
        source = source - source.mean()
        coeff = model._divide(dctn(source, type=2, norm="ortho"))
        phi = idctn(coeff, type=2, norm="ortho")
        assert np.abs(phi).max() < 1e-9


class TestGradients:
    def test_force_points_away_from_cluster(self, small_design):
        d = small_design
        model = DensityModel(d, n_bins=16)
        xl, yl, xh, yh = d.die
        cx, cy = 0.5 * (xl + xh), 0.5 * (yl + yh)
        x = np.full(d.n_cells, cx)
        y = np.full(d.n_cells, cy)
        # One probe cell to the right of the cluster.
        movable = np.nonzero(~d.cell_fixed)[0]
        probe = movable[0]
        x[probe] = cx + 0.3 * (xh - cx)
        res = model.evaluate(x, y)
        # Energy gradient on the probe is negative along +x (moving right,
        # away from the cluster, reduces the energy).
        assert res.grad_x[probe] < 0

    def test_fixed_cells_zero_gradient(self, small_design, spread_positions):
        x, y = spread_positions
        model = DensityModel(small_design, n_bins=16)
        res = model.evaluate(x, y)
        fixed = small_design.cell_fixed
        assert np.abs(res.grad_x[fixed]).max() == 0.0
        assert np.abs(res.grad_y[fixed]).max() == 0.0


class TestOverflow:
    def test_clustered_overflow_near_one(self, small_design):
        d = small_design
        model = DensityModel(d, n_bins=16)
        xl, yl, xh, yh = d.die
        x = np.full(d.n_cells, 0.5 * (xl + xh))
        y = np.full(d.n_cells, 0.5 * (yl + yh))
        res = model.evaluate(x, y)
        assert res.overflow > 0.8

    def test_uniform_spread_low_overflow(self, small_design):
        d = small_design
        rng = np.random.default_rng(3)
        model = DensityModel(d, n_bins=16)
        xl, yl, xh, yh = d.die
        # A regular grid of positions approximates uniform density at the
        # target utilisation (0.7 < 1), so overflow should be small.
        n = d.n_cells
        side = int(np.ceil(np.sqrt(n)))
        gx, gy = np.meshgrid(np.linspace(xl + 1, xh - 1, side),
                             np.linspace(yl + 1, yh - 1, side))
        x = gx.ravel()[:n]
        y = gy.ravel()[:n]
        res = model.evaluate(x, y)
        assert res.overflow < 0.25

    def test_overflow_decreases_with_spreading(self, small_design):
        d = small_design
        rng = np.random.default_rng(4)
        model = DensityModel(d, n_bins=16)
        xl, yl, xh, yh = d.die
        cx, cy = 0.5 * (xl + xh), 0.5 * (yl + yh)
        tight = model.evaluate(
            cx + rng.normal(0, 1, d.n_cells), cy + rng.normal(0, 1, d.n_cells)
        )
        loose = model.evaluate(
            np.clip(cx + rng.normal(0, 20, d.n_cells), xl, xh),
            np.clip(cy + rng.normal(0, 20, d.n_cells), yl, yh),
        )
        assert loose.overflow < tight.overflow


def _macro_design(extra_movable=True):
    """A 5x5 block of fixed DFFs (a macro stand-in) plus optional probes."""
    builder = DesignBuilder(
        "blockage", default_library(), die=(0.0, 0.0, 32.0, 32.0)
    )
    for i in range(5):
        for j in range(5):
            builder.add_cell(
                f"m{i}_{j}", "DFF_X1",
                x=7.0 + 0.8 * i, y=14.0 + 0.8 * j, fixed=True,
            )
    if extra_movable:
        builder.add_cell("right", "INV_X1", x=11.0, y=16.0)
        builder.add_cell("left", "INV_X1", x=5.0, y=16.0)
    return builder.build()


class TestFixedBlockage:
    def test_fixed_area_deposited_once_at_construction(self):
        d = _macro_design()
        model = DensityModel(d, n_bins=16)
        fixed_area = float(
            (d.cell_w * d.cell_h)[d.cell_fixed].sum()
        )
        assert model._fixed_rho is not None
        assert model._fixed_rho.sum() == pytest.approx(fixed_area, rel=1e-12)

    def test_blockage_repels_movable_cells(self):
        """Probes on either side of the macro are pushed away from it."""
        d = _macro_design()
        model = DensityModel(d, n_bins=16)
        res = model.evaluate(d.cell_x, d.cell_y)
        right = list(d.cell_name).index("right")
        left = list(d.cell_name).index("left")
        # Energy decreases moving the right probe further right (+x) and
        # the left probe further left (-x): d(energy)/dx < 0 and > 0.
        assert res.grad_x[right] < 0
        assert res.grad_x[left] > 0

    def test_blockage_raises_density_under_macro(self):
        d = _macro_design(extra_movable=False)
        # All-fixed: density map still shows the blockage.
        model = DensityModel(d, n_bins=16)
        res = model.evaluate(d.cell_x, d.cell_y)
        assert res.density.max() > 0.0

    def test_zero_area_ports_keep_fixed_rho_disabled(self, small_design):
        """Generated designs have only zero-area fixed ports: no blockage
        map is allocated and the historical density is bit-identical."""
        model = DensityModel(small_design, n_bins=16)
        assert model._fixed_rho is None


class TestAllFixedEarlyOut:
    def test_all_fixed_design_returns_exact_zeros(self):
        d = _macro_design(extra_movable=False)
        assert not (~d.cell_fixed).any()
        res = DensityModel(d, n_bins=16).evaluate(d.cell_x, d.cell_y)
        assert res.energy == 0.0
        assert res.overflow == 0.0
        assert np.abs(res.grad_x).max() == 0.0
        assert np.abs(res.grad_y).max() == 0.0
        assert res.potential is None


def _seed_splat(model, x, y, mass):
    """The seed's cloud-in-cell splat: four sequential ``np.add.at`` passes."""
    nb = model.nb
    gx = np.clip((x - model.xl) / model.hx - 0.5, 0.0, nb - 1.000001)
    gy = np.clip((y - model.yl) / model.hy - 0.5, 0.0, nb - 1.000001)
    ix = np.floor(gx).astype(np.int64)
    iy = np.floor(gy).astype(np.int64)
    fx = gx - ix
    fy = gy - iy
    rho = np.zeros((nb, nb))
    np.add.at(rho, (ix, iy), mass * (1 - fx) * (1 - fy))
    np.add.at(rho, (ix + 1, iy), mass * fx * (1 - fy))
    np.add.at(rho, (ix, iy + 1), mass * (1 - fx) * fy)
    np.add.at(rho, (ix + 1, iy + 1), mass * fx * fy)
    return rho, (ix, iy, fx, fy)


def _seed_evaluate(model, x, y):
    """The seed density formulation, kept as the test-only oracle.

    Four ``np.add.at`` splat passes, ``dctn`` / divide / ``idctn``,
    ``np.gradient`` and a fancy-indexed 2-D gather that recomputes the
    bilinear weights per corner.  Only the grid geometry is read off
    ``model``; fixed macro area is deposited by the same splat.
    """
    d = model.design
    area = d.cell_w * d.cell_h
    mov = ~d.cell_fixed
    mass = area[mov]
    rho, (ix, iy, fx, fy) = _seed_splat(model, x[mov], y[mov], mass)
    fixed = d.cell_fixed & (area > 0.0)
    if fixed.any():
        rho = rho + _seed_splat(
            model, d.cell_x[fixed], d.cell_y[fixed], area[fixed]
        )[0]
    bin_area = model.hx * model.hy
    eigen = 2.0 - 2.0 * np.cos(np.pi * np.arange(model.nb) / model.nb)
    denom = eigen[:, None] / model.hx**2 + eigen[None, :] / model.hy**2
    denom[0, 0] = 1.0
    source = rho / bin_area
    coeff = dctn(source - source.mean(), type=2, norm="ortho") / denom
    coeff[0, 0] = 0.0
    phi = idctn(coeff, type=2, norm="ortho")
    ex = -np.gradient(phi, model.hx, axis=0)
    ey = -np.gradient(phi, model.hy, axis=1)

    def gather(field):
        return (
            field[ix, iy] * (1 - fx) * (1 - fy)
            + field[ix + 1, iy] * fx * (1 - fy)
            + field[ix, iy + 1] * (1 - fx) * fy
            + field[ix + 1, iy + 1] * fx * fy
        )

    grad_x = np.zeros(d.n_cells)
    grad_y = np.zeros(d.n_cells)
    grad_x[mov] = -mass * gather(ex)
    grad_y[mov] = -mass * gather(ey)
    energy = 0.5 * float(np.sum(rho / bin_area * phi)) * bin_area
    overflow = float(np.maximum(rho - model.target_density * bin_area, 0.0).sum())
    return rho / bin_area, energy, overflow / mass.sum(), grad_x, grad_y


def _jittered(design, seed):
    rng = np.random.default_rng(seed)
    span = 0.1 * (design.die[2] - design.die[0])
    x = design.cell_x + rng.normal(0, span, design.n_cells)
    y = design.cell_y + rng.normal(0, span, design.n_cells)
    x[design.cell_fixed] = design.cell_x[design.cell_fixed]
    y[design.cell_fixed] = design.cell_y[design.cell_fixed]
    return x, y


class TestSeedReference:
    """``DensityModel.evaluate`` against the seed formulation.

    Density map, energy and overflow are bit-equal (the compiled splat
    folds each bin in the seed's pass-major order);
    the gradients differ in the last bit or two because the fused
    stencil weights associate ``mass * (1 - fx) * (1 - fy)`` differently.
    """

    @pytest.mark.parametrize(
        "design_name, n_bins",
        [("miniblue18", 32), ("miniblue18", 64), ("macro", 16)],
    )
    def test_matches_seed_formulation(self, design_name, n_bins):
        if design_name == "macro":
            d = _macro_design()
        else:
            d = load_design(design_name)
        x, y = _jittered(d, seed=5)
        model = DensityModel(d, n_bins=n_bins)
        res = model.evaluate(x, y)
        density, energy, overflow, grad_x, grad_y = _seed_evaluate(model, x, y)
        assert np.array_equal(res.density, density)
        assert res.energy == energy
        assert res.overflow == overflow
        assert res.grad_x.dtype == res.grad_y.dtype == np.float64
        for got, ref in ((res.grad_x, grad_x), (res.grad_y, grad_y)):
            np.testing.assert_allclose(
                got, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max()
            )


def compiled_field(model, phi):
    """The field ``density.c``'s post-pass computes from ``phi``."""
    x, y = model._operands(model.design.cell_x, model.design.cell_y)
    stencil, held = model._stencil(len(model._cells))
    density, _, _ = model._prepass(x, y, stencil)
    field = np.empty((2, model.nb, model.nb))
    n = model.design.n_cells
    lib.density_postpass(
        model._grid, stencil, _doubles(density), _doubles(phi), _doubles(field),
        _doubles(np.zeros(n)), _doubles(np.zeros(n)), _doubles(np.empty(1)),
    )
    return field


class TestWrapperFreeKernels:
    """The per-iteration pieces written out in place of a NumPy wrapper
    function equal the wrapper they replace."""

    @pytest.mark.parametrize("n_bins", [2, 3, 8, 33, 64])
    def test_field_is_minus_np_gradient(self, small_design, n_bins):
        model = DensityModel(small_design, n_bins=n_bins)
        assert model.hx != model.hy
        rng = np.random.default_rng(n_bins)
        phi = rng.standard_normal((n_bins, n_bins))
        phi[-1] = phi[-2]  # exact zeros: the sign of zero must match too
        ex, ey = compiled_field(model, phi)
        for got, axis, h in ((ex, 0, model.hx), (ey, 1, model.hy)):
            ref = -np.gradient(phi, h, axis=axis)
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_stencil_clamps_like_np_clip(self, small_design):
        """Cells pushed far outside the die on every side deposit where
        the seed's ``np.clip`` put them."""
        d = small_design
        model = DensityModel(d, n_bins=16)
        xl, yl, xh, yh = d.die
        rng = np.random.default_rng(8)
        x = rng.uniform(xl - (xh - xl), xh + (xh - xl), d.n_cells)
        y = rng.uniform(yl - (yh - yl), yh + (yh - yl), d.n_cells)
        mov = ~d.cell_fixed
        mass = (d.cell_w * d.cell_h)[mov]
        rho = _seed_splat(model, x[mov], y[mov], mass)[0]
        assert np.array_equal(model.evaluate(x, y).density, rho / model.bin_area)


class TestFiniteDifferenceGradcheck:
    """Central-difference check of d(energy)/dx.

    The analytic gradient interpolates the field at the cell center
    while the FD quotient differentiates through the splat weights, so
    they agree only to the bilinear-interpolation error (~0.2 rel L2 on
    a 16-bin grid) - but direction and scale must match; a lost 1/h or
    swapped axis fails by an order of magnitude.
    """

    @pytest.mark.parametrize("solver", ["scipy"])  # the one pipeline's DCT
    def test_energy_gradient_matches_fd(
        self, small_design, spread_positions, solver
    ):
        d = small_design
        x, y = spread_positions
        model = DensityModel(d, n_bins=16)
        res = model.evaluate(x, y)
        probes = np.nonzero(~d.cell_fixed)[0][:24]
        eps = 1e-5 * model.hx
        fd = np.empty(len(probes))
        for t, i in enumerate(probes):
            xp_ = x.copy()
            xm_ = x.copy()
            xp_[i] += eps
            xm_[i] -= eps
            fd[t] = (
                model.evaluate(xp_, y).energy - model.evaluate(xm_, y).energy
            ) / (2.0 * eps)
        grad = np.asarray(res.grad_x[probes])
        rel = np.linalg.norm(fd - grad) / np.linalg.norm(fd)
        assert rel < 0.3
        assert np.corrcoef(fd, grad)[0, 1] > 0.95


class TestAutoBins:
    def test_auto_bins_scale_with_cell_size(self, small_design, medium_design):
        from repro.place.placer import _auto_bins

        nb_small = _auto_bins(small_design)
        nb_medium = _auto_bins(medium_design)
        assert nb_small >= 8
        assert nb_medium >= nb_small  # larger die, same cells -> more bins


def assert_same_result(got, want):
    """Every field of two density results, byte for byte."""
    assert got.energy == want.energy
    assert got.overflow == want.overflow
    for name in ("grad_x", "grad_y", "density", "potential"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _scatter(design, seed):
    rng = np.random.default_rng(seed)
    xl, yl, xh, yh = design.die
    return rng.uniform(xl, xh, design.n_cells), rng.uniform(yl, yh, design.n_cells)


def assert_matches_oracle(design, n_bins, x, y):
    got = DensityModel(design, n_bins=n_bins).evaluate(x, y)
    want = ReferenceDensityModel(design, n_bins=n_bins).evaluate(x, y)
    assert_same_result(got, want)


class TestCompiledAgainstOracle:
    """``DensityModel.evaluate`` (the compiled pass around SciPy's DCT)
    against the NumPy pipeline it replaced: every output byte for byte."""

    @pytest.mark.parametrize("name", [entry.name for entry in SUITE])
    def test_suite_designs(self, name):
        d = load_design(name)
        n_bins = _auto_bins(d)
        assert_matches_oracle(d, n_bins, d.cell_x, d.cell_y)
        assert_matches_oracle(d, n_bins, *_scatter(d, 1))

    @pytest.mark.parametrize("n_bins", [16, 64, None])
    def test_grid_sizes(self, n_bins):
        d = load_design("miniblue18")
        x, y = _jittered(d, seed=2)
        assert_matches_oracle(d, n_bins or _auto_bins(d), x, y)

    def test_midiblue50(self):
        d = load_design("midiblue50")
        assert_matches_oracle(d, _auto_bins(d), *_scatter(d, 3))

    def test_fixed_macros(self):
        d = _macro_design()
        assert_matches_oracle(d, 16, *_jittered(d, seed=4))

    def test_all_fixed_early_out(self):
        d = _macro_design(extra_movable=False)
        assert_matches_oracle(d, 16, d.cell_x, d.cell_y)

    def test_die_edges_and_infinities(self, small_design):
        d = small_design
        xl, yl, xh, yh = d.die
        rng = np.random.default_rng(6)
        edges = np.array([xl, xh, -np.inf, np.inf, xl - 1.0, xh + 1.0])
        x = rng.choice(edges, d.n_cells)
        y = rng.choice(np.array([yl, yh, -np.inf, np.inf, 0.5 * (yl + yh)]), d.n_cells)
        assert_matches_oracle(d, 16, x, y)


class TestNonFiniteCells:
    def test_nan_coordinate_names_the_cell(self, small_design, spread_positions):
        d = small_design
        x, y = (a.copy() for a in spread_positions)
        cell = int(np.flatnonzero(~d.cell_fixed)[3])
        y[cell] = np.nan
        with pytest.raises(ValueError, match=repr(d.cell_name[cell])):
            DensityModel(d, n_bins=16).evaluate(x, y)

    def test_nan_on_a_fixed_cell_is_not_read(self, small_design, spread_positions):
        d = small_design
        x, y = (a.copy() for a in spread_positions)
        x[np.flatnonzero(d.cell_fixed)[0]] = np.nan
        model = DensityModel(d, n_bins=16)
        assert_same_result(model.evaluate(x, y), model.evaluate(*spread_positions))

    def test_one_bin_grid_is_refused(self, small_design):
        """The field's one-sided differences need two bins a side."""
        with pytest.raises(ValueError, match="2 bins"):
            DensityModel(small_design, n_bins=1)

    def test_coordinates_must_be_one_per_cell(self, small_design):
        model = DensityModel(small_design, n_bins=16)
        with pytest.raises(ValueError, match="cells"):
            model.evaluate(np.zeros(3), np.zeros(3))
