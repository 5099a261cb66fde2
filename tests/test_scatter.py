"""Bit-exact equivalence of the scatter helpers with ``np.add.at``.

Two layers of proof:

1. every helper the oracles scatter through (``tests/reference_sweep.py``:
   ``scatter_add`` and its row and grid forms, the in-place forms)
   matches its ``np.add.at`` reference form bit for bit on adversarial
   inputs (heavy duplication, empty indices, broadcast stencils);
2. the compiled passes that replaced them scatter in the same order: the
   density splat of ``density.c`` equals its oracle with the splat swapped
   back to ``np.add.at``, and the wirelength gradient added into its cells
   by ``wirelength.c`` equals the ``np.add.at`` of its oracle, byte for
   byte.  The differentiable timer's scatters run in its compiled passes
   (``tests/test_timer_oracle.py`` holds them to the NumPy forms).
"""

import pickle
import time

import numpy as np
import pytest

import tests.reference_density as density_ref
from repro.place import DensityModel, WAWirelength
from tests.reference_sweep import (
    same_descr,
    scatter_accumulate,
    scatter_accumulate_at,
    scatter_accumulate_rows,
    scatter_add,
    scatter_add_2d,
    scatter_add_rows,
)
from tests.reference_wirelength import ref_evaluate


# ----------------------------------------------------------------------
# np.add.at reference forms (what the converted call sites used to do).
# ----------------------------------------------------------------------
def ref_scatter_add(index, values, size):
    out = np.zeros(size)
    np.add.at(out, index, values)
    return out


def ref_scatter_add_2d(ix, iy, values, shape):
    out = np.zeros(shape)
    np.add.at(out, (ix, iy), values)
    return out


def ref_scatter_add_rows(rows, values, n_rows):
    out = np.zeros((n_rows, values.shape[1]))
    np.add.at(out, rows, values)
    return out


def ref_scatter_accumulate(out, index, values):
    np.add.at(out, index, values)
    return out


def ref_scatter_accumulate_at(out, rows, cols, values):
    np.add.at(out, (rows, cols), values)
    return out


def ref_scatter_accumulate_rows(out, rows, values):
    np.add.at(out, rows, values)
    return out


def assert_bit_identical(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.fixture(params=[0, 1, 2])
def case(request):
    """(index, values, size) with varying duplication patterns."""
    rng = np.random.default_rng(request.param)
    size = [64, 1000, 7][request.param]
    n = [500, 5000, 2000][request.param]
    index = rng.integers(0, size, n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6, n)
    return index, values, size


class TestHelperEquivalence:
    def test_scatter_add(self, case):
        index, values, size = case
        assert_bit_identical(
            scatter_add(index, values, size), ref_scatter_add(index, values, size)
        )

    def test_scatter_add_2d(self, case):
        index, values, size = case
        rng = np.random.default_rng(99)
        iy = rng.integers(0, 5, index.size)
        assert_bit_identical(
            scatter_add_2d(index, iy, values, (size, 5)),
            ref_scatter_add_2d(index, iy, values, (size, 5)),
        )

    def test_scatter_add_rows(self, case):
        index, values, size = case
        rows = np.stack([values, -values], axis=1)
        assert_bit_identical(
            scatter_add_rows(index, rows, size),
            ref_scatter_add_rows(index, rows, size),
        )

    def test_scatter_accumulate_into_nonzero(self, case):
        index, values, size = case
        base = np.random.default_rng(7).standard_normal(size)
        assert_bit_identical(
            scatter_accumulate(base.copy(), index, values),
            ref_scatter_accumulate(base.copy(), index, values),
        )

    def test_scatter_accumulate_rows(self, case):
        index, values, size = case
        base = np.random.default_rng(8).standard_normal((size, 2))
        rows = np.stack([values, 2.0 * values], axis=1)
        assert_bit_identical(
            scatter_accumulate_rows(base.copy(), index, rows),
            ref_scatter_accumulate_rows(base.copy(), index, rows),
        )

    def test_scatter_accumulate_at_plain(self, case):
        index, values, size = case
        cols = np.random.default_rng(9).integers(0, 3, index.size)
        base = np.random.default_rng(10).standard_normal((size, 3))
        assert_bit_identical(
            scatter_accumulate_at(base.copy(), index, cols, values),
            ref_scatter_accumulate_at(base.copy(), index, cols, values),
        )

    def test_scatter_accumulate_at_broadcast_stencil(self):
        """The difftimer endpoint-seed shape: ep[:, None] vs [[RISE, FALL]]."""
        rng = np.random.default_rng(3)
        ep = rng.integers(0, 40, 25)
        vals = rng.standard_normal((25, 2))
        base = rng.standard_normal((40, 2))
        stencil = np.array([[0, 1]])
        assert_bit_identical(
            scatter_accumulate_at(base.copy(), ep[:, None], stencil, vals),
            ref_scatter_accumulate_at(base.copy(), (ep[:, None]), stencil, vals),
        )

    def test_empty_index(self):
        empty_i = np.array([], dtype=np.int64)
        empty_v = np.array([])
        assert_bit_identical(
            scatter_add(empty_i, empty_v, 5), ref_scatter_add(empty_i, empty_v, 5)
        )
        base = np.arange(5.0)
        assert_bit_identical(
            scatter_accumulate(base.copy(), empty_i, empty_v), base
        )

    def test_non_contiguous_target_raises(self):
        out = np.zeros((4, 6)).T  # F-ordered view: reshape(-1) would copy
        with pytest.raises(ValueError, match="C-contiguous"):
            scatter_accumulate_rows(out, np.array([0, 1]), np.ones((2, 4)))


def unpickled(array):
    """``array`` as it comes out of the bundle cache, a worker pipe or a
    checkpoint: equal dtype, but a descriptor object of its own."""
    return pickle.loads(pickle.dumps(array))


def best_of(fn, repeats=40):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class TestUnpickledOperands:
    """``ufunc.at`` takes its indexed loop only when target and values
    share one dtype *object*; pickle gives every array its own, and
    arithmetic hands it on.  The helper must not care where its operands
    came from: same bits, and no 15-26x buffered-path cliff."""

    N = 5000

    @pytest.fixture()
    def operands(self):
        rng = np.random.default_rng(4)
        index = rng.integers(0, self.N // 4, self.N)
        return index, rng.standard_normal(self.N), rng.standard_normal(self.N // 4)

    def test_same_descr_is_a_view_with_the_targets_dtype_object(self):
        out, values = np.zeros(4), unpickled(np.arange(4.0))
        seen = same_descr(out, values)
        assert seen.dtype is out.dtype
        assert np.shares_memory(seen, values)
        # Nothing to share between different dtypes: left to numpy's cast.
        single = values.astype(np.float32)
        assert same_descr(out, single) is single
        assert same_descr(out, out) is out

    @pytest.mark.parametrize("which", ["values", "out", "both", "derived"])
    def test_results_do_not_depend_on_provenance(self, operands, which):
        index, values, base = operands
        expect = ref_scatter_accumulate(base.copy(), index, values)
        out = unpickled(base) if which in ("out", "both") else base.copy()
        if which in ("values", "both"):
            values = unpickled(values)
        elif which == "derived":
            values = unpickled(values * 0.5) * 2.0  # exact: same values
        assert_bit_identical(scatter_accumulate(out, index, values), expect)

    @pytest.mark.parametrize("which", ["values", "out"])
    def test_no_buffered_path_cliff(self, operands, which):
        """The cliff is ~26x at this size; 3x leaves room for a noisy box."""
        index, values, base = operands
        out = base.copy()
        fresh = best_of(lambda: scatter_accumulate(out, index, values))
        if which == "values":
            values = unpickled(values)
        else:
            out = unpickled(base)
        cached = best_of(lambda: scatter_accumulate(out, index, values))
        assert cached < 3.0 * fresh


# ----------------------------------------------------------------------
# End-to-end: the compiled passes against their oracles with every scatter
# swapped back to an np.add.at reference: not a single bit may differ.
# ----------------------------------------------------------------------
_PATCH_SITES = ((density_ref, "scatter_add", ref_scatter_add),)


def _patch_old_path(monkeypatch):
    for mod, name, ref in _PATCH_SITES:
        assert hasattr(mod, name), f"{mod.__name__}.{name} vanished"
        monkeypatch.setattr(mod, name, ref)


class TestKernelBitIdentity:
    def test_wirelength_objective_and_grad(self, small_design, spread_positions):
        """The compiled net pass against its oracle, which adds the pin
        gradients into the cells by ``np.add.at``."""
        x, y = spread_positions
        wa = WAWirelength(small_design)
        wl_new, gx_new, gy_new = wa.evaluate(x, y, gamma=40.0)
        wl_old, gx_old, gy_old = ref_evaluate(small_design, x, y, 40.0)
        assert wl_new == wl_old
        assert_bit_identical(gx_new, gx_old)
        assert_bit_identical(gy_new, gy_old)

    def test_density_energy_and_grad(
        self, small_design, spread_positions, monkeypatch
    ):
        """The compiled splat adds the four corner passes in the order
        ``np.add.at`` folds them."""
        x, y = spread_positions
        res_new = DensityModel(small_design, n_bins=16).evaluate(x, y)
        _patch_old_path(monkeypatch)
        res_old = density_ref.DensityModel(small_design, n_bins=16).evaluate(x, y)
        assert_bit_identical(res_new.density, res_old.density)
        assert res_new.energy == res_old.energy
        assert res_new.overflow == res_old.overflow
        assert_bit_identical(res_new.grad_x, res_old.grad_x)
        assert_bit_identical(res_new.grad_y, res_old.grad_y)
