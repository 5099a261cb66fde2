"""Unit tests for the batched LutBank against the scalar LUT reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.lut import LUT
from repro.sta.nldm import LutBank


def make_random_lut(rng, nx, ny):
    x = np.sort(rng.uniform(0, 100, nx))
    while len(np.unique(x)) < nx:
        x = np.sort(rng.uniform(0, 100, nx))
    y = np.sort(rng.uniform(0, 100, ny))
    while len(np.unique(y)) < ny:
        y = np.sort(rng.uniform(0, 100, ny))
    return LUT(x, y, rng.uniform(-5, 5, (nx, ny)))


class TestRegistration:
    def test_dedup_by_identity(self):
        bank = LutBank()
        lut = LUT.constant(1.0)
        assert bank.register(lut) == bank.register(lut)
        assert len(bank) == 1

    def test_distinct_objects_get_distinct_ids(self):
        bank = LutBank()
        assert bank.register(LUT.constant(1.0)) != bank.register(LUT.constant(1.0))

    def test_register_after_finalize_rejected(self):
        bank = LutBank()
        bank.register(LUT.constant(1.0))
        bank.finalize()
        with pytest.raises(RuntimeError):
            bank.register(LUT.constant(2.0))

    def test_empty_bank_finalizes(self):
        bank = LutBank()
        bank.finalize()
        assert len(bank) == 0


class TestLookupAgainstScalar:
    def test_mixed_sizes_match_scalar(self):
        rng = np.random.default_rng(1)
        bank = LutBank()
        luts = [
            make_random_lut(rng, 2, 2),
            make_random_lut(rng, 7, 7),
            make_random_lut(rng, 4, 6),
            LUT.constant(3.25),
            LUT(np.array([0.0]), np.array([0.0, 5.0]), np.array([[1.0, 2.0]])),
        ]
        ids = [bank.register(lut) for lut in luts]
        bank.finalize()
        queries_x = rng.uniform(-10, 120, 200)
        queries_y = rng.uniform(-10, 120, 200)
        which = rng.integers(0, len(luts), 200)
        v, dx, dy = bank.lookup_with_grad(
            np.array(ids)[which], queries_x, queries_y
        )
        for i in range(200):
            lut = luts[which[i]]
            ref_v, ref_dx, ref_dy = lut.lookup_with_grad(
                queries_x[i], queries_y[i]
            )
            assert v[i] == pytest.approx(float(ref_v), rel=1e-12, abs=1e-12)
            assert dx[i] == pytest.approx(float(ref_dx), rel=1e-12, abs=1e-12)
            assert dy[i] == pytest.approx(float(ref_dy), rel=1e-12, abs=1e-12)

    def test_broadcasting_scalar_ids(self):
        rng = np.random.default_rng(2)
        bank = LutBank()
        lut = make_random_lut(rng, 3, 3)
        lid = bank.register(lut)
        bank.finalize()
        xs = rng.uniform(0, 100, 10)
        out = bank.lookup(lid, xs, 50.0)
        assert out.shape == (10,)

    def test_shape_preserved(self):
        bank = LutBank()
        lid = bank.register(LUT.constant(2.0))
        bank.finalize()
        out = bank.lookup(np.full((3, 4), lid), np.zeros((3, 4)), np.zeros((3, 4)))
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out, 2.0)


class TestBitEqualityWithScalar:
    """The bank gathers the four corners of a query's cell by flat offset
    and runs the scalar LUT's arithmetic on them, so every result equals
    :meth:`LUT.lookup_with_grad` bit for bit - in range, extrapolating,
    and on axes padded from length 1."""

    @pytest.fixture(scope="class")
    def bank_and_luts(self):
        rng = np.random.default_rng(5)
        luts = [
            make_random_lut(rng, 7, 7),
            make_random_lut(rng, 2, 5),
            make_random_lut(rng, 4, 3),
            LUT.constant(3.25),
            LUT(np.array([0.0]), np.array([0.0, 5.0, 9.0]), np.array([[1.0, 2.0, 0.5]])),
            LUT(np.array([1.0, 4.0]), np.array([2.0]), np.array([[1.0], [-2.0]])),
        ]
        bank = LutBank()
        ids = np.array([bank.register(lut) for lut in luts])
        bank.finalize()
        return bank, luts, ids

    @staticmethod
    def _scalar(luts, which, qx, qy):
        out = np.empty((3,) + which.shape)
        for pos in np.ndindex(which.shape):
            out[(slice(None),) + pos] = [
                float(part)
                for part in luts[which[pos]].lookup_with_grad(
                    qx[pos[-1]], qy[pos[-1]]
                )
            ]
        return out

    @pytest.mark.parametrize(
        "lo,hi", [(5.0, 95.0), (-40.0, 0.0), (100.0, 160.0), (-40.0, 160.0)]
    )
    def test_flat_ids(self, bank_and_luts, lo, hi):
        bank, luts, ids = bank_and_luts
        rng = np.random.default_rng(11)
        which = rng.integers(0, len(luts), 300)
        qx, qy = rng.uniform(lo, hi, 300), rng.uniform(lo, hi, 300)
        ref = self._scalar(luts, which, qx, qy)
        got = bank.lookup_with_grad(ids[which], qx, qy)
        for part, expected in zip(got, ref):
            assert part.shape == (300,)
            assert np.array_equal(part, expected)
        assert np.array_equal(bank.lookup(ids[which], qx, qy), ref[0])

    def test_stacked_ids_share_the_query_points(self, bank_and_luts):
        """A (2, k) id array reads two tables at the same k points - the
        differentiable timer's delay|slew lookup."""
        bank, luts, ids = bank_and_luts
        rng = np.random.default_rng(12)
        which = rng.integers(0, len(luts), (2, 150))
        qx, qy = rng.uniform(-40, 160, 150), rng.uniform(-40, 160, 150)
        ref = self._scalar(luts, which, qx, qy)
        got = bank.lookup_with_grad(ids[which], qx, qy)
        for part, expected in zip(got, ref):
            assert part.shape == (2, 150)
            assert np.array_equal(part, expected)
        assert np.array_equal(bank.lookup(ids[which], qx, qy), ref[0])

    def test_queries_on_breakpoints_take_the_right_hand_cell(self, bank_and_luts):
        bank, luts, ids = bank_and_luts
        lut = luts[0]
        which = np.zeros(len(lut.x), dtype=np.int64)
        ref = self._scalar(luts, which, lut.x, lut.y)
        got = bank.lookup_with_grad(ids[which], lut.x, lut.y)
        for part, expected in zip(got, ref):
            assert np.array_equal(part, expected)

    def test_bank_unpickled_without_derived_tables(self, bank_and_luts):
        """The axis tables the locators read are derived: a bank pickles
        without them (design bundles hold only the packed LUTs) and
        lookups rebuild them on first use."""
        import pickle

        bank, luts, ids = bank_and_luts
        bank.lookup(ids[:1], np.array([1.0]), np.array([1.0]))
        assert "_dims" in vars(bank)
        old = pickle.loads(pickle.dumps(bank))
        assert set(vars(old)) == set(vars(bank)) - {"_dims", "_corner_steps"}
        q = np.linspace(-5.0, 120.0, 40)
        which = np.arange(40) % len(luts)
        assert np.array_equal(
            old.lookup(ids[which], q, q[::-1]), bank.lookup(ids[which], q, q[::-1])
        )


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    qx=st.floats(min_value=-50, max_value=150),
    qy=st.floats(min_value=-50, max_value=150),
)
def test_bank_equals_scalar_lut_property(seed, qx, qy):
    rng = np.random.default_rng(seed)
    lut = make_random_lut(rng, int(rng.integers(2, 8)), int(rng.integers(2, 8)))
    bank = LutBank()
    lid = bank.register(lut)
    bank.finalize()
    v = bank.lookup(np.array([lid]), np.array([qx]), np.array([qy]))[0]
    assert v == pytest.approx(float(lut.lookup(qx, qy)), rel=1e-10, abs=1e-10)


# ----------------------------------------------------------------------
# The two-phase lookup (bind -> locate_load -> interpolate) against the
# one-shot batched formula it replaced, kept here as the reference.
# ----------------------------------------------------------------------
def one_shot_reference(bank, ids, x, y):
    """``(value, dv/dx, dv/dy)`` by locating both coordinates of every
    query with a per-table compare-and-count, in one go."""
    ids = np.asarray(ids, dtype=np.int64)
    nx, ny = bank.x.shape[1], bank.y.shape[1]
    i = np.add.reduce(bank.x.T.take(ids, axis=1) <= x, axis=0) - 1
    j = np.add.reduce(bank.y.T.take(ids, axis=1) <= y, axis=0) - 1
    bx = ids * nx + np.minimum(np.maximum(i, 0), bank.x_len[ids] - 2)
    j = np.minimum(np.maximum(j, 0), bank.y_len[ids] - 2)
    by = ids * ny + j
    xf, yf, vf = bank.x.reshape(-1), bank.y.reshape(-1), bank.values.reshape(-1)
    corner = bx * ny + j
    x0, x1, y0, y1 = xf[bx], xf[bx + 1], yf[by], yf[by + 1]
    q00, q10 = vf[corner], vf[corner + ny]
    dx, dy = x1 - x0, y1 - y0
    tx, ty = (x - x0) / dx, (y - y0) / dy
    e0 = vf[corner + 1] - q00
    e1 = vf[corner + (ny + 1)] - q10
    v0 = q00 + ty * e0
    dv = (q10 + ty * e1) - v0
    d0 = e0 / dy
    return v0 + tx * dv, dv / dx, d0 + tx * (e1 / dy - d0)


def _axis(rng, n):
    axis = np.unique(np.round(rng.uniform(0, 100, n), 3))
    while len(axis) < n:
        axis = np.unique(np.append(axis, np.round(rng.uniform(0, 100), 3)))
    return axis


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    shared=st.booleans(),
    span=st.sampled_from([(5.0, 95.0), (-60.0, 170.0)]),
    clip=st.booleans(),
)
def test_two_phase_lookup_equals_one_shot_and_scalar(seed, shared, span, clip):
    """On a bank whose queried tables share one breakpoint axis per
    dimension (located by ``searchsorted``) and on a bank of mixed axes
    (per-table compare-and-count) - axes padded to the bank's width and
    from length 1, queries in range, extrapolating, clipped onto a bound
    and sitting on breakpoints - the value and both partials equal the
    one-shot reference bit for bit, level slice by level slice, and the
    scalar :meth:`LUT.lookup_with_grad` to 1e-12."""
    rng = np.random.default_rng(seed)
    bank = LutBank()
    if shared:
        ax, ay = _axis(rng, int(rng.integers(2, 6))), _axis(rng, int(rng.integers(2, 6)))
        luts = [LUT(ax, ay, rng.uniform(-5, 5, (len(ax), len(ay)))) for _ in range(5)]
        # Registered, never queried: widens the bank, so the shared axes
        # are +inf padded.
        bank.register(make_random_lut(rng, 7, 7))
    else:
        luts = [
            make_random_lut(rng, int(rng.integers(2, 8)), int(rng.integers(2, 8)))
            for _ in range(4)
        ] + [
            LUT.constant(1.5),
            LUT(np.array([3.0]), _axis(rng, 3), rng.uniform(-5, 5, (1, 3))),
        ]
    ids = np.array([bank.register(lut) for lut in luts])
    bank.finalize()

    k = 40
    which = rng.integers(0, len(luts), (2, k))
    qx, qy = rng.uniform(*span, k), rng.uniform(*span, k)
    qx[:4] = luts[0].x[[0, -1, 0, -1]]  # on breakpoints
    qy[:4] = luts[0].y[[0, 0, -1, -1]]
    if clip:
        qx = np.minimum(np.maximum(qx, 0.0), 60.0)

    ref = one_shot_reference(bank, ids[which], qx, qy)
    query = bank.bind(ids[which])
    assert (query.x_axis >= 0) == (query.y_axis >= 0) == shared
    load = bank.locate_load(query, qy)
    for sl in (slice(0, 1), slice(1, 17), slice(17, k)):
        partials = np.empty((2, sl.stop - sl.start)), np.empty((2, sl.stop - sl.start))
        level = bank.rebind(query, sl)
        value = bank.interpolate(level, qx[sl], load.at(sl), partials)
        for got, want in zip((value, *partials), ref):
            assert np.array_equal(got, want[:, sl])
        assert np.array_equal(bank.interpolate(level, qx[sl], load.at(sl)), ref[0][:, sl])
    for got, want in zip(bank.lookup_with_grad(ids[which], qx, qy), ref):
        assert np.array_equal(got, want)
    assert np.array_equal(bank.lookup(ids[which], qx, qy), ref[0])

    for pos in np.ndindex(which.shape):
        scalar = luts[which[pos]].lookup_with_grad(qx[pos[1]], qy[pos[1]])
        for want, got in zip(scalar, ref):
            assert got[pos] == pytest.approx(float(want), rel=1e-12, abs=1e-12)


def test_a_level_of_a_mixed_plan_may_share_its_axis():
    """Binding looks at the tables a batch actually reads: a slice of a
    mixed-axis batch that stays on one axis is located by searchsorted."""
    rng = np.random.default_rng(3)
    bank = LutBank()
    ax, ay = _axis(rng, 5), _axis(rng, 4)
    same = [bank.register(LUT(ax, ay, rng.uniform(-5, 5, (5, 4)))) for _ in range(2)]
    other = bank.register(make_random_lut(rng, 6, 3))
    bank.finalize()
    query = bank.bind(np.array([same[0], same[1], other, same[0]]))
    assert query.x_axis == query.y_axis == -1
    assert bank.rebind(query, slice(0, 2)).x_axis >= 0
    assert bank.rebind(query, slice(1, 3)).x_axis == -1
    assert bank.rebind(query, np.array([0, 3])).y_axis >= 0
