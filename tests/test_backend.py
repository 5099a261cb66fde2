"""Unit tests for the multi-backend array shim (`repro.core.backend`)."""

import collections.abc
import os

import numpy as np
import pytest

from repro.core import backend as backend_mod
from repro.core.backend import (
    BACKEND_ENV,
    BACKEND_NAMES,
    BackendUnavailableError,
    available_backends,
    backend_name,
    get_backend,
    reset_backend,
    set_backend,
    to_numpy,
    use_backend,
    xp,
)


@pytest.fixture(autouse=True)
def _restore_selection():
    """Reset explicit selection and env override around every test."""
    prev_active = backend_mod._active
    prev_env = os.environ.get(BACKEND_ENV)
    yield
    if prev_env is None:
        os.environ.pop(BACKEND_ENV, None)
    else:
        os.environ[BACKEND_ENV] = prev_env
    # The resolved backend is cached; flipping the environment only takes
    # effect through an explicit reset.
    reset_backend(prev_active)


class TestXpProxy:
    def test_dispatches_to_numpy_bit_for_bit(self):
        a = xp.linspace(0.0, 1.0, 17)
        b = np.linspace(0.0, 1.0, 17)
        assert isinstance(a, np.ndarray)
        assert np.array_equal(a, b)
        assert np.array_equal(xp.exp(a), np.exp(b))

    def test_constants_and_dtypes_forward(self):
        assert xp.pi == np.pi
        assert xp.dtype(xp.float32) == np.dtype(np.float32)
        assert xp.float64 is np.float64

    def test_repr_names_active_backend(self):
        assert "numpy" in repr(xp)

    def test_switch_after_a_kept_lookup_resolves_against_the_new_backend(
        self, monkeypatch
    ):
        """The proxy keeps what it resolved (no call on the second read);
        every way of changing the selection drops it."""

        class _Tagged(backend_mod.NumpyBackend):
            name = "tagged"

            def _resolve_namespace(self):
                numpy = super()._resolve_namespace()
                members = {k: getattr(numpy, k) for k in ("arange", "asarray")}
                return type("ns", (), {**members, "exp": "tagged-exp"})

        monkeypatch.setitem(backend_mod._FACTORIES, "tagged", _Tagged)
        monkeypatch.delitem(backend_mod._instances, "tagged", raising=False)
        reset_backend()
        assert xp.exp is np.exp
        assert vars(xp)["exp"] is np.exp  # kept: the next read is a dict hit
        set_backend("tagged")
        assert xp.exp == "tagged-exp"
        reset_backend()
        assert xp.exp is np.exp
        with use_backend("tagged"):
            assert xp.exp == "tagged-exp"
        assert xp.exp is np.exp
        backend_mod._instances.pop("tagged", None)


class TestSelection:
    def test_default_is_numpy(self):
        os.environ.pop(BACKEND_ENV, None)
        reset_backend()
        assert backend_name() == "numpy"
        assert get_backend().name == "numpy"

    def test_env_var_selects_backend(self):
        os.environ[BACKEND_ENV] = "numpy"
        reset_backend()
        assert backend_name() == "numpy"
        assert get_backend().name == "numpy"

    def test_env_var_is_read_at_resolution_only(self):
        """The selection is resolved once; a later environment change is
        picked up by `reset_backend`, not by the next `xp` access."""
        os.environ.pop(BACKEND_ENV, None)
        reset_backend()
        assert get_backend().name == "numpy"
        os.environ[BACKEND_ENV] = "no-such-backend"
        assert get_backend().name == "numpy"
        assert xp.float64 is np.float64
        reset_backend()
        assert backend_name() == "no-such-backend"
        with pytest.raises(BackendUnavailableError, match="unknown backend"):
            get_backend()

    def test_explicit_wins_over_env(self):
        os.environ[BACKEND_ENV] = "torch"
        set_backend("numpy")
        assert backend_name() == "numpy"

    def test_unknown_backend_is_clean_error(self):
        with pytest.raises(BackendUnavailableError, match="unknown backend"):
            set_backend("jax")

    def test_use_backend_scopes_and_restores(self):
        reset_backend()
        with use_backend("numpy") as be:
            assert be.name == "numpy"
            assert backend_mod._active == "numpy"
        assert backend_mod._active is None

    def test_use_backend_exit_drops_the_cached_resolution(self):
        os.environ.pop(BACKEND_ENV, None)
        reset_backend()
        with use_backend("numpy"):
            os.environ[BACKEND_ENV] = "no-such-backend"
        # Back to "no explicit selection": the environment decides again.
        assert backend_name() == "no-such-backend"

    def test_use_backend_restores_on_error(self):
        reset_backend()
        with pytest.raises(RuntimeError, match="boom"):
            with use_backend("numpy"):
                raise RuntimeError("boom")
        assert backend_mod._active is None


class _CountingEnviron(collections.abc.MutableMapping):
    """`os.environ` stand-in that counts every read."""

    def __init__(self, inner):
        self.inner = inner
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return self.inner[key]

    def __setitem__(self, key, value):
        self.inner[key] = value

    def __delitem__(self, key):
        del self.inner[key]

    def __iter__(self):
        return iter(self.inner)

    def __len__(self):
        return len(self.inner)


class TestHotPath:
    def test_objective_call_reads_environment_at_most_once(
        self, small_design, spread_positions, monkeypatch
    ):
        """`xp.<attr>` used to resolve the backend - an environment read,
        a lock and a dict lookup - on every access: hundreds of reads per
        timing-objective evaluation.  The resolution is cached now."""
        from repro.core.objective import TimingObjective, TimingObjectiveOptions

        x, y = spread_positions
        objective = TimingObjective(
            small_design, TimingObjectiveOptions(start_iteration=0)
        )
        objective(0, x, y, wl_grad_l1=1.0)
        environ = _CountingEnviron(os.environ)
        monkeypatch.setattr(os, "environ", environ)
        reset_backend()
        assert objective(1, x, y, wl_grad_l1=1.0) is not None
        assert environ.reads <= 1


class TestAvailability:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()

    @pytest.mark.parametrize("name", ["cupy", "torch"])
    def test_missing_accelerator_raises_with_alternatives(self, name):
        """Accelerator backends absent in this container fail cleanly.

        If one IS importable here, selection must still succeed or raise
        the typed error - never a raw ImportError.
        """
        try:
            be = set_backend(name)
        except BackendUnavailableError as exc:
            assert exc.backend == name
            assert "available:" in str(exc)
            assert "numpy" in str(exc)
        else:
            assert be.name == name

    def test_selection_does_not_leak_on_failure(self):
        reset_backend()
        if "cupy" in available_backends():
            pytest.skip("cupy importable in this environment")
        with pytest.raises(BackendUnavailableError):
            set_backend("cupy")
        assert backend_name() == "numpy"


class TestNumpyBackendTransforms:
    def test_rfft_preserves_float32(self):
        """scipy-routed FFTs keep fp32 in complex64 (numpy.fft promotes)."""
        be = get_backend()
        a = np.random.default_rng(0).random((4, 16)).astype(np.float32)
        spec = be.rfft(a)
        assert spec.dtype == np.complex64
        back = be.irfft(spec, n=16)
        assert back.dtype == np.float32
        np.testing.assert_allclose(back, a, rtol=1e-5, atol=1e-6)

    def test_rfft_matches_numpy_fft_fp64(self):
        be = get_backend()
        a = np.random.default_rng(1).random((3, 32))
        np.testing.assert_allclose(be.rfft(a), np.fft.rfft(a), rtol=1e-12)

    def test_dctn_roundtrip(self):
        be = get_backend()
        a = np.random.default_rng(2).random((8, 8))
        coeff = be.dctn(a, type=2, norm="ortho")
        np.testing.assert_allclose(
            be.idctn(coeff, type=2, norm="ortho"), a, rtol=1e-12
        )

    def test_to_numpy_is_host_array(self):
        out = to_numpy(xp.arange(5))
        assert isinstance(out, np.ndarray)
        assert out.tolist() == [0, 1, 2, 3, 4]


def test_backend_names_frozen():
    assert BACKEND_NAMES == ("numpy", "cupy", "torch")
