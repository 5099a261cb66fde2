"""Multi-backend array shim - the single ``xp`` namespace for hot kernels.

Every per-iteration kernel (density splat/solve/gather, WA wirelength,
LSE smoothing, the scatter primitives) reaches its array library through
the module-level :data:`xp` proxy instead of importing ``numpy``
directly.  The proxy resolves attributes against the *active backend* at
call time, so the same kernel source runs on NumPy (default), CuPy, or
torch without edits - which is the point: DG-RePlAce-style GPU ports
change the backend, not the kernels.

Backend selection, in priority order:

1. an explicit :func:`set_backend` / :func:`use_backend` call
   (the harness ``--backend`` flag routes here),
2. the ``REPRO_BACKEND`` environment variable,
3. ``numpy``.

Non-NumPy backends resolve *lazily*: importing this module never imports
CuPy or torch, and a missing/broken optional backend only surfaces when
it is actually requested - as a :class:`BackendUnavailableError` carrying
the probe failure, never a bare ``ImportError`` from deep inside a
kernel.  Capability probing runs one tiny allocation + reduction on the
target device so "installed but no GPU" fails at selection time, not
mid-placement.

The NumPy backend hands out the literal ``numpy`` module, so kernels
ported to ``xp`` are bit-identical to their former ``np`` selves.  The
proxy keeps every attribute it has resolved, so after its first use
``xp.exp`` is a plain instance-attribute read (resolving it anew on every
access cost 0.6-0.9 us, several hundred times per timer call); changing
the selection drops what it kept.  FFT-adjacent entry points that historically came
from ``scipy.fft`` (``dctn``/``idctn``/``rfft``/``irfft``) are methods
on the backend object, which keeps ``scipy`` out of the kernels and
gives non-NumPy backends a place to supply their own transforms.  The
``backend-shim-only`` reprolint rule enforces that the ported kernel
modules never bypass this module.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "Backend",
    "BackendUnavailableError",
    "available_backends",
    "backend_name",
    "get_backend",
    "reset_backend",
    "set_backend",
    "to_numpy",
    "use_backend",
    "xp",
]

BACKEND_ENV = "REPRO_BACKEND"
BACKEND_NAMES = ("numpy", "cupy", "torch")


class BackendUnavailableError(RuntimeError):
    """Requested backend cannot be used; ``reason`` says why.

    Raised at selection time (import failure, no device, failed probe) so
    callers get one actionable message instead of a traceback from the
    middle of a kernel.
    """

    def __init__(self, name: str, reason: str) -> None:
        self.backend = name
        self.reason = reason
        super().__init__(
            f"backend {name!r} unavailable: {reason} "
            f"(available: {', '.join(sorted(available_backends()))})"
        )


class Backend:
    """One resolved array backend: a namespace plus transform hooks."""

    name: str = "?"

    def __init__(self) -> None:
        self.xp = self._resolve_namespace()
        self._probe()

    # -- hooks ---------------------------------------------------------
    def _resolve_namespace(self) -> Any:
        raise NotImplementedError

    def _probe(self) -> None:
        """Tiny end-to-end op; raises if the device cannot compute."""
        a = self.xp.arange(4)
        total = float(self.to_numpy(a.sum()))
        if total != 6.0:
            raise RuntimeError(f"probe reduction returned {total!r}")

    def to_numpy(self, array: Any) -> Any:
        """Copy/convert a backend array to a host ``numpy`` array."""
        raise NotImplementedError

    def asarray(self, array: Any, dtype: Any = None) -> Any:
        return self.xp.asarray(array, dtype=dtype)

    # -- transforms ----------------------------------------------------
    def rfft(self, a: Any, n: Optional[int] = None, axis: int = -1) -> Any:
        return self.xp.fft.rfft(a, n=n, axis=axis)

    def irfft(self, a: Any, n: Optional[int] = None, axis: int = -1) -> Any:
        return self.xp.fft.irfft(a, n=n, axis=axis)

    def dctn(self, a: Any, type: int = 2, norm: str = "ortho") -> Any:
        raise BackendUnavailableError(
            self.name, "backend does not provide dctn"
        )

    def idctn(self, a: Any, type: int = 2, norm: str = "ortho") -> Any:
        raise BackendUnavailableError(
            self.name, "backend does not provide idctn"
        )


class NumpyBackend(Backend):
    """Default backend: the literal ``numpy`` module, scipy transforms.

    The FFT entry points route to ``scipy.fft`` rather than
    ``numpy.fft``: numpy's FFT always promotes to double precision,
    while scipy transforms float32 natively in complex64 - which the
    fp32 density fast path depends on.
    """

    name = "numpy"

    def _resolve_namespace(self) -> Any:
        import numpy
        import scipy.fft

        self._sfft = scipy.fft
        return numpy

    def to_numpy(self, array: Any) -> Any:
        return self.xp.asarray(array)

    def rfft(self, a: Any, n: Optional[int] = None, axis: int = -1) -> Any:
        return self._sfft.rfft(a, n=n, axis=axis)

    def irfft(self, a: Any, n: Optional[int] = None, axis: int = -1) -> Any:
        return self._sfft.irfft(a, n=n, axis=axis)

    def dctn(self, a: Any, type: int = 2, norm: str = "ortho") -> Any:
        from scipy.fft import dctn

        return dctn(a, type=type, norm=norm)

    def idctn(self, a: Any, type: int = 2, norm: str = "ortho") -> Any:
        from scipy.fft import idctn

        return idctn(a, type=type, norm=norm)


class CupyBackend(Backend):
    """CuPy on a CUDA device; requires at least one visible GPU."""

    name = "cupy"

    def _resolve_namespace(self) -> Any:
        import cupy

        n_dev = cupy.cuda.runtime.getDeviceCount()
        if n_dev < 1:
            raise RuntimeError("no CUDA device visible")
        return cupy

    def to_numpy(self, array: Any) -> Any:
        return self.xp.asnumpy(array)

    def dctn(self, a: Any, type: int = 2, norm: str = "ortho") -> Any:
        import cupyx.scipy.fft as cufft

        return cufft.dctn(a, type=type, norm=norm)

    def idctn(self, a: Any, type: int = 2, norm: str = "ortho") -> Any:
        import cupyx.scipy.fft as cufft

        return cufft.idctn(a, type=type, norm=norm)


class _TorchNamespace:
    """numpy-flavoured facade over ``torch`` for the kernel subset.

    Only the operations the ported kernels use are aliased; anything else
    falls through to ``torch`` itself when the name matches, and raises a
    clear ``AttributeError`` naming the backend otherwise.
    """

    def __init__(self, torch_mod: Any) -> None:
        self._torch = torch_mod
        self._aliases: Dict[str, Any] = {
            "asarray": torch_mod.as_tensor,
            "concatenate": torch_mod.cat,
            "broadcast_arrays": torch_mod.broadcast_tensors,
            "ndarray": torch_mod.Tensor,
        }

    def __getattr__(self, name: str) -> Any:
        alias = self._aliases.get(name)
        if alias is not None:
            return alias
        try:
            return getattr(self._torch, name)
        except AttributeError:
            raise AttributeError(
                f"torch backend has no kernel op {name!r}; extend "
                "_TorchNamespace if the kernel genuinely needs it"
            ) from None


class TorchBackend(Backend):
    """Torch tensors (CPU or CUDA) behind a numpy-flavoured namespace."""

    name = "torch"

    def _resolve_namespace(self) -> Any:
        import torch

        return _TorchNamespace(torch)

    def to_numpy(self, array: Any) -> Any:
        return array.detach().cpu().numpy()


_FACTORIES: Dict[str, Callable[[], Backend]] = {
    "numpy": NumpyBackend,
    "cupy": CupyBackend,
    "torch": TorchBackend,
}

# RLock: composing a BackendUnavailableError lists the available
# backends, which re-enters _instantiate from inside the locked region.
_lock = threading.RLock()
_instances: Dict[str, Backend] = {}
_active: Optional[str] = None  # explicit selection; None -> env/default
# What the selection resolved to.  ``xp.<attr>`` is evaluated thousands of
# times per placer iteration, so the precedence rules (and the environment
# read) run once, not per access; every way of changing the selection
# below clears it, and with it the attributes the ``xp`` proxy kept.
_resolved: Optional[Backend] = None


def _instantiate(name: str) -> Backend:
    """Resolve (and cache) a backend instance, or explain why not."""
    if name not in _FACTORIES:
        raise BackendUnavailableError(
            name, f"unknown backend (choose from {', '.join(BACKEND_NAMES)})"
        )
    with _lock:
        backend = _instances.get(name)
        if backend is None:
            try:
                backend = _FACTORIES[name]()
            except BackendUnavailableError:
                raise
            except Exception as exc:  # import/probe failure -> clean error
                raise BackendUnavailableError(
                    name, f"{type(exc).__name__}: {exc}"
                ) from exc
            _instances[name] = backend
        return backend


def get_backend() -> Backend:
    """The active backend (explicit > ``REPRO_BACKEND`` > numpy).

    ``REPRO_BACKEND`` is read when the selection is first resolved - at
    the first use in a process, which is how spawn workers inherit it -
    and again after :func:`reset_backend`; changing the variable in a
    running process has no effect until then.
    """
    global _resolved
    backend = _resolved
    if backend is None:
        backend = _resolved = _instantiate(backend_name())
    return backend


def backend_name() -> str:
    """Name of the backend :func:`get_backend` resolves to right now."""
    if _resolved is not None:
        return _resolved.name
    return _active or os.environ.get(BACKEND_ENV, "").strip() or "numpy"


def set_backend(name: str) -> Backend:
    """Select a backend process-wide; probes it immediately."""
    global _active, _resolved
    backend = _instantiate(name)
    _active = name
    _resolved = backend
    vars(xp).clear()
    return backend


def reset_backend(active: Optional[str] = None) -> None:
    """Set the explicit selection (default: none) and re-resolve lazily.

    With no argument the next use falls back to ``REPRO_BACKEND`` as the
    environment stands then, then numpy.
    """
    global _active, _resolved
    _active = active
    _resolved = None
    vars(xp).clear()


class use_backend:
    """Context manager scoping a backend selection (tests, harness)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._previous: Optional[str] = None

    def __enter__(self) -> Backend:
        self._previous = _active
        return set_backend(self.name)

    def __exit__(self, *exc: Any) -> None:
        reset_backend(self._previous)


_enumerating = threading.local()


def available_backends() -> List[str]:
    """Names of backends that resolve and pass their probe, right now."""
    # Composing a BackendUnavailableError message calls back in here;
    # re-probing the backend that just failed would recurse forever, so
    # nested calls only report what is already instantiated.
    if getattr(_enumerating, "active", False):
        return sorted(_instances)
    _enumerating.active = True
    try:
        out = []
        for name in BACKEND_NAMES:
            try:
                _instantiate(name)
            except BackendUnavailableError:
                continue
            out.append(name)
        return out
    finally:
        _enumerating.active = False


def to_numpy(array: Any) -> Any:
    """Convert an active-backend array to a host numpy array."""
    return get_backend().to_numpy(array)


class _XpProxy:
    """Module-level ``xp``: attribute access forwards to the active backend.

    Kernels write ``xp.exp(...)`` exactly as they wrote ``np.exp(...)``.
    ``__getattr__`` only runs for a name the proxy has not seen since the
    selection last changed: it resolves the name against the active
    backend and stores it on the instance, where later reads find it
    without a call (:func:`set_backend` / :func:`reset_backend` clear
    the instance dict).
    """

    def __getattr__(self, name: str) -> Any:
        value = getattr(get_backend().xp, name)
        vars(self)[name] = value
        return value

    def __repr__(self) -> str:  # pragma: no cover - debug nicety
        return f"<xp proxy -> {backend_name()}>"


xp = _XpProxy()
