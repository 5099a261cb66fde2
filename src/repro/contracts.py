"""Differentiability contracts: forward kernels declare their adjoints.

The paper's engine is a collection of hand-derived forward/backward kernel
pairs (Eqs. 7-12); nothing in pure Python ties a forward kernel to the
backward pass that must mirror it, or to the gradcheck test that proves
the pair consistent.  The :func:`differentiable` decorator records that
link in :data:`KERNEL_REGISTRY`.  The ``backward-pair`` rule of
``repro.analysis`` (reprolint) makes every forward kernel in ``core/``
and ``sta/`` carry the decorator, and ``tests/test_contracts.py`` checks
over the registry that

- the declared backward function imports by its dotted path, and
- the declared gradcheck test exists and its file names the kernel.

The decorator is deliberately inert at runtime (it only registers) so
kernels pay nothing for being tagged.
"""

from __future__ import annotations

from typing import Callable, Dict

__all__ = ["KERNEL_REGISTRY", "differentiable"]

#: ``qualified forward name -> {"backward": ..., "gradcheck": ...}``.
KERNEL_REGISTRY: Dict[str, Dict[str, str]] = {}


def differentiable(backward: str, gradcheck: str) -> Callable:
    """Tag a forward kernel with its backward pair and gradcheck test.

    Parameters
    ----------
    backward:
        Fully qualified dotted path of the adjoint kernel
        (``"repro.core.sweep.timer_adjoint"``).
    gradcheck:
        Pytest node id of the finite-difference test that covers the pair
        (``"tests/test_elmore_grad.py::TestElmoreBackward::test_..."``).
    """

    def decorate(fn: Callable) -> Callable:
        contract = {"backward": backward, "gradcheck": gradcheck}
        KERNEL_REGISTRY[f"{fn.__module__}.{fn.__qualname__}"] = contract
        fn.__differentiable__ = contract
        return fn

    return decorate
