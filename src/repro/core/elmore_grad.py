"""Backward (gradient) pass of the Elmore delay model - Equation (8).

The forward model (:func:`repro.sta.elmore.elmore_forward`) is four tree
dynamic-programming passes; the backward pass mirrors them in reverse order
(Figure 5 of the paper): the adjoint of each bottom-up pass is a top-down
pass and vice versa.  Given gradients of the objective with respect to the
per-node Elmore delay, squared impulse, and driver (root) load, this module
produces gradients with respect to node coordinates, which the caller then
scatters onto pins (Steiner points route to their coordinate-owner pins,
Figure 4).

Derivation sketch (``g`` denotes d objective / d quantity):

- ``impulse^2 = 2 beta - delay^2``  =>  ``g_beta += 2 g_imp2``,
  ``g_delay -= 2 delay g_imp2``;
- pass 4 reverse (bottom-up):  ``g_ldelay += res * g_beta``,
  ``g_res += ldelay * g_beta``,  ``g_beta[parent] += g_beta``;
- pass 3 reverse (top-down):   ``g_ldelay += g_ldelay[parent]``, then
  ``g_cap += delay * g_ldelay``, ``g_delay += cap * g_ldelay``;
- pass 2 reverse (bottom-up):  ``g_res += load * g_delay``,
  ``g_load += res * g_delay``,  ``g_delay[parent] += g_delay``;
- pass 1 reverse (top-down):   ``g_load += g_load[parent]``, then
  ``g_cap += g_load``;
- finally ``res = r_unit * len`` and the half-lumped wire capacitance give
  ``g_len = r_unit * g_res + (c_unit / 2)(g_cap(u) + g_cap(parent))`` and
  rectilinear length differentiates into coordinate signs.

Every step is validated against central finite differences in the tests.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..netlist.library import WireModel
from ..route.tree import Forest
from ..sta.elmore import ElmoreResult
from . import sweep

__all__ = ["elmore_backward"]


def elmore_backward(
    forest: Forest,
    elm: ElmoreResult,
    wire: WireModel,
    g_delay_ext: np.ndarray,
    g_imp2_ext: np.ndarray,
    g_load_ext: np.ndarray,
    g_beta_ext: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Backpropagate Elmore gradients to node coordinates.

    Every gradient array is ``(n_nodes,)`` or, for several objectives
    (seeds) at once, ``(n_seeds, n_nodes)``; the adjoint is linear, and
    each row of the result is bit for bit what its own call returns.
    The inputs are left as they are (the same array may be passed for
    several of them).  The passes run in the compiled adjoint the
    differentiable timer's backward pass runs them in
    (:func:`repro.core.sweep.elmore_adjoint`).

    Parameters
    ----------
    g_delay_ext, g_imp2_ext:
        d objective / d(delay, impulse^2) per forest node (typically
        nonzero at sink-pin nodes, from net-delay propagation).
    g_load_ext:
        d objective / d(root load) per node (nonzero at root nodes, from
        the LUT load inputs of the driving cell arcs).
    g_beta_ext:
        Optional direct d objective / d(beta) per node; used by moment-
        based wire metrics such as D2M that consume the second moment
        beyond its appearance in ``impulse^2``.

    Returns
    -------
    (g_node_x, g_node_y):
        Gradients with respect to the node coordinates used in the
        forward pass, shaped like the inputs.
    """
    given = [g_delay_ext, g_imp2_ext, g_load_ext]
    if g_beta_ext is not None:
        given.append(g_beta_ext)
    grads = [np.array(g, dtype=np.float64, order="C") for g in given]
    if any(g.shape != grads[0].shape for g in grads) or (
        grads[0].shape[-1:] != (forest.n_nodes,)
    ):
        raise ValueError(
            f"node gradients of shapes {[g.shape for g in grads]} for a "
            f"forest of {forest.n_nodes} nodes"
        )
    return sweep.elmore_adjoint(forest, elm, wire, *grads)
