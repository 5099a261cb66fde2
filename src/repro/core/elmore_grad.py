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

from typing import List, Optional, Tuple

import numpy as np

from ..netlist.library import WireModel
from ..route.tree import Forest
from ..sta.elmore import ElmoreResult
from .scatter import scatter_accumulate
from .sweep import tree_add_from_parents, tree_sum_into_parents

__all__ = ["elmore_backward", "elmore_adjoint"]


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
    several of them).

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
    grads = [
        np.array(g, dtype=np.float64, order="C")
        for g in (g_delay_ext, g_imp2_ext, g_load_ext)
    ]
    if g_beta_ext is not None:
        grads.append(g_beta_ext)  # only read
    return elmore_adjoint(forest, elm, wire, grads)


def elmore_adjoint(
    forest: Forest, elm: ElmoreResult, wire: WireModel, grads: List[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`elmore_backward` in the caller's own gradient buffers.

    ``grads`` is the list ``[g_delay_ext, g_imp2_ext, g_load_ext]``
    (distinct C-contiguous float64 arrays), with ``g_beta_ext`` appended
    if there is one.  The caller hands the arrays over: the list is
    emptied, the sweeps run in the first three and each is freed at its
    last use.  Results are bit for bit those of :func:`elmore_backward`.
    """
    g_delay, g_imp2, g_load, *g_beta_ext = grads
    grads.clear()
    # All seeds travel together: each of the two sums along the tree edges
    # is one compiled pass over the rows of its (n_seeds, n_nodes) array
    # (repro.core.sweep), in the array's own buffer.  A node's
    # local terms read its own final values, so each is one whole-forest
    # expression after the sweep that completes them.  At a root the edge
    # terms vanish (zero edge resistance, zero delay); its ``g_res`` entry
    # is unused.  With several seeds these are the timer's largest arrays,
    # so each adjoint reuses the buffer of one that is dead by then
    # (g_beta and g_ldelay that of g_imp2, g_len and g_x that of g_res)
    # and each buffer is dropped at its last use.
    g_delay -= 2.0 * elm.delay * g_imp2
    g_beta = g_imp2
    g_beta *= 2.0
    if g_beta_ext:
        g_beta += g_beta_ext.pop()
    del g_imp2

    # Reverse of pass 4 (Beta top-down).
    tree_sum_into_parents(forest, g_beta)
    g_res = elm.ldelay * g_beta  # gradient of the edge-to-parent res
    g_ldelay = np.multiply(elm.edge_res, g_beta, out=g_beta)
    del g_beta
    # Reverse of pass 3 (LDelay bottom-up).
    tree_add_from_parents(forest, g_ldelay)
    g_cap = elm.delay * g_ldelay
    g_delay += elm.cap * g_ldelay
    del g_ldelay
    # Reverse of pass 2 (Delay top-down).
    tree_sum_into_parents(forest, g_delay)
    g_res += elm.load * g_delay
    g_load += elm.edge_res * g_delay
    del g_delay
    # Reverse of pass 1 (Load bottom-up).
    tree_add_from_parents(forest, g_load)
    g_cap += g_load
    del g_load

    # Chain into edge lengths:  res = r * len;  each edge's wire cap is
    # half-lumped onto both endpoints.
    g_len = np.multiply(wire.res_per_um, g_res, out=g_res)
    g_wire = np.take(g_cap, forest.up, axis=-1)
    g_wire += g_cap
    del g_cap
    g_wire *= 0.5 * wire.cap_per_um
    g_len += g_wire
    del g_res, g_wire

    # Rectilinear length -> coordinates (sign subgradient at zero): each
    # edge pulls its node one way and its parent the other.
    g_y = elm.dir_y * g_len
    g_x = np.multiply(elm.dir_x, g_len, out=g_len)
    for g in (g_x, g_y):
        for row in g.reshape(-1, forest.n_nodes) if forest.n_nodes else ():
            scatter_accumulate(row, forest.up, -row)
    return g_x, g_y
