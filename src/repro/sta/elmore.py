"""The Elmore delay model over a routing forest.

Implements the four tree dynamic-programming passes of Equation (7) of the
paper (and of the TAU 2015 reference timer): a bottom-up load accumulation,
a top-down delay pass, a bottom-up load-delay (LDelay) pass and a top-down
Beta pass, yielding per-node delay and impulse (slew component).  The four
passes run depth by depth over the flattened
:class:`~repro.route.tree.Forest` - the scheduling of the paper's GPU
kernels - in the compiled pre-pass of the timers
(:func:`repro.core.sweep.elmore_prepass`), which also reads the pin
coordinates through the Steiner owners and hands the timers their per-pin
inputs.

The backward (gradient) counterpart, Equation (8), lives in
:mod:`repro.core.elmore_grad`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..contracts import differentiable
from ..core import sweep
from ..netlist.design import Design
from ..netlist.library import WireModel
from ..route.tree import Forest

__all__ = [
    "ElmoreResult",
    "elmore_forward",
    "node_caps",
    "design_elmore",
    "check_wire_delay_model",
    "WIRE_DELAY_MODELS",
]

#: Wire-delay metrics derivable from the Elmore moment passes: the
#: Elmore delay itself and D2M ("delay with two moments", ``ln2 * m1^2 /
#: sqrt(m2)``, ``m1`` the Elmore delay and ``m2`` our ``beta``) - for a
#: single-pole response ``m2 = m1^2`` and D2M is the exact ``ln2 * m1``;
#: on general RC trees it is a well-known tighter estimate than Elmore.
#: The paper presents Elmore as one instance of its differentiable
#: framework; D2M is an analytic function of the same moments, so the
#: same backward passes apply.
WIRE_DELAY_MODELS = ("elmore", "d2m")


def check_wire_delay_model(name: str) -> str:
    """``name`` if it is one of :data:`WIRE_DELAY_MODELS`, else ValueError."""
    if name not in WIRE_DELAY_MODELS:
        raise ValueError(
            f"unknown wire delay model {name!r}; "
            f"expected one of {WIRE_DELAY_MODELS}"
        )
    return name


@dataclass
class ElmoreResult:
    """Per-node outputs of the Elmore forward pass.

    All arrays are indexed by forest node.  ``delay`` is the Elmore delay
    from the net's driver to the node and ``beta`` the second moment whose
    ``2*beta - delay^2`` is the squared slew-degradation impulse (read at
    the pins by :func:`design_elmore`); ``load`` at a net's root node is
    the total capacitive load seen by the driving cell.  The rest is what
    the backward pass reads: ``dir_x``/``dir_y`` are the signs (int8) of
    each edge's extent along x and y, node minus parent - the subgradient
    of its rectilinear length (zero at roots).
    """

    edge_res: np.ndarray
    cap: np.ndarray
    load: np.ndarray
    delay: np.ndarray
    ldelay: np.ndarray
    beta: np.ndarray
    dir_x: np.ndarray
    dir_y: np.ndarray
    #: The arrays as the compiled kernels read them (not pickled).
    kernel_view: object = field(default=None, repr=False, compare=False)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "kernel_view": None}


def node_caps(
    forest: Forest,
    pin_cap: np.ndarray,
    extra_pin_cap: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Intrinsic (non-wire) capacitance per forest node.

    Pin nodes carry their library pin capacitance plus any external load
    (e.g. ``set_load`` on output ports); Steiner nodes carry none.  Driver
    pins contribute no input capacitance to their own net, which is already
    reflected in the library (output pins have zero capacitance).
    """
    caps = np.zeros(forest.n_nodes)
    pins = forest.pins_of_nodes
    pin_caps = pin_cap[pins]
    if extra_pin_cap is not None:
        pin_caps += extra_pin_cap[pins]
    caps[forest.pin_nodes] = pin_caps
    return caps


def design_elmore(
    design: Design,
    forest: Forest,
    px: np.ndarray,
    py: np.ndarray,
    extra_pin_cap: Optional[np.ndarray] = None,
    wire_delay_model: str = "elmore",
) -> Tuple[ElmoreResult, np.ndarray]:
    """The timers' pre-pass: the Elmore passes of ``forest`` at the pin
    positions of ``design``, and their per-pin outputs.

    Returns the :class:`ElmoreResult` and the ``(3, n_pins)`` per-pin
    inputs of the timers: the wire delay (Elmore or D2M, per
    ``wire_delay_model``) and squared impulse ``max(2 * beta - delay^2,
    0)`` at the forest's pin nodes, and the net load at its driver pins.
    Pins off the forest read zero.
    """
    # Capacitances do not move with the cells: computed on the forest's
    # first call and kept with it.
    kept = forest.caps_cache
    if kept is None or kept[0] is not design.pin_cap or kept[1] is not extra_pin_cap:
        kept = forest.caps_cache = (
            design.pin_cap,
            extra_pin_cap,
            node_caps(forest, design.pin_cap, extra_pin_cap),
        )
    nodes, dirs, pins, view = sweep.elmore_prepass(
        forest, px, py, kept[2], design.library.wire, at_pins=True,
        wire_delay_model=wire_delay_model,
    )
    return ElmoreResult(*nodes, *dirs, kernel_view=view), pins


@differentiable(
    backward="repro.core.elmore_grad.elmore_backward",
    gradcheck="tests/test_elmore_grad.py::TestElmoreBackward"
    "::test_matches_finite_differences",
)
def elmore_forward(
    forest: Forest,
    node_x: np.ndarray,
    node_y: np.ndarray,
    intrinsic_cap: np.ndarray,
    wire: WireModel,
) -> ElmoreResult:
    """Run the 4-pass Elmore DP of Equation (7) over the whole forest.

    Parameters
    ----------
    forest:
        Flattened routing trees.
    node_x, node_y:
        Current node coordinates (see :meth:`Forest.node_coords`).
    intrinsic_cap:
        Per-node pin capacitance (see :func:`node_caps`).
    wire:
        Per-unit-length RC parameters.
    """
    nodes, dirs, _, view = sweep.elmore_prepass(
        forest, node_x, node_y, intrinsic_cap, wire
    )
    return ElmoreResult(*nodes, *dirs, kernel_view=view)
