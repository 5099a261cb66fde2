"""Vectorised Elmore delay model over a routing forest.

Implements the four tree dynamic-programming passes of Equation (7) of the
paper (and of the TAU 2015 reference timer): a bottom-up load accumulation,
a top-down delay pass, a bottom-up load-delay (LDelay) pass and a top-down
Beta pass, yielding per-node delay and impulse (slew component).  The four
passes run depth by depth over the flattened
:class:`~repro.route.tree.Forest` - the scheduling of the paper's GPU
kernels - as one compiled loop (:func:`repro.core.sweep.elmore_moments`).

The backward (gradient) counterpart, Equation (8), lives in
:mod:`repro.core.elmore_grad`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..contracts import differentiable
from ..core.sweep import elmore_moments
from ..netlist.design import Design
from ..netlist.library import WireModel
from ..route.tree import Forest

__all__ = [
    "ElmoreResult",
    "elmore_forward",
    "node_caps",
    "design_elmore",
    "pin_elmore",
    "d2m_delay",
    "check_wire_delay_model",
    "WIRE_DELAY_MODELS",
]

#: Wire-delay metrics derivable from the Elmore moment passes.
WIRE_DELAY_MODELS = ("elmore", "d2m")


def check_wire_delay_model(name: str) -> str:
    """``name`` if it is one of :data:`WIRE_DELAY_MODELS`, else ValueError."""
    if name not in WIRE_DELAY_MODELS:
        raise ValueError(
            f"unknown wire delay model {name!r}; "
            f"expected one of {WIRE_DELAY_MODELS}"
        )
    return name


def d2m_delay(delay: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The D2M ("delay with two moments") metric ``ln2 * m1^2 / sqrt(m2)``.

    ``m1`` is the Elmore delay and ``m2`` (our ``beta``) the second moment
    of the impulse response.  For a single-pole response ``m2 = m1^2`` and
    D2M reduces to the exact ``ln2 * m1``; on general RC trees it is a
    well-known tighter (less pessimistic) estimate than Elmore.  The paper
    presents Elmore as one instance of its differentiable framework; this
    metric demonstrates the claimed extensibility - it is an analytic
    function of the same moments, so the same backward passes apply.
    """
    safe_beta = np.maximum(beta, 1e-30)
    out = np.log(2.0) * delay * delay / np.sqrt(safe_beta)
    return np.where(beta > 0, out, 0.0)


@dataclass
class ElmoreResult:
    """Per-node outputs of the Elmore forward pass.

    All arrays are indexed by forest node.  ``delay`` is the Elmore delay
    from the net's driver to the node and ``beta`` the second moment whose
    ``2*beta - delay^2`` is the squared slew-degradation impulse (read at
    the pins through :func:`pin_elmore`); ``load`` at a net's root node is
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

    def root_load(
        self, forest: Forest, n_pins: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Scatter per-net root load onto the driver pins.

        Into ``out`` if given, else into fresh zeros (0 off the drivers).
        """
        if out is None:
            out = np.zeros(n_pins)
        out[forest.driver_pins] = self.load[forest.driver_nodes]
        return out


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
) -> ElmoreResult:
    """Elmore passes of ``forest`` at the pin positions of ``design``."""
    nx, ny = forest.node_coords(px, py)
    # Capacitances do not move with the cells: computed on the forest's
    # first call and kept with it.
    kept = forest.caps_cache
    if kept is None or kept[0] is not design.pin_cap or kept[1] is not extra_pin_cap:
        kept = forest.caps_cache = (
            design.pin_cap,
            extra_pin_cap,
            node_caps(forest, design.pin_cap, extra_pin_cap),
        )
    return elmore_forward(forest, nx, ny, kept[2], design.library.wire)


def pin_elmore(
    forest: Forest,
    elmore: ElmoreResult,
    n_pins: int,
    wire_delay_model: str,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forest-node Elmore outputs as the per-pin inputs of the timers.

    Returns ``(net_delay, impulse2, driver_load)``, each ``(n_pins,)``:
    the wire delay (Elmore or D2M, per ``wire_delay_model``) and squared
    impulse ``max(2 * beta - delay^2, 0)`` at the forest's pin nodes and
    the net load at its driver pins.  Pins off the forest read zero.
    """
    net_delay, impulse2, driver_load = (np.zeros(n_pins) for _ in range(3))
    nodes, pins = forest.pin_nodes, forest.pins_of_nodes
    delay, beta = elmore.delay[nodes], elmore.beta[nodes]
    net_delay[pins] = d2m_delay(delay, beta) if wire_delay_model == "d2m" else delay
    impulse2[pins] = np.maximum(2.0 * beta - delay**2, 0.0)
    elmore.root_load(forest, n_pins, out=driver_load)
    return net_delay, impulse2, driver_load


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
    dx = node_x - node_x[forest.up]
    dy = node_y - node_y[forest.up]
    edge_len = np.abs(dx) + np.abs(dy)
    edge_res = wire.res_per_um * edge_len
    # Wire capacitance of each edge is lumped half at each endpoint (a
    # root's own zero-length "edge" adds an exact 0.0 to itself).
    # bincount is a much faster deterministic scatter-add than np.add.at
    # (it sums each bin in input order before a single vector add).
    half_wire = 0.5 * wire.cap_per_um * edge_len
    cap = intrinsic_cap + half_wire
    cap += np.bincount(forest.up, weights=half_wire, minlength=forest.n_nodes)

    load, delay, ldelay, beta = elmore_moments(forest, cap, edge_res)
    return ElmoreResult(
        edge_res=edge_res,
        cap=cap,
        load=load,
        delay=delay,
        ldelay=ldelay,
        beta=beta,
        dir_x=_sign8(dx),
        dir_y=_sign8(dy),
    )


def _sign8(values: np.ndarray) -> np.ndarray:
    """``np.sign`` as int8 (0 at NaN, where a cast would warn)."""
    return (values > 0).astype(np.int8) - (values < 0)
