"""repro: a reproduction of "Differentiable-Timing-Driven Global Placement".

Guo & Lin, DAC 2022 - a differentiable static timing analysis engine whose
smoothed TNS/WNS gradients drive a DREAMPlace-style nonlinear global
placer.  See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured results.

Subpackages
-----------
- ``repro.netlist``: circuit data model, Liberty/SDC/Verilog/DEF I/O,
  synthetic benchmark generation.
- ``repro.route``: rectilinear Steiner tree construction (FLUTE
  substitute) with differentiable Steiner-point ownership.
- ``repro.sta``: golden (exact) static timing analysis.
- ``repro.core``: the paper's contribution - the differentiable timer and
  the timing-driven placement flow.
- ``repro.place``: nonlinear global placement substrate, net-weighting
  baseline, legalization.
- ``repro.harness``: benchmark suite and experiment reproduction.
- ``repro.perf``: the span recorder - per-layer wall time of a run.
- ``repro.runtime``: guarded placement runtime - design validation,
  numerical fault quarantine, checkpoint/restart, fault injection.
"""

__version__ = "1.0.0"

from . import core, harness, netlist, perf, place, route, runtime, sta

__all__ = [
    "core",
    "harness",
    "netlist",
    "perf",
    "place",
    "route",
    "runtime",
    "sta",
    "__version__",
]
