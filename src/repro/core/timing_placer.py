"""The differentiable-timing-driven placement flow (Figure 7 of the paper).

Wires the :class:`~repro.core.objective.TimingObjective` into the shared
:class:`~repro.place.placer.GlobalPlacer`: wirelength + density gradients
every iteration, plus - from ``start_iteration`` on - the gradients of the
smoothed TNS/WNS terms, with Steiner trees refreshed every
``rsmt_period`` iterations and reused (Figure 4) in between.  Periodic
golden-STA evaluations are recorded into the trace for the Figure-8 style
optimization curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..netlist.design import Design
from ..place.placer import GlobalPlacer, PlacerOptions, PlacerResult
from ..sta.analysis import StaticTimingAnalyzer
from ..sta.graph import TimingGraph
from .objective import TimingObjective, TimingObjectiveOptions

__all__ = ["TimingDrivenPlacer", "TimingPlacerOptions"]


@dataclass
class TimingPlacerOptions:
    """Options of the full timing-driven flow."""

    placer: PlacerOptions = field(default_factory=PlacerOptions)
    timing: TimingObjectiveOptions = field(default_factory=TimingObjectiveOptions)
    sta_every: int = 10  # golden STA into the trace every N iterations
    sta_in_trace: bool = True


class TimingDrivenPlacer:
    """Our placer: DREAMPlace substrate + differentiable timing objective."""

    def __init__(
        self,
        design: Design,
        options: Optional[TimingPlacerOptions] = None,
        graph: Optional[TimingGraph] = None,
    ) -> None:
        self.design = design
        self.options = options if options is not None else TimingPlacerOptions()
        self.graph = graph if graph is not None else TimingGraph(design)
        self.objective = TimingObjective(design, self.options.timing, self.graph)
        self.sta = StaticTimingAnalyzer(design, self.graph)

    def run(self) -> PlacerResult:
        """Run global placement with the differentiable timing objective."""
        opts = self.options
        placer_box = {}

        def hook(iteration: int, x: np.ndarray, y: np.ndarray):
            placer = placer_box.get("placer")
            wl_norm = placer.last_wl_grad_l1 if placer is not None else None
            if placer is not None:
                self.objective.observe_overflow(iteration, placer.last_overflow)
            out = self.objective(iteration, x, y, wl_grad_l1=wl_norm)
            metrics: Dict[str, float] = {} if out is None else dict(out[2])
            if (
                opts.sta_in_trace
                and iteration % opts.sta_every == 0
            ):
                res = self.sta.run(x, y)
                metrics["wns"] = res.wns_setup
                metrics["tns"] = res.tns_setup
            if out is None:
                if metrics:
                    zeros = np.zeros(self.design.n_cells)
                    return zeros, zeros, metrics
                return None
            return out[0], out[1], metrics

        placer = GlobalPlacer(
            self.design,
            opts.placer,
            extra_grad_fn=hook,
            # The objective's RSMT schedule rides along in checkpoints so
            # resumed runs replay bit-identically.
            state_providers={"timing_objective": self.objective},
            # The graph levelized at construction, which proves acyclicity;
            # --validate reuses it instead of levelizing twice.
            validation_graph=self.graph,
        )
        placer_box["placer"] = placer
        try:
            return placer.run()
        finally:
            # The hook reaches the placer and the placer holds the hook:
            # cut the loop, or the run's forest, wirelength and density
            # arrays wait for a full garbage collection.
            placer_box.clear()
