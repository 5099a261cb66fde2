"""The paper's contribution: differentiable timing engine + placement flow."""

from .smoothing import (
    lse_max,
    lse_max_grad,
    lse_min,
    soft_clamp_neg,
    soft_clamp_neg_grad,
)
from .elmore_grad import elmore_backward
from .difftimer import DifferentiableTimer, TimerTape
from .objective import TimingObjective, TimingObjectiveOptions
from .timing_placer import TimingDrivenPlacer, TimingPlacerOptions
from .gradcheck import GradCheckReport, central_difference, check_gradient

__all__ = [
    "lse_max",
    "lse_max_grad",
    "lse_min",
    "soft_clamp_neg",
    "soft_clamp_neg_grad",
    "elmore_backward",
    "DifferentiableTimer",
    "TimerTape",
    "TimingObjective",
    "TimingObjectiveOptions",
    "TimingDrivenPlacer",
    "TimingPlacerOptions",
    "GradCheckReport",
    "central_difference",
    "check_gradient",
]
