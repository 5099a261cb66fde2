"""Nonlinear global placement substrate and baselines."""

from .wirelength import WAWirelength, hpwl
from .density import DensityModel, DensityResult
from .optimizer import AdamOptimizer, NesterovOptimizer, make_optimizer
from .placer import GlobalPlacer, PlacerOptions, PlacerResult
from .legalize import greedy_refine, legalize, max_overlap
from .netweight import MomentumNetWeighter, NetWeightOptions, NetWeightingPlacer
from .criticality import CRITICALITY_POLICIES, make_criticality

__all__ = [
    "WAWirelength",
    "hpwl",
    "DensityModel",
    "DensityResult",
    "AdamOptimizer",
    "NesterovOptimizer",
    "make_optimizer",
    "GlobalPlacer",
    "PlacerOptions",
    "PlacerResult",
    "greedy_refine",
    "legalize",
    "max_overlap",
    "MomentumNetWeighter",
    "NetWeightOptions",
    "NetWeightingPlacer",
    "CRITICALITY_POLICIES",
    "make_criticality",
]
