"""Rectilinear Steiner tree routing substrate (FLUTE substitute)."""

from .tree import Forest, RoutingTree
from .batch import MAX_STEINER_DEGREE
from .plan import RoutePlan, route_plan
from .rsmt import (
    build_forest,
    build_forest_for_nets,
    build_forest_from_pins,
    build_rsmt,
    build_trees,
    rmst_length,
)

__all__ = [
    "Forest",
    "RoutingTree",
    "RoutePlan",
    "MAX_STEINER_DEGREE",
    "build_forest",
    "build_forest_for_nets",
    "build_forest_from_pins",
    "build_rsmt",
    "build_trees",
    "rmst_length",
    "route_plan",
]
