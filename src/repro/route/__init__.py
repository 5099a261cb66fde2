"""Rectilinear Steiner tree routing substrate (FLUTE substitute)."""

from .tree import Forest, RoutingTree
from .plan import MAX_STEINER_DEGREE, RoutePlan, route_plan
from .rsmt import (
    build_forest,
    build_forest_for_nets,
    build_forest_from_pins,
    build_forest_from_plan,
    build_trees,
)

__all__ = [
    "Forest",
    "RoutingTree",
    "RoutePlan",
    "MAX_STEINER_DEGREE",
    "build_forest",
    "build_forest_for_nets",
    "build_forest_from_pins",
    "build_forest_from_plan",
    "build_trees",
    "route_plan",
]
