"""Multipath-based SLAM with master virtual anchors.

A library and CLI simulator that jointly estimates a mobile agent's
trajectory and a map of reflective surfaces from distance / angle-of-arrival
measurements of line-of-sight, single-bounce, and double-bounce propagation
paths.  Surfaces are represented by master virtual anchors (MVAs) so that
all paths interacting with one surface share a single map feature; path
availability is ray traced and folded into per-path detection probabilities.
"""

from .errors import (
    CoincidentPoints,
    DegenerateSurface,
    DegenerateWeights,
    MvaSlamError,
    NonFinite,
    ScenarioError,
)
from .geometry import (
    EPS_GEO,
    WallSegment,
    mva_to_va,
    path_distance_angle,
    va_to_mva,
    wrap_angle,
)

__all__ = [
    "CoincidentPoints",
    "DegenerateSurface",
    "DegenerateWeights",
    "MvaSlamError",
    "NonFinite",
    "ScenarioError",
    "EPS_GEO",
    "WallSegment",
    "mva_to_va",
    "path_distance_angle",
    "va_to_mva",
    "wrap_angle",
]
