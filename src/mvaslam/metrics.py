"""Multi-object map metrics: OSPA distances over MVA and VA point sets.

OSPA combines localization and cardinality errors: with point sets of sizes
m <= n, distances are cut off at c, optimally assigned, and the n - m
unmatched points each pay the full cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import EPS_GEO, mva_to_va


@dataclass(frozen=True)
class OspaParams:
    """Cutoff (meters) and order of the OSPA metric."""

    cutoff: float = 5.0
    order: float = 1.0

    def __post_init__(self):
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if self.order < 1:
            raise ValueError("order must be at least 1")


def _as_set(points) -> np.ndarray:
    arr = np.asarray(points, dtype=float).reshape(-1, 2)
    return arr


def ospa(est, truth, params: OspaParams) -> float:
    """OSPA distance between two planar point sets (empty sets allowed)."""
    est = _as_set(est)
    truth = _as_set(truth)
    m, n = len(est), len(truth)
    if m > n:
        est, truth, m, n = truth, est, n, m
    if n == 0:
        return 0.0
    c, p = params.cutoff, params.order
    if m == 0:
        return c
    diff = est[:, None, :] - truth[None, :, :]
    cost = np.minimum(np.hypot(diff[..., 0], diff[..., 1]), c) ** p
    rows, cols = linear_sum_assignment(cost)
    total = float(cost[rows, cols].sum()) + (n - m) * c ** p
    return float((total / n) ** (1.0 / p))


def dedupe_points(points) -> np.ndarray:
    """Drop points that coincide (within ``EPS_GEO``) with an earlier kept point.

    Order is kept.  Only a point near some earlier point can be dropped, and
    whether it is depends on whether that neighbour was kept, so those points
    are decided one at a time, in order.
    """
    points = _as_set(points)
    diff = points[:, None] - points[None]
    near = np.tril(np.hypot(diff[..., 0], diff[..., 1]) <= EPS_GEO, k=-1)   # [later, earlier]
    keep = np.ones(len(points), dtype=bool)
    for i in np.flatnonzero(near.any(axis=1)):
        keep[i] = not (near[i] & keep).any()
    return points[keep]


def va_set(mvas, pa, include_double: bool = True):
    """VA positions generated by a set of MVAs for one anchor.

    Surface ``s`` is row ``s`` of ``mvas``.  Returns deduplicated points
    (perpendicular surface pairs map both bounce orders onto one VA), in the
    order single bounce at ``s``, then ``(s, s2)`` for every ``s2``.  Points
    of a degenerate MVA (within ``EPS_GEO`` of the origin) are dropped.
    """
    mvas = _as_set(mvas)
    n = len(mvas)
    singles = mva_to_va(mvas, pa)                              # (S, 2)
    points = singles[:, None]
    if include_double and n > 1:
        doubles = mva_to_va(mvas[:, None], singles)            # [s, s2]: bounce at s2, then s
        points = np.concatenate([points, doubles[~np.eye(n, dtype=bool)].reshape(n, n - 1, 2)],
                                axis=1)
    points = points.reshape(-1, 2)
    return dedupe_points(points[np.isfinite(points).all(axis=1)])


def va_ospa(confirmed_mvas, truth_vas, pa, params: OspaParams,
            include_double: bool = True) -> float:
    """OSPA between the VA set implied by estimated MVAs and the truth VAs.

    ``truth_vas`` is the anchor's true VA set: the VAs of the paths available
    somewhere along the trajectory (unavailable paths are unobservable).
    The anchor point itself is not scored.
    """
    est = va_set(confirmed_mvas, pa, include_double=include_double)
    return ospa(est, truth_vas, params)
