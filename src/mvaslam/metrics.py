"""Multi-object map metrics: OSPA distances over MVA and VA point sets.

OSPA combines localization and cardinality errors: with point sets of sizes
m <= n, distances are cut off at c, optimally assigned, and the n - m
unmatched points each pay the full cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import double_bounce_va, mva_to_va
from .raytrace import PathClass


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


def ospa(est, truth, params: OspaParams = OspaParams()) -> float:
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


def dedupe_points(points, tol: float = 1e-6) -> np.ndarray:
    """Drop points that coincide with an earlier one (within tol)."""
    points = _as_set(points)
    kept: list[np.ndarray] = []
    for q in points:
        if not any(np.hypot(*(q - k)) <= tol for k in kept):
            kept.append(q)
    return np.array(kept).reshape(-1, 2)


def va_set(mvas, pa, include_double: bool = True, paths: Collection[PathClass] | None = None):
    """VA positions generated by a set of MVAs for one anchor.

    Surface ``s`` is row ``s`` of ``mvas``.  Returns deduplicated points
    (perpendicular surface pairs map both bounce orders onto one VA), in the
    order single bounce at ``s``, then ``(s, s2)`` for every ``s2``.
    ``paths`` optionally restricts which paths contribute.
    """
    mvas = _as_set(mvas)
    pa = np.asarray(pa, dtype=float)
    points = []
    wanted = None if paths is None else set(paths)
    for s, mva in enumerate(mvas):
        if wanted is None or PathClass(s=s) in wanted:
            points.append(mva_to_va(mva, pa))
        if include_double:
            for s2, mva2 in enumerate(mvas):
                if s2 == s:
                    continue
                if wanted is None or PathClass(s=s, s2=s2) in wanted:
                    points.append(double_bounce_va(mva, mva2, pa))
    return dedupe_points(points) if points else np.zeros((0, 2))


def va_ospa(confirmed_mvas, truth_vas, pa, params: OspaParams = OspaParams(),
            include_double: bool = True) -> float:
    """OSPA between the VA set implied by estimated MVAs and the truth VAs.

    ``truth_vas`` is the anchor's true VA set, as :func:`va_set` builds it
    from the paths available somewhere along the trajectory (unavailable
    paths are unobservable).  The anchor point itself is not scored.
    """
    est = va_set(confirmed_mvas, pa, include_double=include_double)
    return ospa(est, truth_vas, params)
