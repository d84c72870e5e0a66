"""Multi-object map metrics: OSPA distances over MVA and VA point sets.

OSPA (of order 1) combines localization and cardinality errors: with point
sets of sizes m <= n, distances are cut off at c, optimally assigned, and the
n - m unmatched points each pay the full cutoff; the total is divided by n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import EPS_GEO, mva_to_va


@dataclass(frozen=True)
class OspaParams:
    """Cutoff (meters) of the order-1 OSPA metric."""

    cutoff: float = 5.0

    def __post_init__(self):
        if not 0.0 < self.cutoff < math.inf:
            raise ValueError(f"cutoff={self.cutoff} must be positive and finite")


def _as_set(points) -> np.ndarray:
    arr = np.asarray(points, dtype=float).reshape(-1, 2)
    return arr


def _assignment(cost: np.ndarray) -> list[int]:
    """Column of each row in a minimum-cost assignment of an (m, n) matrix, m <= n.

    Shortest augmenting paths (Crouse, "On Implementing 2D Rectangular
    Assignment Algorithms", IEEE TAES 2016), the algorithm of scipy's
    ``linear_sum_assignment``.  Every row starts at its cheapest column,
    with row duals ``u`` at the row minima and column duals ``v`` at 0; a
    row whose cheapest column no earlier row took keeps it without a search.
    Each other row then finds, Dijkstra-like over the reduced costs
    ``cost - u - v``, the cheapest alternating path to a free column, moves
    the duals so that every assigned entry stays at reduced cost 0, and
    flips the path.  Among equally cheap columns the search takes a free one.
    The search runs on Python lists: OSPA's matrices are small (up to ~13 x
    100), where a numpy call per Dijkstra step costs more than the step.
    """
    n = cost.shape[1]
    u = cost.min(axis=1).tolist()
    col4row = cost.argmin(axis=1).tolist()
    row4col = [-1] * n
    searched = []
    for i, j in enumerate(col4row):
        if row4col[j] < 0:
            row4col[j] = i
        else:
            searched.append(i)
    if not searched:
        return col4row
    rows = cost.tolist()
    v = [0.0] * n
    for i in searched:
        spc = [math.inf] * n                      # shortest path cost to each column
        path = [-1] * n                           # row before each column on its path
        remaining = list(range(n))                # columns whose path cost is not final
        closed = []                               # assigned columns whose path cost is final
        row, min_val = i, 0.0
        while True:
            cost_row, u_row = rows[row], u[row]
            lowest, k_low = math.inf, -1
            for k, j in enumerate(remaining):
                reduced = min_val + cost_row[j] - u_row - v[j]
                if reduced < spc[j]:
                    path[j] = row
                    spc[j] = reduced
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] < 0):
                    lowest, k_low = spc[j], k
            min_val = lowest
            j = remaining[k_low]
            remaining[k_low] = remaining[-1]
            remaining.pop()
            if row4col[j] < 0:
                break
            closed.append(j)
            row = row4col[j]
        u[i] += min_val
        for c in closed:
            u[row4col[c]] += min_val - spc[c]
            v[c] -= min_val - spc[c]
        while True:                               # flip the path, from the free column j back to row i
            row = path[j]
            row4col[j] = row
            col4row[row], j = j, col4row[row]
            if row == i:
                break
    return col4row


def ospa(est, truth, params: OspaParams) -> float:
    """Order-1 OSPA distance between two planar point sets (empty sets allowed)."""
    est = _as_set(est)
    truth = _as_set(truth)
    m, n = len(est), len(truth)
    if m > n:
        est, truth, m, n = truth, est, n, m
    if n == 0:
        return 0.0
    c = params.cutoff
    if m == 0:
        return c
    diff = est[:, None, :] - truth[None, :, :]
    cost = np.minimum(np.hypot(diff[..., 0], diff[..., 1]), c)
    if np.isnan(cost).any():
        raise ValueError("OSPA point sets must not hold NaN")
    total = float(cost[np.arange(m), _assignment(cost)].sum()) + (n - m) * c
    return total / n


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


def va_candidates(mvas, pa, include_double: bool) -> np.ndarray:
    """VAs (P, 2) of every bounce path off the MVAs ``mvas`` (S, 2), for one anchor.

    In the order single bounce at ``s``, then ``(s, s2)`` for every ``s2``;
    the points of a degenerate MVA (within ``EPS_GEO`` of the origin) are NaN.
    """
    mvas = _as_set(mvas)
    n = len(mvas)
    singles = mva_to_va(mvas, pa)                              # (S, 2)
    points = singles[:, None]
    if include_double and n > 1:
        doubles = mva_to_va(mvas[:, None], singles)            # [s, s2]: bounce at s2, then s
        points = np.concatenate([points, doubles[~np.eye(n, dtype=bool)].reshape(n, n - 1, 2)],
                                axis=1)
    return points.reshape(-1, 2)


def va_set(mvas, pa, include_double: bool = True):
    """The finite :func:`va_candidates`, deduplicated in order (perpendicular
    surface pairs map both bounce orders onto one VA)."""
    points = va_candidates(mvas, pa, include_double)
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
