"""Backward ray tracing for path-availability checks.

A propagation path (line of sight, single bounce, or double bounce) is
traced backward from the agent toward the virtual anchor that represents
it.  Each bounce must hit its reflective surface inside the reflector
extent, and every hop segment must be free of obstructions.  Availability
feeds the per-path detection probabilities: an unavailable path cannot
produce a measurement.

Candidate paths come in row blocks (:func:`candidate_blocks`): the row
``members`` list the surfaces a path bounces off, the one nearest the
agent first.  One per-surface trace cache, :class:`SurfaceTraces`, traces
them for every caller, and its hop loop, :func:`trace_hops`, walks each
path.  :class:`Environment` builds both caches: the experiment traces the
true walls once, at every waypoint (:meth:`Environment.trace_paths`), and
measurement generation draws from that table; the SLAM filter traces
per-particle feature clouds (:meth:`Environment.feature_traces`).  The
reflector extents and the obstacle set are the one modelling difference
between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .geometry import EPS_GEO, Surface, WallSegment, mva_to_va


_TRACE_CHUNK = 1 << 16  # (row, point) elements traced per call


def candidate_blocks(n_surfaces: int, double: bool) -> list[tuple[str, np.ndarray]]:
    """The candidate paths off ``n_surfaces`` surfaces, as ``(kind, members)`` row blocks.

    ``members`` (R, k) lists the surfaces each row bounces off, the one
    nearest the agent first: LOS (1, 0), single bounces (S, 1) and, with
    ``double``, the ordered pairs (S(S-1), 2).  Empty blocks are left out.
    """
    blocks = [("los", np.zeros((1, 0), dtype=int)), ("single", np.arange(n_surfaces)[:, None])]
    if double:
        blocks.append(("double", np.argwhere(~np.eye(n_surfaces, dtype=bool))))
    return [(kind, members) for kind, members in blocks if len(members)]


@dataclass(frozen=True)
class Environment:
    """Static geometry: reflector walls plus opaque, non-reflecting blockers.

    The only geometry container of the package and the owner of the ground
    truth: reflective wall ``k`` is true surface ``k``.  The wall endpoints,
    MVAs and extents and both obstacle sets are computed once, on first use:
    ``segments`` (walls and blockers, as the truth sees them) and
    ``blocker_segments`` (blockers only, as the filter sees them), each a
    tuple of ``(a, b)`` endpoint pairs.
    """

    walls: tuple[WallSegment, ...] = ()
    blockers: tuple[WallSegment, ...] = ()

    def __init__(self, walls: Sequence[WallSegment] = (), blockers: Sequence[WallSegment] = ()):
        object.__setattr__(self, "walls", tuple(walls))
        object.__setattr__(self, "blockers", tuple(blockers))

    @cached_property
    def wall_ends(self) -> np.ndarray:
        """Wall endpoints, (W, 2, 2)."""
        return np.array([[w.a, w.b] for w in self.walls], dtype=float).reshape(-1, 2, 2)

    @cached_property
    def wall_mvas(self) -> np.ndarray:
        """MVAs of the wall lines, (W, 2)."""
        return np.array([Surface.from_segment(a, b).mva for a, b in self.wall_ends]).reshape(-1, 2)

    @cached_property
    def wall_extents(self) -> np.ndarray:
        """Tangential range ``(lo, hi)`` of each wall on its own line, (W, 2)."""
        extents = []
        for wall, mva in zip(self.walls, self.wall_mvas):
            normal = mva / np.linalg.norm(mva)
            tangent = np.array([-normal[1], normal[0]])
            ta, tb = float(tangent @ wall.a), float(tangent @ wall.b)
            extents.append((min(ta, tb), max(ta, tb)))
        return np.array(extents).reshape(-1, 2)

    @cached_property
    def blocker_segments(self) -> tuple:
        return tuple((w.a, w.b) for w in self.blockers)

    @cached_property
    def segments(self) -> tuple:
        return tuple((w.a, w.b) for w in self.walls) + self.blocker_segments

    def nearest_extents(self, clouds):
        """Per-particle extents of estimated surfaces clipped to the nearest wall.

        ``clouds`` (S, I, 2) holds the MVA particles of S estimated surfaces.
        Each surface takes the wall whose MVA lies nearest its mean MVA, and
        the wall's endpoints are projected onto every particle's line.
        Returns ``(lo, hi)`` of shape (S, I); without walls the reflectors are
        unbounded and both have shape (S, 1).
        """
        if not self.walls:
            unbounded = np.full((clouds.shape[0], 1), np.inf)
            return -unbounded, unbounded
        means = clouds.mean(axis=1)
        d = np.hypot(self.wall_mvas[:, 0] - means[:, None, 0],
                     self.wall_mvas[:, 1] - means[:, None, 1])
        ends = self.wall_ends[np.argmin(d, axis=1)]             # (S, 2, 2)
        normal = _surface_frame(clouds)[1]
        ta = _along(ends[:, None, 0], normal)
        tb = _along(ends[:, None, 1], normal)
        return np.minimum(ta, tb), np.maximum(ta, tb)

    def feature_traces(self, clouds, pa, check: bool) -> SurfaceTraces:
        """The filter's trace cache of estimated surfaces ``clouds`` (S, I, 2).

        Each reflector is clipped to its nearest wall
        (:meth:`nearest_extents`); the map holds surface lines, not wall
        segments, so only blockers obstruct.
        """
        return SurfaceTraces(clouds, pa, self.nearest_extents(clouds), self.blocker_segments, check)

    def trace_paths(self, agent, pa, blocks):
        """Trace the candidate path ``blocks`` against the true geometry.

        Wall ``k`` is surface ``k``.  Each bounce is clipped to its wall's
        extent, and every wall and blocker obstructs; a hop ends on the wall
        of the bounce it arrives at, which the endpoint margin of
        :func:`segment_blocks` keeps from blocking it.  ``agent`` and
        ``pa`` are (..., 2) and broadcast together.  Returns the VAs
        (..., K, 2) and the availability (..., K), one column per block row.
        """
        agent = np.asarray(agent, dtype=float)
        pa = np.asarray(pa, dtype=float)
        axes = tuple(range(1, max(agent.ndim, pa.ndim)))      # broadcast over agent and pa
        lo, hi = self.wall_extents.T
        traces = SurfaceTraces(np.expand_dims(self.wall_mvas, axes), pa,
                               (np.expand_dims(lo, axes), np.expand_dims(hi, axes)),
                               self.segments, check=True)
        va, available = zip(*(traces.trace(agent, members) for _, members in blocks))
        return np.moveaxis(np.concatenate(va), 0, -2), np.moveaxis(np.concatenate(available), 0, -1)


# ---------------------------------------------------------------------------
# Array primitives.  Points are (..., 2); line normals (..., 2) with offsets
# (...,) describe n . x = c.  Everything broadcasts.
# ---------------------------------------------------------------------------


def _dot(a, b):
    """Row-wise dot product of 2-vectors."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def _along(x, normal):
    """Coordinate of points ``x`` along the tangent (-n_y, n_x) of a line."""
    return x[..., 1] * normal[..., 0] - x[..., 0] * normal[..., 1]


def _surface_frame(mva):
    """Validity, unit normal and line offset of surface MVA(s).

    A surface is valid when its MVA is farther than ``EPS_GEO`` from the
    origin; invalid rows carry finite but meaningless frames.
    """
    mva = np.asarray(mva, dtype=float)
    norm = np.hypot(mva[..., 0], mva[..., 1])
    ok = norm > EPS_GEO
    return ok, mva / np.where(ok, norm, 1.0)[..., None], 0.5 * norm


def line_crossing(p, q, normal, offset):
    """Where segment [p, q] crosses the line ``normal . x = offset``.

    Returns ``(ok, hit)``: ``ok`` is True when p and q lie on opposite sides
    (touching counts), ``hit`` is the crossing point (unspecified when not
    ``ok``).
    """
    p = np.asarray(p)
    q = np.asarray(q)
    sd_p = _dot(p, normal) - offset
    sd_q = _dot(q, normal) - offset
    denom = sd_p - sd_q
    safe = np.abs(denom) > 1e-300
    t = np.where(safe, sd_p / np.where(safe, denom, 1.0), 0.0)
    ok = (sd_p * sd_q <= 0.0) & safe
    hit = p + t[..., None] * (q - p)
    return ok, hit


def segment_blocks(p, q, a, b):
    """True where segment [a, b] obstructs the open interior of hop [p, q].

    Crossings within ``EPS_GEO`` of the hop endpoints do not count: hop
    endpoints lie on reflectors by construction, so a reflector never blocks
    the hops that meet at it.  Grazing the blocking segment's own endpoints
    does count (deterministic tie-break).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    pq = q - p
    # side of p/q relative to line ab, and of a/b relative to line pq
    cross_ap = ab[..., 0] * (p[..., 1] - a[..., 1]) - ab[..., 1] * (p[..., 0] - a[..., 0])
    cross_aq = ab[..., 0] * (q[..., 1] - a[..., 1]) - ab[..., 1] * (q[..., 0] - a[..., 0])
    cross_pa = pq[..., 0] * (a[..., 1] - p[..., 1]) - pq[..., 1] * (a[..., 0] - p[..., 0])
    cross_pb = pq[..., 0] * (b[..., 1] - p[..., 1]) - pq[..., 1] * (b[..., 0] - p[..., 0])
    crossing = (cross_ap * cross_aq <= 0.0) & (cross_pa * cross_pb <= 0.0)
    hop_len = np.hypot(pq[..., 0], pq[..., 1])
    seg_len = np.hypot(ab[..., 0], ab[..., 1])
    scale = np.maximum(seg_len * hop_len, 1e-300)
    collinear = (np.abs(cross_ap) <= EPS_GEO * scale) & (np.abs(cross_aq) <= EPS_GEO * scale)
    if not (crossing.any() or collinear.any()):
        return crossing                       # apart everywhere: nothing blocks

    denom_t = cross_ap - cross_aq
    safe_t = np.abs(denom_t) > 1e-300
    t = np.where(safe_t, cross_ap / np.where(safe_t, denom_t, 1.0), -1.0)
    margin = np.where(hop_len > 0, EPS_GEO / np.maximum(hop_len, 1e-300), 0.0)
    interior = (t > margin) & (t < 1.0 - margin)

    denom_u = cross_pa - cross_pb
    safe_u = np.abs(denom_u) > 1e-300
    u = np.where(safe_u, cross_pa / np.where(safe_u, denom_u, 1.0), -1.0)
    margin_u = EPS_GEO / np.maximum(seg_len, 1e-300)
    within = (u >= -margin_u) & (u <= 1.0 + margin_u)

    blocked = crossing & safe_t & safe_u & interior & within

    # collinear overlap: hop slides along the segment
    if collinear.any():
        rr = np.maximum(_dot(pq, pq), 1e-300)
        t0 = _dot(a - p, pq) / rr
        t1 = _dot(b - p, pq) / rr
        lo = np.minimum(t0, t1)
        hi = np.maximum(t0, t1)
        overlap = (hi > margin) & (lo < 1.0 - margin)
        blocked = blocked | (collinear & overlap)
    return blocked


def hop_obstructed(p, q, segments):
    """True where any wall/blocker segment obstructs hop [p, q].

    ``segments`` is a sequence of ``(a, b)`` endpoint pairs.  Without
    segments the result is a scalar False.
    """
    blocked = np.False_
    for a, b in segments:
        blocked = blocked | segment_blocks(p, q, a, b)
    return blocked


class SurfaceTraces:
    """Per-surface trace cache: the candidate paths off a set of surfaces.

    ``mvas`` (S, ..., 2) holds the surfaces' MVAs and ``extents`` ``(lo,
    hi)`` (S, ...) their reflector extents, the surface axis first; every
    other axis broadcasts with the anchor ``pa`` and the agent points.
    Each surface's frame and single-bounce image of the anchor are computed
    once and shared by every row it is a member of, so a pair row computes
    only its outer image.  ``obstacles`` are ``(a, b)`` segments.  With
    ``check=False`` nothing is traced and availability only reports
    non-degenerate surfaces.
    """

    def __init__(self, mvas, pa, extents, obstacles, check: bool):
        self.mvas = np.asarray(mvas, dtype=float)
        self.pa = np.asarray(pa, dtype=float)
        self.frame = _surface_frame(self.mvas)
        self.va1 = mva_to_va(self.mvas, self.pa)
        self.extents = extents
        self.obstacles = obstacles
        self.check = check

    def trace(self, agent, members):
        """VAs (R, ..., 2) and availability (R, ...) of the rows ``members`` (R, k).

        The image method mirrors the anchor across a row's bounces from the
        anchor side, and :func:`trace_hops` walks the hops from ``agent``.
        A row's VA is zero where a bounce surface is degenerate.  Rows are
        traced in chunks so the temporaries stay small.
        """
        agent = np.asarray(agent, dtype=float)
        shape = np.broadcast_shapes(agent.shape, self.pa.shape, self.mvas.shape[1:])[:-1]
        va = np.empty((len(members),) + shape + (2,))
        available = np.empty((len(members),) + shape, dtype=bool)
        chunk = max(1, _TRACE_CHUNK // max(math.prod(shape), 1))
        for r in range(0, len(members), chunk):
            idx = members[r:r + chunk].T
            images = [self.pa]
            if len(idx):
                images.insert(0, self.va1[idx[-1]])
            for i in reversed(idx[:-1]):
                images.insert(0, mva_to_va(self.mvas[i], images[0]))
            va[r:r + chunk], available[r:r + chunk] = trace_hops(
                agent, images, [tuple(a[i] for a in self.frame) for i in idx],
                [tuple(e[i] for e in self.extents) for i in idx], self.obstacles, self.check)
        return va, available


def trace_hops(agent, images, frames, extents, obstacles, check: bool):
    """Walk a path's hops from the agent, given its images and surface frames.

    ``images`` holds, per bounce, the image of the anchor across that bounce
    and every later one, then the anchor itself; ``images[0]`` is the VA.
    ``frames`` holds each bounce's :func:`_surface_frame`.  Each hop runs
    from the previous bounce point toward the next image; its bounce point
    must lie on the surface inside the extent and the hop must be
    unobstructed.  ``extents`` holds each bounce's ``(lo, hi)`` in the
    tangent coordinate of its surface and ``obstacles`` the ``(a, b)``
    segments; everything broadcasts.  Returns ``(va, available)`` as
    :meth:`SurfaceTraces.trace` does, without its row axis.
    """
    agent = np.asarray(agent, dtype=float)
    valid = np.ones(agent.shape[:-1], dtype=bool)
    available = valid
    p = agent
    for k, (ok, normal, offset) in enumerate(frames):
        valid = valid & ok
        if not check:
            continue
        crossed, hit = line_crossing(p, images[k], normal, offset)
        tau = _along(hit, normal)
        lo, hi = extents[k]
        available = (available & crossed & (tau >= lo - EPS_GEO) & (tau <= hi + EPS_GEO)
                     & ~hop_obstructed(p, hit, obstacles))
        p = hit
    va = np.where(valid[..., None], images[0], 0.0)
    if not check:
        return va, valid
    return va, valid & available & ~hop_obstructed(p, images[-1], obstacles)
