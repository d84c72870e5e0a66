"""Backward ray tracing for path-availability checks.

A propagation path (line of sight, single bounce, or double bounce) is
traced backward from the agent toward the virtual anchor that represents
it.  Each bounce must hit its reflective surface inside the reflector
extent, and every hop segment must be free of obstructions.  Availability
feeds the per-path detection probabilities: an unavailable path cannot
produce a measurement.

One array tracer serves every caller: :func:`backward_trace` builds a
path's images and surface frames, and its hop loop, :func:`trace_hops`,
walks them.  The experiment traces the true walls once, at every
waypoint, through :meth:`Environment.trace_paths`, and measurement
generation draws from that table.  The SLAM filter traces per-particle
feature clouds: it computes every feature's frame and single-bounce image
once per anchor and feeds them to :func:`trace_hops` row by row.  Each
caller supplies the reflector extents and the obstacle set, the one
modelling difference between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .geometry import EPS_GEO, Surface, WallSegment, mva_to_va


@dataclass(frozen=True)
class PathClass:
    """One propagation path: LOS, single bounce at ``s``, or double bounce.

    For a double bounce ``(s, s2)``, ``s`` is the surface of the bounce
    nearest the agent and ``s2`` the one nearest the anchor: its VA mirrors
    the anchor across ``s2`` first, then across ``s`` (:func:`backward_trace`).
    """

    s: Optional[int] = None
    s2: Optional[int] = None

    def __post_init__(self):
        if self.s is None and self.s2 is not None:
            raise ValueError("double-bounce path requires both surface indices")
        if self.s is not None and self.s == self.s2:
            raise ValueError("double-bounce surfaces must differ")

    @property
    def kind(self) -> str:
        if self.s is None:
            return "los"
        return "single" if self.s2 is None else "double"

    @property
    def bounces(self) -> tuple[int, ...]:
        """Surface indices of the bounces, the one nearest the agent first."""
        return tuple(s for s in (self.s, self.s2) if s is not None)


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

    def nearest_extents(self, clouds, normal):
        """Per-particle extents of estimated surfaces clipped to the nearest wall.

        ``clouds`` (S, I, 2) holds the MVA particles of S estimated surfaces
        and ``normal`` (S, I, 2) the unit normals of their lines (from
        :func:`_surface_frame`).  Each surface takes the wall whose MVA lies
        nearest its mean MVA, and the wall's endpoints are projected onto
        every particle's line.
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
        ta = _along(ends[:, None, 0], normal)
        tb = _along(ends[:, None, 1], normal)
        return np.minimum(ta, tb), np.maximum(ta, tb)

    def trace_paths(self, agent, pa, paths: Sequence[PathClass]):
        """Trace every path in ``paths`` against the true geometry.

        Wall ``k`` is surface ``k``.  Each bounce is clipped to its wall's
        extent, and every wall and blocker obstructs; a hop ends on the wall
        of the bounce it arrives at, which the endpoint margin of
        :func:`segment_blocks` keeps from blocking it.  ``agent`` and
        ``pa`` are (..., 2) and broadcast together.  Returns the VAs
        (..., P, 2) and the availability (..., P), one column per path.
        """
        agent = np.asarray(agent, dtype=float)[..., None, :]
        pa = np.asarray(pa, dtype=float)[..., None, :]
        lo, hi = self.wall_extents.T
        rows = np.broadcast_shapes(agent.shape, pa.shape)[:-2]
        va = np.empty(rows + (len(paths), 2))
        available = np.empty(rows + (len(paths),), dtype=bool)
        bounces = [path.bounces for path in paths]
        for n_bounces in range(3):                          # LOS, single, double
            cols = [k for k, b in enumerate(bounces) if len(b) == n_bounces]
            if not cols:
                continue
            idx = np.array([bounces[k] for k in cols], dtype=int).reshape(len(cols), -1).T
            va[..., cols, :], available[..., cols] = backward_trace(
                agent, pa, [self.wall_mvas[i] for i in idx], [(lo[i], hi[i]) for i in idx],
                self.segments, check=True)
        return va, available


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


def backward_trace(agent, pa, bounces, extents, obstacles, check: bool):
    """Backward-trace paths from the agent to the anchor ``pa``.

    ``bounces`` lists the reflecting surfaces as MVA arrays, the bounce
    nearest the agent first: empty for LOS, one surface for a single bounce,
    two for a double bounce.  ``extents`` holds each bounce's reflector
    extent ``(lo, hi)`` in the tangent coordinate of its surface (infinite
    bounds for an unbounded reflector).  ``obstacles`` are ``(a, b)``
    segments.  Agent points, surfaces and extents broadcast over leading
    axes (the path rows).

    The image method mirrors the anchor across the bounces from the anchor
    side, and :func:`trace_hops` walks the hops.  Returns ``(va,
    available)``: the path's virtual anchor (zero where a bounce surface is
    degenerate) and its availability.  With ``check=False`` nothing is
    traced and ``available`` only reports non-degenerate surfaces.
    """
    images = [np.asarray(pa, dtype=float)]
    for mva in reversed(bounces):
        images.insert(0, mva_to_va(mva, images[0]))
    return trace_hops(agent, images, [_surface_frame(mva) for mva in bounces], extents,
                      obstacles, check)


def trace_hops(agent, images, frames, extents, obstacles, check: bool):
    """Walk a path's hops from the agent, given its images and surface frames.

    ``images`` holds, per bounce, the image of the anchor across that bounce
    and every later one, then the anchor itself; ``images[0]`` is the VA.
    ``frames`` holds each bounce's :func:`_surface_frame`.  Each hop runs
    from the previous bounce point toward the next image; its bounce point
    must lie on the surface inside the extent and the hop must be
    unobstructed.  Arguments as in :func:`backward_trace`, whose result this
    returns; the caller may compute the images and frames once and reuse
    them across paths.
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
