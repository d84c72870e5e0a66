"""Backward ray tracing for path-availability checks.

A propagation path (line of sight, single bounce, or double bounce) is
traced backward from the agent toward the virtual anchor that represents
it.  Each bounce must hit its reflective surface inside the reflector
extent, and every hop segment must be free of obstructions.  Availability
feeds the per-path detection probabilities: an unavailable path cannot
produce a measurement.

One array tracer, :func:`backward_trace`, serves every caller.  The SLAM
filter traces per-particle feature clouds; the measurement generator and
the availability keys trace the true surfaces through
:meth:`Environment.trace_paths`.  Each caller supplies the reflector
extents and the obstacle set, the one modelling difference between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateSurface
from .geometry import EPS_GEO, Surface, WallSegment, mva_to_va


@dataclass(frozen=True)
class PathClass:
    """One propagation path: LOS, single bounce at ``s``, or double bounce.

    For a double bounce ``(s, s2)``, ``s`` is the surface of the bounce
    nearest the agent and ``s2`` the one nearest the anchor, matching the
    virtual-anchor composition in :func:`mvaslam.geometry.double_bounce_va`.
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


LOS = PathClass()


@dataclass(frozen=True)
class Environment:
    """Static geometry: reflector walls plus opaque, non-reflecting blockers.

    The only geometry container of the package.  The wall endpoints and
    MVAs and both obstacle sets are computed once, on first use:
    ``segments`` (walls and blockers, as the generator sees them) and
    ``blocker_segments`` (blockers only, as the filter sees them), each a
    tuple of ``(a, b, surface_index)`` triples.
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
    def blocker_segments(self) -> tuple:
        return tuple((w.a, w.b, None) for w in self.blockers)

    @cached_property
    def segments(self) -> tuple:
        return tuple((w.a, w.b, w.surface_index) for w in self.walls) + self.blocker_segments

    def validate(self, surfaces: Sequence[Surface]) -> None:
        """Check that every reflector segment lies on its surface's line."""
        for wall in self.walls:
            if wall.surface_index is None:
                continue
            if not 0 <= wall.surface_index < len(surfaces):
                raise DegenerateSurface(
                    f"wall references surface {wall.surface_index} of {len(surfaces)}"
                )
            surf = surfaces[wall.surface_index]
            n = surf.unit_normal
            c = float(n @ surf.line_point)
            for endpoint in (wall.a, wall.b):
                if abs(float(n @ endpoint) - c) >= EPS_GEO:
                    raise DegenerateSurface(
                        f"wall segment does not lie on surface {wall.surface_index} line"
                    )

    def reflector_extent(self, surface_index: int, surfaces: Sequence[Surface]):
        """Tangential parameter range covered by the reflectors of a surface.

        Returns ``(lo, hi)`` in the surface's own tangent coordinate, or
        ``None`` when no wall is registered (infinite reflector).
        """
        tangent = surfaces[surface_index].tangent
        params = []
        for wall in self.walls:
            if wall.surface_index == surface_index:
                params.extend([float(tangent @ wall.a), float(tangent @ wall.b)])
        if not params:
            return None
        return min(params), max(params)

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

    def trace_paths(self, agent, pa, paths: Sequence[PathClass], surfaces: Sequence[Surface]):
        """Trace every path in ``paths`` against the true geometry.

        Each bounce is clipped to its own walls' extent, and every wall and
        blocker obstructs, except that the hop arriving at a bounce ignores
        that surface's own walls.  ``agent`` and ``pa`` are (..., 2) and
        broadcast together.  Returns the VAs (..., P, 2) and the availability
        (..., P), one column per path.
        """
        agent = np.asarray(agent, dtype=float)[..., None, :]
        pa = np.asarray(pa, dtype=float)[..., None, :]
        mvas = np.array([s.mva for s in surfaces]).reshape(-1, 2)
        extents = [self.reflector_extent(s, surfaces) for s in range(len(surfaces))]
        lo, hi = np.array([(-np.inf, np.inf) if e is None else e for e in extents]).reshape(-1, 2).T
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
                agent, pa, [mvas[i] for i in idx], [(lo[i], hi[i]) for i in idx],
                self.segments, exclude=idx)
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


def segment_blocks(p, q, a, b, eps: float = EPS_GEO):
    """True where segment [a, b] obstructs the open interior of hop [p, q].

    Crossings within ``eps`` (in meters) of the hop endpoints do not count:
    hop endpoints lie on reflectors by construction.  Grazing the blocking
    segment's own endpoints does count (deterministic tie-break).
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
    collinear = (np.abs(cross_ap) <= eps * scale) & (np.abs(cross_aq) <= eps * scale)
    if not (crossing.any() or collinear.any()):
        return crossing                       # apart everywhere: nothing blocks

    denom_t = cross_ap - cross_aq
    safe_t = np.abs(denom_t) > 1e-300
    t = np.where(safe_t, cross_ap / np.where(safe_t, denom_t, 1.0), -1.0)
    margin = np.where(hop_len > 0, eps / np.maximum(hop_len, 1e-300), 0.0)
    interior = (t > margin) & (t < 1.0 - margin)

    denom_u = cross_pa - cross_pb
    safe_u = np.abs(denom_u) > 1e-300
    u = np.where(safe_u, cross_pa / np.where(safe_u, denom_u, 1.0), -1.0)
    margin_u = eps / np.maximum(seg_len, 1e-300)
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


def hop_obstructed(p, q, segments, exclude_index=None, eps: float = EPS_GEO):
    """True where any wall/blocker segment obstructs hop [p, q].

    ``segments`` is a sequence of (a, b, surface_index) triples.  A segment
    does not count for the hops whose ``exclude_index`` (a scalar, or an
    array broadcasting against the hops) equals its surface index: a
    reflector never blocks the hop it reflects.  Without a counted segment
    the result is a scalar False.
    """
    blocked = np.False_
    for a, b, surface_index in segments:
        if exclude_index is None or surface_index is None:
            blocked = blocked | segment_blocks(p, q, a, b, eps=eps)
            continue
        counts = np.asarray(exclude_index) != surface_index
        if counts.any():
            blocked = blocked | (segment_blocks(p, q, a, b, eps=eps) & counts)
    return blocked


def backward_trace(agent, pa, bounces=(), extents=(), obstacles=(), exclude=None,
                   check: bool = True, eps: float = EPS_GEO):
    """Backward-trace paths from the agent to the anchor ``pa``.

    ``bounces`` lists the reflecting surfaces as MVA arrays, the bounce
    nearest the agent first: empty for LOS, one surface for a single bounce,
    two for a double bounce.  ``extents`` holds each bounce's reflector
    extent ``(lo, hi)`` in the tangent coordinate of its surface (infinite
    bounds for an unbounded reflector).  ``obstacles`` are ``(a, b,
    surface_index)`` segments; ``exclude[k]``, when given, names the surface
    whose segments the hop arriving at bounce ``k`` ignores.  Agent points,
    surfaces and extents broadcast over leading axes (the path rows).

    The image method mirrors the anchor across the bounces from the anchor
    side; the trace then walks from the agent toward each image, requiring
    every bounce point to lie on its surface inside the extent and every hop
    to be unobstructed.  Returns ``(va, available)``: the path's virtual
    anchor (zero where a bounce surface is degenerate) and its availability.
    With ``check=False`` nothing is traced and ``available`` only reports
    non-degenerate surfaces.
    """
    agent = np.asarray(agent, dtype=float)
    pa = np.asarray(pa, dtype=float)
    images = [pa]
    for mva in reversed(bounces):
        images.insert(0, mva_to_va(mva, images[0], strict=False))
    valid = np.ones(agent.shape[:-1], dtype=bool)
    available = valid
    p = agent
    for k, mva in enumerate(bounces):
        ok, normal, offset = _surface_frame(mva)
        valid = valid & ok
        if not check:
            continue
        crossed, hit = line_crossing(p, images[k], normal, offset)
        tau = _along(hit, normal)
        lo, hi = extents[k]
        skip = None if exclude is None else exclude[k]
        available = (available & crossed & (tau >= lo - eps) & (tau <= hi + eps)
                     & ~hop_obstructed(p, hit, obstacles, skip, eps=eps))
        p = hit
    va = np.where(valid[..., None], images[0], 0.0)
    if not check:
        return va, valid
    return va, valid & available & ~hop_obstructed(p, pa, obstacles, eps=eps)
