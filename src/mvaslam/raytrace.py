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

from .geometry import EPS_GEO, Surface, WallSegment, mva_to_va_planes


_TRACE_CHUNK = 1 << 14  # (row, point) elements traced per call


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
        normal = _surface_frame(*_planes(self.wall_mvas))[1:3]
        ta = _along(_planes(self.wall_ends[:, 0]), normal)
        tb = _along(_planes(self.wall_ends[:, 1]), normal)
        return np.stack([np.minimum(ta, tb), np.maximum(ta, tb)], axis=-1)

    @cached_property
    def blocker_segments(self) -> tuple:
        return tuple((w.a, w.b) for w in self.blockers)

    @cached_property
    def segments(self) -> tuple:
        return tuple((w.a, w.b) for w in self.walls) + self.blocker_segments

    def nearest_extents(self, means, normal):
        """Per-particle extents of estimated surfaces clipped to the nearest wall.

        ``means`` (S, 2) holds the mean MVAs of S estimated surfaces and
        ``normal`` the unit normal planes, each (S, I), of their particles,
        from the surfaces' one :func:`_surface_frame`.  Each surface takes
        the wall whose MVA lies nearest its mean MVA, and the wall's
        endpoints are projected onto every particle's line.  Returns ``(lo,
        hi)`` of shape (S, I); without walls the reflectors are unbounded and
        both have shape (S, 1).
        """
        if not self.walls:
            unbounded = np.full((len(means), 1), np.inf)
            return -unbounded, unbounded
        d = np.hypot(self.wall_mvas[:, 0] - means[:, None, 0],
                     self.wall_mvas[:, 1] - means[:, None, 1])
        ends = self.wall_ends[np.argmin(d, axis=1)]             # (S, 2, 2)
        ta = _along(_planes(ends[:, None, 0]), normal)
        tb = _along(_planes(ends[:, None, 1]), normal)
        return np.minimum(ta, tb), np.maximum(ta, tb)

    def feature_traces(self, clouds, pa, check: bool) -> SurfaceTraces:
        """The filter's trace cache of estimated surfaces ``clouds`` (S, I, 2).

        Each surface's frame is computed once per call, here: the cache
        traces with it, and :meth:`nearest_extents` projects the wall nearest
        the cloud's mean onto its normals to clip the reflector.  The map
        holds surface lines, not wall segments, so only blockers obstruct.
        """
        mvas = _planes(clouds)
        frame = _surface_frame(*mvas)
        extents = self.nearest_extents(clouds.mean(axis=1), frame[1:3])
        return SurfaceTraces(mvas, frame, pa, extents, self.blocker_segments, check)

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
        mvas = _planes(np.expand_dims(self.wall_mvas, axes))
        traces = SurfaceTraces(mvas, _surface_frame(*mvas), pa,
                               (np.expand_dims(lo, axes), np.expand_dims(hi, axes)),
                               self.segments, check=True)
        va, available = zip(*(traces.trace(agent, members) for _, members in blocks))
        va = np.stack([np.concatenate(v) for v in zip(*va)], axis=-1)
        return np.moveaxis(va, 0, -2), np.moveaxis(np.concatenate(available), 0, -1)


# ---------------------------------------------------------------------------
# Array primitives.  Inside the tracer a point is a pair of coordinate planes
# ``(x, y)``, so every elementwise loop runs along the long axis; line
# normals are planes ``(nx, ny)`` with offsets describing n . x = c.
# Everything broadcasts.
# ---------------------------------------------------------------------------


def _planes(points):
    """Coordinate planes ``(x, y)`` of (..., 2) points, each one contiguous."""
    return tuple(np.ascontiguousarray(np.moveaxis(np.asarray(points, dtype=float), -1, 0)))


def _along(x, normal):
    """Coordinate of points ``x`` along the tangent (-n_y, n_x) of a line."""
    return x[1] * normal[0] - x[0] * normal[1]


def _surface_frame(mx, my):
    """Validity, unit normal planes and line offset of surface MVA planes ``(mx, my)``.

    Returns ``(ok, nx, ny, offset)``.  A surface is valid when its MVA is
    farther than ``EPS_GEO`` from the origin; invalid entries carry finite
    but meaningless frames.
    """
    norm = np.hypot(mx, my)
    ok = norm > EPS_GEO
    safe = np.where(ok, norm, 1.0)
    return ok, mx / safe, my / safe, 0.5 * norm


def line_crossing(p, q, normal, offset):
    """Where segment [p, q] crosses the line ``normal . x = offset``.

    Points and the normal are ``(x, y)`` planes.  Returns ``(ok, hit)``:
    ``ok`` is True when p and q lie on opposite sides (touching counts),
    ``hit`` the crossing point's planes (unspecified when not ``ok``).
    """
    (px, py), (qx, qy), (nx, ny) = p, q, normal
    # in place where the shapes allow: the chunk's temporaries stay few and cached
    sd_p = px * nx
    sd_p += py * ny
    sd_p -= offset
    sd_q = qx * nx
    sd_q += qy * ny
    sd_q -= offset
    denom = sd_p - sd_q
    safe = np.abs(denom) > 1e-300
    t = np.divide(sd_p, denom, out=np.zeros(denom.shape), where=safe)
    ok = np.multiply(sd_p, sd_q, out=denom) <= 0.0
    ok &= safe
    hx = t * (qx - px)
    hx += px
    hy = t * (qy - py)
    hy += py
    return ok, (hx, hy)


def segment_blocks(p, q, a, b):
    """True where segment [a, b] obstructs the open interior of hop [p, q].

    ``p`` and ``q`` are ``(x, y)`` planes, ``a`` and ``b`` the segment's
    endpoints.  Crossings within ``EPS_GEO`` of the hop endpoints do not
    count: hop endpoints lie on reflectors by construction, so a reflector
    never blocks the hops that meet at it.  Grazing the blocking segment's
    own endpoints does count (deterministic tie-break).
    """
    (px, py), (qx, qy), (ax, ay), (bx, by) = p, q, a, b
    abx, aby = bx - ax, by - ay
    pqx, pqy = qx - px, qy - py
    # side of p/q relative to line ab, and of a/b relative to line pq
    cross_ap = abx * (py - ay) - aby * (px - ax)
    cross_aq = abx * (qy - ay) - aby * (qx - ax)
    cross_pa = pqx * (ay - py) - pqy * (ax - px)
    cross_pb = pqx * (by - py) - pqy * (bx - px)
    crossing = (cross_ap * cross_aq <= 0.0) & (cross_pa * cross_pb <= 0.0)
    hop_len = np.hypot(pqx, pqy)
    seg_len = np.hypot(abx, aby)
    scale = np.maximum(seg_len * hop_len, 1e-300)
    collinear = (np.abs(cross_ap) <= EPS_GEO * scale) & (np.abs(cross_aq) <= EPS_GEO * scale)
    if not (crossing.any() or collinear.any()):
        return crossing                       # apart everywhere: nothing blocks

    denom_t = cross_ap - cross_aq
    safe_t = np.abs(denom_t) > 1e-300
    t = np.divide(cross_ap, denom_t, out=np.full(denom_t.shape, -1.0), where=safe_t)
    margin = np.where(hop_len > 0, EPS_GEO / np.maximum(hop_len, 1e-300), 0.0)
    interior = (t > margin) & (t < 1.0 - margin)

    denom_u = cross_pa - cross_pb
    safe_u = np.abs(denom_u) > 1e-300
    u = np.divide(cross_pa, denom_u, out=np.full(denom_u.shape, -1.0), where=safe_u)
    margin_u = EPS_GEO / np.maximum(seg_len, 1e-300)
    within = (u >= -margin_u) & (u <= 1.0 + margin_u)

    blocked = crossing & safe_t & safe_u & interior & within

    # collinear overlap: hop slides along the segment
    if collinear.any():
        rr = np.maximum(pqx * pqx + pqy * pqy, 1e-300)
        t0 = ((ax - px) * pqx + (ay - py) * pqy) / rr
        t1 = ((bx - px) * pqx + (by - py) * pqy) / rr
        lo = np.minimum(t0, t1)
        hi = np.maximum(t0, t1)
        overlap = (hi > margin) & (lo < 1.0 - margin)
        blocked = blocked | (collinear & overlap)
    return blocked


def hop_obstructed(p, q, segments):
    """True where any wall/blocker segment obstructs hop [p, q].

    ``p`` and ``q`` are ``(x, y)`` planes; ``segments`` is a sequence of
    ``(a, b)`` endpoint pairs.  The tracer hands it only the hops whose path
    is still available (:func:`_unobstructed`).  Without segments the result
    is a scalar False.
    """
    blocked = np.False_
    for a, b in segments:
        blocked = blocked | segment_blocks(p, q, a, b)
    return blocked


def _take(planes, live, shape):
    """``(x, y)`` planes that broadcast to ``shape``, at its flat indices ``live``."""
    x = planes[0]
    if x.shape == shape:
        return tuple(v.reshape(-1)[live] for v in planes)
    idx = np.unravel_index(live, shape)[len(shape) - x.ndim:]
    sub = tuple(i if n > 1 else 0 for i, n in zip(idx, x.shape))
    return tuple(v[sub] for v in planes)


def _unobstructed(available, p, q, obstacles):
    """``available`` with the hops [p, q] that an obstacle blocks cleared.

    Only the available hops reach :func:`hop_obstructed`: the test is
    elementwise, so the others would only be discarded.  With obstacles the
    result is a new array, broadcast to the hops' shape.
    """
    if not obstacles:
        return available
    shape = np.broadcast_shapes(available.shape, p[0].shape, q[0].shape)
    available = np.broadcast_to(available, shape).copy()
    live = np.flatnonzero(available)
    blocked = hop_obstructed(_take(p, live, shape), _take(q, live, shape), obstacles)
    np.put(available, live[blocked], False)
    return available


class SurfaceTraces:
    """Per-surface trace cache: the candidate paths off a set of surfaces.

    ``mvas`` holds the surfaces' MVA planes ``(mx, my)`` (S, ...), ``frame``
    their :func:`_surface_frame` and ``extents`` ``(lo, hi)`` (S, ...) their
    reflector extents, the surface axis first; every other axis broadcasts
    with the anchor ``pa`` (..., 2) and the agent points.  The caller
    computes each surface's frame once, so that it can derive the extents
    from the same frame; the single-bounce image of the anchor is computed
    once here, and both are shared by every row the surface is a member of,
    so a pair row computes only its outer image.  ``obstacles`` are ``(a,
    b)`` segments.  With ``check=False`` nothing is traced and availability
    only reports non-degenerate surfaces.
    """

    def __init__(self, mvas, frame, pa, extents, obstacles, check: bool):
        self.mvas = mvas
        self.pa = _planes(pa)
        self.frame = frame
        self.va1 = mva_to_va_planes(*mvas, *self.pa)
        self.extents = extents
        self.obstacles = obstacles
        self.check = check

    def trace(self, agent, members):
        """VA planes ``(vx, vy)`` (R, ...) and availability (R, ...) of the rows ``members`` (R, k).

        ``agent`` holds (..., 2) points.  The image method mirrors the
        anchor across a row's bounces from the anchor side, and
        :func:`trace_hops` walks the hops from ``agent``.  A row's VA is
        zero where a bounce surface is degenerate.  Rows are traced in
        chunks so the temporaries stay small.
        """
        mx, my = self.mvas
        agent = _planes(agent)
        shape = np.broadcast_shapes(agent[0].shape, self.pa[0].shape, mx.shape)[1:]
        vx, vy = (np.empty((len(members),) + shape) for _ in range(2))
        available = np.empty((len(members),) + shape, dtype=bool)
        chunk = max(1, _TRACE_CHUNK // max(math.prod(shape), 1))
        for r in range(0, len(members), chunk):
            idx = members[r:r + chunk].T
            images = [self.pa]
            if len(idx):
                images.insert(0, tuple(v[idx[-1]] for v in self.va1))
            for i in reversed(idx[:-1]):
                images.insert(0, mva_to_va_planes(mx[i], my[i], *images[0]))
            (vx[r:r + chunk], vy[r:r + chunk]), available[r:r + chunk] = trace_hops(
                agent, images, [tuple(f[i] for f in self.frame) for i in idx],
                [tuple(e[i] for e in self.extents) for i in idx], self.obstacles, self.check)
        return (vx, vy), available


def trace_hops(agent, images, frames, extents, obstacles, check: bool):
    """Walk a path's hops from the agent, given its images and surface frames.

    Points are ``(x, y)`` planes.  ``images`` holds, per bounce, the image
    of the anchor across that bounce and every later one, then the anchor
    itself; ``images[0]`` is the VA.  ``frames`` holds each bounce's
    :func:`_surface_frame`.  Each hop runs from the previous bounce point
    toward the next image; its bounce point must lie on the surface inside
    the extent and the hop must be unobstructed.  ``extents`` holds each
    bounce's ``(lo, hi)`` in the tangent coordinate of its surface and
    ``obstacles`` the ``(a, b)`` segments; everything broadcasts.  Returns
    ``(va, available)`` as :meth:`SurfaceTraces.trace` does, without its
    row axis.

    The obstruction test, the costliest per hop, runs only where the path
    is still available: a bounce hop only where its surface is valid, it
    crosses the surface inside the extent and every earlier hop passed, and
    the final hop only where every bounce passed.
    """
    valid = np.ones(np.shape(agent[0]), dtype=bool)
    available = valid
    p = agent
    for k, (ok, nx, ny, offset) in enumerate(frames):
        valid = valid & ok
        if not check:
            continue
        crossed, hit = line_crossing(p, images[k], (nx, ny), offset)
        tau = _along(hit, (nx, ny))
        lo, hi = extents[k]
        available = available & ok & crossed & (tau >= lo - EPS_GEO) & (tau <= hi + EPS_GEO)
        available = _unobstructed(available, p, hit, obstacles)
        p = hit
    va = tuple(np.where(valid, v, 0.0) for v in images[0])
    if not check:
        return va, valid
    return va, _unobstructed(available, p, images[-1], obstacles)
