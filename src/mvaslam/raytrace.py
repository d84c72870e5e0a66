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
them for every caller with its one method,
:meth:`SurfaceTraces.available_entries`: the cache walks each path's hops
itself, a chunk of rows at a time, in scratch planes that are reused from
chunk to chunk and from call to call, and each chunk's available entries
are kept with their arrival vectors, the agent point minus the VA, which
is all the measurement model reads of a path.  :class:`Environment` builds
both caches: the experiment traces the true walls once, at every waypoint
(:meth:`Environment.trace_paths`), and measurement generation draws from
that table of arrival vectors; the SLAM filter traces per-particle feature
clouds (:meth:`Environment.feature_traces`).  The reflector extents and the
obstacle set, two slices of one endpoint table, are the one modelling
difference between them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .geometry import EPS_GEO, WallSegment, mva_to_va_planes


_TRACE_CHUNK = 1 << 14  # (row, point) elements traced per chunk of rows
_ROW_SLICE = 4 * _TRACE_CHUNK  # (row, point) elements per slice of rows, see row_slices


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


def _chunk_rows(n_points: int, elements: int) -> int:
    """Rows of ``n_points`` points that fit in ``elements``, at least one."""
    return max(1, elements // max(n_points, 1))


def row_slices(n_rows: int, n_points: int) -> list[slice]:
    """Consecutive slices of ``n_rows`` rows of ``n_points`` points each, in order.

    A slice is a whole number of the trace chunks of
    :meth:`SurfaceTraces.available_entries`, as many as fit in
    ``_ROW_SLICE`` (row, point) elements and at least one, so a caller that
    handles a block a slice at a time bounds its per-entry temporaries and
    traces no partial chunk but the block's last.
    """
    chunk = _chunk_rows(n_points, _TRACE_CHUNK)
    step = max(1, _chunk_rows(n_points, _ROW_SLICE) // chunk) * chunk
    return [slice(r, r + step) for r in range(0, n_rows, step)]


@dataclass(frozen=True)
class Environment:
    """Static geometry: reflector walls plus opaque, non-reflecting blockers.

    The only geometry container of the package and the owner of the ground
    truth: reflective wall ``k`` is true surface ``k``.  The endpoint table
    ``ends`` and the wall MVAs are computed once, on first use.  The table
    holds the walls' rows, then the blockers': the truth's obstacles are
    the whole table, the filter's its blocker rows.  The ``workspace`` holds
    the scratch planes of every trace it makes, so a filter reuses them from
    step to step.
    """

    walls: tuple[WallSegment, ...] = ()
    blockers: tuple[WallSegment, ...] = ()

    def __init__(self, walls: Sequence[WallSegment] = (), blockers: Sequence[WallSegment] = ()):
        object.__setattr__(self, "walls", tuple(walls))
        object.__setattr__(self, "blockers", tuple(blockers))

    @cached_property
    def ends(self) -> np.ndarray:
        """Endpoints of the walls, then of the blockers, (W+B, 2, 2)."""
        return np.array([[w.a, w.b] for w in self.walls + self.blockers],
                        dtype=float).reshape(-1, 2, 2)

    @cached_property
    def wall_mvas(self) -> np.ndarray:
        """MVAs of the wall lines, (W, 2)."""
        return np.array([w.mva for w in self.walls]).reshape(-1, 2)

    @cached_property
    def workspace(self) -> _Workspace:
        """Scratch planes shared by every trace cache this environment builds."""
        return _Workspace()

    def feature_traces(self, clouds, pa, check: bool) -> SurfaceTraces:
        """The filter's trace cache of estimated surfaces ``clouds`` (S, I, 2).

        Each surface is clipped to the wall whose MVA lies nearest the
        cloud's mean MVA: the cache projects that wall's endpoints onto every
        particle's line (:func:`_bounds`).  Without walls the reflectors are
        unbounded.  The map holds surface lines, not wall segments, so only
        blockers obstruct.
        """
        mvas = _planes(clouds)
        ends = None
        if self.walls:
            d = np.hypot(self.wall_mvas[:, 0] - mvas[0].mean(axis=1)[:, None],
                         self.wall_mvas[:, 1] - mvas[1].mean(axis=1)[:, None])
            ends = _end_planes(self.ends[np.argmin(d, axis=1), None])    # (S, 1) each
        return SurfaceTraces(mvas, pa, ends, self.ends[len(self.walls):], check, self.workspace)

    def trace_paths(self, agent, pa, blocks):
        """Trace the candidate path ``blocks`` against the true geometry.

        Wall ``k`` is surface ``k``.  Each bounce is clipped to its wall's
        extent, and every wall and blocker obstructs (:func:`hop_obstructed`,
        the one obstruction test); a hop ends on the wall of the bounce it
        arrives at, which the test's endpoint margin keeps from blocking
        it, and a hop along a segment's line is blocked only where it
        overlaps the segment.  ``agent`` and ``pa`` are (..., 2) and
        broadcast together.  Returns the arrival vectors (..., K, 2), one
        row per block row: the agent point minus the path's VA where the
        path is available, NaN where it is not.  A wall through the origin
        is rejected (:attr:`WallSegment.mva`), so every available path's
        arrival vector is finite.
        """
        agent = np.asarray(agent, dtype=float)
        pa = np.asarray(pa, dtype=float)
        axes = tuple(range(1, max(agent.ndim, pa.ndim)))      # broadcast over agent and pa
        traces = SurfaceTraces(_planes(np.expand_dims(self.wall_mvas, axes)), pa,
                               _end_planes(np.expand_dims(self.ends[:len(self.walls)], axes)),
                               self.ends, True, self.workspace)
        shape = np.broadcast_shapes(agent.shape[:-1], pa.shape[:-1])
        arrival = []
        for _, members in blocks:
            rows = np.full((len(members),) + shape + (2,), np.nan)
            flat, vectors = traces.available_entries(agent, members)
            rows.reshape(-1, 2)[flat] = np.stack(vectors, axis=-1)
            arrival.append(rows)
        return np.moveaxis(np.concatenate(arrival), 0, -2)


# ---------------------------------------------------------------------------
# Array primitives.  Inside the tracer a point is a pair of coordinate planes
# ``(x, y)``, so every elementwise loop runs along the long axis; line
# normals, of any scale, are planes ``(nx, ny)`` with offsets describing n . x = c.
# Everything broadcasts.
# ---------------------------------------------------------------------------


def _planes(points):
    """Coordinate planes ``(x, y)`` of (..., 2) points, each one contiguous."""
    return tuple(np.ascontiguousarray(np.moveaxis(np.asarray(points, dtype=float), -1, 0)))


def _along(x, normal, empty=np.empty):
    """Coordinate of points ``x`` along the tangent (-n_y, n_x) of a line."""
    shape = np.broadcast(x[0], normal[0]).shape
    tau = np.multiply(x[1], normal[0], out=empty(shape, float))
    tau -= np.multiply(x[0], normal[1], out=empty(shape, float))
    return tau


def _end_planes(ends):
    """Endpoint planes ``(ax, ay, bx, by)`` of segments ``ends`` (..., 2, 2), each contiguous."""
    ends = np.asarray(ends, dtype=float)
    return _planes(ends.reshape(ends.shape[:-2] + (4,)))


def _frame(mvas, empty=np.empty):
    """The frame of surfaces ``mvas`` ``(mx, my)``: ``(ok, mx, my, |m|^2 / 2)``.

    Surface ``m`` is the line ``x . m = |m|^2 / 2`` and is valid (``ok``)
    where ``|m|^2 > EPS_GEO^2``.  The surface axis is first and everything
    broadcasts; every plane comes from ``empty(shape, dtype)``, as in
    :func:`~mvaslam.geometry.mva_to_va_planes`.
    """
    mx, my = mvas
    shape = np.broadcast(mx, my).shape
    offset = np.multiply(mx, mx, out=empty(shape, float))
    offset += np.multiply(my, my, out=empty(shape, float))
    ok = np.greater(offset, EPS_GEO * EPS_GEO, out=empty(shape, bool))
    offset *= 0.5
    return ok, mx, my, offset


def _bounds(mvas, ends, empty=np.empty):
    """The reflector bounds ``(lo, hi)`` of surfaces ``mvas`` ``(mx, my)``.

    They bound a bounce point's :func:`_along` coordinate, in units of
    ``|m|``: the range of the reflector endpoints ``ends`` ``(ax, ay, bx,
    by)`` along the line, widened by ``EPS_GEO`` times ``|m|``, so a bounce
    hits the reflector up to ``EPS_GEO`` meters.  With ``ends`` None the
    reflectors are unbounded and the bounds are infinite, of shape (S, 1,
    ...).  Shapes and planes as in :func:`_frame`.
    """
    mx, my = mvas
    shape = np.broadcast(mx, my).shape
    if ends is None:
        unbounded = np.full(shape[:1] + (1,) * (len(shape) - 1), np.inf)
        return -unbounded, unbounded
    ta = _along(ends[:2], mvas, empty)
    tb = _along(ends[2:], mvas, empty)
    margin = np.hypot(mx, my, out=empty(shape, float))
    margin *= EPS_GEO
    lo = np.minimum(ta, tb, out=empty(ta.shape, float))
    lo -= margin
    hi = np.maximum(ta, tb, out=tb)
    hi += margin
    return lo, hi


def line_crossing(p, q, normal, offset, empty=np.empty):
    """Where segment [p, q] crosses the line ``normal . x = offset``.

    Points and the normal are ``(x, y)`` planes.  Returns ``(ok, hit)``:
    ``ok`` is True when p and q lie on opposite sides (touching counts),
    ``hit`` the crossing point's planes (unspecified when not ``ok``).
    Every plane comes from ``empty(shape, dtype)``, as in
    :func:`~mvaslam.geometry.mva_to_va_planes`.
    """
    (px, py), (qx, qy), (nx, ny) = p, q, normal
    shape = np.broadcast(px, qx, nx, offset).shape
    sd_p = np.multiply(px, nx, out=empty(shape, float))
    tmp = np.multiply(py, ny, out=empty(shape, float))
    sd_p += tmp
    sd_p -= offset
    sd_q = np.multiply(qx, nx, out=empty(shape, float))
    sd_q += np.multiply(qy, ny, out=tmp)
    sd_q -= offset
    denom = np.subtract(sd_p, sd_q, out=empty(shape, float))
    safe = np.greater(np.abs(denom, out=tmp), 1e-300, out=empty(shape, bool))
    t = tmp
    t.fill(0.0)
    np.divide(sd_p, denom, out=t, where=safe)
    ok = np.less_equal(np.multiply(sd_p, sd_q, out=denom), 0.0, out=empty(shape, bool))
    ok &= safe
    hx = np.multiply(t, np.subtract(qx, px, out=denom), out=sd_p)
    hx += px
    hy = np.multiply(t, np.subtract(qy, py, out=denom), out=sd_q)
    hy += py
    return ok, (hx, hy)


def hop_obstructed(p, q, segments):
    """True where any wall/blocker segment obstructs the open interior of hop [p, q].

    ``p`` and ``q`` are ``(x, y)`` planes; ``segments`` is a sequence of
    ``(a, b)`` endpoint pairs.  A segment blocks where p and q lie on both
    sides of its line and a and b on both sides of the hop's line, touching
    included, so grazing a segment's own endpoint blocks (deterministic
    tie-break), and where the crossing lies more than ``EPS_GEO`` from both
    hop endpoints: hop endpoints lie on reflectors by construction, so a
    reflector never blocks the hops that meet at it.  A hop with both ends
    within ``EPS_GEO`` per meter of hop of a segment's line is collinear
    with it, and blocked only where it overlaps the segment beyond that
    margin.  The tracer hands it only the hops whose path is still available
    (:func:`_clear_obstructed`).  Without segments the result is a scalar
    False.
    """
    (px, py), (qx, qy) = p, q
    pqx, pqy = qx - px, qy - py
    hop_len = np.hypot(pqx, pqy)
    eps_len = EPS_GEO * hop_len
    margin = np.divide(EPS_GEO, hop_len, out=np.zeros(np.shape(hop_len)), where=hop_len > 0)
    far = 1.0 - margin
    blocked = np.False_
    for (ax, ay), (bx, by) in segments:
        abx, aby = bx - ax, by - ay
        # sides of p and q relative to line ab, and of a and b relative to line pq
        dpx, dpy = px - ax, py - ay
        cross_ap = abx * dpy - aby * dpx
        cross_aq = abx * (qy - ay) - aby * (qx - ax)
        cross_pa = pqy * dpx - pqx * dpy
        cross_pb = pqx * (by - py) - pqy * (bx - px)
        crossing = (cross_ap * cross_aq <= 0.0) & (cross_pa * cross_pb <= 0.0)
        collinear = np.maximum(np.abs(cross_ap), np.abs(cross_aq)) <= eps_len * math.hypot(abx, aby)
        if not (crossing.any() or collinear.any()):
            continue                          # apart everywhere: nothing blocks
        crossing &= ~collinear                # off the line, a crossing divides by no zero
        t = np.divide(cross_ap, cross_ap - cross_aq, out=np.zeros(np.shape(crossing)),
                      where=crossing)
        hit = (t > margin) & (t < far)
        if collinear.any():                   # the hop slides along the segment
            rr = np.maximum(pqx * pqx + pqy * pqy, 1e-300)
            t0 = -(dpx * pqx + dpy * pqy) / rr
            t1 = ((bx - px) * pqx + (by - py) * pqy) / rr
            hit |= collinear & (np.maximum(t0, t1) > margin) & (np.minimum(t0, t1) < far)
        blocked = blocked | hit
    return blocked


def _take(planes, live, shape):
    """``(x, y)`` planes that broadcast to ``shape``, at its flat indices ``live``.

    A 0-d plane gives its 0-d value.
    """
    x = planes[0]
    if x.shape == shape:
        return tuple(v.reshape(-1)[live] for v in planes)
    idx = np.unravel_index(live, shape)[len(shape) - x.ndim:]
    sub = tuple(i if n > 1 else 0 for i, n in zip(idx, x.shape))
    return tuple(v[sub] for v in planes)


def _clear_obstructed(available, p, q, obstacles):
    """Clear, in place, the entries of ``available`` whose hop [p, q] an obstacle blocks.

    Only the available hops reach :func:`hop_obstructed`: the test is
    elementwise, so the others would only be discarded.  ``p`` and ``q``
    broadcast to ``available``'s shape.
    """
    if len(obstacles):
        live = np.flatnonzero(available)
        blocked = hop_obstructed(_take(p, live, available.shape), _take(q, live, available.shape),
                                 obstacles)
        np.put(available, live[blocked], False)


def _gather(planes, rows, empty):
    """Rows ``rows`` (an index array) of each plane of ``planes``, copied into planes from ``empty``."""
    # mode "clip" (the rows are in range): with the default, np.take buffers ``out``
    return tuple(np.take(v, rows, axis=0, mode="clip",
                         out=empty((len(rows),) + v.shape[1:], v.dtype)) for v in planes)


def _free_refs() -> int:
    """References to a listed buffer that nothing else holds, as :meth:`_Workspace.empty` counts."""
    buffers = [np.empty(0)]
    return sys.getrefcount(buffers[0])


_FREE_REFS = _free_refs()


class _Workspace:
    """Scratch planes of the tracer, reused from chunk to chunk and call to call.

    A plane is a view of one of the workspace's buffers, and a buffer is
    free again once no view of it is alive: its reference count says so,
    as a freed block goes back to the C allocator.  So the workspace holds
    as many buffers as planes are alive at once, each grown to the largest
    plane it has held: one chunk plane at most.  Freeing chunk-sized
    temporaries to the allocator instead lets it trim the heap between
    chunks and page-fault the same memory back in on the next one.  A
    workspace pickles empty.
    """

    def __init__(self):
        self._buffers: list[np.ndarray] = []

    def __reduce__(self):
        return _Workspace, ()

    def empty(self, shape, dtype) -> np.ndarray:
        """A plane of ``shape`` and ``dtype`` (at most 8 bytes an element), contents undefined."""
        size = math.prod(shape)
        buffers = self._buffers
        for k in range(len(buffers)):
            if sys.getrefcount(buffers[k]) == _FREE_REFS:
                break
        else:
            k = len(buffers)
            buffers.append(np.empty(0))
        if len(buffers[k]) < size:
            buffers[k] = np.empty(size)
        return np.ndarray(shape, dtype, buffers[k])


class SurfaceTraces:
    """Per-surface trace cache: the candidate paths off a set of surfaces.

    ``mvas`` holds the surfaces' MVA planes ``(mx, my)`` (S, ...) and
    ``ends`` their reflector endpoint planes ``(ax, ay, bx, by)`` (S, ...),
    or None for unbounded reflectors, the surface axis first; every other
    axis broadcasts with the anchor ``pa`` (..., 2) and the agent points.
    The cache traces in line coordinates: surface ``m`` is the line ``x . m
    = |m|^2 / 2``, so its MVA planes are its unnormalized normal planes, and
    each surface's frame (:func:`_frame`) takes no square root, no division
    and no copy.  A chunk of single-bounce rows is a slice of the surface
    axis: it reads each of its surfaces once, so it computes their frame
    and anchor image from views of the MVA planes, in workspace planes.
    Pair rows read each surface 2(S-1) times, so their chunks gather from
    the whole frame, :attr:`surfaces`, and the single-bounce images,
    :attr:`va1`, both built on the first pair-row chunk.  ``obstacles`` are
    ``(a, b)`` segments.  With ``check=False`` nothing is traced and
    availability only reports non-degenerate surfaces.  Every chunk-sized
    temporary of :meth:`available_entries` is a scratch plane of
    ``workspace``; the obstruction test's are not: it gathers the live hops
    into new arrays (:func:`_clear_obstructed`).
    """

    def __init__(self, mvas, pa, ends, obstacles, check: bool, workspace: _Workspace):
        self.mvas = mvas
        self.ends = ends
        self.pa = _planes(pa)
        self.obstacles = obstacles
        self.check = check
        self.workspace = workspace

    @cached_property
    def surfaces(self):
        """The frame and bounds of every surface (:func:`_frame`, :func:`_bounds`),
        ``(ok, mx, my, |m|^2 / 2, lo, hi)``, (S, ...) planes."""
        return _frame(self.mvas) + _bounds(self.mvas, self.ends)

    @cached_property
    def va1(self):
        """The single-bounce image of the anchor across every surface, (S, ...) planes."""
        return mva_to_va_planes(*self.mvas, *self.pa)

    def _frame_of(self, i, empty):
        """The frame of the surfaces ``i``: a slice computes it from views of
        the MVA planes into planes from ``empty``, an index array gathers it."""
        if isinstance(i, slice):
            return _frame(tuple(v[i] for v in self.mvas), empty)
        return _gather(self.surfaces[:4], i, empty)

    def _bounds_of(self, i, empty):
        """The reflector bounds of the surfaces ``i``, as :meth:`_frame_of` gives their frame."""
        if isinstance(i, slice):
            ends = None if self.ends is None else tuple(v[i] for v in self.ends)
            return _bounds(tuple(v[i] for v in self.mvas), ends, empty)
        return _gather(self.surfaces[4:], i, empty)

    def _images(self, idx, empty=np.empty):
        """The images of the anchor for the rows whose bounce surfaces are ``idx`` (k, R).

        The image method mirrors the anchor across a row's bounces from the
        anchor side: per bounce, the image across that bounce and every later
        one, then the anchor itself, each an ``(x, y)`` pair of planes.  So
        ``images[0]`` is the VA: planes (R, ...), or the anchor's own planes
        for LOS rows.  A bounce's surfaces are a slice, whose single-bounce
        image is mirrored from views, or an index array, which gathers it
        (:func:`_gather`); every image is a set of planes from ``empty``.
        """
        images = [self.pa]
        if len(idx):
            i = idx[-1]
            if isinstance(i, slice):
                images.insert(0, mva_to_va_planes(*(v[i] for v in self.mvas), *self.pa,
                                                  empty=empty))
            else:
                images.insert(0, _gather(self.va1, i, empty))
        for i in reversed(idx[:-1]):
            images.insert(0, mva_to_va_planes(*_gather(self.mvas, i, empty), *images[0],
                                              empty=empty))
        return images

    def available_entries(self, agent, members):
        """The available entries of the rows ``members`` (R, k) and their arrival vectors.

        ``agent`` holds (..., 2) points.  Returns ``(flat, (ax, ay))``:
        ``flat`` (n,) holds the row-major indices into the rows' (R, ...)
        availability where a path is available, in increasing order, and
        ``ax`` and ``ay`` (n,) the arrival vector there, the agent point
        minus the path's VA, where every bounce surface is valid.
        :meth:`_trace_hops` walks a chunk of about ``_TRACE_CHUNK`` (row,
        point) elements at a time into one workspace plane, and each chunk's
        entries are taken while it is there, its arrival vectors from chunk
        planes of the workspace too, so no (R, ...) plane is allocated.  The
        outputs are joined one at a time.

        Single-bounce rows must be consecutive surfaces in increasing order,
        as :func:`candidate_blocks` and :func:`row_slices` give them: a chunk
        of them is a slice of the surface axis, so it computes its surfaces'
        frame and images from views of the MVA planes.
        """
        agent = _planes(agent)
        shape = np.broadcast_shapes(agent[0].shape, self.pa[0].shape, self.mvas[0].shape)[1:]
        chunk = _chunk_rows(math.prod(shape), _TRACE_CHUNK)
        single = members.shape[1] == 1
        if single and len(members):
            first = int(members[0, 0])
            if not np.array_equal(members[:, 0], np.arange(first, first + len(members))):
                raise ValueError("single-bounce rows must be consecutive surfaces")
        empty = self.workspace.empty
        plane = empty((min(chunk, len(members)),) + shape, bool)
        flat, ax, ay = [], [], []
        for r in range(0, len(members), chunk):
            n = min(chunk, len(members) - r)
            idx = [slice(first + r, first + r + n)] if single else members[r:r + n].T
            images = self._images(idx, empty)
            available = plane[:n]
            self._trace_hops(agent, images, idx, available)
            hit = np.flatnonzero(available)
            for out, a, v in zip((ax, ay), agent, images[0]):
                out.append(np.subtract(a, v, out=empty(available.shape, float)).reshape(-1)[hit])
            del images            # its planes go back to the workspace before the next chunk
            hit += r * available[0].size
            flat.append(hit)
        return _join(flat), (_join(ax), _join(ay))

    def _trace_hops(self, agent, images, members, available):
        """Walk a path's hops from the agent, given its images.

        Points are ``(x, y)`` planes.  ``images`` holds, per bounce, the
        image of the anchor across that bounce and every later one, then the
        anchor itself (:meth:`_images`), and ``members`` each bounce's
        surfaces, an index array or a slice into the surface axis.  Each hop
        runs from the previous bounce point toward the next image; its bounce
        point must lie on the surface within the bounds and the hop must be
        unobstructed.  Everything broadcasts to ``available``, into which the
        availability is written; every chunk-sized temporary comes from the
        workspace.

        The obstruction test, the costliest per hop, runs only where the path
        is still available: a bounce hop only where its surface is valid, it
        crosses the surface within the bounds and every earlier hop passed, and
        the final hop only where every bounce passed.
        """
        available.fill(True)
        p = agent
        for q, i in zip(images, members):
            p = self._bounce(p, q, i, available)
        if self.check:
            _clear_obstructed(available, p, images[-1], self.obstacles)

    def _bounce(self, p, q, i, available):
        """One bounce of :meth:`_trace_hops`: the hop from ``p`` toward the image ``q``
        off the surfaces ``i``.

        Clears in ``available`` the paths whose surface is degenerate and, with
        ``check``, those whose hop misses the surface, falls outside its
        bounds or is obstructed.  Returns the bounce point (``p`` when not
        ``check``).  Its temporaries, the surfaces' frame among them, die
        when it returns, so their planes go back to the workspace before the
        next bounce draws its own.  The bounds are drawn after the crossing,
        whose planes are then gone.
        """
        empty = self.workspace.empty
        ok, mx, my, offset = self._frame_of(i, empty)
        available &= ok
        del ok                # its plane goes back before the crossing draws its own
        if not self.check:
            return p
        crossed, hit = line_crossing(p, q, (mx, my), offset, empty)
        available &= crossed
        del offset, crossed   # their planes go back before the bounds draw their own
        tau = _along(hit, (mx, my), empty)
        lo, hi = self._bounds_of(i, empty)
        inside = np.greater_equal(tau, lo, out=empty(available.shape, bool))
        available &= inside
        np.less_equal(tau, hi, out=inside)
        available &= inside
        _clear_obstructed(available, p, hit, self.obstacles)
        return hit


def _join(pieces: list) -> np.ndarray:
    """``np.concatenate(pieces)``, emptying ``pieces`` so they are freed before the next join."""
    out = np.concatenate(pieces)
    pieces.clear()
    return out
