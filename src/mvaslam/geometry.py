"""Exact 2-D transforms between reflective surfaces, physical anchors (PAs),
virtual anchors (VAs), and master virtual anchors (MVAs).

Conventions used throughout the package:

* Points are length-2 float arrays (or array-likes); every operation
  broadcasts over leading axes, so ``(n, 2)`` stacks of points work directly.
* A reflective surface is canonically stored as its MVA point: the mirror
  image of the coordinate origin across the surface line, whose unit normal
  is ``mva / |mva|`` and which passes through ``mva / 2``.
* Angles are wrapped to ``[-pi, pi)`` everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPoints, DegenerateSurface

EPS_GEO = 1e-6
"""Degeneracy threshold in meters (far below any physical scale here)."""


def wrap_angle(phi):
    """Wrap angle(s) to the half-open interval [-pi, pi)."""
    return np.mod(np.asarray(phi, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


def _as_points(p):
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 2:
        raise ValueError(f"expected points with last axis 2, got shape {p.shape}")
    return p


@dataclass(frozen=True)
class Surface:
    """A reflective surface line, stored as its MVA point.

    The MVA is the mirror image of the origin across the surface line, so the
    line itself is the perpendicular bisector of the segment origin-MVA.  A
    line through the origin has no valid MVA and is rejected.
    """

    mva: np.ndarray

    def __post_init__(self):
        mva = _as_points(self.mva).reshape(2)
        if not np.all(np.isfinite(mva)):
            raise DegenerateSurface("MVA has non-finite components")
        if np.hypot(mva[0], mva[1]) <= EPS_GEO:
            raise DegenerateSurface("surface line passes through the origin")
        object.__setattr__(self, "mva", mva)

    @classmethod
    def from_segment(cls, a, b) -> "Surface":
        """Surface whose line passes through segment endpoints ``a`` and ``b``."""
        a = _as_points(a).reshape(2)
        b = _as_points(b).reshape(2)
        d = b - a
        length = np.hypot(d[0], d[1])
        if length <= EPS_GEO:
            raise CoincidentPoints("segment endpoints coincide")
        n = np.array([-d[1], d[0]]) / length
        # mva = twice the projection of the origin onto the line
        return cls(mva=2.0 * (n[0] * a[0] + n[1] * a[1]) * n)


@dataclass(frozen=True)
class WallSegment:
    """Finite wall segment between endpoints ``a`` and ``b``."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = _as_points(self.a).reshape(2)
        b = _as_points(self.b).reshape(2)
        if np.hypot(*(b - a)) <= EPS_GEO:
            raise CoincidentPoints("wall segment endpoints coincide")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def mva_to_va(mva, pa):
    """Map MVA point(s) to the VA of the anchor ``pa`` across that surface.

    Algebraic form ``-(2 <mva, pa> / |mva|^2 - 1) mva + pa``; equal to
    mirroring ``pa`` across the surface the MVA encodes.  Degenerate rows
    (``|mva| <= EPS_GEO``) yield NaN, which callers mask per particle.
    """
    mva = _as_points(mva)
    pa = _as_points(pa)
    return np.stack(mva_to_va_planes(mva[..., 0], mva[..., 1], pa[..., 0], pa[..., 1]), axis=-1)


def mva_to_va_planes(mx, my, px, py, empty=np.empty):
    """:func:`mva_to_va` on coordinate planes: MVA ``(mx, my)``, anchor ``(px, py)``.

    Returns the VA planes ``(vx, vy)``, broadcast over all four inputs.  Every
    plane, the temporaries included, comes from ``empty(shape, dtype)``; the
    ray tracer passes its reused scratch planes.
    """
    shape = np.broadcast(mx, my, px, py).shape
    nrm2 = np.multiply(mx, mx, out=empty(shape, float))
    tmp = np.multiply(my, my, out=empty(shape, float))
    nrm2 += tmp
    bad = np.less_equal(nrm2, EPS_GEO * EPS_GEO, out=empty(shape, bool))
    np.copyto(nrm2, 1.0, where=bad)                  # the denominator
    scale = np.multiply(mx, px, out=tmp)
    scale += np.multiply(my, py, out=empty(shape, float))
    np.multiply(2.0, scale, out=scale)
    scale /= nrm2
    scale -= 1.0
    np.negative(scale, out=scale)
    vx = np.multiply(scale, mx, out=empty(shape, float))
    vx += px
    vy = np.multiply(scale, my, out=nrm2)
    vy += py
    if bad.any():
        np.copyto(vx, np.nan, where=bad)
        np.copyto(vy, np.nan, where=bad)
    return vx, vy


def va_to_mva(va, pa):
    """Inverse transform: recover the MVA from a single-bounce VA and its PA.

    ``(|pa|^2 - |va|^2) / |pa - va|^2 * (pa - va)``.  Degenerate when the VA
    coincides with the PA (any surface through their midpoint would do):
    such rows yield NaN.
    """
    va = _as_points(va)
    pa = _as_points(pa)
    diff = pa - va
    d2 = diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1]
    bad = d2 <= EPS_GEO * EPS_GEO
    denom = np.where(bad, 1.0, d2)
    pa2 = pa[..., 0] * pa[..., 0] + pa[..., 1] * pa[..., 1]
    va2 = va[..., 0] * va[..., 0] + va[..., 1] * va[..., 1]
    mva = ((pa2 - va2) / denom)[..., None] * diff
    if bad.any():
        mva = np.where(bad[..., None], np.nan, mva)
    return mva


def path_distance_angle(arrival, heading):
    """Distance and arrival angle of a path, from its arrival vector ``agent - va``.

    Returns ``(d, phi)`` with ``d = |arrival|`` and
    ``phi = wrap(atan2(arrival) - heading)``: the angle of arrival is
    measured from the VA toward the agent, relative to the agent heading.
    Raises :class:`CoincidentPoints` where the agent sits on the VA.
    """
    diff = _as_points(arrival)
    dx, dy = diff[..., 0], diff[..., 1]
    d = np.hypot(dx, dy)
    if np.count_nonzero(d <= EPS_GEO):
        raise CoincidentPoints("agent position coincides with the VA")
    # wrap_angle inlined: this runs once per measurement batch, on a few paths
    phi = np.mod(np.arctan2(dy, dx) - heading + np.pi, 2.0 * np.pi) - np.pi
    return d, phi
