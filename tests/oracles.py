"""Independent reference implementations used only by the tests.

These deliberately avoid the production code paths: ray availability is
decided by densely sampling hop segments and detecting sign changes of
signed distances, association marginals come from enumerating all valid
joint assignment events, and optimal assignment cost from trying every
permutation or from scipy's ``linear_sum_assignment`` (:func:`scipy_ospa`,
the reference of the package's own assignment solver).  Mirroring uses the
normal / line-point form instead of the MVA algebra, and the measurement
likelihood is evaluated one path and one measurement at a time, as a
reference for the filter's vectorized blocks,
and :func:`process_pa_reference` updates an anchor block densely, over every
(row, particle) entry and every measurement, as a reference for the
filter's sparse row blocks.
A path is its bounce tuple: ``()`` for LOS, ``(s,)`` for a single bounce
at surface ``s`` and ``(s, s2)`` for a double bounce, the surface nearest
the agent first.  :func:`backward_trace` is the bit-for-bit reference of
the package's trace cache: it traces one path from scratch with its own
copy of the ray tracer on (..., 2) points,
:func:`block_likelihood_reference` is the bit-for-bit reference of the
filter's likelihood kernel, laid out (entries, measurements),
:func:`draw_new_pmva_reference` that of its new-feature proposals wherever no
inversion is degenerate, drawn one measurement at a time, and
:func:`general_association`, the message iteration over a full (M, K+1)
measurement table, is that of the association wherever the table's path
columns are 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from mvaslam import association
from mvaslam.geometry import EPS_GEO, mva_to_va, path_distance_angle, va_to_mva, wrap_angle
from mvaslam.measurement import TWO_PI
from mvaslam.raytrace import candidate_blocks

AMBIGUOUS = "ambiguous"
KINDS = ("los", "single", "double")   # path kind by bounce count


def _mirror(p, normal, offset):
    return p + 2.0 * (offset - p @ normal) * normal


def _wall_frame(wall):
    """Unit tangent, unit normal and line offset of a wall's line."""
    d = wall.b - wall.a
    tangent = d / np.hypot(*d)
    normal = np.array([-tangent[1], tangent[0]])
    return tangent, normal, float(normal @ wall.a)


def _dense_crossing(p, q, normal, offset, n_samples):
    """Crossing of [p, q] with a line, found by sampled sign change."""
    ts = np.linspace(0.0, 1.0, n_samples)
    pts = p[None, :] + ts[:, None] * (q - p)[None, :]
    sd = pts @ normal - offset
    signs = np.sign(sd)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    exact = np.nonzero(signs == 0)[0]
    if len(exact):
        return pts[exact[0]]
    if not len(flips):
        return None
    k = flips[0]
    frac = sd[k] / (sd[k] - sd[k + 1])
    return pts[k] + frac * (pts[k + 1] - pts[k])


EPS_TIE = 1e-6  # production tie-break scale; 1e-6 .. margin is the gray zone


def _zone(value, lo, hi, length, margin):
    """Classify ``value`` against [lo, hi]: "in", "out", or AMBIGUOUS.

    Boundaries resolve as production does within EPS_TIE of the interval
    (grazing counts as inside); within ``margin`` they are gray.
    """
    tie = EPS_TIE / length
    gray = margin / length
    if lo + gray < value < hi - gray:
        return "in"
    if value < lo - gray or value > hi + gray:
        return "out"
    near_lo = abs(value - lo) <= tie
    near_hi = abs(value - hi) <= tie
    if near_lo or near_hi:
        return "in"
    return AMBIGUOUS


def _dense_blocked(p, q, seg_a, seg_b, n_samples, endpoint_margin):
    """Whether [seg_a, seg_b] obstructs the interior of hop [p, q].

    Crossings at the hop endpoints do not block (hop endpoints sit on
    reflectors by construction); crossings in the gray zone around either
    segment's endpoints return AMBIGUOUS.
    """
    seg = seg_b - seg_a
    seg_len = np.hypot(*seg)
    normal = np.array([-seg[1], seg[0]]) / seg_len
    offset = float(normal @ seg_a)
    hit = _dense_crossing(p, q, normal, offset, n_samples)
    if hit is None:
        return False
    u = float((hit - seg_a) @ seg) / seg_len ** 2
    u_zone = _zone(u, 0.0, 1.0, seg_len, endpoint_margin)
    if u_zone == "out":
        return False
    hop_len = np.hypot(*(q - p))
    t = float((hit - p) @ (q - p)) / hop_len ** 2
    tie = EPS_TIE / hop_len
    gray = endpoint_margin / hop_len
    if t <= tie or t >= 1.0 - tie:
        return False  # endpoint contact never blocks
    if t < gray or t > 1.0 - gray:
        return AMBIGUOUS
    if u_zone is AMBIGUOUS:
        return AMBIGUOUS
    return True


def oracle_path_available(agent, pa, bounces, env, n_samples=201, endpoint_margin=1e-3):
    """Dense-sampling availability check of the path ``bounces``; returns bool or AMBIGUOUS.

    Wall ``s`` of ``env`` is surface ``s``; its line and extent are derived
    here from the wall endpoints.
    """
    agent = np.asarray(agent, dtype=float)
    pa = np.asarray(pa, dtype=float)
    segments = [(w.a, w.b, k) for k, w in enumerate(env.walls)]
    segments += [(w.a, w.b, None) for w in env.blockers]

    def reflect_hit(p, target, s):
        wall = env.walls[s]
        tangent, normal, offset = _wall_frame(wall)
        sd_p = float(p @ normal - offset)
        sd_t = float(target @ normal - offset)
        if abs(sd_p) < endpoint_margin or abs(sd_t) < endpoint_margin:
            return AMBIGUOUS
        hit = _dense_crossing(p, target, normal, offset, n_samples)
        if hit is None:
            return None
        ta, tb = float(tangent @ wall.a), float(tangent @ wall.b)
        zone = _zone(float(tangent @ hit), min(ta, tb), max(ta, tb), 1.0, endpoint_margin)
        if zone is AMBIGUOUS:
            return AMBIGUOUS
        if zone == "out":
            return None
        return hit

    def hop_free(p, q, exclude):
        for a, b, idx in segments:
            if exclude is not None and idx == exclude:
                continue
            res = _dense_blocked(p, q, np.asarray(a, float), np.asarray(b, float),
                                 n_samples, endpoint_margin)
            if res is AMBIGUOUS:
                return AMBIGUOUS
            if res:
                return False
        return True

    if not bounces:
        return hop_free(agent, pa, None)

    s, *rest = bounces
    _, n1, c1 = _wall_frame(env.walls[s])
    if not rest:
        va = _mirror(pa, n1, c1)
        hit = reflect_hit(agent, va, s)
        if hit is AMBIGUOUS:
            return AMBIGUOUS
        if hit is None:
            return False
        for free in (hop_free(agent, hit, s), hop_free(hit, pa, None)):
            if free is AMBIGUOUS:
                return AMBIGUOUS
            if not free:
                return False
        return True

    s2, = rest
    _, n2, c2 = _wall_frame(env.walls[s2])
    va1 = _mirror(pa, n2, c2)
    va2 = _mirror(va1, n1, c1)
    hit1 = reflect_hit(agent, va2, s)
    if hit1 is AMBIGUOUS:
        return AMBIGUOUS
    if hit1 is None:
        return False
    hit2 = reflect_hit(hit1, va1, s2)
    if hit2 is AMBIGUOUS:
        return AMBIGUOUS
    if hit2 is None:
        return False
    for free in (hop_free(agent, hit1, s), hop_free(hit1, hit2, s2),
                 hop_free(hit2, pa, None)):
        if free is AMBIGUOUS:
            return AMBIGUOUS
        if not free:
            return False
    return True


def enumerate_association(beta, xi):
    """Exact marginals of valid joint assignments weighted by beta and xi.

    Returns (feature marginals (K, M+1), measurement marginals (M, K+1)).
    A joint event assigns each feature row a measurement (or none) without
    conflicts; the measurement-oriented description is then determined.
    """
    beta = np.asarray(beta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    n_paths, m1 = beta.shape
    n_meas = m1 - 1
    pa = np.zeros((n_paths, n_meas + 1))
    pm = np.zeros((n_meas, n_paths + 1))
    total = 0.0
    for assign in itertools.product(range(n_meas + 1), repeat=n_paths):
        taken = [a for a in assign if a > 0]
        if len(taken) != len(set(taken)):
            continue
        weight = 1.0
        for k, a in enumerate(assign):
            weight *= beta[k, a]
        meas_origin = [0] * n_meas
        for k, a in enumerate(assign):
            if a > 0:
                meas_origin[a - 1] = k + 1
        for m in range(n_meas):
            weight *= xi[m, meas_origin[m]]
        total += weight
        for k, a in enumerate(assign):
            pa[k, a] += weight
        for m in range(n_meas):
            pm[m, meas_origin[m]] += weight
    return pa / total, pm / total


def general_association(beta, xi, max_iters, tol):
    """Loopy-BP association with a full measurement table ``xi`` (M, K+1).

    The bit-for-bit reference of :func:`mvaslam.association.run_association`
    wherever ``xi``'s path columns are 1: the same two-value message sweeps,
    with each measurement's evidence for each path as an explicit factor.
    Returns ``(eta, sigma_out, iterations_used)``.
    """
    beta = np.asarray(beta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    n_paths, n_meas = beta.shape[0], beta.shape[1] - 1
    beta_miss = beta[:, 0][:, None]
    beta_hit = beta[:, 1:]
    xi_new = xi[:, 0][None, :]
    xi_hit = xi[:, 1:].T                   # xi_hit[k, m] = xi[m, k+1]
    row_sum = beta_miss + beta_hit.sum(axis=1, keepdims=True)
    z = beta_hit / np.maximum(row_sum - beta_hit, 1e-300)
    v = np.zeros_like(z)
    iterations = 0
    for iterations in range(1, max_iters + 1):
        t_m = xi_new + (xi_hit * z).sum(axis=0, keepdims=True)
        v = xi_hit / np.maximum(t_m - xi_hit * z, 1e-300)
        u_k = beta_miss + (beta_hit * v).sum(axis=1, keepdims=True)
        z_next = beta_hit / np.maximum(u_k - beta_hit * v, 1e-300)
        delta = np.max(np.abs(z_next - z) / np.maximum(np.abs(z), 1e-12))
        z = z_next
        if delta < tol:
            break
    eta = np.concatenate([np.ones((n_paths, 1)), v], axis=1)
    sigma_out = np.concatenate([np.ones((n_meas, 1)), z.T], axis=1)
    eta /= eta.sum(axis=1, keepdims=True)
    sigma_out /= sigma_out.sum(axis=1, keepdims=True)
    return eta, sigma_out, iterations


def brute_force_assignment_cost(cost: np.ndarray) -> float:
    """Minimum assignment cost of a square matrix by trying all permutations."""
    n = cost.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(cost[i, perm[i]] for i in range(n)))
    return float(best)


def scipy_ospa(est, truth, cutoff: float, order: float) -> float:
    """OSPA distance with scipy's assignment, summed over the rows in order."""
    est = np.asarray(est, dtype=float).reshape(-1, 2)
    truth = np.asarray(truth, dtype=float).reshape(-1, 2)
    if len(est) > len(truth):
        est, truth = truth, est
    m, n = len(est), len(truth)
    if m == 0:
        return cutoff if n else 0.0
    diff = est[:, None, :] - truth[None, :, :]
    cost = np.minimum(np.hypot(diff[..., 0], diff[..., 1]), cutoff) ** order
    rows, cols = linear_sum_assignment(cost)
    total = float(cost[rows, cols].sum()) + (n - m) * cutoff ** order
    return float((total / n) ** (1.0 / order))


# ---------------------------------------------------------------------------
# Reference ray tracer on (..., 2) points.  The package traces on coordinate
# planes; every elementwise operation here is the same, so both must agree
# bit for bit.
# ---------------------------------------------------------------------------


def _dot(a, b):
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def _along(x, normal):
    return x[..., 1] * normal[..., 0] - x[..., 0] * normal[..., 1]


def _mva_to_va(mva, pa):
    mva = np.asarray(mva, dtype=float)
    pa = np.asarray(pa, dtype=float)
    nrm2 = mva[..., 0] * mva[..., 0] + mva[..., 1] * mva[..., 1]
    bad = nrm2 <= EPS_GEO * EPS_GEO
    denom = np.where(bad, 1.0, nrm2)
    scale = -(2.0 * (mva[..., 0] * pa[..., 0] + mva[..., 1] * pa[..., 1]) / denom - 1.0)
    va = scale[..., None] * mva + pa
    return np.where(bad[..., None], np.nan, va)


def _surface_frame(mva):
    mva = np.asarray(mva, dtype=float)
    norm = np.hypot(mva[..., 0], mva[..., 1])
    ok = norm > EPS_GEO
    return ok, mva / np.where(ok, norm, 1.0)[..., None], 0.5 * norm


def _line_crossing(p, q, normal, offset):
    sd_p = _dot(p, normal) - offset
    sd_q = _dot(q, normal) - offset
    denom = sd_p - sd_q
    safe = np.abs(denom) > 1e-300
    t = np.where(safe, sd_p / np.where(safe, denom, 1.0), 0.0)
    ok = (sd_p * sd_q <= 0.0) & safe
    return ok, p + t[..., None] * (q - p)


def _segment_blocks(p, q, a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    pq = q - p
    cross_ap = ab[..., 0] * (p[..., 1] - a[..., 1]) - ab[..., 1] * (p[..., 0] - a[..., 0])
    cross_aq = ab[..., 0] * (q[..., 1] - a[..., 1]) - ab[..., 1] * (q[..., 0] - a[..., 0])
    cross_pa = pq[..., 0] * (a[..., 1] - p[..., 1]) - pq[..., 1] * (a[..., 0] - p[..., 0])
    cross_pb = pq[..., 0] * (b[..., 1] - p[..., 1]) - pq[..., 1] * (b[..., 0] - p[..., 0])
    crossing = (cross_ap * cross_aq <= 0.0) & (cross_pa * cross_pb <= 0.0)
    hop_len = np.hypot(pq[..., 0], pq[..., 1])
    seg_len = np.hypot(ab[..., 0], ab[..., 1])
    scale = np.maximum(seg_len * hop_len, 1e-300)
    collinear = (np.abs(cross_ap) <= EPS_GEO * scale) & (np.abs(cross_aq) <= EPS_GEO * scale)
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
    rr = np.maximum(_dot(pq, pq), 1e-300)
    t0 = _dot(a - p, pq) / rr
    t1 = _dot(b - p, pq) / rr
    overlap = (np.maximum(t0, t1) > margin) & (np.minimum(t0, t1) < 1.0 - margin)
    return blocked | (collinear & overlap)


def _hop_obstructed(p, q, obstacles):
    blocked = np.False_
    for a, b in obstacles:
        blocked = blocked | _segment_blocks(p, q, a, b)
    return blocked


def backward_trace(agent, pa, bounces, extents, obstacles, check: bool, live=None):
    """Backward-trace one path from the agent to the anchor ``pa``.

    ``bounces`` lists the reflecting surfaces as MVA arrays, the bounce
    nearest the agent first, and ``extents`` each bounce's reflector extent
    ``(lo, hi)``.  The anchor is mirrored across the bounces from the anchor
    side; each hop runs from the previous bounce point toward the next image
    and must cross its surface inside the extent, unobstructed.  Points are
    (..., 2) and everything broadcasts.  Returns ``(va (..., 2),
    available)`` as the trace cache does for one row.  A ``live`` list
    receives, per hop, the mask of hops whose path is still available when
    the hop's obstruction test runs.
    """
    agent = np.asarray(agent, dtype=float)
    images = [np.asarray(pa, dtype=float)]
    for mva in reversed(bounces):
        images.insert(0, _mva_to_va(mva, images[0]))
    valid = np.ones(agent.shape[:-1], dtype=bool)
    available = valid
    p = agent
    for k, mva in enumerate(bounces):
        ok, normal, offset = _surface_frame(mva)
        valid = valid & ok
        if not check:
            continue
        crossed, hit = _line_crossing(p, images[k], normal, offset)
        tau = _along(hit, normal)
        lo, hi = extents[k]
        available = available & crossed & (tau >= lo - EPS_GEO) & (tau <= hi + EPS_GEO)
        if live is not None:
            live.append(valid & available)
        available = available & ~_hop_obstructed(p, hit, obstacles)
        p = hit
    va = np.where(valid[..., None], images[0], 0.0)
    if not check:
        return va, valid
    if live is not None:
        live.append(valid & available)
    return va, valid & available & ~_hop_obstructed(p, images[-1], obstacles)


def trace_entries(rows, agent):
    """:func:`backward_trace`'s ``(va, available)`` of each row on the points ``agent``
    (n, 2), as the trace cache's available entries: ``(flat, (ax, ay))`` at the
    available entries of the stacked (rows, points) availability, in row-major
    order, with the arrival vectors ``agent - va`` there."""
    agent = np.asarray(agent, dtype=float)
    arrival = np.stack([agent - v for v, _ in rows]).reshape(-1, 2)
    flat = np.flatnonzero(np.stack([np.broadcast_to(a, agent.shape[:1]) for _, a in rows]))
    return flat, (arrival[flat, 0], arrival[flat, 1])


def assert_same_entries(got, want):
    """Available entries ``(flat, (ax, ay))`` with the same indices and the same
    arrival-vector bits."""
    (flat, arrival), (want_flat, want_arrival) = got, want
    assert np.array_equal(flat, want_flat)
    for g, w in zip(arrival, want_arrival, strict=True):
        assert g.dtype == w.dtype == np.float64
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def wall_extents(env):
    """Tangential range ``(lo, hi)`` of each wall of ``env`` on its own line, in
    meters, (W, 2): the extents :func:`backward_trace` takes for the true walls."""
    normal = _surface_frame(env.wall_mvas)[1]
    ta = _along(env.wall_ends[:, 0], normal)
    tb = _along(env.wall_ends[:, 1], normal)
    return np.stack([np.minimum(ta, tb), np.maximum(ta, tb)], axis=-1)


def nearest_extents_reference(env, clouds, unit=False):
    """Per-particle nearest-wall extents of ``clouds`` (S, I, 2) on (..., 2) points.

    Returns ``(lo, hi, walls)``: the extents and the index of the wall each
    surface takes, the one whose MVA lies nearest ``clouds.mean(axis=1)``.
    The extents are in the trace cache's line coordinates: along each
    particle's MVA, in units of its length, and widened by ``EPS_GEO`` of
    it.  With ``unit`` they are along the unit normal, in meters and not
    widened, as :func:`backward_trace` takes them.
    """
    means = clouds.mean(axis=1)
    d = np.hypot(env.wall_mvas[:, 0] - means[:, None, 0], env.wall_mvas[:, 1] - means[:, None, 1])
    walls = np.argmin(d, axis=1)
    ends = env.wall_ends[walls]
    normal = _surface_frame(clouds)[1] if unit else clouds
    ta = _along(ends[:, None, 0], normal)
    tb = _along(ends[:, None, 1], normal)
    lo, hi = np.minimum(ta, tb), np.maximum(ta, tb)
    if unit:
        return lo, hi, walls
    margin = EPS_GEO * np.hypot(clouds[..., 0], clouds[..., 1])
    return lo - margin, hi + margin, walls


def block_likelihood_reference(headings, arrival, avail, z, sigma_d, sigma_phi):
    """The filter's block likelihood on (..., 2) points, laid out (entries, measurements).

    ``arrival`` (R, I, 2) holds the arrival vectors, each particle minus its
    VA.  Returns ``(rows, parts, lik (n, M))`` at the available entries whose
    particle lies farther than ``EPS_GEO`` from its VA, in row-major order.
    """
    rows, parts = np.nonzero(avail)
    diff = arrival[rows, parts]
    d = np.hypot(diff[:, 0], diff[:, 1])
    keep = d > EPS_GEO
    rows, parts, diff, d = rows[keep], parts[keep], diff[keep], d[keep]
    phi = np.arctan2(diff[:, 1], diff[:, 0]) - headings[parts]
    dphi = z[:, 1] - phi[:, None]
    dphi = dphi - TWO_PI * (dphi > np.pi)
    dphi = dphi + TWO_PI * (dphi < -np.pi)
    dd = (z[:, 0] - d[:, None]) / sigma_d
    dphi = dphi / sigma_phi
    lik = np.exp(-0.5 * (np.square(dd) + np.square(dphi)))
    return rows, parts, lik / (TWO_PI * sigma_d * sigma_phi)


def candidate_bounces(n_surfaces, double):
    """Every candidate path's bounce tuple, in the truth table's column order."""
    paths = [()] + [(s,) for s in range(n_surfaces)]
    if double:
        paths += [(s, s2) for s in range(n_surfaces) for s2 in range(n_surfaces) if s2 != s]
    return paths


def unit_normal(surface):
    """Unit normal of a surface line (pointing away from the origin)."""
    return surface.mva / np.linalg.norm(surface.mva)


def line_point(surface):
    """A point on a surface line (the foot of the origin's mirror)."""
    return surface.mva / 2.0


def double_bounce_va(mva_s, mva_s2, pa):
    """VA of a two-reflection path: last bounce at ``mva_s``'s surface.

    Composition of the single transform: the anchor is first mirrored across
    the surface of ``mva_s2`` (the bounce nearest the anchor), then across
    the surface of ``mva_s`` (the bounce nearest the agent).
    """
    return mva_to_va(mva_s, mva_to_va(mva_s2, pa))


def mirror_point(p, surface):
    """Mirror point(s) ``p`` across a surface: ``p + 2 (u.e - u.p) u``."""
    p = np.asarray(p, dtype=float)
    u = unit_normal(surface)
    e = line_point(surface)
    return p + 2.0 * (np.dot(e, u) - p @ u)[..., None] * u


@dataclass(frozen=True)
class Measurement:
    """One (distance, angle-of-arrival) pair."""

    z_d: float
    z_phi: float


def gaussian_pdf(x, mu, sigma):
    """Scalar/array Gaussian density."""
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (np.sqrt(2.0 * math.pi) * sigma)


def predicted_measurement(agent_pos, heading, bounces, pa, mva_s=None, mva_s2=None):
    """Noise-free (distance, angle) of the path ``bounces`` at the given agent state."""
    if not bounces:
        va = np.asarray(pa, dtype=float)
    elif len(bounces) == 1:
        va = mva_to_va(mva_s, pa)
    else:
        va = double_bounce_va(mva_s, mva_s2, pa)
    return path_distance_angle(np.subtract(agent_pos, va), heading)


def likelihood(z, agent_pos, heading, bounces, pa, mva_s=None, mva_s2=None, *, profile):
    """Likelihood of measurement ``z`` under the path hypothesis ``bounces``.

    Gaussian in distance and in the wrapped angle difference, with the noise
    levels of the path kind's entry in ``profile``.
    """
    noise = getattr(profile, KINDS[len(bounces)])
    d, phi = predicted_measurement(agent_pos, heading, bounces, pa, mva_s, mva_s2)
    return float(gaussian_pdf(z.z_d, d, noise.sigma_d)
                 * gaussian_pdf(wrap_angle(z.z_phi - phi), 0.0, noise.sigma_phi))


def dedupe_points_loop(points, tol):
    """Keep each point unless it lies within ``tol`` of an earlier kept point."""
    kept = []
    for q in np.asarray(points, dtype=float).reshape(-1, 2):
        if not any(np.hypot(*(q - k)) <= tol for k in kept):
            kept.append(q)
    return np.array(kept).reshape(-1, 2)


def systematic_resample_reference(weights, rng):
    """Systematic resampling of one normalized weight vector (n,) with one ``rng.random()``."""
    n = weights.size
    positions = (rng.random() + np.arange(n)) / n
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, positions)


def _dense_lik(rows, parts, lik, avail):
    full = np.zeros(avail.shape + lik.shape[1:])
    full[rows, parts] = lik
    return full


def dense_lik_sums(rows, parts, lik, avail):
    """Per-row likelihood sums over the particles from a dense (R, I, M) tensor."""
    return _dense_lik(rows, parts, lik, avail).sum(axis=1)


def dense_response(rows, parts, lik, avail, eta, denom, p_d):
    """Per-particle row responses (R, I) from a dense (R, I, M) likelihood tensor."""
    resp = eta[:, :1] * (1.0 - avail * p_d)
    eta_m = eta[:, 1:] / denom
    return resp + p_d * np.einsum("rim,rm->ri", _dense_lik(rows, parts, lik, avail), eta_m)


def draw_new_pmva_reference(z_d, z_phi, sigma_d, sigma_phi, agent, pa, params, rng):
    """A new feature's particle cloud (I, 2) from one measurement, one measurement at a time.

    The reference of the filter's batched proposals: per agent particle, the
    jittered measurement is inverted to a VA and then an MVA, and degenerate
    inversions (VA at the anchor) are replaced by birth-region draws, all x
    draws then all y draws, right after this measurement's noise.  Without a
    degenerate inversion it draws what the batch draws, in the same order.
    """
    pa = np.asarray(pa, dtype=float)
    n = agent.n_particles
    zd = z_d + sigma_d * rng.standard_normal(n)
    zphi = z_phi + sigma_phi * rng.standard_normal(n)
    theta = zphi + agent.headings
    va = agent.particles[:, :2] - zd[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    mva = va_to_mva(va, pa)
    bad = ~np.all(np.isfinite(mva), axis=1)
    if np.any(bad):
        (xlo, xhi), (ylo, yhi) = params.birth_region
        mva[bad] = np.stack([xlo + (xhi - xlo) * rng.random(int(bad.sum())),
                             ylo + (yhi - ylo) * rng.random(int(bad.sum()))], axis=1)
    return mva


def process_pa_reference(agent, log_weights, features, batch, pa, params, profile, clutter,
                         rng, ctx):
    """Agent log-weights and feature existences of one anchor block, updated densely.

    ``features`` is the engine's ``FeatureMap``.

    The filter's model with every row block held whole: availability and
    arrival vectors (R, I) scattered from the traced available entries, a likelihood
    (R, I, M) at every element without a gate, responses (R, I), and
    per-feature sums that add one row at a time.  Where no proposal
    inversion is degenerate, ``rng`` is drawn from as the filter draws from
    it up to its resampling.  Returns ``(log_weights, existences)``: the
    legacy features' existences, then the new features', before pruning.
    """
    pa = np.asarray(pa, dtype=float)
    agent_xy = agent.particles[:, :2]
    n_part, s_count, n_meas = agent.n_particles, len(features), len(batch)
    pe = features.existence
    denom = max(clutter.mu_fp * clutter.density, 1e-12)
    props = np.array([draw_new_pmva_reference(float(z_d), float(z_phi), profile.single.sigma_d,
                                              profile.single.sigma_phi, agent, pa, params, rng)
                      for z_d, z_phi in batch]).reshape(n_meas, n_part, 2)
    traces = ctx.feature_traces(features.particles, pa, params.visibility_check)
    blocks = []
    for kind, members in candidate_blocks(s_count, params.use_double_bounce):
        exist = np.prod(pe[members], axis=1)
        if kind == "double":
            keep = exist >= params.pair_existence_floor
            members, exist = members[keep], exist[keep]
            if not len(members):
                continue
        flat, entry_arrival = traces.available_entries(agent_xy, members)
        avail = np.zeros((len(members), n_part), dtype=bool)
        avail.reshape(-1)[flat] = True
        arrival = np.zeros((len(members), n_part, 2))
        arrival.reshape(-1, 2)[flat] = np.stack(entry_arrival, axis=-1)
        noise = getattr(profile, kind)
        rows, parts, lik = block_likelihood_reference(
            agent.headings, arrival, avail, batch, noise.sigma_d, noise.sigma_phi)
        blocks.append((kind, members, exist, avail, _dense_lik(rows, parts, lik, avail)))

    (xlo, xhi), (ylo, yhi) = params.birth_region
    px, py = props[..., 0], props[..., 1]
    f_birth = ((px >= xlo) & (px <= xhi) & (py >= ylo) & (py <= yhi)) / params.birth_area
    beta = np.concatenate([np.zeros((0, n_meas + 1))] + [
        np.concatenate([(exist * np.mean(1.0 - avail * params.p_detect(kind), axis=1)
                         + (1.0 - exist))[:, None],
                        exist[:, None] * params.p_detect(kind) * lik.sum(axis=1)
                        / n_part / denom], axis=1)
        for kind, _, exist, avail, lik in blocks])
    xi_new = 1.0 + params.mu_new * f_birth.mean(axis=1) / denom
    assoc = association.run_association(beta, xi_new, max_iters=params.assoc_max_iters,
                                        tol=params.assoc_tol)

    log_g1 = np.zeros((s_count, n_part))
    log_g0 = np.zeros(s_count)
    first = 0
    with np.errstate(divide="ignore"):
        for kind, members, exist, avail, lik in blocks:
            eta = assoc.eta[first:first + len(members)]
            first += len(members)
            eta0 = eta[:, :1]
            p_d = params.p_detect(kind)
            resp = eta0 * (1.0 - avail * p_d) + p_d * np.einsum("rim,rm->ri", lik,
                                                                eta[:, 1:] / denom)
            log_weights = log_weights + np.log(np.maximum(
                exist[:, None] * resp + eta0 * (1.0 - exist[:, None]), 0.0)).sum(axis=0)
            for r, row in enumerate(members):
                for j, s in enumerate(row):
                    others = np.prod(np.delete(pe[row], j))
                    log_g1[s] += np.log(np.maximum(others * resp[r] + eta0[r] * (1.0 - others),
                                                   0.0))
                    log_g0[s] += np.log(max(eta0[r, 0], 1e-300))

    existences = []
    for s, e in enumerate(pe):
        top = np.max(log_g1[s])
        if not np.isfinite(top):
            existences.append(0.0)
            continue
        log_mass1 = (np.log(e) if e > 0 else -np.inf) + top + np.log(
            np.mean(np.exp(log_g1[s] - top)))
        log_mass0 = (np.log1p(-e) if e < 1 else -np.inf) + log_g0[s]
        existences.append(float(np.exp(log_mass1 - np.logaddexp(log_mass1, log_mass0))))
    for m in range(n_meas):
        num = assoc.sigma_out[m, 0] * params.mu_new * f_birth[m].mean() / denom
        existences.append(float(num / (1.0 + num)) if f_birth[m].sum() > 0 else 0.0)
    return log_weights, existences
