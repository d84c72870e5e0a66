"""Particle-based sum-product SLAM filter.

One time step runs: agent and feature prediction, a sequential update block
per physical anchor (measurement evaluation, loopy-BP data association,
agent / legacy-feature / new-feature updates, resampling, pruning), and a
final agent belief and estimate computation.

Map features are potential master virtual anchors (PMVAs): a particle cloud
over the MVA position plus a scalar existence probability.  New features
are proposed from each measurement by inverting the measurement map through
every agent particle; they become legacy features for the next anchor.
The map is one :class:`FeatureMap` of arrays in birth order: each anchor
block appends its new features after the survivors, so a feature's row is
its age.  Only a legacy feature's updated existence is computed one feature
at a time, in ``math`` scalars, because numpy's ``log`` / ``log1p`` / ``exp``
round differently on some arguments and the outputs are pinned bit for bit.

Per-particle weights and existence ratios are accumulated in the log domain
throughout; products over feature rows would underflow otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .association import run_association
from .errors import DegenerateWeights
from .geometry import EPS_GEO, WallSegment, va_to_mva
from .measurement import ClutterModel, NoiseProfile, TWO_PI
from .raytrace import Environment, candidate_blocks, row_slices

_DENOM_FLOOR = 1e-12
_PRIOR_POS_HALFWIDTH = 0.5  # m, half-width of the uniform prior box around the start
_PRIOR_VEL_HALFWIDTH = 0.1  # m/s, half-width of the uniform prior velocity box
# Distance gate half-width G in sigma_d: a value it drops is below exp(-G^2 / 2)
# ~ 1.4e-49 of the peak density 1 / (2 pi sigma_d sigma_phi), whatever the angle
_GATE_SIGMAS = 15.0


@dataclass
class HyperParams:
    """Filter hyperparameters; defaults follow the synthetic-experiment setup."""

    p_survival: float = 0.999
    p_detect_los: float = 0.95
    p_detect_single: float = 0.95
    p_detect_double: float = 0.95
    mu_new: float = 0.05
    birth_region: tuple[tuple[float, float], tuple[float, float]] = ((-15.0, 15.0), (-15.0, 15.0))
    p_confirm: float = 0.5
    p_prune: float = 1e-3
    max_features: int = 30
    sigma_regularization: float = 1e-2
    sigma_accel: float = 9e-3
    dt: float = 1.0
    n_particles: int = 5000
    assoc_max_iters: int = 20
    assoc_tol: float = 1e-6
    use_double_bounce: bool = True
    visibility_check: bool = True
    eps_velocity: float = 1e-3
    # pair rows whose joint existence falls below this floor carry negligible
    # probability mass and are skipped for speed (0 disables the floor)
    pair_existence_floor: float = 3e-4

    def __post_init__(self):
        for name in ("p_survival", "p_confirm", "p_prune"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")
        for kind in ("los", "single", "double"):
            value = self.p_detect(kind)
            if not 0.0 <= value < 1.0:
                raise ValueError(
                    f"p_detect_{kind}={value} outside [0, 1): a path detected with certainty "
                    "leaves no missed-detection evidence, so its evidence row vanishes "
                    "wherever the path is available")
        if self.p_prune >= self.p_confirm:
            raise ValueError("pruning threshold must lie below the confirmation threshold")
        for name in ("sigma_regularization", "sigma_accel", "dt"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name}={value} must be positive and finite")
        if not 0.0 <= self.mu_new < math.inf:
            raise ValueError(f"mu_new={self.mu_new} must be non-negative and finite")
        if self.n_particles < 1 or self.max_features < 1:
            raise ValueError("n_particles and max_features must be positive")
        if self.assoc_max_iters < 1:
            raise ValueError(f"assoc_max_iters={self.assoc_max_iters} must be at least 1: "
                             "association without an iteration leaves no marginals")
        for name in ("assoc_tol", "eps_velocity"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name}={value} must be non-negative")
        if not 0.0 <= self.pair_existence_floor <= 1.0:
            raise ValueError(f"pair_existence_floor={self.pair_existence_floor} outside [0, 1]")
        (xlo, xhi), (ylo, yhi) = self.birth_region
        if not (xhi > xlo and yhi > ylo and self.birth_area < math.inf):
            raise ValueError(f"birth_region={self.birth_region} must have positive, finite area")

    def p_detect(self, kind: str) -> float:
        """Base detection probability of a path kind: "los", "single" or "double"."""
        return {"los": self.p_detect_los, "single": self.p_detect_single,
                "double": self.p_detect_double}[kind]

    @property
    def birth_area(self) -> float:
        (xlo, xhi), (ylo, yhi) = self.birth_region
        return (xhi - xlo) * (yhi - ylo)


@dataclass
class AgentBelief:
    """Equally weighted particle set over the agent state [px, py, vx, vy].

    Every step ends by resampling, so the particles carry equal weights.
    ``headings`` carries each particle's last well-defined heading; it is
    refreshed from the velocity whenever the speed exceeds ``eps_velocity``.
    """

    particles: np.ndarray  # (I, 4)
    headings: np.ndarray   # (I,)

    @property
    def n_particles(self) -> int:
        return self.particles.shape[0]

    def mean(self) -> np.ndarray:
        return self.particles.sum(axis=0) / self.n_particles


@dataclass
class FeatureMap:
    """The potential MVAs in birth order: equally weighted position particles plus existence."""

    particles: np.ndarray  # (S, I, 2)
    existence: np.ndarray  # (S,)

    def __len__(self) -> int:
        return len(self.existence)


@dataclass
class StepEstimate:
    """Per-step outputs: agent MMSE estimate and the confirmed map."""

    x_hat: np.ndarray            # (4,)
    mva_positions: np.ndarray    # (S_hat, 2)


def ncv_step(x: np.ndarray, accel, dt: float) -> np.ndarray:
    """One nearly-constant-velocity step of states ``x`` (..., 4) = [px, py, vx, vy].

    The accelerations ``accel`` (..., 2) act over the step:
    p' = p + dt v + dt^2 / 2 a and v' = v + dt a.
    """
    pos, vel = x[..., :2], x[..., 2:]
    out = np.empty(x.shape)
    out[..., :2] = pos + dt * vel + (dt * dt / 2.0) * accel
    out[..., 2:] = vel + dt * accel
    return out


def systematic_resample(weights: np.ndarray, offsets) -> np.ndarray:
    """Low-variance resampling of weights (n,), or of each row of (k, n).

    Each row strides its CDF from its uniform offset in [0, 1): ``offsets``
    holds one per row, (k,) for (k, n) weights and one number for (n,).
    """
    weights = np.asarray(weights, dtype=float)
    n = weights.shape[-1]
    rows = weights.reshape(-1, n)
    idx = np.empty(rows.shape, dtype=np.intp)
    # one search per row: shifting the rows apart to search them at once would round the CDFs
    for row, (w, offset) in enumerate(zip(rows, np.reshape(offsets, -1), strict=True)):
        cdf = np.cumsum(w)
        cdf[-1] = 1.0
        idx[row] = np.searchsorted(cdf, (offset + np.arange(n)) / n)
    return idx.reshape(weights.shape)


def _refresh_headings(velocities: np.ndarray, previous: np.ndarray, eps: float) -> np.ndarray:
    speed = np.hypot(velocities[:, 0], velocities[:, 1])
    return np.where(speed > eps, np.arctan2(velocities[:, 1], velocities[:, 0]), previous)


def initial_agent_belief(start_pos, params: HyperParams, rng: np.random.Generator) -> AgentBelief:
    """Uniform prior box around the starting position with near-zero velocity."""
    n = params.n_particles
    start = np.asarray(start_pos, dtype=float)
    particles = np.empty((n, 4))
    particles[:, :2] = start + _PRIOR_POS_HALFWIDTH * (2.0 * rng.random((n, 2)) - 1.0)
    particles[:, 2:] = _PRIOR_VEL_HALFWIDTH * (2.0 * rng.random((n, 2)) - 1.0)
    headings = _refresh_headings(particles[:, 2:], np.zeros(n), params.eps_velocity)
    return AgentBelief(particles=particles, headings=headings)


def predict_agent(belief: AgentBelief, params: HyperParams, rng: np.random.Generator) -> AgentBelief:
    """Propagate every particle through the NCV model (:func:`ncv_step`)."""
    noise = params.sigma_accel * rng.standard_normal((belief.n_particles, 2))
    particles = ncv_step(belief.particles, noise, params.dt)
    headings = _refresh_headings(particles[:, 2:], belief.headings, params.eps_velocity)
    return AgentBelief(particles=particles, headings=headings)


def predict_legacy(features: FeatureMap, params: HyperParams,
                   rng: np.random.Generator) -> FeatureMap:
    """Survival-decay the existence and jitter the position particles."""
    particles = rng.standard_normal(features.particles.shape)
    particles *= params.sigma_regularization
    particles += features.particles
    return FeatureMap(particles=particles, existence=params.p_survival * features.existence)


def _draw_proposals(batch: np.ndarray, sigma_d: float, sigma_phi: float, agent: AgentBelief,
                    pa: np.ndarray, params: HyperParams, rng: np.random.Generator) -> np.ndarray:
    """Propose a new feature's particle cloud from every measurement of ``batch``, (M, I, 2).

    Per agent particle, each measurement (jittered by its noise, one ``(M,
    2, I)`` draw) is inverted: the VA sits at distance z_d and bearing z_phi
    + heading from the agent, and the MVA follows from the inverse
    single-bounce transform.  Degenerate inversions (VA at the anchor) are
    replaced by birth-region points, drawn after the noise as one ``(k, 2)``
    draw, x then y per point.
    """
    noise = rng.standard_normal((len(batch), 2, agent.n_particles))
    zd = batch[:, :1] + sigma_d * noise[:, 0]
    theta = batch[:, 1:] + sigma_phi * noise[:, 1] + agent.headings
    va = agent.particles[:, :2] - zd[..., None] * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    mva = va_to_mva(va, pa)
    bad = ~(np.isfinite(mva[..., 0]) & np.isfinite(mva[..., 1]))
    if bad.any():
        (xlo, xhi), (ylo, yhi) = params.birth_region
        mva[bad] = (xlo, ylo) + (xhi - xlo, yhi - ylo) * rng.random((np.count_nonzero(bad), 2))
    return mva


# ---------------------------------------------------------------------------
# Per-anchor update block
# ---------------------------------------------------------------------------


def _log_sum_exp(values: np.ndarray) -> np.ndarray:
    """``log(sum(exp(values)))`` over the last axis; -inf where its maximum is not finite."""
    top = np.max(values, axis=-1, keepdims=True)
    with np.errstate(invalid="ignore"):
        lse = top[..., 0] + np.log(np.sum(np.exp(values - top), axis=-1))
    return np.where(np.isfinite(top[..., 0]), lse, -np.inf)


def _block_likelihood(headings, flat, arrival, z, sigma_d, sigma_phi):
    """Likelihood of a block of rows inside the distance gate.

    ``flat`` (n,) holds the row-major indices of the block's available
    (row, particle) entries, in increasing order, and ``arrival`` (n,) the
    ``(x, y)`` planes of their arrival vectors, the particle minus its VA,
    as :meth:`~mvaslam.raytrace.SurfaceTraces.available_entries` returns
    them; ``headings`` (I,) are the particles' headings.  Returns ``(rows,
    parts, gates, lik)``.  ``rows`` and ``parts`` index the entries, sorted
    by the distance from the particle to its VA, so the entries within
    ``EPS_GEO`` of their VA, which score nothing, come first.  Measurement
    m is scored on the entry slice ``gates[m]``, the entries off their VA
    whose distance lies within ``G = _GATE_SIGMAS`` sigma_d of its own, and
    ``lik[m]`` holds those float64 values.  The block's other (R, I, M)
    elements are taken as zero: one the gate drops is below ``exp(-G^2 /
    2) / (2 pi sigma_d sigma_phi)``, whatever its angle.  ``sigma_d`` /
    ``sigma_phi`` are the noise levels of the block's path kind.
    """
    ax, ay = arrival
    dist = np.hypot(ax, ay)
    phi = np.arctan2(ay, ax)
    order = np.argsort(dist)
    d = dist[order]
    if np.any(d[1:] == d[:-1]):
        # entries at equal distance keep their row-major order on every platform
        order = np.argsort(dist, kind="stable")
    del dist      # each entry-sized array goes once it is used: they set the block's peak
    rows, parts = np.divmod(flat[order], len(headings))
    phi = phi[order]
    del order
    phi -= headings[parts]
    scoring = np.searchsorted(d, EPS_GEO, side="right")
    reach = _GATE_SIGMAS * sigma_d
    lo = np.maximum(np.searchsorted(d, z[:, 0] - reach, side="left"), scoring)
    hi = np.maximum(np.searchsorted(d, z[:, 0] + reach, side="right"), lo)
    counts = hi - lo
    gates = [slice(a, b) for a, b in zip(lo.tolist(), hi.tolist())]

    # every measurement's run of entries, one after the other
    def runs(x):
        return np.concatenate([x[:0]] + [x[gate] for gate in gates])

    dphi = np.repeat(z[:, 1], counts) - runs(phi)
    # inputs lie in (-3 pi, 3 pi): two conditional shifts wrap to [-pi, pi]
    dphi -= TWO_PI * (dphi > np.pi)
    dphi += TWO_PI * (dphi < -np.pi)
    dphi /= sigma_phi
    dd = np.repeat(z[:, 0], counts) - runs(d)
    dd /= sigma_d
    # single fused exponential, in place; the bivariate normalizer is factored out front
    lik = np.square(dd, out=dd)
    lik += np.square(dphi, out=dphi)
    del dphi
    lik *= -0.5
    np.exp(lik, out=lik)
    lik /= (TWO_PI * sigma_d * sigma_phi)
    starts = (np.cumsum(counts) - counts).tolist()
    lik = [lik[a:a + c] for a, c in zip(starts, counts.tolist())]
    return rows, parts, gates, lik


@dataclass
class _RowBlock:
    """One slice of the evidence-table rows of one path kind.

    ``members`` (R, k) lists the legacy features each row bounces off, the
    one nearest the agent first: (R, 0) for LOS, (R, 1) for single bounces
    and (R, 2) for active ordered pairs, R consecutive rows of their block
    (:func:`~mvaslam.raytrace.row_slices`), which ``rows`` places in the
    evidence table.  A row exists when all its members do, so ``exist`` is
    the product of their existences (1 for LOS).
    ``entries`` holds the (row, particle) indices where the path is
    available, ``gates`` and ``lik`` the likelihood on them, as
    :func:`_block_likelihood` returns them.  Where a path is unavailable its
    detection probability is 0, so there the row's factors are constants.
    """

    kind: str
    members: np.ndarray
    rows: slice          # position in the evidence table
    exist: np.ndarray    # (R,)
    entries: tuple[np.ndarray, np.ndarray]  # (n,) row and (n,) particle indices
    gates: list[slice]   # M entry slices, one per measurement
    lik: list[np.ndarray]  # M arrays, one value per entry of the measurement's slice

    def lik_sums(self) -> np.ndarray:
        """Likelihood summed over the particles, (R, M) float64."""
        n_rows = len(self.members)
        rows = self.entries[0]
        sums = np.empty((n_rows, len(self.lik)))
        for m, (gate, lik) in enumerate(zip(self.gates, self.lik)):
            sums[:, m] = np.bincount(rows[gate], weights=lik, minlength=n_rows)
        return sums

    def response(self, eta: np.ndarray, denom: float, p_d: float) -> np.ndarray:
        """Response (n,) of the rows to their messages ``eta`` (R, M+1) at the entries.

        The missed-detection term ``eta[:, 0] (1 - p_d)`` plus the
        likelihood mixture ``p_d sum_m lik eta[:, m] / denom``, accumulated
        in float64 in measurement order, where ``denom`` is the clutter
        denominator.  Off the entries the response is ``eta[:, 0]``.
        """
        rows = self.entries[0]
        mixture = np.zeros(len(rows))
        for gate, lik, eta_m in zip(self.gates, self.lik, (eta[:, 1:] / denom).T):
            mixture[gate] += lik * eta_m[rows[gate]]
        return eta[rows, 0] * (1.0 - p_d) + p_d * mixture


def _row_log_sums(weight, eta0, resp, entries, groups, out):
    """Add to ``out`` (G, I) the sums over rows of ``log(max(weight resp + eta0 (1 - weight), 0))``.

    ``weight``, ``eta0`` and ``groups`` are per row (R,), ``groups`` naming
    the row of ``out`` each row adds to; ``resp`` is the rows' response at
    their ``entries`` (:meth:`_RowBlock.response`).  Off the entries the
    response is ``eta0``, so a row adds one constant to every particle of
    its group, and its entries add their difference from it.  A row whose
    constant is -inf (``eta0`` 0) makes the sum -inf wherever it has no
    entry.  Only the rows of ``out`` from the least group named to the
    greatest are summed and touched, so a slice of rows costs its own span.
    """
    lo, hi = groups.min(), groups.max() + 1
    groups = groups - lo
    n_groups, n_part = hi - lo, out.shape[1]
    rows, parts = entries
    const = np.log(np.maximum(weight * eta0 + eta0 * (1.0 - weight), 0.0))
    weight, eta0 = weight[rows], eta0[rows]
    at_entries = np.log(np.maximum(weight * resp + eta0 * (1.0 - weight), 0.0))
    finite = np.isfinite(const)
    const = np.where(finite, const, 0.0)
    cells = groups[rows] * n_part + parts
    sums = np.bincount(cells, weights=at_entries - const[rows], minlength=n_groups * n_part)
    sums = sums.reshape(n_groups, n_part) + np.bincount(groups, weights=const,
                                                        minlength=n_groups)[:, None]
    if not finite.all():
        dead = ~finite
        covered = np.bincount(cells[dead[rows]], minlength=n_groups * n_part)
        needed = np.bincount(groups[dead], minlength=n_groups)
        sums[covered.reshape(n_groups, n_part) < needed[:, None]] = -np.inf
    out[lo:hi] += sums


def process_pa(agent: AgentBelief, log_weights: np.ndarray, features: FeatureMap,
               batch: np.ndarray, pa, params: HyperParams,
               profile: NoiseProfile, clutter: ClutterModel,
               rng: np.random.Generator,
               ctx: Environment) -> tuple[np.ndarray, FeatureMap]:
    """One anchor's update block.

    Takes the map as the previous anchor block left it and this anchor's
    measurements ``batch`` (M, 2), rows of (distance, angle).  Proposes new
    features from the measurements, evaluates all candidate-path rows (LOS,
    one single-bounce row per feature, ordered double-bounce rows per
    feature pair), runs data association, and applies the agent, legacy-
    feature, and new-feature updates with per-feature resampling and
    pruning.  Returns the updated agent log-weights and the map: the
    surviving features in their order, followed by this anchor's surviving
    new features.  ``ctx`` holds the scenario's true walls (reflector
    extents) and blockers (obstructions).

    Each row block is traced and scored a slice of rows at a time
    (:func:`~mvaslam.raytrace.row_slices`), one :class:`_RowBlock` per
    slice, so the per-entry temporaries are bounded by a slice, not by the
    block.  A row lies in one slice and keeps its entries' order, so the
    evidence table, the association and every row's response are those of
    the whole block; only the sums over rows add slice by slice.  The trace
    cache is dropped once the last slice is scored, as the association and
    the updates never read it.
    """
    pa = np.asarray(pa, dtype=float)
    s_count = len(features)
    n_meas = len(batch)
    agent_xy = agent.particles[:, :2]
    n_part = agent.n_particles
    pe = features.existence

    # clutter denominator: the clutter intensity, the same at every measurement
    denom = max(clutter.mu_fp * clutter.density, _DENOM_FLOOR)

    # new-feature proposal clouds, one per measurement, (M, I, 2)
    props = _draw_proposals(batch, profile.single.sigma_d, profile.single.sigma_phi,
                            agent, pa, params, rng)

    # availability and likelihood per slice of a row block, in evidence-table
    # order: LOS, singles, and the ordered pairs whose joint existence reaches the floor
    traces = ctx.feature_traces(features.particles, pa, params.visibility_check)
    blocks: list[_RowBlock] = []
    n_rows = 0
    for kind, members in candidate_blocks(s_count, params.use_double_bounce):
        exist = np.prod(pe[members], axis=1)
        if kind == "double":
            keep = exist >= params.pair_existence_floor
            members, exist = members[keep], exist[keep]
        noise = getattr(profile, kind)
        for part in row_slices(len(members), n_part):
            sliced = members[part]
            rows, parts, gates, lik = _block_likelihood(
                agent.headings, *traces.available_entries(agent_xy, sliced), batch,
                noise.sigma_d, noise.sigma_phi)
            blocks.append(_RowBlock(kind, sliced, slice(n_rows, n_rows + len(sliced)),
                                    exist[part], (rows, parts), gates, lik))
            n_rows += len(sliced)
    del traces      # nothing after the scoring reads it: free it first

    # birth-density values of the proposal clouds, (M, I)
    (xlo, xhi), (ylo, yhi) = params.birth_region
    px, py = props[..., 0], props[..., 1]
    f_birth = ((px >= xlo) & (px <= xhi) & (py >= ylo) & (py <= yhi)) / params.birth_area
    birth_mean = f_birth.mean(axis=1)

    # evidence tables; an unavailable path is detected with probability 0
    beta = np.empty((n_rows, n_meas + 1))
    for b in blocks:
        p_d = params.p_detect(b.kind)
        available = np.bincount(b.entries[0], minlength=len(b.members))
        beta[b.rows, 0] = b.exist * (1.0 - p_d * available / n_part) + (1.0 - b.exist)
        beta[b.rows, 1:] = b.exist[:, None] * p_d * b.lik_sums() / n_part / denom
    # a measurement's evidence is 1 for every tracked path; only "new or clutter" varies
    xi_new = 1.0 + params.mu_new * birth_mean / denom
    assoc = run_association(beta, xi_new, max_iters=params.assoc_max_iters, tol=params.assoc_tol)
    eta = assoc.eta
    sigma_msg = assoc.sigma_out

    # per-row responses (eta-weighted likelihood mixtures, one per particle).
    # The agent update multiplies every row's message, which mixes the
    # response with the row's nonexistence.  A legacy feature's updated
    # particle weight multiplies the messages of every row it is a member
    # of; the message to a member uses the other members' existence, and
    # the existence ratio uses the same product for the nonexistence mass.
    log_weights = log_weights.copy()
    log_g1 = np.zeros((s_count, n_part))
    log_g0 = np.zeros(s_count)
    with np.errstate(divide="ignore"):
        for b in blocks:
            eta_b = eta[b.rows]
            eta0 = eta_b[:, 0]
            resp = b.response(eta_b, denom, params.p_detect(b.kind))
            n_members = b.members.shape[1]
            _row_log_sums(b.exist, eta0, resp, b.entries, np.zeros(len(eta0), dtype=np.intp),
                          log_weights[None])
            log_eta0 = np.log(np.maximum(eta0, 1e-300))
            member_pe = pe[b.members]
            for j in range(n_members):
                others = np.prod(member_pe[:, np.arange(n_members) != j], axis=1)
                _row_log_sums(others, eta0, resp, b.entries, b.members[:, j], log_g1)
                log_g0 += np.bincount(b.members[:, j], weights=log_eta0, minlength=s_count)
    if not np.any(np.isfinite(log_weights)):
        raise DegenerateWeights("agent particle weights underflowed during a PA block")

    # legacy update: existence, and a resampling row per feature whose weights do not vanish
    lse = _log_sum_exp(log_g1)
    live = np.isfinite(lse)
    existence = np.zeros(s_count + n_meas)
    for s in np.flatnonzero(live).tolist():
        e = float(pe[s])
        log_mass1 = (math.log(e) if e > 0 else -np.inf) + float(lse[s]) - math.log(n_part)
        log_mass0 = (math.log1p(-e) if e < 1 else -np.inf) + log_g0[s]
        top = max(log_mass1, log_mass0)
        existence[s] = (math.exp(log_mass1 - top)
                        / (math.exp(log_mass1 - top) + math.exp(log_mass0 - top)))

    # new-feature update: existence from the unclaimed-measurement message, and a
    # resampling row per proposal that reaches the birth region
    born = birth_mean > 0
    num = sigma_msg[:, 0] * params.mu_new * birth_mean / denom
    existence[s_count:] = np.where(born, num / (1.0 + num), 0.0)

    # pruning, then the cap: the most likely features, ties to the older (earlier)
    # one, kept in birth order
    ranked = np.argsort(-existence, kind="stable")
    keep = np.sort(ranked[existence[ranked] >= params.p_prune][:params.max_features])

    # one resampling pass over the kept rows whose weights do not vanish, legacy rows
    # first; every row whose weights do not vanish draws its offset, kept or not, and
    # the other kept rows keep their particles
    resampled = np.concatenate([live, born])
    offsets = np.empty(s_count + n_meas)
    offsets[resampled] = rng.random(np.count_nonzero(resampled))
    drawn = keep[resampled[keep]]
    old, new = drawn[drawn < s_count], drawn[drawn >= s_count] - s_count
    weights = np.concatenate([np.exp(log_g1[old] - lse[old, None]), f_birth[new]])
    weights /= weights.sum(axis=1, keepdims=True)
    idx = np.tile(np.arange(n_part), (len(keep), 1))
    idx[resampled[keep]] = systematic_resample(weights, offsets[drawn])

    # the kept clouds, legacy then new, each gathered from the flat (rows * I, 2) view
    # of its clouds; mode "clip" (the cells are in range): else np.take buffers ``out``
    n_old = np.count_nonzero(keep < s_count)
    idx[:n_old] += n_part * keep[:n_old, None]
    idx[n_old:] += n_part * (keep[n_old:, None] - s_count)
    particles = np.empty((len(keep), n_part, 2))
    np.take(features.particles.reshape(-1, 2), idx[:n_old], axis=0, out=particles[:n_old],
            mode="clip")
    np.take(props.reshape(-1, 2), idx[n_old:], axis=0, out=particles[n_old:], mode="clip")
    return log_weights, FeatureMap(particles=particles, existence=existence[keep])


def finalize_step(agent: AgentBelief, log_weights: np.ndarray,
                  features: FeatureMap, params: HyperParams,
                  rng: np.random.Generator) -> tuple[AgentBelief, StepEstimate]:
    """Normalize the accumulated agent weights, estimate, and resample."""
    lse = _log_sum_exp(log_weights)
    if not np.isfinite(lse):
        raise DegenerateWeights("all agent particle weights are zero")
    weights = np.exp(log_weights - lse)
    weights /= weights.sum()
    x_hat = (weights[:, None] * agent.particles).sum(axis=0)

    idx = systematic_resample(weights, rng.random())
    particles = agent.particles[idx]
    headings = _refresh_headings(particles[:, 2:], agent.headings[idx], params.eps_velocity)
    resampled = AgentBelief(particles=particles, headings=headings)

    positions = features.particles[features.existence > params.p_confirm].mean(axis=1)
    estimate = StepEstimate(x_hat=x_hat, mva_positions=positions)
    return resampled, estimate


class SlamFilter:
    """Stateful per-step driver around the prediction / update operations."""

    def __init__(self, pas, params: HyperParams, profile: NoiseProfile,
                 clutter: ClutterModel, rng: np.random.Generator,
                 start_pos, extent_walls: Sequence[WallSegment] = (),
                 blockers: Sequence[WallSegment] = ()):
        self.pas = [np.asarray(p, dtype=float) for p in pas]
        self.params = params
        self.profile = profile
        self.clutter = clutter
        self.rng = rng
        self.agent = initial_agent_belief(start_pos, params, rng)
        self.features = FeatureMap(np.zeros((0, params.n_particles, 2)), np.zeros(0))
        self.ctx = Environment(walls=extent_walls, blockers=blockers)

    def step(self, batches: Sequence[np.ndarray]) -> StepEstimate:
        """Advance one time step with one (M, 2) measurement batch per anchor.

        A batch that is not an (M, 2) array of finite values is refused
        before anything changes: the filter has no model for it.

        The agent and the map are replaced stage by stage, so a step that
        raises leaves the filter between two stages: it is unusable, and a
        caller that catches the error abandons the filter.
        """
        if len(batches) != len(self.pas):
            raise ValueError("one measurement batch per anchor is required")
        for j, batch in enumerate(batches):
            if np.ndim(batch) != 2 or np.shape(batch)[1] != 2 or not np.isfinite(batch).all():
                raise ValueError(f"anchor {j}: a batch must be an (M, 2) array of finite values")
        self.agent = predict_agent(self.agent, self.params, self.rng)
        # each stage's map replaces its input at once: the map before prediction is freed
        # before the anchor blocks, and each block's input map when the block returns
        self.features = predict_legacy(self.features, self.params, self.rng)
        log_weights = np.zeros(self.agent.n_particles)
        for pa, batch in zip(self.pas, batches):
            log_weights, self.features = process_pa(
                self.agent, log_weights, self.features, batch, pa,
                self.params, self.profile, self.clutter, self.rng, self.ctx)
        self.agent, estimate = finalize_step(self.agent, log_weights, self.features,
                                             self.params, self.rng)
        return estimate
