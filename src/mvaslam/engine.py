"""Particle-based sum-product SLAM filter.

One time step runs: agent and feature prediction, a sequential update block
per physical anchor (measurement evaluation, loopy-BP data association,
agent / legacy-feature / new-feature updates, resampling, pruning), and a
final agent belief and estimate computation.

Map features are potential master virtual anchors (PMVAs): a particle cloud
over the MVA position plus a scalar existence probability.  New features
are proposed from each measurement by inverting the measurement map through
every agent particle; they become legacy features for the next anchor.

Per-particle weights and existence ratios are accumulated in the log domain
throughout; products over feature rows would underflow otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .association import AssociationInput, run_association
from .errors import DegenerateWeights
from .geometry import EPS_GEO, WallSegment, va_to_mva
from .measurement import ClutterModel, MeasurementBatch, NoiseProfile, TWO_PI
from .raytrace import Environment, backward_trace

_DENOM_FLOOR = 1e-12
_TRACE_CHUNK = 1 << 16  # (row, particle) elements traced per call
# pair rows outnumber the others about S-fold; their likelihood is float32
_LIK_DTYPE = {"los": np.float64, "single": np.float64, "double": np.float32}


@dataclass
class HyperParams:
    """Filter hyperparameters; defaults follow the synthetic-experiment setup."""

    p_survival: float = 0.999
    p_detect_los: float = 0.95
    p_detect_single: float = 0.95
    p_detect_double: float = 0.95
    mu_clutter: float = 1.0
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
        if min(self.sigma_regularization, self.sigma_accel, self.dt) <= 0:
            raise ValueError("noise scales and dt must be positive")
        if self.mu_clutter < 0 or self.mu_new < 0:
            raise ValueError("Poisson means must be non-negative")
        if self.n_particles < 1 or self.max_features < 1:
            raise ValueError("n_particles and max_features must be positive")
        (xlo, xhi), (ylo, yhi) = self.birth_region
        if not (xhi > xlo and yhi > ylo):
            raise ValueError("birth region must have positive area")

    def p_detect(self, kind: str) -> float:
        return getattr(self, f"p_detect_{kind}")

    @property
    def birth_area(self) -> float:
        (xlo, xhi), (ylo, yhi) = self.birth_region
        return (xhi - xlo) * (yhi - ylo)


@dataclass
class AgentBelief:
    """Weighted particle set over the agent state [px, py, vx, vy].

    ``headings`` carries each particle's last well-defined heading; it is
    refreshed from the velocity whenever the speed exceeds ``eps_velocity``.
    """

    particles: np.ndarray  # (I, 4)
    weights: np.ndarray    # (I,), sums to 1
    headings: np.ndarray   # (I,)

    @property
    def n_particles(self) -> int:
        return self.particles.shape[0]

    def mean(self) -> np.ndarray:
        return self.weights @ self.particles


@dataclass
class PmvaBelief:
    """Potential MVA: equally-weighted position particles plus existence."""

    particles: np.ndarray  # (I, 2)
    existence: float
    id: int


@dataclass
class StepEstimate:
    """Per-step outputs: agent MMSE estimate and the confirmed map."""

    x_hat: np.ndarray            # (4,)
    mva_positions: np.ndarray    # (S_hat, 2)
    mva_ids: list[int]
    s_hat: int
    existence: dict[int, float] = field(default_factory=dict)


def ncv_matrices(dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Nearly-constant-velocity discretization: x' = A x + B w."""
    a = np.array([[1.0, 0.0, dt, 0.0],
                  [0.0, 1.0, 0.0, dt],
                  [0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0]])
    b = np.array([[dt * dt / 2.0, 0.0],
                  [0.0, dt * dt / 2.0],
                  [dt, 0.0],
                  [0.0, dt]])
    return a, b


def systematic_resample(weights: np.ndarray, rng: np.random.Generator,
                        n: Optional[int] = None) -> np.ndarray:
    """Low-variance resampling: a single uniform offset strides the CDF."""
    weights = np.asarray(weights, dtype=float)
    n = weights.size if n is None else n
    positions = (rng.random() + np.arange(n)) / n
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, positions)


def _refresh_headings(velocities: np.ndarray, previous: np.ndarray, eps: float) -> np.ndarray:
    speed = np.hypot(velocities[:, 0], velocities[:, 1])
    return np.where(speed > eps, np.arctan2(velocities[:, 1], velocities[:, 0]), previous)


def initial_agent_belief(start_pos, params: HyperParams, rng: np.random.Generator,
                         pos_halfwidth: float = 0.5, vel_halfwidth: float = 0.1) -> AgentBelief:
    """Uniform prior box around the starting position with near-zero velocity."""
    n = params.n_particles
    start = np.asarray(start_pos, dtype=float)
    particles = np.empty((n, 4))
    particles[:, :2] = start + pos_halfwidth * (2.0 * rng.random((n, 2)) - 1.0)
    particles[:, 2:] = vel_halfwidth * (2.0 * rng.random((n, 2)) - 1.0)
    headings = _refresh_headings(particles[:, 2:], np.zeros(n), params.eps_velocity)
    return AgentBelief(particles=particles, weights=np.full(n, 1.0 / n), headings=headings)


def predict_agent(belief: AgentBelief, params: HyperParams, rng: np.random.Generator) -> AgentBelief:
    """Propagate every particle through the NCV model; weights unchanged."""
    a, b = ncv_matrices(params.dt)
    noise = params.sigma_accel * rng.standard_normal((belief.n_particles, 2))
    particles = belief.particles @ a.T + noise @ b.T
    headings = _refresh_headings(particles[:, 2:], belief.headings, params.eps_velocity)
    return AgentBelief(particles=particles, weights=belief.weights.copy(), headings=headings)


def predict_legacy(pmvas: Sequence[PmvaBelief], params: HyperParams,
                   rng: np.random.Generator) -> list[PmvaBelief]:
    """Survival-decay the existence and jitter the position particles."""
    out = []
    for f in pmvas:
        jitter = params.sigma_regularization * rng.standard_normal(f.particles.shape)
        out.append(PmvaBelief(particles=f.particles + jitter,
                              existence=params.p_survival * f.existence, id=f.id))
    return out


def draw_new_pmva(z_d: float, z_phi: float, sigma_d: float, sigma_phi: float,
                  agent: AgentBelief, pa, params: HyperParams,
                  rng: np.random.Generator, feature_id: int = -1) -> PmvaBelief:
    """Propose a new feature from one measurement.

    Per agent particle, the measurement (jittered by its noise) is inverted:
    the VA sits at distance z_d and bearing z_phi + heading from the agent;
    the MVA follows from the inverse single-bounce transform.  Degenerate
    inversions (VA at the anchor) are replaced by birth-region draws.
    Existence starts at zero; the new-feature update sets it.
    """
    pa = np.asarray(pa, dtype=float)
    n = agent.n_particles
    zd = z_d + sigma_d * rng.standard_normal(n)
    zphi = z_phi + sigma_phi * rng.standard_normal(n)
    theta = zphi + agent.headings
    va = agent.particles[:, :2] - zd[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    mva = va_to_mva(va, pa, strict=False)
    bad = ~np.all(np.isfinite(mva), axis=1)
    if np.any(bad):
        (xlo, xhi), (ylo, yhi) = params.birth_region
        draws = np.stack([xlo + (xhi - xlo) * rng.random(int(bad.sum())),
                          ylo + (yhi - ylo) * rng.random(int(bad.sum()))], axis=1)
        mva[bad] = draws
    return PmvaBelief(particles=mva, existence=0.0, id=feature_id)


# ---------------------------------------------------------------------------
# Per-anchor update block
# ---------------------------------------------------------------------------


def _log_sum_exp(values: np.ndarray) -> float:
    m = np.max(values)
    if not np.isfinite(m):
        return -np.inf
    return float(m + np.log(np.sum(np.exp(values - m))))


def _block_likelihood(agent_xy, headings, va, avail, z, sigma_d, sigma_phi,
                      out_dtype=np.float64):
    """Availability-masked likelihood (..., I, M) of a block of rows.

    ``sigma_d`` / ``sigma_phi`` are the noise levels of the block's path
    kind.  The double-bounce block requests float32 output; the distance and
    angle grids are cast up front so no full-size float64 temporary is formed.
    """
    diff = agent_xy - va
    d = np.hypot(diff[..., 0], diff[..., 1])
    phi = np.arctan2(diff[..., 1], diff[..., 0]) - headings
    valid = (d > EPS_GEO) & avail
    d = d.astype(out_dtype, copy=False)
    phi = phi.astype(out_dtype, copy=False)
    z = z.astype(out_dtype, copy=False)
    sigma_d, sigma_phi = out_dtype(sigma_d), out_dtype(sigma_phi)
    dphi = z[:, 1] - phi[..., None]
    # inputs lie in (-3 pi, 3 pi): two conditional shifts wrap to [-pi, pi]
    two_pi = out_dtype(2.0 * np.pi)
    dphi -= two_pi * (dphi > out_dtype(np.pi))
    dphi += two_pi * (dphi < out_dtype(-np.pi))
    dphi /= sigma_phi
    dd = (z[:, 0] - d[..., None]) / sigma_d
    # single fused exponential; the bivariate normalizer is factored out front
    lik = dd * dd
    lik += dphi * dphi
    lik *= out_dtype(-0.5)
    np.exp(lik, out=lik)
    lik /= (TWO_PI * sigma_d * sigma_phi)
    lik *= valid[..., None]
    return lik


@dataclass
class _RowBlock:
    """Evidence-table rows of one path kind.

    ``members`` (R, k) lists the legacy features each row bounces off, the
    one nearest the agent first: (1, 0) for LOS, (S, 1) for single bounces
    and (P, 2) for active ordered pairs.  A row exists when all its members
    do, so ``exist`` is the product of their existences (1 for LOS).
    """

    kind: str
    members: np.ndarray
    rows: slice          # position in the evidence table
    exist: np.ndarray    # (R,)
    avail: np.ndarray    # (R, I)
    lik: np.ndarray      # (R, I, M)


def process_pa(agent: AgentBelief, log_weights: np.ndarray,
               legacy: list[PmvaBelief], new_from_prev: list[PmvaBelief],
               batch: MeasurementBatch, pa, params: HyperParams,
               profile: NoiseProfile, clutter: ClutterModel,
               rng: np.random.Generator, ctx: Environment,
               next_id: list[int]) -> tuple[np.ndarray, list[PmvaBelief], list[PmvaBelief]]:
    """One anchor's update block.

    Stacks the previous anchor's new features as legacy, proposes new
    features from this anchor's measurements, evaluates all candidate-path
    rows (LOS, one single-bounce row per feature, ordered double-bounce
    rows per feature pair), runs data association, and applies the agent,
    legacy-feature, and new-feature updates with per-feature resampling and
    pruning.  Returns the updated agent log-weights and the surviving
    legacy and new feature lists.  ``ctx`` holds the scenario's true walls
    (reflector extents) and blockers (obstructions).
    """
    pa = np.asarray(pa, dtype=float)
    legacy = list(legacy) + list(new_from_prev)
    s_count = len(legacy)
    n_meas = len(batch)
    agent_xy = agent.particles[:, :2]
    n_part = agent.n_particles
    z = batch.z.reshape(n_meas, 2)
    pe = np.array([f.existence for f in legacy])

    denom = np.maximum(params.mu_clutter * clutter.density, _DENOM_FLOOR) * np.ones(max(n_meas, 1))

    # new-feature proposals, one per measurement
    proposals = []
    for m in range(n_meas):
        proposals.append(draw_new_pmva(
            float(z[m, 0]), float(z[m, 1]), profile.single.sigma_d, profile.single.sigma_phi,
            agent, pa, params, rng, feature_id=next_id[0]))
        next_id[0] += 1

    # row blocks in evidence-table order: LOS, singles, active ordered pairs
    kinds = [("los", np.zeros((1, 0), dtype=int))]
    if s_count:
        kinds.append(("single", np.arange(s_count)[:, None]))
    if params.use_double_bounce and s_count > 1:
        pair_mask = ~np.eye(s_count, dtype=bool)
        if params.pair_existence_floor > 0:
            pair_mask &= pe[:, None] * pe[None, :] >= params.pair_existence_floor
        if pair_mask.any():
            kinds.append(("double", np.argwhere(pair_mask)))

    # availability and likelihood per block, traced in row chunks so the
    # tracer's temporaries stay small
    clouds = np.array([f.particles for f in legacy]).reshape(s_count, n_part, 2)
    ext_lo, ext_hi = ctx.nearest_extents(clouds)
    chunk = max(1, _TRACE_CHUNK // n_part)
    blocks: list[_RowBlock] = []
    n_rows = 0
    for kind, members in kinds:
        va = np.empty((len(members), n_part, 2))
        avail = np.empty((len(members), n_part), dtype=bool)
        for r in range(0, len(members), chunk):
            idx = members[r:r + chunk].T
            # the map holds surface lines, not wall segments: only blockers obstruct
            va[r:r + chunk], avail[r:r + chunk] = backward_trace(
                agent_xy, pa, [clouds[i] for i in idx], [(ext_lo[i], ext_hi[i]) for i in idx],
                ctx.blocker_segments, check=params.visibility_check)
        noise = getattr(profile, kind)
        lik = _block_likelihood(agent_xy, agent.headings, va, avail, z,
                                noise.sigma_d, noise.sigma_phi, _LIK_DTYPE[kind])
        blocks.append(_RowBlock(kind, members, slice(n_rows, n_rows + len(members)),
                                np.prod(pe[members], axis=1), avail, lik))
        n_rows += len(members)

    # birth-density values of the proposal clouds
    (xlo, xhi), (ylo, yhi) = params.birth_region
    f_birth = np.empty((n_meas, n_part))
    for m, prop in enumerate(proposals):
        p = prop.particles
        inside = (p[:, 0] >= xlo) & (p[:, 0] <= xhi) & (p[:, 1] >= ylo) & (p[:, 1] <= yhi)
        f_birth[m] = inside / params.birth_area

    # evidence tables
    beta = np.empty((n_rows, n_meas + 1))
    for b in blocks:
        p_d = params.p_detect(b.kind)
        beta[b.rows, 0] = b.exist * np.mean(1.0 - b.avail * p_d, axis=1) + (1.0 - b.exist)
        if n_meas:
            beta[b.rows, 1:] = (b.exist[:, None] * p_d * b.lik.sum(axis=1, dtype=np.float64)
                                / n_part / denom[None, :])
    xi = np.ones((n_meas, n_rows + 1))
    if n_meas:
        xi[:, 0] = 1.0 + params.mu_new * f_birth.mean(axis=1) / denom
    assoc = run_association(AssociationInput(beta=beta, xi=xi),
                            max_iters=params.assoc_max_iters, tol=params.assoc_tol)
    eta = assoc.eta
    sigma_msg = assoc.sigma_out

    # per-row responses (eta-weighted likelihood mixtures, one per particle).
    # The agent update multiplies every row's message, which mixes the
    # response with the row's nonexistence.  A legacy feature's updated
    # particle weight multiplies the messages of every row it is a member
    # of; the message to a member uses the other members' existence, and
    # the existence ratio uses the same product for the nonexistence mass.
    log_g1 = np.zeros((s_count, n_part))
    log_g0 = np.zeros(s_count)
    features = np.arange(s_count)[:, None]
    with np.errstate(divide="ignore"):
        for b in blocks:
            p_d = params.p_detect(b.kind)
            eta_b = eta[b.rows]
            eta0 = eta_b[:, :1]
            resp = eta0 * (1.0 - b.avail * p_d)
            if n_meas:
                eta_m = (eta_b[:, 1:] / denom[None, :]).astype(b.lik.dtype)
                resp = resp + p_d * np.einsum("rim,rm->ri", b.lik, eta_m)
            exist = b.exist[:, None]
            log_weights = log_weights + np.log(
                np.maximum(exist * resp + eta0 * (1.0 - exist), 0.0)).sum(axis=0)
            log_eta0 = np.log(np.maximum(eta_b[:, 0], 1e-300))
            for j in range(b.members.shape[1]):
                # one-hot selectors turn the per-feature sums into matrix products
                sel = (b.members[:, j] == features).astype(float)
                others = np.prod(np.delete(pe[b.members], j, axis=1), axis=1)[:, None]
                log_g1 = log_g1 + sel @ np.log(
                    np.maximum(others * resp + eta0 * (1.0 - others), 0.0))
                log_g0 = log_g0 + sel @ log_eta0
    if not np.any(np.isfinite(log_weights)):
        raise DegenerateWeights("agent particle weights underflowed during a PA block")

    # legacy update: per-feature existence and resampling
    updated_legacy: list[PmvaBelief] = []
    for s, feat in enumerate(legacy):
        lse = _log_sum_exp(log_g1[s])
        if np.isfinite(lse):
            log_mass1 = (math.log(feat.existence) if feat.existence > 0 else -np.inf) \
                + lse - math.log(n_part)
            log_mass0 = (math.log1p(-feat.existence) if feat.existence < 1 else -np.inf) \
                + log_g0[s]
            top = max(log_mass1, log_mass0)
            existence = (math.exp(log_mass1 - top)
                         / (math.exp(log_mass1 - top) + math.exp(log_mass0 - top)))
            w = np.exp(log_g1[s] - lse)
            idx = systematic_resample(w / w.sum(), rng)
            particles = feat.particles[idx]
        else:
            existence = 0.0
            particles = feat.particles
        updated_legacy.append(PmvaBelief(particles=particles, existence=existence, id=feat.id))

    # new-feature update: existence from the unclaimed-measurement message
    updated_new: list[PmvaBelief] = []
    for m, prop in enumerate(proposals):
        num = sigma_msg[m, 0] * params.mu_new * float(f_birth[m].mean()) / denom[m]
        existence = num / (1.0 + num)
        weights = f_birth[m]
        total = weights.sum()
        if total > 0:
            idx = systematic_resample(weights / total, rng)
            particles = prop.particles[idx]
        else:
            existence = 0.0
            particles = prop.particles
        updated_new.append(PmvaBelief(particles=particles, existence=existence, id=prop.id))

    updated_legacy = [f for f in updated_legacy if f.existence >= params.p_prune]
    updated_new = [f for f in updated_new if f.existence >= params.p_prune]
    overflow = len(updated_legacy) + len(updated_new) - params.max_features
    if overflow > 0:
        ranked = sorted(updated_legacy + updated_new, key=lambda f: (-f.existence, f.id))
        keep = {f.id for f in ranked[:params.max_features]}
        updated_legacy = [f for f in updated_legacy if f.id in keep]
        updated_new = [f for f in updated_new if f.id in keep]
    return log_weights, updated_legacy, updated_new


def finalize_step(agent: AgentBelief, log_weights: np.ndarray,
                  features: Sequence[PmvaBelief], params: HyperParams,
                  rng: np.random.Generator) -> tuple[AgentBelief, StepEstimate]:
    """Normalize the accumulated agent weights, estimate, and resample."""
    lse = _log_sum_exp(log_weights)
    if not np.isfinite(lse):
        raise DegenerateWeights("all agent particle weights are zero")
    weights = np.exp(log_weights - lse)
    weights /= weights.sum()
    x_hat = weights @ agent.particles

    idx = systematic_resample(weights, rng)
    particles = agent.particles[idx]
    headings = _refresh_headings(particles[:, 2:], agent.headings[idx], params.eps_velocity)
    resampled = AgentBelief(particles=particles,
                            weights=np.full(agent.n_particles, 1.0 / agent.n_particles),
                            headings=headings)

    confirmed = [f for f in features if f.existence > params.p_confirm]
    positions = (np.stack([f.particles.mean(axis=0) for f in confirmed])
                 if confirmed else np.zeros((0, 2)))
    estimate = StepEstimate(x_hat=x_hat,
                            mva_positions=positions,
                            mva_ids=[f.id for f in confirmed],
                            s_hat=len(confirmed),
                            existence={f.id: f.existence for f in features})
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
        self.features: list[PmvaBelief] = []
        self.ctx = Environment(walls=extent_walls, blockers=blockers)
        self._next_id = [0]

    def step(self, batches: Sequence[MeasurementBatch]) -> StepEstimate:
        """Advance one time step with one measurement batch per anchor."""
        if len(batches) != len(self.pas):
            raise ValueError("one measurement batch per anchor is required")
        self.agent = predict_agent(self.agent, self.params, self.rng)
        legacy = predict_legacy(self.features, self.params, self.rng)
        new_feats: list[PmvaBelief] = []
        log_weights = np.zeros(self.agent.n_particles)
        for pa, batch in zip(self.pas, batches):
            log_weights, legacy, new_feats = process_pa(
                self.agent, log_weights, legacy, new_feats, batch, pa,
                self.params, self.profile, self.clutter, self.rng, self.ctx,
                self._next_id)
        self.features = legacy + new_feats
        self.agent, estimate = finalize_step(self.agent, log_weights, self.features,
                                             self.params, self.rng)
        return estimate
