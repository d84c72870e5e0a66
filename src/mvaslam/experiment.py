"""Monte-Carlo experiment orchestration.

Runs R independent simulations of a scenario, each with its own derived
seed, and aggregates agent RMSE and map OSPA curves over the converged
runs.  A run is converged when the agent estimate stays within the OSPA
cutoff of the truth at every step; diverged runs are counted and excluded
from the error averages (but not from the cumulative error frequencies).
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .engine import SlamFilter
from .errors import DegenerateWeights, NonFinite
from .measurement import generate_batch
from .metrics import OspaParams, dedupe_points, ospa, va_candidates, va_ospa
from .raytrace import candidate_blocks
from .scenario import ScenarioConfig

OSPA_PARAMS = OspaParams()
CONVERGENCE_RADIUS = OSPA_PARAMS.cutoff  # meters


def splitmix64(seed: int, index: int) -> int:
    """Derive the per-run seed; adding runs never perturbs earlier ones."""
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


@dataclass
class RunRecord:
    """Per-step results of one simulation run."""

    run_index: int
    seed: int
    err_pos: np.ndarray        # (N+1,) including the prior estimate at step 0
    mospa_mva: np.ndarray      # (N+1,)
    mospa_va: np.ndarray       # (J, N+1)
    s_hat: np.ndarray          # (N+1,) int
    converged: bool
    wall_time: float


class TruthTable(NamedTuple):
    """The true geometry traced once: every candidate path, anchor and waypoint."""

    blocks: list[tuple[str, np.ndarray]]  # (kind, members) row blocks, K rows, LOS first
    arrival: np.ndarray        # (J, N+1, K, 2) arrival vectors, NaN where unavailable


def available_path_keys(config: ScenarioConfig) -> TruthTable:
    """Trace the true paths of every anchor at every waypoint, in one call.

    The truth is static and draws no random numbers, so an experiment
    traces it once; each run's measurement generation only reads it.
    """
    env = config.environment
    blocks = candidate_blocks(len(env.walls), config.double_bounce)
    pas = np.array(config.pas)[:, None]                     # (J, 1, 2)
    return TruthTable(blocks, env.trace_paths(config.waypoints, pas, blocks))


def truth_va_sets(config: ScenarioConfig, truth: TruthTable) -> list[np.ndarray]:
    """Each anchor's true VA set: :func:`mvaslam.metrics.va_set` of the true
    walls, kept to the bounce paths available somewhere along the trajectory."""
    bounces = [tuple(row) for _, members in truth.blocks for row in members.tolist()]
    order = sorted((k for k, b in enumerate(bounces) if b), key=bounces.__getitem__)
    seen = ~np.isnan(truth.arrival[..., 0]).all(axis=1)     # (J, K)
    mvas = config.environment.wall_mvas
    return [dedupe_points(va_candidates(mvas, pa, config.double_bounce)[seen[j, order]])
            for j, pa in enumerate(config.pas)]


def simulate_run(config: ScenarioConfig, run_index: int, base_seed: int,
                 availability: Optional[TruthTable] = None) -> RunRecord:
    """Generate measurements and filter one full trajectory.

    Measurements are drawn from ``availability``, the experiment's traced
    truth (:func:`available_path_keys`), which is traced here when not
    given.  A run whose weights degenerate or whose association turns
    non-finite stops there: its later steps stay NaN, and it does not count
    as converged.
    """
    seed = splitmix64(base_seed, run_index)
    rng = np.random.default_rng(seed)
    true_mvas = config.environment.wall_mvas
    params = config.params
    truth = available_path_keys(config) if availability is None else availability
    truth_vas = truth_va_sets(config, truth)

    filt = SlamFilter(config.pas, params, config.profile, config.clutter,
                      rng=rng, start_pos=config.waypoints[0],
                      extent_walls=config.walls, blockers=config.blockers)
    n_steps = config.n_steps
    n_pa = len(config.pas)
    err = np.full(n_steps + 1, np.nan)
    mospa_mva = np.full(n_steps + 1, np.nan)
    mospa_va = np.full((n_pa, n_steps + 1), np.nan)
    s_hat = np.zeros(n_steps + 1, dtype=int)

    prior_mean = filt.agent.mean()
    err[0] = float(np.hypot(*(prior_mean[:2] - config.waypoints[0])))
    mospa_mva[0] = ospa(np.zeros((0, 2)), true_mvas, OSPA_PARAMS)
    for j, pa in enumerate(config.pas):
        mospa_va[j, 0] = va_ospa(np.zeros((0, 2)), truth_vas[j], pa, OSPA_PARAMS,
                                 include_double=config.double_bounce)

    velocities = config.velocities()
    # the true heading follows the filter's rule: it keeps its last well-defined
    # value while the speed is at most eps_velocity, starting from 0
    heading = 0.0
    started = time.perf_counter()
    for n in range(1, n_steps + 1):
        pos = config.waypoints[n]
        vel = velocities[n - 1]
        if np.hypot(vel[0], vel[1]) > params.eps_velocity:
            heading = float(np.arctan2(vel[1], vel[0]))
        batches = [generate_batch(heading, truth.blocks, truth.arrival[j, n], params.p_detect,
                                  config.profile, config.clutter, rng)
                   for j in range(n_pa)]
        try:
            estimate = filt.step(batches)
        except (DegenerateWeights, NonFinite):
            break
        err[n] = float(np.hypot(*(estimate.x_hat[:2] - pos)))
        mospa_mva[n] = ospa(estimate.mva_positions, true_mvas, OSPA_PARAMS)
        for j, pa in enumerate(config.pas):
            mospa_va[j, n] = va_ospa(estimate.mva_positions, truth_vas[j], pa, OSPA_PARAMS,
                                     include_double=config.double_bounce)
        s_hat[n] = len(estimate.mva_positions)
    wall_time = time.perf_counter() - started

    converged = bool(np.all(err < CONVERGENCE_RADIUS))     # False on a NaN step
    return RunRecord(run_index=run_index, seed=seed, err_pos=err, mospa_mva=mospa_mva,
                     mospa_va=mospa_va, s_hat=s_hat, converged=converged, wall_time=wall_time)


@dataclass
class ExperimentResult:
    """All run records plus aggregate curves and wall-clock timing."""

    records: list[RunRecord]
    summary: dict
    timing: dict


def _aggregate(config: ScenarioConfig, records: list[RunRecord]) -> dict:
    n_pa = len(config.pas)
    converged = [r for r in records if r.converged]
    summary: dict = {
        "scenario": config.name,
        "runs": len(records),
        "converged": len(converged),
        "diverged": len(records) - len(converged),
        "n_steps": config.n_steps,
        "n_particles": config.params.n_particles,
        "double_bounce": config.double_bounce,
        "visibility_check": config.params.visibility_check,
    }
    if converged:
        err = np.stack([r.err_pos for r in converged])
        mospa = np.stack([r.mospa_mva for r in converged])
        vaospa = np.stack([r.mospa_va for r in converged])   # (R, J, N+1)
        s_hat = np.stack([r.s_hat for r in converged])
        summary["per_step"] = {
            "rmse_pos": np.sqrt(np.mean(err ** 2, axis=0)).tolist(),
            "mospa_mva": np.mean(mospa, axis=0).tolist(),
            "mospa_va": [np.mean(vaospa[:, j], axis=0).tolist() for j in range(n_pa)],
            "mean_s_hat": np.mean(s_hat, axis=0).tolist(),
        }
        summary["time_averaged"] = {
            "rmse_pos": float(np.sqrt(np.mean(err ** 2))),
            "mospa_mva": float(np.mean(mospa)),
            "mospa_va": [float(np.mean(vaospa[:, j])) for j in range(n_pa)],
        }
        summary["final_step"] = {
            "median_err_pos": float(np.median(err[:, -1])),
            "mospa_mva": float(np.mean(mospa[:, -1])),
            "s_hat_counts": {str(k): int(v) for k, v in
                             zip(*np.unique(s_hat[:, -1], return_counts=True))},
        }
    all_err = np.concatenate([r.err_pos[~np.isnan(r.err_pos)] for r in records])
    quantiles = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]
    summary["error_quantiles"] = {str(q): float(v) for q, v in
                                  zip(quantiles, np.quantile(all_err, quantiles))}
    return summary


def run_experiment(config: ScenarioConfig, runs: int, base_seed: int,
                   threads: int = 1) -> ExperimentResult:
    """Execute ``runs`` independent simulations and aggregate the results.

    Content is fully determined by (config, base_seed, runs); the thread
    count only changes how run indices are dispatched.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    availability = available_path_keys(config)
    started = time.perf_counter()
    workers = min(threads, runs)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(simulate_run, config, i, base_seed, availability)
                       for i in range(runs)]
            records = [f.result() for f in futures]
    else:
        records = [simulate_run(config, i, base_seed, availability)
                   for i in range(runs)]
    elapsed = time.perf_counter() - started
    summary = _aggregate(config, records)
    timing = {
        "total_seconds": elapsed,
        "mean_run_seconds": float(np.mean([r.wall_time for r in records])),
        "mean_step_seconds": float(np.mean([r.wall_time for r in records]) / max(config.n_steps, 1)),
        "threads": threads,
    }
    return ExperimentResult(records=records, summary=summary, timing=timing)


def records_csv(records: Sequence[RunRecord], n_pa: int) -> str:
    """CSV text: one row per time step per run."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["n", "run", "err_pos", "mospa_mva"]
    header += [f"mospa_va_pa{j + 1}" for j in range(n_pa)]
    header += ["S_hat"]
    writer.writerow(header)
    for rec in records:
        for n in range(rec.err_pos.shape[0]):
            row = [n, rec.run_index, _fmt(rec.err_pos[n]), _fmt(rec.mospa_mva[n])]
            row += [_fmt(rec.mospa_va[j, n]) for j in range(n_pa)]
            row += [int(rec.s_hat[n])]
            writer.writerow(row)
    return buf.getvalue()


def _fmt(value: float) -> str:
    return "" if np.isnan(value) else f"{value:.6f}"


def write_outputs(out_dir, config: ScenarioConfig, result: ExperimentResult) -> dict[str, Path]:
    """Write results.csv and summary.json (deterministic) plus timing.json.

    Wall-clock timing is kept out of summary.json so that repeated
    invocations with identical inputs produce byte-identical result files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "csv": out / "results.csv",
        "summary": out / "summary.json",
        "timing": out / "timing.json",
    }
    paths["csv"].write_text(records_csv(result.records, len(config.pas)), encoding="utf-8")
    paths["summary"].write_text(json.dumps(result.summary, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")
    paths["timing"].write_text(json.dumps(result.timing, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
    return paths
