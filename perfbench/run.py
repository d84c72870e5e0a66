"""Benchmark of the mvaslam filter: step latency, Monte-Carlo throughput, set-up
time, memory and estimate quality on three scenario workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exp1_paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload nonrect_mc --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload all          # every workload, one process each
    python3 perfbench/run.py --baseline              # ROADMAP baseline cross-check

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced pass.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The package is imported from ``src/`` of the checkout; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1       # the workloads are single-process, threads=1
SETUP_PROBES = 3       # fresh processes timed per run for setup_s


def cap_blas_threads() -> int:
    """Pin the BLAS thread count (at most nproc); must run before numpy loads."""
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def machine_facts(blas_threads: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads}


# ---------------------------------------------------------------------------
# set-up time, measured in fresh processes
# ---------------------------------------------------------------------------


def setup_probe(workload_name: str, seed: int) -> None:
    """Child process: time imports, scenario load, availability and filter construction."""
    start = time.perf_counter()
    import numpy as np
    import mvaslam.cli  # noqa: F401  (the whole package, as the command line loads it)
    from mvaslam import experiment
    from mvaslam.engine import SlamFilter
    from workloads import WORKLOADS, build_config

    config = build_config(WORKLOADS[workload_name])
    experiment.available_path_keys(config)
    SlamFilter(config.pas, config.params, config.profile, config.clutter,
               rng=np.random.default_rng(experiment.splitmix64(seed, 0)),
               start_pos=config.waypoints[0], extent_walls=config.walls,
               blockers=config.blockers)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def measure_setup(workload_name: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, __file__, "--setup-probe", "--workload", workload_name,
                              "--seed", str(seed)],
                             cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ---------------------------------------------------------------------------
# one timed pass over the workload's Monte-Carlo runs
# ---------------------------------------------------------------------------


class Pass:
    """Records, failures and wall time of one pass; ``files`` holds the CLI outputs."""

    def __init__(self):
        self.records: list[dict] = []
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.files: dict[str, str] = {}
        self.wall = 0.0
        self.step_s: list[float] = []


def install_step_timer(samples: list[float]):
    """Two perf_counter calls around SlamFilter.step; returns the undo function."""
    from mvaslam.engine import SlamFilter

    original = SlamFilter.step

    def step(self, batches):
        start = time.perf_counter()
        estimate = original(self, batches)
        samples.append(time.perf_counter() - start)
        return estimate

    SlamFilter.step = step
    return lambda: setattr(SlamFilter, "step", original)


def run_pass(workload, config, seed: int, runs: int, out_dir: Path, time_steps: bool) -> Pass:
    result = Pass()
    undo = install_step_timer(result.step_s) if time_steps else None
    try:
        if workload.via_cli:
            _cli_pass(workload, config, seed, runs, out_dir, result)
        else:
            _simulate_pass(config, seed, runs, result)
    finally:
        if undo is not None:
            undo()
    return result


def _simulate_pass(config, seed: int, runs: int, result: Pass) -> None:
    from mvaslam import experiment

    start = time.perf_counter()
    availability = experiment.available_path_keys(config)
    for i in range(runs):
        try:
            rec = experiment.simulate_run(config, i, seed, availability=availability)
        except Exception:  # a raising run is a failed run, not the end of the benchmark
            result.failures.append(f"run {i}: {traceback.format_exc(limit=3)}")
            continue
        if rec.seed != experiment.splitmix64(seed, i):
            result.problems.append(f"run {i}: seed {rec.seed} is not splitmix64({seed}, {i})")
        result.records.append({"run": i, "err_pos": rec.err_pos, "mospa_mva": rec.mospa_mva,
                               "mospa_va": rec.mospa_va, "s_hat": rec.s_hat,
                               "converged": rec.converged})
    result.wall = time.perf_counter() - start


def _cli_pass(workload, config, seed: int, runs: int, out_dir: Path, result: Pass) -> None:
    from mvaslam import cli

    from mvaslam.scenario import serialize_scenario

    out_dir.mkdir(parents=True)
    scenario_file = out_dir / "scenario.json"
    scenario_file.write_text(serialize_scenario(config), encoding="utf-8")
    argv = ["--scenario", str(scenario_file), "--runs", str(runs),
            "--particles", str(workload.particles), "--seed", str(seed), "--threads", "1",
            "--setup", str(workload.setup), "--out-dir", str(out_dir)]
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception:
        result.failures.extend([f"cli.main: {traceback.format_exc(limit=3)}"] * runs)
    result.wall = time.perf_counter() - start
    if code is None:
        return
    if code != 0:
        result.failures.extend([f"cli.main exited with {code}"] * runs)
        return
    for name in ("results.csv", "summary.json"):
        result.files[name] = (out_dir / name).read_text(encoding="utf-8")
    result.records = _records_from_csv(result.files["results.csv"], len(config.pas))
    result.problems += _check_summary(json.loads(result.files["summary.json"]), result.records,
                                      runs, config.n_steps)


def _records_from_csv(text: str, n_pa: int) -> list[dict]:
    import numpy as np
    from mvaslam.experiment import CONVERGENCE_RADIUS

    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    by_run: dict[int, list] = {}
    for row in rows:
        by_run.setdefault(int(row[1]), []).append(row)

    def column(rs, k):
        return np.array([float(r[k]) if r[k] else np.nan for r in rs])

    records = []
    for run, rs in sorted(by_run.items()):
        err = column(rs, 2)
        records.append({"run": run, "err_pos": err, "mospa_mva": column(rs, 3),
                        "mospa_va": np.stack([column(rs, 4 + j) for j in range(n_pa)]),
                        "s_hat": np.array([int(r[4 + n_pa]) for r in rs]),
                        "converged": bool(np.all(err < CONVERGENCE_RADIUS))})
    return records


def _check_summary(summary: dict, records: list[dict], runs: int, n_steps: int) -> list[str]:
    """summary.json must agree with the records it was built from (results.csv,
    whose values are rounded to 1e-6)."""
    import numpy as np

    problems = []
    converged = [r for r in records if r["converged"]]
    if len(records) != runs or any(r["err_pos"].shape != (n_steps + 1,) for r in records):
        problems.append(f"results.csv holds {len(records)} runs, expected {runs} of {n_steps + 1} rows")
    if (summary.get("runs"), summary.get("converged")) != (runs, len(converged)):
        problems.append(f"summary runs/converged {summary.get('runs')}/{summary.get('converged')} "
                        f"!= records {runs}/{len(converged)}")
    if converged:
        err = np.stack([r["err_pos"] for r in converged])
        mospa = np.stack([r["mospa_mva"] for r in converged])
        expect = {"rmse_pos": np.sqrt(np.mean(err ** 2, axis=0)), "mospa_mva": np.mean(mospa, axis=0)}
        for key, value in expect.items():
            got = np.asarray(summary.get("per_step", {}).get(key, []), dtype=float)
            if got.shape != value.shape or not np.allclose(got, value, rtol=1e-5, atol=2e-6):
                problems.append(f"summary per_step.{key} disagrees with results.csv")
        ta = summary.get("time_averaged", {})
        for key, value in (("rmse_pos", np.sqrt(np.mean(err ** 2))), ("mospa_mva", np.mean(mospa))):
            if not np.isclose(ta.get(key, np.nan), value, rtol=1e-5, atol=2e-6):
                problems.append(f"summary time_averaged.{key} disagrees with results.csv")
    return problems


def check_records(p: Pass, n_steps: int, cutoff: float) -> list[str]:
    """Shape and range checks on every run's outputs."""
    import numpy as np

    problems = list(p.problems)
    for r in p.records:
        err, mospa, s_hat = r["err_pos"], r["mospa_mva"], r["s_hat"]
        if err.shape != (n_steps + 1,) or mospa.shape != err.shape or s_hat.shape != err.shape:
            problems.append(f"run {r['run']}: arrays do not have {n_steps + 1} entries")
            continue
        done = np.isfinite(err)
        # a diverged run stops early: its steps are finite up to the divergence
        if not done[0] or np.any(~done[:-1] & done[1:]):
            problems.append(f"run {r['run']}: agent error is not finite on a prefix of steps")
        if np.any(err[done] < 0) or np.any(mospa[done] < 0) or np.any(mospa[done] > cutoff + 1e-9):
            problems.append(f"run {r['run']}: error or MOSPA outside [0, cutoff]")
        if np.any(s_hat < 0) or (r["converged"] and not np.all(done)):
            problems.append(f"run {r['run']}: inconsistent map size or convergence flag")
    return problems


def same_outputs(a: Pass, b: Pass) -> bool:
    """Bit-for-bit equality of two passes over the same seeds."""
    import numpy as np

    if a.files or b.files:
        return a.files == b.files
    if len(a.records) != len(b.records) or len(a.failures) != len(b.failures):
        return False
    keys = ("err_pos", "mospa_mva", "mospa_va", "s_hat")
    return all(ra["run"] == rb["run"] and ra["converged"] == rb["converged"]
               and all(np.array_equal(ra[k], rb[k], equal_nan=True) for k in keys)
               for ra, rb in zip(a.records, b.records))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def failed_runs(p: Pass) -> int:
    return len(p.failures) + sum(not r["converged"] for r in p.records)


def estimate_figures(p: Pass, cutoff: float) -> tuple[float, float]:
    """Time-averaged agent RMSE and MVA MOSPA over the converged runs, as
    summary.json defines them; over all runs when none converged, and the
    OSPA cutoff when every run raised."""
    import numpy as np

    chosen = [r for r in p.records if r["converged"]] or p.records
    if not chosen:
        return cutoff, cutoff
    err = np.concatenate([r["err_pos"] for r in chosen])
    mospa = np.concatenate([r["mospa_mva"] for r in chosen])
    return float(np.sqrt(np.nanmean(err ** 2))), float(np.nanmean(mospa))


def end_to_end(p: Pass, runs: int, setup_times: list[float]) -> dict:
    """The metrics BENCHMARK.json lists.  Means, not percentiles: each seed
    brings other measurements and so another number of map features, and the
    step-time percentiles jump between the birth burst and tracking."""
    return {
        "step_s_mean": (sum(p.step_s) / max(len(p.step_s), 1), "s"),
        "runs_per_hour": (3600.0 * runs / p.wall, "1/h"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def reported_figures(p: Pass, failed: int, attempted: int, cutoff: float) -> dict:
    """Figures printed beside the metrics but not gated on: their spread over
    seeds is wider than any bound the benchmark may set."""
    import numpy as np

    rmse, mospa = estimate_figures(p, cutoff)
    figures = {}
    if p.step_s:
        steps = np.asarray(p.step_s)
        p90 = float(np.quantile(steps, 0.9))
        figures["step_s_p50"] = (float(np.median(steps)), "s")
        figures["step_s_p90"] = (p90, f"s ({steps.size} samples, {int((steps > p90).sum())} beyond)")
    figures["rmse_pos_m"] = (rmse, "m")
    figures["mospa_mva_m"] = (mospa, "m")
    figures["failed_runs_frac"] = (failed / attempted, f"1 ({failed} of {attempted} runs)")
    return figures


def emit(correct: bool, attempted: int, failed: int, metrics: dict, figures: dict,
         facts: dict, notes: dict) -> None:
    print(json.dumps({"machine": facts}))
    for key, value in notes.items():
        print(f"# {key}: {value}")
    width = max(len(k) for k in [*metrics, *figures])
    for title, table in (("metrics", metrics), ("reported, not gated", figures)):
        print(f"-- {title}")
        for name, (value, unit) in table.items():
            print(f"{name:<{width}}  {value:>14.6g}  {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def run_workload(args, facts: dict) -> int:
    from mvaslam.metrics import OspaParams
    from workloads import WORKLOADS, build_config

    workload = WORKLOADS[args.workload]
    runs = workload.runs(args.seconds)
    if args.trace:
        runs = (runs + 1) // 2  # two passes, untraced and traced, in about the same time
    setup_times = [] if args.trace else measure_setup(workload.name, args.seed)
    config = build_config(workload)
    cutoff = OspaParams().cutoff
    notes = {"workload": f"{workload.name}: {workload.why}",
             "work": f"{runs} runs x {config.n_steps} steps, {workload.particles} particles, "
                     f"setup {workload.setup}, seed {args.seed}"}
    work_dir = WORK / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            # warm the allocator and lazy imports, so both passes start alike
            run_pass(workload, config, args.seed, 1, work_dir / "warmup", time_steps=False)
        plain = run_pass(workload, config, args.seed, runs, work_dir / "plain",
                         time_steps=not args.trace)
        passes = [plain]
        if not args.trace:
            metrics = end_to_end(plain, runs, setup_times)
            notes["setup_s samples"] = ", ".join(f"{s:.4f}" for s in setup_times)
        else:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                config = build_config(workload)
                traced = run_pass(workload, config, args.seed, runs, work_dir / "traced",
                                  time_steps=False)
            finally:
                tracer.uninstall()
            passes.append(traced)
            metrics = tracer.layer_metrics()
            rph_plain, rph_traced = 3600.0 * runs / plain.wall, 3600.0 * runs / traced.wall
            metrics["trace.overhead_runs_per_hour"] = (rph_traced - rph_plain, "1/h")
            notes["runs_per_hour untraced / traced"] = f"{rph_plain:.4g} / {rph_traced:.4g}"
            notes["absent"] = ", ".join(tracer.absent) or "none"
            if tracer.hook_errors:
                notes["count hooks that failed"] = ", ".join(tracer.hook_errors)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    problems = [q for p in passes for q in check_records(p, config.n_steps, cutoff)]
    if not args.trace and not plain.step_s:
        problems.append("no filter step completed")
    if args.trace and not same_outputs(plain, traced):
        problems.append("the traced pass did not reproduce the untraced pass bit for bit")
    attempted = runs * len(passes)
    failed = sum(failed_runs(p) for p in passes)
    figures = reported_figures(plain, failed, attempted, cutoff)
    for p in passes:
        for failure in p.failures:
            notes.setdefault("failures", []).append(failure.strip().splitlines()[-1])
    if problems:
        notes["problems"] = problems
    emit(not problems, attempted, failed, metrics, figures, facts, notes)
    return 0


# ---------------------------------------------------------------------------
# ROADMAP baseline cross-check and the all-workloads command
# ---------------------------------------------------------------------------

ROADMAP_BASELINE = {"exp1_rect_room": 0.80, "exp3_olos": 0.32, "nonrect": 1.06}


def roadmap_baseline() -> int:
    """Mean seconds per step at 5000 particles, 40 steps, seed 1, setup 1, as the
    ROADMAP baseline was measured; reported, never gated on."""
    from dataclasses import replace

    from mvaslam import experiment
    from mvaslam.scenario import bundled_scenario

    for name, expected in ROADMAP_BASELINE.items():
        config = bundled_scenario(name)
        params = replace(config.params, n_particles=5000, use_double_bounce=True)
        config = replace(config, params=params, double_bounce=True, waypoints=config.waypoints[:41])
        rec = experiment.simulate_run(config, 0, 1)
        measured = rec.wall_time / config.n_steps
        print(f"{name:<15} {measured:.3f} s/step (ROADMAP {expected:.2f}, "
              f"ratio {measured / expected:.2f})")
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, so memory and set-up are per workload."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status |= subprocess.run(cmd, cwd=ROOT, timeout=900).returncode
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="exp1_paper, olos_single, nonrect_mc or all")
    parser.add_argument("--seed", type=int, default=1, help="workload seed; run i uses splitmix64(seed, i)")
    parser.add_argument("--seconds", type=int, default=30, help="sets the runs per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true", help="ROADMAP baseline cross-check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.baseline and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mvaslam" / "__init__.py").is_file():
        print(f"perfbench: the package source src/mvaslam is missing under {ROOT}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.baseline:
        print(json.dumps({"machine": machine_facts(blas_threads)}))
        return roadmap_baseline()
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    return run_workload(args, machine_facts(blas_threads))


if __name__ == "__main__":
    sys.exit(main())
