"""Outside-in tracing of the mvaslam package: spans and counts around public functions.

Nothing in the package changes.  Each public function is wrapped at every
name a caller looks it up by: ``engine`` does ``from .raytrace import
line_crossing``, so both ``mvaslam.raytrace.line_crossing`` and
``mvaslam.engine.line_crossing`` are replaced.  A function that cannot be
found (for example after a refactor renamed it) is recorded as absent.

Spans nest through a stack.  A span's self time is its duration minus the
time covered by its child spans; the time spent in count hooks is charged to
``trace.hooks`` and to neither the span nor its parent.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Optional

import numpy as np

# (span name, module that defines it, attribute, modules that look it up by name)
TARGETS = [
    ("scenario.bundled_scenario", "scenario", "bundled_scenario", ["cli"]),
    ("geometry.mva_to_va", "geometry", "mva_to_va", ["engine", "raytrace", "measurement", "metrics"]),
    ("geometry.va_to_mva", "geometry", "va_to_mva", ["engine"]),
    ("raytrace.line_crossing", "raytrace", "line_crossing", ["engine"]),
    ("raytrace.hop_obstructed", "raytrace", "hop_obstructed", ["engine"]),
    ("raytrace.path_available", "raytrace", "path_available", ["experiment", "measurement"]),
    ("measurement.generate_batch", "measurement", "generate_batch", ["experiment"]),
    ("association.run_association", "association", "run_association", ["engine"]),
    ("engine.predict_agent", "engine", "predict_agent", []),
    ("engine.predict_legacy", "engine", "predict_legacy", []),
    ("engine.draw_new_pmva", "engine", "draw_new_pmva", []),
    ("engine.systematic_resample", "engine", "systematic_resample", []),
    ("engine.process_pa", "engine", "process_pa", []),
    ("engine.finalize_step", "engine", "finalize_step", []),
    ("engine.SlamFilter.step", "engine", "SlamFilter.step", []),
    ("metrics.ospa", "metrics", "ospa", ["experiment"]),
    ("metrics.va_ospa", "metrics", "va_ospa", ["experiment"]),
    ("experiment.available_path_keys", "experiment", "available_path_keys", []),
    ("experiment.simulate_run", "experiment", "simulate_run", []),
    ("experiment.run_experiment", "experiment", "run_experiment", ["cli"]),
    ("experiment.write_outputs", "experiment", "write_outputs", ["cli"]),
    ("cli.main", "cli", "main", []),
]


def _broadcast_size(*arrays) -> int:
    return int(np.prod(np.broadcast_shapes(*(np.shape(a)[:-1] for a in arrays))))


class Tracer:
    """Installs span wrappers on the package and aggregates what they record."""

    def __init__(self):
        self.total = defaultdict(float)     # inclusive seconds per span name
        self.child = defaultdict(float)     # seconds covered by child spans
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)
        self.absent: list[str] = []
        self.hook_errors: list[str] = []
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        for name, module, attr, lookups in TARGETS:
            owner, leaf = self._resolve(module, attr)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original, hooks.get(name))
            self._patch(owner, leaf, wrapped)
            for other in lookups:
                mod = importlib.import_module(f"mvaslam.{other}")
                if getattr(mod, leaf, None) is original:
                    self._patch(mod, leaf, wrapped)

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    @staticmethod
    def _resolve(module: str, attr: str):
        try:
            owner = importlib.import_module(f"mvaslam.{module}")
        except ImportError:
            return None, attr
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, leaf
        return owner, leaf

    def _patch(self, owner, leaf, wrapped) -> None:
        self._restore.append((owner, leaf, getattr(owner, leaf)))
        setattr(owner, leaf, wrapped)

    def _wrap(self, name: str, func, hook: Optional[Callable]):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                tracer.total[name] += elapsed
                tracer.child[name] += frame[0]
                tracer.calls[name] += 1
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
            if hook is not None:
                hook_start = time.perf_counter()
                try:
                    hook(args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    if name not in tracer.hook_errors:
                        tracer.hook_errors.append(name)
                hook_s = time.perf_counter() - hook_start
                tracer.total["trace.hooks"] += hook_s
                if tracer._stack:
                    tracer._stack[-1][0] += hook_s
            return result

        return traced

    # -- counts at the layer boundaries --------------------------------------

    def _hooks(self) -> dict[str, Callable]:
        counts, peaks = self.counts, self.peaks

        def process_pa(args, kwargs, result):
            agent, _, legacy, new_from_prev, batch = args[:5]
            params = args[6]
            features = list(legacy) + list(new_from_prev)
            s = len(features)
            pairs = skipped = 0
            if params.use_double_bounce and s > 1:
                pe = np.array([f.existence for f in features])
                mask = ~np.eye(s, dtype=bool)
                if params.pair_existence_floor > 0:
                    mask &= pe[:, None] * pe[None, :] >= params.pair_existence_floor
                pairs = int(mask.sum())
                skipped = s * (s - 1) - pairs
            per_row = agent.n_particles * len(batch)
            counts["pa_blocks"] += 1
            counts["single_rows"] += s
            counts["pair_rows"] += pairs
            counts["pairs_skipped"] += skipped
            counts["lik_elems"] += (1 + s + pairs) * per_row
            peaks["pair_rows"] = max(peaks["pair_rows"], pairs)
            # LOS and single-bounce blocks are float64, the double-bounce block float32
            peaks["lik_bytes"] = max(peaks["lik_bytes"], per_row * (8 * (1 + s) + 4 * pairs))

        def step(args, kwargs, result):
            counts["map_features"] += len(args[0].features)

        def line_crossing(args, kwargs, result):
            counts["line_crossing_elems"] += result[0].size

        def hop_obstructed(args, kwargs, result):
            p, q, segments = args[:3]
            counts["hop_tests"] += _broadcast_size(p, q) * len(segments)

        def generate_batch(args, kwargs, result):
            counts["batch_len"] += len(result)

        def run_association(args, kwargs, result):
            max_iters = kwargs.get("max_iters", args[1] if len(args) > 1 else 20)
            counts["assoc_iterations"] += result.iterations_used
            counts["assoc_max_hit"] += result.iterations_used >= max_iters

        return {
            "engine.process_pa": process_pa,
            "engine.SlamFilter.step": step,
            "raytrace.line_crossing": line_crossing,
            "raytrace.hop_obstructed": hop_obstructed,
            "measurement.generate_batch": generate_batch,
            "association.run_association": run_association,
        }

    # -- per-layer metrics ---------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); times are per filter step
        unless the unit says otherwise."""
        steps = max(self.calls["engine.SlamFilter.step"], 1)
        runs = max(self.calls["experiment.simulate_run"], 1)
        blocks = max(self.counts["pa_blocks"], 1)
        batches = max(self.calls["measurement.generate_batch"], 1)
        assoc = max(self.calls["association.run_association"], 1)
        t, c, n = self.total, self.counts, self.calls

        def per_step(name):
            return (t[name] / steps, "s/step")

        def per_call(name):
            return (t[name] / max(n[name], 1), "s")

        run_s = t["experiment.simulate_run"]
        step_s = t["engine.SlamFilter.step"]
        return {
            "engine.process_pa_self_s": (self.self_s("engine.process_pa") / steps, "s/step"),
            "engine.lik_elems_per_step": (c["lik_elems"] / steps, "count"),
            "engine.lik_bytes_computed": (self.peaks["lik_bytes"], "byte"),
            "engine.features_mean": (c["map_features"] / steps, "count"),
            "engine.single_rows_mean": (c["single_rows"] / blocks, "count"),
            "engine.pair_rows_mean": (c["pair_rows"] / blocks, "count"),
            "engine.pair_rows_max": (self.peaks["pair_rows"], "count"),
            "engine.pairs_skipped_by_floor_mean": (c["pairs_skipped"] / blocks, "count"),
            "engine.predict_agent_s": per_step("engine.predict_agent"),
            "engine.predict_legacy_s": per_step("engine.predict_legacy"),
            "engine.draw_new_pmva_s": per_step("engine.draw_new_pmva"),
            "engine.draw_new_pmva_calls": (n["engine.draw_new_pmva"] / steps, "1/step"),
            "engine.systematic_resample_s": per_step("engine.systematic_resample"),
            "engine.systematic_resample_calls": (n["engine.systematic_resample"] / steps, "1/step"),
            "engine.finalize_step_s": per_step("engine.finalize_step"),
            "engine.step_self_s": (self.self_s("engine.SlamFilter.step") / steps, "s/step"),
            "raytrace.line_crossing_s": per_step("raytrace.line_crossing"),
            "raytrace.line_crossing_elems": (c["line_crossing_elems"] / steps, "1/step"),
            "raytrace.hop_obstructed_s": per_step("raytrace.hop_obstructed"),
            "raytrace.hop_obstructed_elems": (c["hop_tests"] / steps, "1/step"),
            "raytrace.path_available_s": per_step("raytrace.path_available"),
            "raytrace.path_available_calls": (n["raytrace.path_available"] / steps, "1/step"),
            "geometry.mva_to_va_s": per_step("geometry.mva_to_va"),
            "geometry.va_to_mva_s": per_step("geometry.va_to_mva"),
            "measurement.generate_batch_s": per_step("measurement.generate_batch"),
            "measurement.batch_len_mean": (c["batch_len"] / batches, "count"),
            "association.run_association_s": per_step("association.run_association"),
            "association.iterations_mean": (c["assoc_iterations"] / assoc, "count"),
            "association.max_iters_hit_frac": (c["assoc_max_hit"] / assoc, "1"),
            "metrics.ospa_s": per_step("metrics.ospa"),
            "metrics.va_ospa_s": per_step("metrics.va_ospa"),
            "experiment.available_path_keys_s": per_call("experiment.available_path_keys"),
            "experiment.simulate_run_self_s": (self.self_s("experiment.simulate_run") / runs, "s/run"),
            "experiment.run_experiment_self_s": (self.self_s("experiment.run_experiment")
                                                 / max(n["experiment.run_experiment"], 1), "s"),
            "experiment.write_outputs_s": per_call("experiment.write_outputs"),
            "scenario.bundled_scenario_s": per_call("scenario.bundled_scenario"),
            "cli.main_self_s": (self.self_s("cli.main") / max(n["cli.main"], 1), "s"),
            "trace.run_coverage_frac": ((self.child["experiment.simulate_run"] / run_s) if run_s else 0.0, "1"),
            "trace.step_coverage_frac": ((self.child["engine.SlamFilter.step"] / step_s) if step_s else 0.0, "1"),
            "trace.hooks_s": (t["trace.hooks"] / steps, "s/step"),
            "trace.absent_count": (len(self.absent), "count"),
            "trace.hook_error_count": (len(self.hook_errors), "count"),
        }
