import concurrent.futures
import json
import os
import subprocess
import sys
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mvaslam
from mvaslam import cli, engine, experiment
from mvaslam.cli import main
from mvaslam.errors import NonFinite, ScenarioError
from mvaslam.experiment import records_csv, run_experiment, splitmix64
from mvaslam.raytrace import Environment
from mvaslam.scenario import (
    bundled_scenario,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)

MINIMAL = {
    "name": "mini",
    "walls": [
        {"a": [5.0, -3.5], "b": [5.0, 3.5]},
        {"a": [-5.0, 3.5], "b": [5.0, 3.5]},
    ],
    "pas": [[1.0, 0.5]],
    "trajectory": {"waypoints": [[-2.0 + 0.1 * k, 1.0] for k in range(11)]},
}


def minimal_config(**updates):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(updates)
    return parse_scenario(json.dumps(doc))


def small_test_scenario(tmp_path, steps=6, particles=150):
    doc = json.loads(json.dumps(MINIMAL))
    doc["trajectory"] = {"waypoints": [[-2.0 + 0.1 * k, 1.0] for k in range(steps + 1)]}
    doc["params"] = {"n_particles": particles}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_parse_minimal_fills_defaults():
    config = minimal_config()
    assert config.params.p_survival == pytest.approx(0.999)
    assert config.params.p_confirm == pytest.approx(0.5)
    assert config.params.p_prune == pytest.approx(1e-3)
    assert config.params.mu_new == pytest.approx(0.05)
    assert config.params.p_detect_los == pytest.approx(0.95)
    assert config.clutter.mu_fp == pytest.approx(1.0)
    assert config.clutter.d_max == pytest.approx(30.0)
    assert config.profile.los.sigma_d == pytest.approx(0.05)
    assert config.profile.double.sigma_phi == pytest.approx(np.deg2rad(25.0))
    assert config.double_bounce is True
    assert config.n_steps == 10


def test_parse_missing_pas_names_field():
    doc = {k: v for k, v in MINIMAL.items() if k != "pas"}
    with pytest.raises(ScenarioError, match="pas"):
        parse_scenario(json.dumps(doc))


def test_parse_bad_waypoint_names_path():
    doc = json.loads(json.dumps(MINIMAL))
    doc["trajectory"]["waypoints"][3] = [1.0]
    with pytest.raises(ScenarioError, match=r"trajectory.waypoints\[3\]"):
        parse_scenario(json.dumps(doc))


def test_parse_unknown_param_rejected():
    with pytest.raises(ScenarioError, match="params.frobnicate"):
        minimal_config(params={"frobnicate": 1})


def test_params_double_bounce_flag_rejected():
    # the setup flag lives at the top level only; a params copy would be overwritten
    with pytest.raises(ScenarioError, match=r"params\.use_double_bounce.*'double_bounce'"):
        minimal_config(params={"use_double_bounce": False})


def test_setup_fields_must_agree():
    # the truth and the metrics read double_bounce, the filter use_double_bounce
    config = minimal_config()
    for mismatched in (dict(double_bounce=False),
                       dict(params=replace(config.params, use_double_bounce=False))):
        with pytest.raises(ValueError, match=r"double_bounce=.*params\.use_double_bounce="):
            replace(config, **mismatched)
    single = replace(config, double_bounce=False,
                     params=replace(config.params, use_double_bounce=False))
    assert single.double_bounce is single.params.use_double_bounce is False


def test_clutter_mean_is_not_a_filter_hyperparameter():
    # the filter reads the clutter mean from the clutter model the generator draws from
    with pytest.raises(ScenarioError, match=r"^params\.mu_clutter: unknown hyperparameter"):
        minimal_config(params={"mu_clutter": 1.0})


def test_reflective_wall_through_origin_names_the_wall(tmp_path, capsys):
    doc = json.loads(json.dumps(MINIMAL))
    doc["walls"].append({"a": [-1.0, -1.0], "b": [2.0, 2.0]})
    with pytest.raises(ScenarioError, match=r"^walls\[2\]: .*origin"):
        parse_scenario(json.dumps(doc))
    path = tmp_path / "origin.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--scenario", str(path), "--runs", "1", "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("mvaslam: error: walls[2]: ")
    # a blocker on the same line reflects nothing and is fine
    doc["walls"][2]["reflective"] = False
    assert len(parse_scenario(json.dumps(doc)).blockers) == 1


def with_value(key, value):
    """MINIMAL on an NCV trajectory, or on its waypoints when ``key`` sets them,
    with the dotted ``key`` set to ``value`` (a number in the key indexes a list)."""
    doc = json.loads(json.dumps(MINIMAL))
    if not key.startswith("trajectory.waypoints"):
        doc["trajectory"] = {"ncv": {"start": [-2.0, 1.0], "velocity": [0.1, 0.0], "steps": 5}}
    *parents, leaf = [int(k) if k.isdigit() else k for k in key.split(".")]
    node = doc
    for k in parents:
        node = node.setdefault(k, {}) if isinstance(k, str) else node[k]
    node[leaf] = value
    return doc


@pytest.mark.parametrize("key, value, message", [
    # malformed values: a ScenarioError naming the key, not a bare Python error
    ("trajectory.ncv.steps", "three", r"^trajectory\.ncv\.steps: expected an integer"),
    ("trajectory.ncv.sigma_w", "three", r"^trajectory\.ncv\.sigma_w: expected a finite number"),
    ("trajectory.ncv.seed", "three", r"^trajectory\.ncv\.seed: expected an integer"),
    ("clutter", [1.0, 30.0], r"^clutter: expected an object"),
    ("clutter.mu_fp", None, r"^clutter\.mu_fp: expected a finite number"),
    ("clutter.mu_fp", float("nan"), r"^clutter\.mu_fp: expected a finite number, got NaN"),
    ("noise.los.sigma_d", None, r"^noise\.los\.sigma_d: expected a finite number"),
    ("noise.los", [0.05, 10.0], r"^noise\.los: expected an object"),
    ("noise.los.sigma_phi", 0.1, r"^noise\.los\.sigma_phi: unknown key"),
    ("params", [5000], r"^params: expected an object"),
    ("blockers", 5, r"^blockers: expected a list"),
    ("params.birth_region", {"x": [-15, 15]}, r"^params\.birth_region: expected \[\["),
    # string booleans would read as true
    ("walls.1.reflective", "false", r"^walls\[1\]\.reflective: expected true or false"),
    ("double_bounce", "no", r"^double_bounce: expected true or false"),
    ("params.visibility_check", "false", r"^params\.visibility_check: expected true or false"),
    # coordinates, birth-region bounds and the name have their JSON types too
    ("pas.0.0", "1.0", r"^pas\[0\]\[0\]: expected a finite number, got \"1.0\""),
    ("walls.0.b.1", "3.5", r"^walls\[0\]\.b\[1\]: expected a finite number"),
    ("trajectory.ncv.start", [True, False], r"^trajectory\.ncv\.start\[0\]: expected a finite number, got true"),
    ("trajectory.waypoints", [[-2.0, 1.0], ["-1.9", 1.0]],
     r"^trajectory\.waypoints\[1\]\[0\]: expected a finite number"),
    ("params.birth_region", [["-inf", "inf"], [-15, 15]],
     r"^params\.birth_region\[0\]\[0\]: expected a finite number"),
    ("params.birth_region", [[-15, 15]], r"^params\.birth_region: expected \[\["),
    ("name", 5, r"^name: expected a string, got 5"),
    ("name", None, r"^name: expected a string, got null"),
    # a waypoint on an anchor has no LOS arrival angle
    ("pas.0", [-1.9, 1.0], r"^trajectory: waypoint 1 coincides with the anchor pas\[0\]"),
    # the rollout's process noise is a standard deviation
    ("trajectory.ncv.sigma_w", -0.5, r"^trajectory\.ncv\.sigma_w: must be >= 0"),
    # a misspelled or unknown key names its path, not a silent default
    ("walls.0.reflectve", False, r"^walls\[0\]\.reflectve: unknown key \(use a/b/reflective\)"),
    ("blockers", [{"a": [0.0, -1.0], "b": [0.0, 1.0], "reflective": False}],
     r"^blockers\[0\]\.reflective: unknown key \(use a/b\)"),
    ("double_bounces", False, r"^double_bounces: unknown key \(use name/walls/"),
    ("clutter.dmax", 3.0, r"^clutter\.dmax: unknown key \(use mu_fp/d_max\)"),
    ("trajectory.ncv.sigma", 0.1, r"^trajectory\.ncv\.sigma: unknown key"),
    ("trajectory.waypoint", [[-2.0, 1.0], [-1.9, 1.0]], r"^trajectory\.waypoint: unknown key"),
    ("trajectory", {"waypoints": MINIMAL["trajectory"]["waypoints"],
                    "ncv": {"start": [-2.0, 1.0], "velocity": [0.1, 0.0], "steps": 5}},
     r"^trajectory: expected an object with exactly one of 'waypoints' and 'ncv'"),
    ("trajectory", {}, r"^trajectory: expected an object with exactly one of"),
])
def test_parse_rejects_malformed_values(key, value, message):
    assert parse_scenario(json.dumps(with_value("name", "valid"))).n_steps == 5
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(json.dumps(with_value(key, value)))


def test_cli_string_boolean_is_a_scenario_error(tmp_path, capsys):
    path = tmp_path / "string_flag.json"
    path.write_text(json.dumps(with_value("walls.1.reflective", "false")), encoding="utf-8")
    assert main(["--scenario", str(path), "--runs", "1", "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("mvaslam: error: walls[1].reflective: expected true or false")


def test_cli_waypoint_on_anchor_is_a_scenario_error(tmp_path, capsys):
    doc = json.loads(json.dumps(MINIMAL))
    doc["pas"].append(doc["trajectory"]["waypoints"][4])
    path = tmp_path / "on_anchor.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--scenario", str(path), "--runs", "1", "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "mvaslam: error: trajectory: waypoint 4 coincides with the anchor pas[1]\n"


def test_round_trip_identity():
    config = minimal_config(double_bounce=False,
                            params={"n_particles": 123, "sigma_accel": 0.02})
    text = serialize_scenario(config)
    again = parse_scenario(text)
    assert again.params == config.params
    assert again.double_bounce == config.double_bounce
    assert np.allclose(again.waypoints, config.waypoints)
    assert np.allclose([w.a for w in again.walls], [w.a for w in config.walls])
    assert serialize_scenario(again) == text


def test_ncv_trajectory_generation():
    config = minimal_config(trajectory={"ncv": {"start": [-2.0, 1.0],
                                                "velocity": [0.1, 0.0],
                                                "steps": 5}})
    assert config.n_steps == 5
    assert np.allclose(config.waypoints[-1], [-1.5, 1.0])


def test_true_heading_holds_at_a_standstill(monkeypatch):
    # A repeated waypoint has a zero backward-difference velocity.  The true
    # heading keeps its last well-defined value there, by the filter's rule
    # (speed at most eps_velocity), so that step's batch is generated at the
    # previous heading, not at arctan2(0, 0) = 0.  A standstill before any
    # motion keeps the starting heading, 0.
    config = minimal_config(trajectory={"waypoints": [[-1.0, 0.0], [-1.0, 0.0], [-1.1, 0.1],
                                                      [-1.2, 0.2], [-1.2, 0.2], [-1.3, 0.3]]},
                            params={"n_particles": 50})
    headings = []
    plain = experiment.generate_batch

    def record(heading, *rest):
        headings.append(heading)
        return plain(heading, *rest)

    monkeypatch.setattr(experiment, "generate_batch", record)
    experiment.simulate_run(config, 0, 1)
    vel = np.diff(config.waypoints, axis=0) / config.params.dt
    turn = [float(np.arctan2(v[1], v[0])) for v in vel]
    assert np.hypot(*vel[0]) == np.hypot(*vel[3]) == 0.0 and turn[2] > 2.0
    assert headings == [0.0, turn[1], turn[2], turn[2], turn[4]]


def test_reflectivity_flag_routes_to_blockers():
    doc = json.loads(json.dumps(MINIMAL))
    doc["walls"].append({"a": [0.0, -1.0], "b": [0.0, 1.0], "reflective": False})
    config = parse_scenario(json.dumps(doc))
    assert len(config.walls) == 2
    assert len(config.blockers) == 1


def test_bundled_scenarios_parse():
    for name in ("exp1_rect_room", "exp3_olos", "nonrect"):
        config = bundled_scenario(name)
        assert config.n_steps == 100
        assert len(config.pas) == 2
        text = serialize_scenario(config)          # every key written is one read
        assert serialize_scenario(parse_scenario(text)) == text
    with pytest.raises(ScenarioError):
        bundled_scenario("missing")


def test_splitmix_seeds_stable_under_extension():
    seeds_5 = [splitmix64(42, i) for i in range(5)]
    seeds_8 = [splitmix64(42, i) for i in range(8)]
    assert seeds_5 == seeds_8[:5]
    assert len(set(seeds_8)) == 8


def test_run_experiment_determinism_and_threads(tmp_path):
    path = small_test_scenario(tmp_path)
    config = load_scenario(path)
    res1 = run_experiment(config, runs=2, base_seed=9, threads=1)
    res2 = run_experiment(config, runs=2, base_seed=9, threads=2)
    # the truth table, VA sets included, is pickled to the worker processes
    for a, b in zip(res1.records, res2.records, strict=True):
        for field in ("err_pos", "mospa_mva", "mospa_va", "s_hat"):
            assert np.array_equal(getattr(a, field), getattr(b, field), equal_nan=True), field
        assert (a.run_index, a.seed, a.converged) == (b.run_index, b.seed, b.converged)
    assert res1.summary == res2.summary


@pytest.mark.parametrize("runs,threads,workers", [(2, 16, 2), (3, 2, 2), (1, 4, None)])
def test_run_experiment_starts_no_idle_worker(tmp_path, monkeypatch, runs, threads, workers):
    # a pool of ``threads`` workers forks them all up front: at most one per run is
    # started, and none for a single run
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    config = load_scenario(small_test_scenario(tmp_path, steps=3, particles=60))
    want = run_experiment(config, runs=runs, base_seed=4, threads=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    got = run_experiment(config, runs=runs, base_seed=4, threads=threads)
    assert started == ([] if workers is None else [workers])
    assert records_csv(got.records) == records_csv(want.records)
    assert got.summary == want.summary
    assert got.timing["threads"] == threads


def test_cli_out_dir_under_a_file_fails_before_any_run(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "results"
    blocker.write_text("not a directory", encoding="utf-8")
    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: calls.append(args))
    code = main(["--scenario", "nonrect", "--runs", "1",
                 "--out-dir", str(blocker / "out")])
    assert code == 1 and calls == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("mvaslam: error: ") and str(blocker / "out") in err
    assert "Traceback" not in err


def test_cli_unwritable_outputs_fail_with_one_error_line(tmp_path, capsys):
    # the experiment runs, then results.csv cannot be written: one error line, exit 1
    path = small_test_scenario(tmp_path, steps=3, particles=60)
    out = tmp_path / "out"
    (out / "results.csv").mkdir(parents=True)
    code = main(["--scenario", str(path), "--runs", "1", "--out-dir", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"mvaslam: error: cannot write outputs to {out}: Is a directory"]
    assert "Traceback" not in captured.err and "wrote" not in captured.out


def test_truth_traced_once_per_experiment(tmp_path, monkeypatch):
    # the true geometry is static: one trace serves every run and every step
    calls = []
    trace_paths = Environment.trace_paths

    def counted(self, *args, **kwargs):
        calls.append(args)
        return trace_paths(self, *args, **kwargs)

    monkeypatch.setattr(Environment, "trace_paths", counted)
    config = load_scenario(small_test_scenario(tmp_path, steps=4, particles=50))
    run_experiment(config, runs=3, base_seed=2, threads=1)
    assert len(calls) == 1


def test_cli_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "exp1_rect_room", "--frobnicate"])
    assert exc.value.code == 2


def test_cli_zero_runs_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "exp1_rect_room", "--runs", "0",
              "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_cli_missing_scenario_file(tmp_path, capsys):
    code = main(["--scenario", str(tmp_path / "nope.json"), "--runs", "1",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "not utf-8"])
def test_cli_unreadable_scenario_file(tmp_path, capsys, kind):
    path = tmp_path / "scenario"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe")
    code = main(["--scenario", str(path), "--runs", "1", "--out-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"mvaslam: error: cannot read scenario file {path}: ")
    assert "Traceback" not in err


def test_cli_certain_detection_is_a_scenario_error(tmp_path, capsys):
    doc = json.loads(json.dumps(MINIMAL))
    doc["params"] = {"p_detect": 1.0, "n_particles": 50}
    path = tmp_path / "certain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["--scenario", str(path), "--runs", "1", "--out-dir", str(tmp_path / "e")])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("mvaslam: error:") and "p_detect_los" in err
    assert "Traceback" not in err


def test_cli_zero_association_iterations_is_a_scenario_error(tmp_path, capsys):
    doc = json.loads(json.dumps(MINIMAL))
    doc["params"] = {"assoc_max_iters": 0, "n_particles": 50}
    path = tmp_path / "no_iterations.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["--scenario", str(path), "--runs", "1", "--out-dir", str(tmp_path / "e")])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("mvaslam: error: params: ") and "assoc_max_iters" in err
    assert not (tmp_path / "e").exists()


def test_cli_outputs_deterministic(tmp_path, capsys):
    path = small_test_scenario(tmp_path)
    args = ["--scenario", str(path), "--runs", "2", "--seed", "5",
            "--particles", "120"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    for name in ("results.csv", "summary.json"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second, name
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["runs"] == 2
    assert (tmp_path / "a" / "timing.json").exists()


def test_nonfinite_association_diverges_one_run(tmp_path, monkeypatch, capsys):
    path = small_test_scenario(tmp_path)
    args = ["--scenario", str(path), "--runs", "2", "--seed", "5"]
    assert main(args + ["--out-dir", str(tmp_path / "clean")]) == 0

    real = engine.run_association
    calls = []

    def overflow_at_step_3_of_run_0(*a, **kw):
        calls.append(None)                    # one anchor: one call per step
        if len(calls) == 3:
            raise NonFinite("association messages overflowed")
        return real(*a, **kw)

    monkeypatch.setattr(engine, "run_association", overflow_at_step_3_of_run_0)
    assert main(args + ["--out-dir", str(tmp_path / "broken")]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "broken" / "summary.json").read_text())
    assert summary["runs"] == 2 and summary["diverged"] >= 1

    def rows(out):
        lines = (tmp_path / out / "results.csv").read_text().splitlines()[1:]
        return [line for line in lines if line.split(",")[1] == "0"], \
               [line for line in lines if line.split(",")[1] == "1"]

    broken0, broken1 = rows("broken")
    clean0, clean1 = rows("clean")
    assert broken0[:3] == clean0[:3]          # prior and steps 1-2 before the failure
    assert all(line.split(",")[2] == "" for line in broken0[3:])
    assert broken1 == clean1

    config = load_scenario(path)
    calls.clear()
    record = run_experiment(config, runs=1, base_seed=5).records[0]
    assert not record.converged
    assert np.all(np.isfinite(record.err_pos[:3])) and np.all(np.isnan(record.err_pos[3:]))


def test_cli_setup_and_ablation_flags(tmp_path):
    path = small_test_scenario(tmp_path, steps=4, particles=80)
    assert main(["--scenario", str(path), "--runs", "1", "--setup", "2",
                 "--no-visibility", "--out-dir", str(tmp_path / "c")]) == 0
    summary = json.loads((tmp_path / "c" / "summary.json").read_text())
    assert summary["double_bounce"] is False
    assert summary["visibility_check"] is False


def test_cli_entry_point_installed():
    # the subprocess finds the package where this process does, installed or not
    src = str(Path(mvaslam.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "mvaslam.cli", "--help"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "--scenario" in proc.stdout


def test_csv_column_order(tmp_path):
    path = small_test_scenario(tmp_path, steps=3, particles=60)
    assert main(["--scenario", str(path), "--runs", "1",
                 "--out-dir", str(tmp_path / "d")]) == 0
    header = (tmp_path / "d" / "results.csv").read_text().splitlines()[0]
    assert header == "n,run,err_pos,mospa_mva,mospa_va_pa1,S_hat"
