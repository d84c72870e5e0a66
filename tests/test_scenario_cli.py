import json
import subprocess
import sys

import numpy as np
import pytest

from mvaslam.cli import main
from mvaslam.errors import ScenarioError
from mvaslam.experiment import run_experiment, splitmix64
from mvaslam.scenario import (
    bundled_scenario,
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
    with pytest.raises(ScenarioError):
        bundled_scenario("missing")


def test_splitmix_seeds_stable_under_extension():
    seeds_5 = [splitmix64(42, i) for i in range(5)]
    seeds_8 = [splitmix64(42, i) for i in range(8)]
    assert seeds_5 == seeds_8[:5]
    assert len(set(seeds_8)) == 8


def test_run_experiment_determinism_and_threads(tmp_path):
    path = small_test_scenario(tmp_path)
    from mvaslam.scenario import load_scenario
    config = load_scenario(path)
    res1 = run_experiment(config, runs=2, base_seed=9, threads=1)
    res2 = run_experiment(config, runs=2, base_seed=9, threads=2)
    for a, b in zip(res1.records, res2.records):
        assert np.array_equal(a.err_pos, b.err_pos)
        assert np.array_equal(a.mospa_mva, b.mospa_mva)
    assert res1.summary == res2.summary


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


def test_cli_setup_and_ablation_flags(tmp_path):
    path = small_test_scenario(tmp_path, steps=4, particles=80)
    assert main(["--scenario", str(path), "--runs", "1", "--setup", "2",
                 "--no-visibility", "--out-dir", str(tmp_path / "c")]) == 0
    summary = json.loads((tmp_path / "c" / "summary.json").read_text())
    assert summary["double_bounce"] is False
    assert summary["visibility_check"] is False


def test_cli_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "mvaslam.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "--scenario" in proc.stdout


def test_csv_column_order(tmp_path):
    path = small_test_scenario(tmp_path, steps=3, particles=60)
    assert main(["--scenario", str(path), "--runs", "1",
                 "--out-dir", str(tmp_path / "d")]) == 0
    header = (tmp_path / "d" / "results.csv").read_text().splitlines()[0]
    assert header == "n,run,err_pos,mospa_mva,mospa_va_pa1,S_hat"
