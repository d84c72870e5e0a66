"""Scenario configuration: geometry, trajectory, noise, and filter settings.

Scenarios are JSON documents; parsing fills defaults from the synthetic
benchmark setup and validates with field-path error messages.  Bundled
scenarios ship as package data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from typing import Any

import numpy as np

from .engine import HyperParams, ncv_matrices
from .errors import ScenarioError
from .geometry import Surface, WallSegment
from .measurement import ClutterModel, NoiseProfile, PathNoise
from .raytrace import Environment

DEFAULT_NOISE = {
    "los": {"sigma_d": 0.05, "sigma_phi_deg": 10.0},
    "single": {"sigma_d": 0.10, "sigma_phi_deg": 15.0},
    "double": {"sigma_d": 0.15, "sigma_phi_deg": 25.0},
}
DEFAULT_CLUTTER = {"mu_fp": 1.0, "d_max": 30.0}
DEFAULT_P_DETECT = 0.95


@dataclass
class ScenarioConfig:
    """Validated scenario: geometry plus generation and filter parameters."""

    name: str
    walls: list[WallSegment]          # reflective walls, surface_index assigned
    blockers: list[WallSegment]
    pas: list[np.ndarray]
    waypoints: np.ndarray             # (N, 2) positions at dt spacing
    profile: NoiseProfile
    clutter: ClutterModel
    params: HyperParams
    double_bounce: bool = True        # full setup vs single-bounce-only setup
    raw: dict = field(default_factory=dict, repr=False)

    @property
    def surfaces(self) -> list[Surface]:
        return [Surface.from_segment(w.a, w.b) for w in self.walls]

    @property
    def environment(self) -> Environment:
        return Environment(walls=self.walls, blockers=self.blockers)

    @property
    def n_steps(self) -> int:
        return self.waypoints.shape[0] - 1

    def p_detect(self) -> dict[str, float]:
        return {"los": self.params.p_detect_los,
                "single": self.params.p_detect_single,
                "double": self.params.p_detect_double}

    def velocities(self) -> np.ndarray:
        """Backward-difference velocities, one per measured step."""
        dt = self.params.dt
        return np.diff(self.waypoints, axis=0) / dt


def _fail(path: str, message: str):
    raise ScenarioError(f"{path}: {message}")


def _get_pair(value, path: str) -> np.ndarray:
    if (not isinstance(value, (list, tuple))) or len(value) != 2:
        _fail(path, "expected [x, y]")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        _fail(path, "expected numeric [x, y]")
    if not np.all(np.isfinite(arr)):
        _fail(path, "coordinates must be finite")
    return arr


def _parse_segment(obj, path: str, surface_index=None) -> WallSegment:
    if not isinstance(obj, dict):
        _fail(path, "expected an object with 'a' and 'b'")
    for key in ("a", "b"):
        if key not in obj:
            _fail(f"{path}.{key}", "missing endpoint")
    try:
        return WallSegment(a=_get_pair(obj["a"], f"{path}.a"),
                           b=_get_pair(obj["b"], f"{path}.b"),
                           surface_index=surface_index)
    except ScenarioError:
        raise
    except Exception as exc:
        _fail(path, str(exc))


def _parse_noise(obj) -> NoiseProfile:
    merged = {k: dict(DEFAULT_NOISE[k]) for k in DEFAULT_NOISE}
    for kind, entry in (obj or {}).items():
        if kind not in merged:
            _fail(f"noise.{kind}", "unknown path class (use los/single/double)")
        merged[kind].update(entry)
    def build(kind):
        e = merged[kind]
        sigma_phi = math.radians(e["sigma_phi_deg"]) if "sigma_phi_deg" in e else e["sigma_phi"]
        try:
            return PathNoise(sigma_d=float(e["sigma_d"]), sigma_phi=float(sigma_phi))
        except ValueError as exc:
            _fail(f"noise.{kind}", str(exc))
    return NoiseProfile(los=build("los"), single=build("single"), double=build("double"))


def _ncv_waypoints(spec: dict, dt: float) -> np.ndarray:
    for key in ("start", "velocity", "steps"):
        if key not in spec:
            _fail(f"trajectory.ncv.{key}", "missing")
    start = _get_pair(spec["start"], "trajectory.ncv.start")
    velocity = _get_pair(spec["velocity"], "trajectory.ncv.velocity")
    steps = int(spec["steps"])
    if steps < 1:
        _fail("trajectory.ncv.steps", "must be >= 1")
    sigma_w = float(spec.get("sigma_w", 0.0))
    rng = np.random.default_rng(int(spec.get("seed", 0)))
    a, b = ncv_matrices(dt)
    x = np.concatenate([start, velocity])
    out = [start.copy()]
    for _ in range(steps):
        x = a @ x + b @ (sigma_w * rng.standard_normal(2))
        out.append(x[:2].copy())
    return np.stack(out)


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("top level: expected an object")

    name = doc.get("name", "scenario")

    if "walls" not in doc or not doc["walls"]:
        _fail("walls", "at least one wall segment is required")
    walls: list[WallSegment] = []
    blockers: list[WallSegment] = []
    for i, w in enumerate(doc["walls"]):
        reflective = bool(w.get("reflective", True)) if isinstance(w, dict) else True
        seg = _parse_segment(w, f"walls[{i}]",
                             surface_index=len(walls) if reflective else None)
        (walls if reflective else blockers).append(seg)
    for i, w in enumerate(doc.get("blockers", [])):
        blockers.append(_parse_segment(w, f"blockers[{i}]"))
    if not walls:
        _fail("walls", "at least one reflective wall is required")

    if "pas" not in doc or not doc["pas"]:
        _fail("pas", "at least one physical anchor position is required")
    pas = [_get_pair(p, f"pas[{i}]") for i, p in enumerate(doc["pas"])]

    profile = _parse_noise(doc.get("noise"))
    clutter_doc = {**DEFAULT_CLUTTER, **doc.get("clutter", {})}
    try:
        clutter = ClutterModel(mu_fp=float(clutter_doc["mu_fp"]), d_max=float(clutter_doc["d_max"]))
    except ValueError as exc:
        _fail("clutter", str(exc))

    params_doc = dict(doc.get("params", {}))
    p_detect = params_doc.pop("p_detect", DEFAULT_P_DETECT)
    for kind in ("los", "single", "double"):
        params_doc.setdefault(f"p_detect_{kind}", p_detect)
    if "birth_region" in params_doc:
        region = params_doc["birth_region"]
        try:
            params_doc["birth_region"] = ((float(region[0][0]), float(region[0][1])),
                                          (float(region[1][0]), float(region[1][1])))
        except (TypeError, IndexError, ValueError):
            _fail("params.birth_region", "expected [[xlo, xhi], [ylo, yhi]]")
    known = {f.name for f in fields(HyperParams)}
    for key in params_doc:
        if key not in known:
            _fail(f"params.{key}", "unknown hyperparameter")
    try:
        params = HyperParams(**params_doc)
    except (TypeError, ValueError) as exc:
        _fail("params", str(exc))

    double_bounce = bool(doc.get("double_bounce", True))
    params = replace(params, use_double_bounce=double_bounce)

    traj = doc.get("trajectory")
    if not isinstance(traj, dict):
        _fail("trajectory", "expected an object with 'waypoints' or 'ncv'")
    if "waypoints" in traj:
        pts = traj["waypoints"]
        if not isinstance(pts, list) or len(pts) < 2:
            _fail("trajectory.waypoints", "need at least 2 waypoints")
        waypoints = np.stack([_get_pair(p, f"trajectory.waypoints[{i}]")
                              for i, p in enumerate(pts)])
    elif "ncv" in traj:
        waypoints = _ncv_waypoints(traj["ncv"], params.dt)
    else:
        _fail("trajectory", "expected 'waypoints' or 'ncv'")

    config = ScenarioConfig(name=name, walls=walls, blockers=blockers, pas=pas,
                            waypoints=waypoints, profile=profile, clutter=clutter,
                            params=params, double_bounce=double_bounce, raw=doc)
    config.environment.validate(config.surfaces)
    return config


def _pair_list(p) -> list[float]:
    return [float(p[0]), float(p[1])]


def serialize_scenario(config: ScenarioConfig) -> str:
    """Serialize a config back to JSON (round-trips through parse_scenario)."""
    params_doc: dict[str, Any] = {}
    for f in fields(HyperParams):
        if f.name == "use_double_bounce":
            continue  # carried by the top-level setup flag
        value = getattr(config.params, f.name)
        if f.name == "birth_region":
            value = [list(value[0]), list(value[1])]
        params_doc[f.name] = value
    doc = {
        "name": config.name,
        "walls": [{"a": _pair_list(w.a), "b": _pair_list(w.b), "reflective": True}
                  for w in config.walls],
        "blockers": [{"a": _pair_list(w.a), "b": _pair_list(w.b)} for w in config.blockers],
        "pas": [_pair_list(p) for p in config.pas],
        "trajectory": {"waypoints": [_pair_list(p) for p in config.waypoints]},
        "noise": {
            kind: {"sigma_d": getattr(config.profile, kind).sigma_d,
                   "sigma_phi_deg": math.degrees(getattr(config.profile, kind).sigma_phi)}
            for kind in ("los", "single", "double")
        },
        "clutter": {"mu_fp": config.clutter.mu_fp, "d_max": config.clutter.d_max},
        "double_bounce": config.double_bounce,
        "params": params_doc,
    }
    return json.dumps(doc, indent=2)


def load_scenario(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def bundled_scenario(name: str) -> ScenarioConfig:
    """Load one of the packaged scenarios: exp1_rect_room, exp3_olos, nonrect."""
    ref = resources.files("mvaslam").joinpath(f"scenarios/{name}.json")
    try:
        text = ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScenarioError(f"no bundled scenario named {name!r}") from None
    return parse_scenario(text)
