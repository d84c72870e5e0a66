"""Scenario configuration: geometry, trajectory, noise, and filter settings.

Scenarios are JSON documents; parsing fills defaults from the synthetic
benchmark setup and validates with field-path error messages.  Bundled
scenarios ship as package data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from importlib import resources
from typing import Any

import numpy as np

from .engine import HyperParams, ncv_step
from .errors import ScenarioError
from .geometry import EPS_GEO, WallSegment
from .measurement import ClutterModel, NoiseProfile, PathNoise

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
    walls: list[WallSegment]          # reflective walls: wall k is true surface k
    blockers: list[WallSegment]
    pas: list[np.ndarray]
    waypoints: np.ndarray             # (N, 2) positions at dt spacing
    profile: NoiseProfile
    clutter: ClutterModel
    params: HyperParams
    double_bounce: bool = True        # full setup vs single-bounce-only setup

    def __post_init__(self):
        # the truth, the metrics and the filter must see the same setup
        if self.double_bounce != self.params.use_double_bounce:
            raise ValueError(f"double_bounce={self.double_bounce} differs from "
                             f"params.use_double_bounce={self.params.use_double_bounce}")

    @property
    def n_steps(self) -> int:
        return self.waypoints.shape[0] - 1


def _fail(path: str, message: str):
    raise ScenarioError(f"{path}: {message}")


_JSON_TYPES = {"an object": dict, "a list": list, "a string": str, "true or false": bool}


def _expect(value, what: str, path: str):
    """``value`` if it has the JSON type ``what``; a string "false" is not a boolean."""
    if not isinstance(value, _JSON_TYPES[what]):
        _fail(path, f"expected {what}, got {json.dumps(value)}")
    return value


def _number(value, path: str, integer: bool = False):
    """A finite JSON number (``true`` / ``false`` are not numbers), as float or int."""
    if (isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value)
            or (integer and not float(value).is_integer())):
        _fail(path, f"expected {'an integer' if integer else 'a finite number'}, "
                    f"got {json.dumps(value)}")
    return int(value) if integer else float(value)


def _known_keys(obj: dict, allowed, path: str) -> dict:
    """``obj``, with every key in ``allowed``; ``path`` is the object's own, "" at the top."""
    for key in obj:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key, f"unknown key (use {'/'.join(allowed)})")
    return obj


def _get_pair(value, path: str) -> np.ndarray:
    if (not isinstance(value, (list, tuple))) or len(value) != 2:
        _fail(path, "expected [x, y]")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _parse_segment(obj, path: str, reflective: bool | None = None) -> WallSegment:
    """An entry of ``walls``, ``reflective`` or not, or of ``blockers`` (None)."""
    if not isinstance(obj, dict):
        _fail(path, "expected an object with 'a' and 'b'")
    _known_keys(obj, ("a", "b") if reflective is None else ("a", "b", "reflective"), path)
    for key in ("a", "b"):
        if key not in obj:
            _fail(f"{path}.{key}", "missing endpoint")
    try:
        wall = WallSegment(a=_get_pair(obj["a"], f"{path}.a"),
                           b=_get_pair(obj["b"], f"{path}.b"))
        if reflective:
            wall.mva  # a reflector's line must miss the origin: raises DegenerateSurface
        return wall
    except ScenarioError:
        raise
    except Exception as exc:
        _fail(path, str(exc))


def _parse_noise(obj) -> NoiseProfile:
    merged = {k: dict(DEFAULT_NOISE[k]) for k in DEFAULT_NOISE}
    for kind, entry in _expect(obj, "an object", "noise").items():
        if kind not in merged:
            _fail(f"noise.{kind}", "unknown path class (use los/single/double)")
        merged[kind].update(_known_keys(_expect(entry, "an object", f"noise.{kind}"),
                                        merged[kind], f"noise.{kind}"))

    def build(kind):
        e = merged[kind]
        path = f"noise.{kind}"
        sigma_phi = math.radians(_number(e["sigma_phi_deg"], f"{path}.sigma_phi_deg"))
        try:
            return PathNoise(sigma_d=_number(e["sigma_d"], f"{path}.sigma_d"), sigma_phi=sigma_phi)
        except ValueError as exc:
            _fail(path, str(exc))
    return NoiseProfile(los=build("los"), single=build("single"), double=build("double"))


def _ncv_waypoints(spec, dt: float) -> np.ndarray:
    _known_keys(_expect(spec, "an object", "trajectory.ncv"),
                ("start", "velocity", "steps", "sigma_w", "seed"), "trajectory.ncv")
    for key in ("start", "velocity", "steps"):
        if key not in spec:
            _fail(f"trajectory.ncv.{key}", "missing")
    start = _get_pair(spec["start"], "trajectory.ncv.start")
    velocity = _get_pair(spec["velocity"], "trajectory.ncv.velocity")
    steps = _number(spec["steps"], "trajectory.ncv.steps", integer=True)
    if steps < 1:
        _fail("trajectory.ncv.steps", "must be >= 1")
    sigma_w = _number(spec.get("sigma_w", 0.0), "trajectory.ncv.sigma_w")
    if sigma_w < 0:
        _fail("trajectory.ncv.sigma_w", "must be >= 0")
    seed = _number(spec.get("seed", 0), "trajectory.ncv.seed", integer=True)
    if seed < 0:
        _fail("trajectory.ncv.seed", "must be >= 0")
    rng = np.random.default_rng(seed)
    x = np.concatenate([start, velocity])
    out = [start.copy()]
    for _ in range(steps):
        x = ncv_step(x, sigma_w * rng.standard_normal(2), dt)
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
    _known_keys(doc, ("name", "walls", "blockers", "pas", "trajectory", "noise", "clutter",
                      "double_bounce", "params"), "")

    name = _expect(doc.get("name", "scenario"), "a string", "name")

    if "walls" not in doc or not doc["walls"]:
        _fail("walls", "at least one wall segment is required")
    walls: list[WallSegment] = []
    blockers: list[WallSegment] = []
    for i, w in enumerate(_expect(doc["walls"], "a list", "walls")):
        reflective = (_expect(w.get("reflective", True), "true or false", f"walls[{i}].reflective")
                      if isinstance(w, dict) else True)
        seg = _parse_segment(w, f"walls[{i}]", reflective)
        (walls if reflective else blockers).append(seg)
    for i, w in enumerate(_expect(doc.get("blockers", []), "a list", "blockers")):
        blockers.append(_parse_segment(w, f"blockers[{i}]"))
    if not walls:
        _fail("walls", "at least one reflective wall is required")

    if "pas" not in doc or not doc["pas"]:
        _fail("pas", "at least one physical anchor position is required")
    pas = [_get_pair(p, f"pas[{i}]") for i, p in enumerate(_expect(doc["pas"], "a list", "pas"))]

    profile = _parse_noise(doc.get("noise", {}))
    clutter_doc = {**DEFAULT_CLUTTER, **_known_keys(
        _expect(doc.get("clutter", {}), "an object", "clutter"), DEFAULT_CLUTTER, "clutter")}
    try:
        clutter = ClutterModel(mu_fp=_number(clutter_doc["mu_fp"], "clutter.mu_fp"),
                               d_max=_number(clutter_doc["d_max"], "clutter.d_max"))
    except ValueError as exc:
        _fail("clutter", str(exc))

    params_doc = dict(_expect(doc.get("params", {}), "an object", "params"))
    p_detect = _number(params_doc.pop("p_detect", DEFAULT_P_DETECT), "params.p_detect")
    for kind in ("los", "single", "double"):
        params_doc.setdefault(f"p_detect_{kind}", p_detect)
    if "birth_region" in params_doc:
        region = params_doc["birth_region"]
        if not isinstance(region, list) or len(region) != 2:
            _fail("params.birth_region", "expected [[xlo, xhi], [ylo, yhi]]")
        params_doc["birth_region"] = tuple(
            tuple(_get_pair(bounds, f"params.birth_region[{i}]").tolist())
            for i, bounds in enumerate(region))
    if "use_double_bounce" in params_doc:
        _fail("params.use_double_bounce", "set the top-level 'double_bounce' flag instead")
    types = {f.name: f.type for f in fields(HyperParams)}
    for key in params_doc:
        if key not in types:
            _fail(f"params.{key}", "unknown hyperparameter")
        if types[key] == "bool":
            params_doc[key] = _expect(params_doc[key], "true or false", f"params.{key}")
        elif types[key] in ("int", "float"):
            params_doc[key] = _number(params_doc[key], f"params.{key}", integer=types[key] == "int")
    try:
        params = HyperParams(**params_doc)
    except (TypeError, ValueError) as exc:
        _fail("params", str(exc))

    double_bounce = _expect(doc.get("double_bounce", True), "true or false", "double_bounce")
    params = replace(params, use_double_bounce=double_bounce)

    traj = doc.get("trajectory")
    if not isinstance(traj, dict) or len(_known_keys(traj, ("waypoints", "ncv"),
                                                     "trajectory")) != 1:
        _fail("trajectory", "expected an object with exactly one of 'waypoints' and 'ncv'")
    if "waypoints" in traj:
        pts = traj["waypoints"]
        if not isinstance(pts, list) or len(pts) < 2:
            _fail("trajectory.waypoints", "need at least 2 waypoints")
        waypoints = np.stack([_get_pair(p, f"trajectory.waypoints[{i}]")
                              for i, p in enumerate(pts)])
    else:
        waypoints = _ncv_waypoints(traj["ncv"], params.dt)
    # an agent on an anchor has no arrival angle for that anchor's LOS path
    on_anchor = np.argwhere(np.linalg.norm(waypoints[:, None] - np.array(pas), axis=-1) <= EPS_GEO)
    if len(on_anchor):
        i, j = on_anchor[0]
        _fail("trajectory", f"waypoint {i} coincides with the anchor pas[{j}]")

    return ScenarioConfig(name=name, walls=walls, blockers=blockers, pas=pas,
                          waypoints=waypoints, profile=profile, clutter=clutter,
                          params=params, double_bounce=double_bounce)


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
