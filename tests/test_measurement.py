import re
from pathlib import Path

import numpy as np
import pytest

from mvaslam.geometry import WallSegment, mva_to_va, path_distance_angle
from mvaslam.measurement import (
    ClutterModel,
    NoiseProfile,
    PathNoise,
    generate_batch,
)
from mvaslam.raytrace import Environment, candidate_blocks
from mvaslam.scenario import bundled_scenario

from oracles import Measurement, gaussian_pdf, likelihood, predicted_measurement

TINY = PathNoise(sigma_d=1e-9, sigma_phi=1e-9)
PROFILE = NoiseProfile(los=PathNoise(0.05, np.deg2rad(10.0)),
                       single=PathNoise(0.10, np.deg2rad(15.0)),
                       double=PathNoise(0.15, np.deg2rad(25.0)))
P_DETECT = {"los": 0.95, "single": 0.95, "double": 0.95}.get
ONE_WALL = Environment(walls=[WallSegment([5.0, -10.0], [5.0, 10.0])])
WALL_MVA = ONE_WALL.wall_mvas[0]


def traced(agent, pa, env):
    """Candidate path blocks, true VAs and availability at one agent position, traced once."""
    blocks = candidate_blocks(len(env.walls), True)
    va, available = env.trace_paths(agent, pa, blocks)
    return blocks, va, available


def test_noise_profile_validation():
    for sigma_d, sigma_phi in [(0.0, 0.1), (np.inf, 0.1), (np.nan, 0.1), (0.1, np.pi / 3),
                               (0.1, np.nan)]:
        with pytest.raises(ValueError):
            PathNoise(sigma_d=sigma_d, sigma_phi=sigma_phi)
    for field, bad in [("mu_fp", -1.0), ("mu_fp", np.nan), ("mu_fp", np.inf),
                       ("d_max", 0.0), ("d_max", np.nan), ("d_max", np.inf)]:
        with pytest.raises(ValueError, match=field):
            ClutterModel(**{"mu_fp": 1.0, "d_max": 30.0, field: bad})
    assert ClutterModel(mu_fp=1.0, d_max=30.0).density == pytest.approx(1.0 / (60.0 * np.pi))
    assert ClutterModel(1.0, 1.0).density == pytest.approx(1.0 / (2 * np.pi))


def test_noiseless_limit_exact_values():
    agent = np.array([-2.0, 1.0])
    heading = 0.3
    pa = np.array([1.0, -1.0])
    tiny = NoiseProfile(los=TINY, single=TINY, double=TINY)
    rng = np.random.default_rng(0)
    batch = generate_batch(agent, heading, *traced(agent, pa, ONE_WALL),
                           {"los": 1.0, "single": 1.0, "double": 1.0}.get,
                           tiny, ClutterModel(mu_fp=0.0, d_max=30.0), rng)
    assert len(batch) == 2
    d_los, phi_los = path_distance_angle(agent, heading, pa)
    va = mva_to_va(WALL_MVA, pa)
    d_s, phi_s = path_distance_angle(agent, heading, va)
    got = sorted(map(tuple, batch))
    want = sorted([(d_los, phi_los), (d_s, phi_s)])
    for (gd, gp), (wd, wp) in zip(got, want):
        assert gd == pytest.approx(wd, abs=1e-6)
        assert gp == pytest.approx(wp, abs=1e-6)


def test_clutter_count_mean():
    # no surfaces, no detections: batches contain clutter only
    rng = np.random.default_rng(42)
    clutter = ClutterModel(mu_fp=1.0, d_max=30.0)
    truth = traced([0.0, 0.0], [3.0, 0.0], Environment())
    total = 0
    n_draws = 100_000
    for _ in range(n_draws):
        batch = generate_batch([0.0, 0.0], 0.0, *truth,
                               {"los": 0.0, "single": 0.0, "double": 0.0}.get,
                               PROFILE, clutter, rng)
        total += len(batch)
    assert total / n_draws == pytest.approx(1.0, abs=0.01)


def test_expected_total_count():
    agent = np.array([-2.0, 1.0])
    pa = np.array([1.0, -1.0])
    clutter = ClutterModel(mu_fp=1.0, d_max=30.0)
    rng = np.random.default_rng(7)
    truth = traced(agent, pa, ONE_WALL)
    n_draws = 100_000
    total = sum(len(generate_batch(agent, 0.0, *truth, P_DETECT,
                                   PROFILE, clutter, rng))
                for _ in range(n_draws))
    expected = 0.95 + 0.95 + 1.0  # LOS + one available single bounce + clutter
    assert total / n_draws == pytest.approx(expected, rel=0.01)


def test_clutter_support():
    rng = np.random.default_rng(3)
    clutter = ClutterModel(mu_fp=5.0, d_max=30.0)
    batch = generate_batch([0.0, 0.0], 0.0, *traced([0.0, 0.0], [3.0, 0.0], Environment()),
                           {"los": 0.0, "single": 0.0, "double": 0.0}.get,
                           PROFILE, clutter, rng)
    assert np.all(batch[:, 0] >= 0.0) and np.all(batch[:, 0] <= 30.0)
    assert np.all(batch[:, 1] >= -np.pi) and np.all(batch[:, 1] < np.pi)


def test_likelihood_peak_value():
    agent = np.array([-2.0, 1.0])
    pa = np.array([1.0, -1.0])
    d, phi = predicted_measurement(agent, 0.2, (0,), pa, WALL_MVA)
    noise = PROFILE.single
    peak = likelihood(Measurement(float(d), float(phi)), agent, 0.2, (0,),
                      pa, WALL_MVA, profile=PROFILE)
    assert peak == pytest.approx(1.0 / (2 * np.pi * noise.sigma_d * noise.sigma_phi))


def test_likelihood_wrapped_angle_difference():
    agent = np.array([0.0, 0.0])
    pa = np.array([3.0, 0.0])
    d, phi = predicted_measurement(agent, 0.0, (), pa)
    base = likelihood(Measurement(float(d), float(phi - 0.1)), agent, 0.0,
                      (), pa, profile=PROFILE)
    shifted = likelihood(Measurement(float(d), float(phi + 2 * np.pi - 0.1)),
                         agent, 0.0, (), pa, profile=PROFILE)
    assert shifted == pytest.approx(base, rel=1e-9)


def test_likelihood_matches_bivariate_gaussian_oracle():
    agent = np.array([-2.0, 1.0])
    heading = -0.4
    pa = np.array([1.0, -1.0])
    noise = PROFILE.single
    d, phi = predicted_measurement(agent, heading, (0,), pa, WALL_MVA)
    for k_d, k_phi in [(3, 0), (0, 3), (3, 3), (-2, 1)]:
        z = Measurement(float(d + k_d * noise.sigma_d), float(phi + k_phi * noise.sigma_phi))
        got = likelihood(z, agent, heading, (0,), pa, WALL_MVA,
                         profile=PROFILE)
        want = (gaussian_pdf(k_d * noise.sigma_d, 0.0, noise.sigma_d)
                * gaussian_pdf(k_phi * noise.sigma_phi, 0.0, noise.sigma_phi))
        assert got == pytest.approx(float(want), rel=1e-9)


def test_likelihood_integrates_to_one():
    agent = np.array([0.0, 0.0])
    pa = np.array([4.0, 1.0])
    d0, phi0 = predicted_measurement(agent, 0.1, (), pa)
    noise = PROFILE.double  # widest angle noise: 25 degrees
    ds = np.linspace(d0 - 8 * noise.sigma_d, d0 + 8 * noise.sigma_d, 401)
    phis = np.linspace(phi0 - 8 * noise.sigma_phi, phi0 + 8 * noise.sigma_phi, 401)
    grid_d, grid_phi = np.meshgrid(ds, phis, indexing="ij")
    vals = (gaussian_pdf(grid_d, d0, noise.sigma_d)
            * gaussian_pdf(grid_phi - phi0, 0.0, noise.sigma_phi))
    integral = np.trapezoid(np.trapezoid(vals, phis, axis=1), ds)
    assert integral == pytest.approx(1.0, abs=1e-3)
    sampled = likelihood(Measurement(float(ds[100]), float(phis[250])), agent, 0.1,
                         (), pa, profile=NoiseProfile(noise, noise, noise))
    assert sampled == pytest.approx(float(vals[100, 250]), rel=1e-9)


def test_generation_likelihood_consistency():
    # average log-likelihood at truth approaches the analytic Gaussian entropy
    agent = np.array([-2.0, 1.0])
    heading = 0.7
    pa = np.array([1.0, -1.0])
    rng = np.random.default_rng(11)
    noise = PROFILE.los
    truth = traced(agent, pa, Environment())
    logs = []
    for _ in range(10_000):
        batch = generate_batch(agent, heading, *truth,
                               {"los": 1.0, "single": 0.0, "double": 0.0}.get,
                               PROFILE, ClutterModel(mu_fp=0.0, d_max=30.0), rng)
        z = Measurement(float(batch[0, 0]), float(batch[0, 1]))
        logs.append(np.log(likelihood(z, agent, heading, (), pa, profile=PROFILE)))
    expected = -1.0 - np.log(2 * np.pi * noise.sigma_d * noise.sigma_phi)
    assert np.mean(logs) == pytest.approx(expected, rel=0.02)


def test_readme_generate_batch_snippet_runs():
    # the README's generate_batch example runs as written, with the table shapes it states
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    snippet, = [code for code in re.findall(r"```python\n(.*?)```", readme, re.S)
                if "generate_batch(" in code]
    config = bundled_scenario("exp1_rect_room")
    scope = {"np": np, "config": config}
    exec(snippet, scope)
    truth, batch = scope["truth"], scope["batch"]
    n_paths = sum(len(members) for _, members in truth.blocks)
    assert "(J, K, 2) / (J, N+1, K) tables" in snippet
    assert truth.va.shape == (len(config.pas), n_paths, 2)
    assert truth.available.shape == (len(config.pas), len(config.waypoints), n_paths)
    assert batch.ndim == 2 and batch.shape[1] == 2 and len(batch) > 0
