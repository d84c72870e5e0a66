import numpy as np
import pytest

from mvaslam.errors import OutOfSupport
from mvaslam.geometry import Surface, WallSegment, mva_to_va, path_distance_angle
from mvaslam.measurement import (
    ClutterModel,
    Measurement,
    NoiseProfile,
    PathNoise,
    fp_density,
    gaussian_pdf,
    generate_batch,
    likelihood,
    predicted_measurement,
)
from mvaslam.raytrace import Environment, PathClass

TINY = PathNoise(sigma_d=1e-9, sigma_phi=1e-9)
PROFILE = NoiseProfile(los=PathNoise(0.05, np.deg2rad(10.0)),
                       single=PathNoise(0.10, np.deg2rad(15.0)),
                       double=PathNoise(0.15, np.deg2rad(25.0)))
P_DETECT = {"los": 0.95, "single": 0.95, "double": 0.95}


def one_wall_setup():
    walls = [WallSegment([5.0, -10.0], [5.0, 10.0], 0)]
    surfaces = [Surface.from_segment(w.a, w.b) for w in walls]
    return surfaces, Environment(walls=walls)


def test_fp_density_values():
    clutter = ClutterModel(mu_fp=1.0, d_max=30.0)
    assert fp_density(Measurement(12.0, 0.3), clutter) == pytest.approx(1.0 / (60.0 * np.pi))
    assert fp_density(Measurement(0.5, 0.0), ClutterModel(1.0, 1.0)) == pytest.approx(1.0 / (2 * np.pi))
    with pytest.raises(OutOfSupport):
        fp_density(Measurement(31.0, 0.0), clutter)


def test_noise_profile_validation():
    with pytest.raises(ValueError):
        PathNoise(sigma_d=0.0, sigma_phi=0.1)
    with pytest.raises(ValueError):
        PathNoise(sigma_d=0.1, sigma_phi=np.pi / 3)
    with pytest.raises(ValueError):
        ClutterModel(mu_fp=-1.0, d_max=30.0)


def test_noiseless_limit_exact_values():
    surfaces, env = one_wall_setup()
    agent = np.array([-2.0, 1.0])
    heading = 0.3
    pa = np.array([1.0, -1.0])
    tiny = NoiseProfile(los=TINY, single=TINY, double=TINY)
    rng = np.random.default_rng(0)
    batch = generate_batch(agent, heading, pa, surfaces, env,
                           {"los": 1.0, "single": 1.0, "double": 1.0},
                           tiny, ClutterModel(mu_fp=0.0, d_max=30.0), rng)
    assert len(batch) == 2
    d_los, phi_los = path_distance_angle(agent, heading, pa)
    va = mva_to_va(surfaces[0].mva, pa)
    d_s, phi_s = path_distance_angle(agent, heading, va)
    got = sorted(map(tuple, batch.z))
    want = sorted([(d_los, phi_los), (d_s, phi_s)])
    for (gd, gp), (wd, wp) in zip(got, want):
        assert gd == pytest.approx(wd, abs=1e-6)
        assert gp == pytest.approx(wp, abs=1e-6)


def test_clutter_count_mean():
    # no surfaces, no detections: batches contain clutter only
    rng = np.random.default_rng(42)
    clutter = ClutterModel(mu_fp=1.0, d_max=30.0)
    total = 0
    n_draws = 100_000
    for _ in range(n_draws):
        batch = generate_batch([0.0, 0.0], 0.0, [3.0, 0.0], [], Environment(),
                               {"los": 0.0, "single": 0.0, "double": 0.0},
                               PROFILE, clutter, rng)
        total += len(batch)
    assert total / n_draws == pytest.approx(1.0, abs=0.01)


def test_expected_total_count():
    surfaces, env = one_wall_setup()
    agent = np.array([-2.0, 1.0])
    pa = np.array([1.0, -1.0])
    clutter = ClutterModel(mu_fp=1.0, d_max=30.0)
    rng = np.random.default_rng(7)
    n_draws = 100_000
    total = sum(len(generate_batch(agent, 0.0, pa, surfaces, env, P_DETECT,
                                   PROFILE, clutter, rng))
                for _ in range(n_draws))
    expected = 0.95 + 0.95 + 1.0  # LOS + one available single bounce + clutter
    assert total / n_draws == pytest.approx(expected, rel=0.01)


def test_clutter_support():
    rng = np.random.default_rng(3)
    clutter = ClutterModel(mu_fp=5.0, d_max=30.0)
    batch = generate_batch([0.0, 0.0], 0.0, [3.0, 0.0], [], Environment(),
                           {"los": 0.0, "single": 0.0, "double": 0.0},
                           PROFILE, clutter, rng)
    assert np.all(batch.z[:, 0] >= 0.0) and np.all(batch.z[:, 0] <= 30.0)
    assert np.all(batch.z[:, 1] >= -np.pi) and np.all(batch.z[:, 1] < np.pi)


def test_likelihood_peak_value():
    surfaces, _ = one_wall_setup()
    agent = np.array([-2.0, 1.0])
    pa = np.array([1.0, -1.0])
    d, phi = predicted_measurement(agent, 0.2, PathClass(s=0), pa, surfaces[0].mva)
    noise = PROFILE.single
    peak = likelihood(Measurement(float(d), float(phi)), agent, 0.2, PathClass(s=0),
                      pa, surfaces[0].mva, profile=PROFILE)
    assert peak == pytest.approx(1.0 / (2 * np.pi * noise.sigma_d * noise.sigma_phi))


def test_likelihood_wrapped_angle_difference():
    agent = np.array([0.0, 0.0])
    pa = np.array([3.0, 0.0])
    d, phi = predicted_measurement(agent, 0.0, PathClass(), pa)
    base = likelihood(Measurement(float(d), float(phi - 0.1)), agent, 0.0,
                      PathClass(), pa, profile=PROFILE)
    shifted = likelihood(Measurement(float(d), float(phi + 2 * np.pi - 0.1)),
                         agent, 0.0, PathClass(), pa, profile=PROFILE)
    assert shifted == pytest.approx(base, rel=1e-9)


def test_likelihood_matches_bivariate_gaussian_oracle():
    surfaces, _ = one_wall_setup()
    agent = np.array([-2.0, 1.0])
    heading = -0.4
    pa = np.array([1.0, -1.0])
    noise = PROFILE.single
    d, phi = predicted_measurement(agent, heading, PathClass(s=0), pa, surfaces[0].mva)
    for k_d, k_phi in [(3, 0), (0, 3), (3, 3), (-2, 1)]:
        z = Measurement(float(d + k_d * noise.sigma_d), float(phi + k_phi * noise.sigma_phi))
        got = likelihood(z, agent, heading, PathClass(s=0), pa, surfaces[0].mva,
                         profile=PROFILE)
        want = (gaussian_pdf(k_d * noise.sigma_d, 0.0, noise.sigma_d)
                * gaussian_pdf(k_phi * noise.sigma_phi, 0.0, noise.sigma_phi))
        assert got == pytest.approx(float(want), rel=1e-9)


def test_likelihood_integrates_to_one():
    agent = np.array([0.0, 0.0])
    pa = np.array([4.0, 1.0])
    d0, phi0 = predicted_measurement(agent, 0.1, PathClass(), pa)
    noise = PROFILE.double  # widest angle noise: 25 degrees
    ds = np.linspace(d0 - 8 * noise.sigma_d, d0 + 8 * noise.sigma_d, 401)
    phis = np.linspace(phi0 - 8 * noise.sigma_phi, phi0 + 8 * noise.sigma_phi, 401)
    grid_d, grid_phi = np.meshgrid(ds, phis, indexing="ij")
    vals = (gaussian_pdf(grid_d, d0, noise.sigma_d)
            * gaussian_pdf(grid_phi - phi0, 0.0, noise.sigma_phi))
    integral = np.trapezoid(np.trapezoid(vals, phis, axis=1), ds)
    assert integral == pytest.approx(1.0, abs=1e-3)
    sampled = likelihood(Measurement(float(ds[100]), float(phis[250])), agent, 0.1,
                         PathClass(), pa,
                         sigma_d=noise.sigma_d, sigma_phi=noise.sigma_phi)
    assert sampled == pytest.approx(float(vals[100, 250]), rel=1e-9)


def test_generation_likelihood_consistency():
    # average log-likelihood at truth approaches the analytic Gaussian entropy
    surfaces, env = one_wall_setup()
    agent = np.array([-2.0, 1.0])
    heading = 0.7
    pa = np.array([1.0, -1.0])
    rng = np.random.default_rng(11)
    noise = PROFILE.los
    logs = []
    for _ in range(10_000):
        batch = generate_batch(agent, heading, pa, [], Environment(),
                               {"los": 1.0, "single": 0.0, "double": 0.0},
                               PROFILE, ClutterModel(mu_fp=0.0, d_max=30.0), rng)
        z = Measurement(float(batch.z[0, 0]), float(batch.z[0, 1]))
        logs.append(np.log(likelihood(z, agent, heading, PathClass(), pa, profile=PROFILE)))
    expected = -1.0 - np.log(2 * np.pi * noise.sigma_d * noise.sigma_phi)
    assert np.mean(logs) == pytest.approx(expected, rel=0.02)

