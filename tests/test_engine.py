import tracemalloc

import numpy as np
import pytest

from mvaslam.engine import (
    AgentBelief,
    HyperParams,
    PmvaBelief,
    _RowBlock,
    _block_likelihood,
    _exp_in_place,
    SlamFilter,
    draw_new_pmva,
    finalize_step,
    ncv_matrices,
    predict_agent,
    predict_legacy,
    process_pa,
    systematic_resample,
)
from mvaslam.errors import DegenerateWeights
from mvaslam.geometry import (
    EPS_GEO,
    WallSegment,
    mva_to_va,
    path_distance_angle,
    va_to_mva,
    wrap_angle,
)
from mvaslam.measurement import (
    ClutterModel,
    MeasurementBatch,
    NoiseProfile,
    PathNoise,
    generate_batch,
)
from mvaslam import raytrace
from mvaslam.raytrace import Environment, candidate_blocks
from mvaslam.scenario import bundled_scenario

from oracles import (Measurement, backward_trace, block_likelihood_reference, dense_lik_sums,
                     dense_response, likelihood)

PROFILE = NoiseProfile(los=PathNoise(0.05, np.deg2rad(10.0)),
                       single=PathNoise(0.10, np.deg2rad(15.0)),
                       double=PathNoise(0.15, np.deg2rad(25.0)))
CLUTTER = ClutterModel(mu_fp=1.0, d_max=30.0)


def point_belief(pos, vel, n, heading=None):
    particles = np.tile(np.concatenate([pos, vel]), (n, 1))
    if heading is None:
        heading = np.arctan2(vel[1], vel[0])
    return AgentBelief(particles=particles, weights=np.full(n, 1.0 / n),
                       headings=np.full(n, heading))


def empty_batch():
    return MeasurementBatch(z=np.zeros((0, 2)))


def batch_of(rows):
    return MeasurementBatch(z=np.asarray(rows, dtype=float).reshape(-1, 2))


def test_ncv_matrices_shape_and_values():
    a, b = ncv_matrices(0.5)
    assert np.allclose(a @ [1.0, 2.0, 3.0, 4.0], [2.5, 4.0, 3.0, 4.0])
    assert np.allclose(b[:, 0], [0.125, 0.0, 0.5, 0.0])


@pytest.mark.parametrize("kind", ["los", "single", "double"])
def test_hyperparams_reject_certain_detection(kind):
    with pytest.raises(ValueError, match=f"p_detect_{kind}"):
        HyperParams(**{f"p_detect_{kind}": 1.0})
    HyperParams(**{f"p_detect_{kind}": 0.0})


@pytest.mark.parametrize("field,bad,edge", [
    ("assoc_max_iters", 0, 1),
    ("assoc_tol", -1e-9, 0.0),
    ("eps_velocity", -1e-3, 0.0),
    ("pair_existence_floor", -1e-4, 0.0),
    ("pair_existence_floor", 2.0, 1.0),
    ("pair_existence_floor", float("nan"), 1.0),
])
def test_hyperparams_reject_settings_that_break_the_filter(field, bad, edge):
    with pytest.raises(ValueError, match=field):
        HyperParams(**{field: bad})
    assert getattr(HyperParams(**{field: edge}), field) == edge


def test_predict_agent_noiseless_kinematics():
    params = HyperParams(sigma_accel=1e-300, dt=1.0, n_particles=10)
    belief = point_belief(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 10)
    out = predict_agent(belief, params, np.random.default_rng(0))
    assert np.allclose(out.particles[:, :2], [1.0, 0.0])
    assert np.allclose(out.particles[:, 2:], [1.0, 0.0])
    assert np.allclose(out.weights, belief.weights)


def test_predict_agent_noise_moments():
    n = 100_000
    sigma = 0.05
    params = HyperParams(sigma_accel=sigma, dt=1.0, n_particles=n)
    belief = point_belief(np.array([0.0, 0.0]), np.array([1.0, 0.5]), n)
    out = predict_agent(belief, params, np.random.default_rng(1))
    disp = out.particles[:, :2] - [1.0, 0.5]
    assert np.allclose(disp.mean(axis=0), 0.0, atol=3 * (sigma / 2) / np.sqrt(n))
    # position noise is (dt^2/2) w, so its std is sigma/2 per axis
    assert np.allclose(disp.std(axis=0), sigma / 2, rtol=0.02)
    vel_noise = out.particles[:, 2:] - [1.0, 0.5]
    assert np.allclose(vel_noise.std(axis=0), sigma, rtol=0.02)


def test_predict_agent_heading_fallback():
    params = HyperParams(n_particles=4, sigma_accel=1e-300)
    belief = point_belief(np.array([0.0, 0.0]), np.array([0.0, 0.0]), 4, heading=0.77)
    out = predict_agent(belief, params, np.random.default_rng(2))
    assert np.allclose(out.headings, 0.77)


def test_predict_legacy_survival_and_jitter():
    params = HyperParams(p_survival=0.999, sigma_regularization=1e-300, n_particles=8)
    feats = [PmvaBelief(particles=np.ones((8, 2)), existence=1.0, id=0)]
    out = predict_legacy(feats, params, np.random.default_rng(0))
    assert out[0].existence == pytest.approx(0.999)
    assert np.allclose(out[0].particles, 1.0)

    params_id = HyperParams(p_survival=1.0, sigma_regularization=1e-300, n_particles=8)
    out = predict_legacy(feats, params_id, np.random.default_rng(0))
    assert out[0].existence == pytest.approx(1.0)

    existence = 1.0
    for _ in range(100):
        existence *= 0.999
    feats = [PmvaBelief(particles=np.ones((8, 2)), existence=1.0, id=0)]
    for _ in range(100):
        feats = predict_legacy(feats, params, np.random.default_rng(0))
    assert feats[0].existence == pytest.approx(existence)


def test_draw_new_pmva_inversion():
    params = HyperParams(n_particles=64)
    belief = point_belief(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 64, heading=0.0)
    pa = np.array([2.0, 1.0])
    z_d, z_phi = 3.0, 0.8
    prop = draw_new_pmva(z_d, z_phi, 1e-300, 1e-300, belief, pa, params,
                         np.random.default_rng(0))
    va = np.array([-z_d * np.cos(z_phi), -z_d * np.sin(z_phi)])
    expected = va_to_mva(va, pa)
    assert np.allclose(prop.particles, expected, atol=1e-9)
    assert prop.existence == 0.0


def test_draw_new_pmva_concentrates_on_true_feature():
    mva = np.array([10.0, 0.0])
    pa = np.array([1.0, 0.5])
    agent = np.array([-2.0, 1.0])
    heading = 0.3
    va = mva_to_va(mva, pa)
    diff = agent - va
    z_d = float(np.hypot(*diff))
    z_phi = float(np.arctan2(diff[1], diff[0]) - heading)
    params = HyperParams(n_particles=256)
    belief = point_belief(agent, np.array([1.0, 0.0]), 256, heading=heading)
    prop = draw_new_pmva(z_d, z_phi, 1e-12, 1e-12, belief, pa, params,
                         np.random.default_rng(1))
    assert np.hypot(*(prop.particles.mean(axis=0) - mva)) < 1e-6


def test_systematic_resample_preserves_mass():
    rng = np.random.default_rng(0)
    weights = np.zeros(1000)            # one draw per entry: 1000 draws
    weights[:3] = [0.5, 0.25, 0.25]
    idx = systematic_resample(weights, rng)
    counts = np.bincount(idx, minlength=3) / 1000
    assert np.allclose(counts, weights[:3], atol=1e-3)


def one_wall_ctx():
    return Environment(walls=[WallSegment([5.0, -10.0], [5.0, 10.0])])


def run_block(agent, feats, batch, params, pa=(1.0, 0.5), ctx=None, rng=None, clutter=CLUTTER):
    ctx = ctx or Environment()
    rng = rng or np.random.default_rng(0)
    logw = np.zeros(agent.n_particles)
    return process_pa(agent, logw, feats, [], batch, np.asarray(pa), params,
                      PROFILE, clutter, rng, ctx, [100])


def test_block_likelihood_matches_scalar_reference():
    rng = np.random.default_rng(21)
    n_rows, n_part, n_meas = 3, 40, 8
    sigma_d, sigma_phi = 0.5, 0.5
    noise = PathNoise(sigma_d, sigma_phi)
    profile = NoiseProfile(los=noise, single=noise, double=noise)
    agent_xy = rng.uniform(-5.0, 5.0, (n_part, 2))
    headings = rng.uniform(-np.pi, np.pi, n_part)
    va = rng.uniform(-8.0, 8.0, (n_rows, n_part, 2))
    avail = rng.random((n_rows, n_part)) < 0.8
    z = np.empty((n_meas, 2))
    # measurements near the prediction of one (row, particle) each
    for m in range(n_meas - 2):
        r, i = m % n_rows, m
        avail[r, i] = True
        d, phi = path_distance_angle(agent_xy[i], headings[i], va[r, i])
        z[m] = d + 0.3 * rng.standard_normal(), wrap_angle(phi + 0.3 * rng.standard_normal())
    # two predictions just inside +-pi, measured just across it
    for m, phi, z_phi in ((n_meas - 2, np.pi - 0.05, -np.pi + 0.1),
                          (n_meas - 1, -np.pi + 0.05, np.pi - 0.1)):
        i = m
        headings[i] = 0.0
        va[0, i] = agent_xy[i] - 3.0 * np.array([np.cos(phi), np.sin(phi)])
        avail[0, i] = True
        z[m] = 3.0, z_phi
    # one available particle sits on its VA: it scores nothing
    avail[2, n_meas] = True
    va[2, n_meas] = agent_xy[n_meas]
    scoring = avail & (np.hypot(*np.moveaxis(agent_xy - va, -1, 0)) > EPS_GEO)
    assert not scoring[2, n_meas]

    ref = np.zeros((n_rows, n_part, n_meas))
    for r, i, m in zip(*np.nonzero(scoring[..., None] & np.ones(n_meas, dtype=bool))):
        ref[r, i, m] = likelihood(Measurement(*z[m]), agent_xy[i], headings[i], (),
                                  va[r, i], profile=profile)
    assert ref[0, n_meas - 2, n_meas - 2] > 0.1 and ref[0, n_meas - 1, n_meas - 1] > 0.1

    def dense(out_dtype):
        rows, parts, lik = _block_likelihood(agent_xy.T, headings, np.moveaxis(va, -1, 0), avail,
                                             z, sigma_d, sigma_phi, out_dtype)
        np.testing.assert_array_equal(rows, np.nonzero(scoring)[0])
        np.testing.assert_array_equal(parts, np.nonzero(scoring)[1])
        assert lik.dtype == out_dtype and lik.shape == (n_meas, len(rows))
        full = np.zeros(ref.shape, dtype=out_dtype)
        full[rows, parts] = lik.T
        return full

    lik64 = dense(np.float64)
    # atol only covers values below the normal range, where the two factorizations round apart
    np.testing.assert_allclose(lik64, ref, rtol=1e-12, atol=1e-300)
    lik32 = dense(np.float32)
    assert np.max(np.abs(lik32 - ref)) <= 1e-5 * ref.max()


def test_exp_in_place_matches_np_exp_bit_for_bit():
    edges = [-700.0, -707.9, -708.4, -745.13, -745.2, np.nextafter(-700.0, -np.inf),
             np.nextafter(-745.2, 0.0), -1e4, -np.inf, np.nan, 0.0, -0.0, 1.0]
    grid = np.concatenate([np.linspace(-800.0, 0.0, 400_001), edges])
    rng = np.random.default_rng(24)
    assert np.count_nonzero((np.exp(grid) > 0.0) & (np.exp(grid) < np.finfo(float).tiny))
    for x in (grid, rng.uniform(-900.0, 0.0, (500, 13))):
        got = _exp_in_place(x.copy())
        assert got.shape == x.shape
        np.testing.assert_array_equal(got.view(np.uint64), np.exp(x).view(np.uint64))
    x32 = rng.uniform(-120.0, 0.0, (50, 13)).astype(np.float32)
    got = _exp_in_place(x32.copy())
    assert got.dtype == np.float32
    np.testing.assert_array_equal(got.view(np.uint32), np.exp(x32).view(np.uint32))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_block_likelihood_matches_reference_kernel(dtype):
    # planes in, (M, n) out: every value equals the (..., 2) kernel's, bit for bit
    rng = np.random.default_rng(25)
    n_rows, n_part, n_meas = 5, 300, 9
    agent_xy = rng.uniform(-5.0, 5.0, (n_part, 2))
    headings = rng.uniform(-np.pi, np.pi, n_part)
    va = rng.uniform(-15.0, 15.0, (n_rows, n_part, 2))
    avail = rng.random((n_rows, n_part)) < 0.7
    avail[3, 11] = True
    va[3, 11] = agent_xy[11]                  # an available entry on its VA
    headings[:40] = 0.0                       # predictions just inside +-pi ...
    va[0, :20] = agent_xy[:20] + [3.0, 0.01]
    va[0, 20:40] = agent_xy[20:40] + [3.0, -0.01]
    avail[0, :40] = True
    z = np.stack([rng.uniform(0.0, 30.0, n_meas), rng.uniform(-np.pi, np.pi, n_meas)], axis=1)
    z[:2] = [[3.0, -np.pi + 0.02], [3.0, np.pi - 0.02]]   # ... measured just across it
    rows, parts, lik = _block_likelihood(agent_xy.T, headings, np.moveaxis(va, -1, 0), avail, z,
                                         0.1, 0.2, dtype)
    ref_rows, ref_parts, ref = block_likelihood_reference(agent_xy, headings, va, avail, z,
                                                          0.1, 0.2, dtype)
    np.testing.assert_array_equal(rows, ref_rows)
    np.testing.assert_array_equal(parts, ref_parts)
    assert not np.any((rows == 3) & (parts == 11))
    assert lik.dtype == dtype and lik.shape == (n_meas, len(rows)) and lik.flags.c_contiguous
    np.testing.assert_array_equal(lik, ref.T)
    assert np.count_nonzero(lik == 0.0) and lik[:2, (rows == 0) & (parts < 40)].min() > 0.1


@pytest.mark.parametrize("n_meas", [0, 1, 6])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_compact_reductions_match_dense_reference(n_meas, dtype):
    rng = np.random.default_rng(22 + n_meas)
    n_rows, n_part = 4, 50
    agent_xy = rng.uniform(-5.0, 5.0, (n_part, 2))
    headings = rng.uniform(-np.pi, np.pi, n_part)
    va = rng.uniform(-8.0, 8.0, (n_rows, n_part, 2))
    avail = rng.random((n_rows, n_part)) < 0.6
    avail[1] = False                          # a row with no available particle
    avail[2, 7] = True
    va[2, 7] = agent_xy[7]                    # an available particle on its VA
    # measurements near some predictions, so the likelihoods span many magnitudes
    z = np.empty((n_meas, 2))
    for m in range(n_meas):
        diff = agent_xy[m] - va[0, m]
        z[m] = np.hypot(*diff) + 0.2, np.arctan2(diff[1], diff[0]) - headings[m] + 0.1
    planes = (agent_xy.T, np.moveaxis(va, -1, 0))
    rows, parts, lik = _block_likelihood(planes[0], headings, planes[1], avail, z, 0.3, 0.3, dtype)
    assert lik.shape == (n_meas, len(rows)) and not np.any((rows == 2) & (parts == 7))
    block = _RowBlock("single", np.arange(n_rows)[:, None], slice(0, n_rows),
                      np.full(n_rows, 0.5), avail, (rows, parts), lik)
    eta = rng.uniform(0.1, 1.0, (n_rows, n_meas + 1))
    denom = rng.uniform(0.01, 0.1, max(n_meas, 1))[:n_meas]
    sums = block.lik_sums()
    assert sums.dtype == np.float64 and sums.shape == (n_rows, n_meas)
    np.testing.assert_allclose(sums, dense_lik_sums(rows, parts, lik.T, avail), rtol=1e-13)
    assert np.all(sums[1] == 0.0)
    resp = block.response(eta, denom, 0.9)
    np.testing.assert_allclose(resp, dense_response(rows, parts, lik.T, avail, eta, denom, 0.9),
                               rtol=1e-13)
    np.testing.assert_array_equal(resp[1], eta[1, 0])
    assert resp[2, 7] == eta[2, 0] * (1.0 - 0.9)
    # a block without a scoring entry
    none = np.zeros_like(avail)
    *entries, lik = _block_likelihood(planes[0], headings, planes[1], none, z, 0.3, 0.3, dtype)
    empty = _RowBlock("single", np.arange(n_rows)[:, None], slice(0, n_rows),
                      np.full(n_rows, 0.5), none, tuple(entries), lik)
    sums = empty.lik_sums()
    assert sums.dtype == np.float64 and sums.shape == (n_rows, n_meas) and not sums.any()
    np.testing.assert_array_equal(empty.response(eta, denom, 0.9),
                                  np.broadcast_to(eta[:, :1], avail.shape))


def test_feature_trace_cache_matches_backward_trace():
    rng = np.random.default_rng(23)
    n_feat, n_part = 4, 60
    pa = np.array([1.0, 0.5])
    agent_xy = rng.uniform(-6.0, 6.0, (n_part, 2))
    clouds = rng.normal(rng.uniform(-12.0, 12.0, (n_feat, 1, 2)), 1.0, (n_feat, n_part, 2))
    clouds[1, :5] = 0.0                       # degenerate MVA rows
    clouds[2, 5:8] = 0.5 * EPS_GEO
    ctx = Environment(blockers=[WallSegment([2.0, -3.0], [2.0, 3.0]),
                                WallSegment([-4.0, 1.0], [-1.0, 4.0])])
    for check in (True, False):
        traces = ctx.feature_traces(clouds, pa, check)
        lo, hi = traces.extents
        assert np.all(np.isinf(lo)) and np.all(np.isinf(hi))
        for _, members in candidate_blocks(n_feat, True):
            idx = members.T
            want = backward_trace(agent_xy, pa, [clouds[i] for i in idx],
                                  [(lo[i], hi[i]) for i in idx], ctx.blocker_segments, check)
            (vx, vy), available = traces.trace(agent_xy, members)
            for g, w in zip((np.stack((vx, vy), axis=-1), available), want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, np.broadcast_to(w, g.shape))
            if check and members.shape[1]:
                assert 0 < want[1].sum() < want[1].size
            if members.shape[1]:
                assert not want[1][members[:, 0] == 1][:, :5].any()


def test_feature_trace_cache_tests_only_live_hops(monkeypatch):
    # walls clip every reflector to its nearest wall and three blockers
    # obstruct: most hops fail their crossing or extent test first, and only
    # the hops whose path is still available reach the obstruction test
    rng = np.random.default_rng(31)
    n_part = 80
    pa = np.array([1.0, 0.5])
    ctx = Environment(
        walls=[WallSegment([5.0, -3.5], [5.0, 3.5]), WallSegment([-5.0, -3.5], [-5.0, 3.5]),
               WallSegment([-5.0, 3.5], [5.0, 3.5]), WallSegment([-5.0, -3.5], [5.0, -3.5])],
        blockers=[WallSegment([2.0, -3.0], [2.0, 1.0]), WallSegment([-4.0, 1.0], [-1.0, 3.0]),
                  WallSegment([-2.0, -2.5], [0.5, -1.5])])
    agent_xy = rng.uniform([-4.8, -3.3], [4.8, 3.3], (n_part, 2))
    clouds = np.concatenate([rng.normal(ctx.wall_mvas[:, None], 0.3, (4, n_part, 2)),
                             rng.normal([[[30.0, -40.0]]], 1.0, (1, n_part, 2))])   # far off
    clouds[1, :4] = 0.0                       # degenerate MVA rows
    segments = ctx.blocker_segments
    seen = [0] * len(segments)
    segment_blocks = raytrace.segment_blocks

    def counted(p, q, a, b):
        j = next(j for j, (sa, _) in enumerate(segments) if sa is a)
        seen[j] += int(np.prod(np.broadcast_shapes(np.shape(p[0]), np.shape(q[0]))))
        return segment_blocks(p, q, a, b)

    monkeypatch.setattr(raytrace, "segment_blocks", counted)
    traces = ctx.feature_traces(clouds, pa, True)
    lo, hi = traces.extents
    live = hops = 0
    for _, members in candidate_blocks(len(clouds), True):
        (vx, vy), available = traces.trace(agent_xy, members)
        for r, idx in enumerate(members):
            masks = []
            va, want = backward_trace(agent_xy, pa, [clouds[i] for i in idx],
                                      [(lo[i], hi[i]) for i in idx], segments, True, live=masks)
            np.testing.assert_array_equal(np.stack((vx[r], vy[r]), axis=-1), va)
            np.testing.assert_array_equal(available[r], want)
            live += sum(np.broadcast_to(m, (n_part,)).sum() for m in masks)
            hops += (len(idx) + 1) * n_part
    assert seen == [live] * len(segments)
    assert 0 < live < hops / 2


def test_process_pa_no_measurements_no_info():
    # all paths unavailable (anchor behind the wall relative to every VA
    # construction is emulated by an empty batch and existence-only factors)
    params = HyperParams(n_particles=50, p_detect_los=0.0, p_detect_single=0.0,
                         p_detect_double=0.0)
    agent = point_belief(np.array([-2.0, 1.0]), np.array([0.2, 0.0]), 50)
    agent.particles[:, :2] += np.random.default_rng(3).normal(0, 0.3, (50, 2))
    feats = [PmvaBelief(particles=np.full((50, 2), [10.0, 0.0]) , existence=0.7, id=0)]
    logw, legacy, new = run_block(agent, feats, empty_batch(), params)
    assert np.allclose(logw, logw[0])
    assert legacy[0].existence == pytest.approx(0.7)


def test_process_pa_missed_detection_decays_existence():
    params = HyperParams(n_particles=50)
    agent = point_belief(np.array([-2.0, 1.0]), np.array([0.2, 0.0]), 50)
    feats = [PmvaBelief(particles=np.full((50, 2), [10.0, 0.0]), existence=0.9, id=0)]
    _, legacy, _ = run_block(agent, feats, empty_batch(), params)
    # a = 0 factor: available but undetected shrinks the existence
    expected = 0.9 * 0.05 / (0.9 * 0.05 + 0.1)
    assert legacy[0].existence == pytest.approx(expected, rel=1e-6)


def test_process_pa_weight_ordering_follows_likelihood():
    # noiseless detections, no clutter: particles nearest the truth win
    ctx = one_wall_ctx()
    params = HyperParams(n_particles=200)
    rng = np.random.default_rng(4)
    truth = np.array([-2.0, 1.0])
    vel = np.array([0.2, 0.0])
    agent = point_belief(truth, vel, 200)
    offsets = np.linspace(0, 1.5, 200)
    agent.particles[:, 0] += offsets  # particle 0 is exact, the rest drift off
    pa = np.array([1.0, 0.5])
    blocks = candidate_blocks(len(ctx.walls), True)
    batch = generate_batch(truth, 0.0, blocks, *ctx.trace_paths(truth, pa, blocks),
                           {"los": 1.0, "single": 1.0, "double": 1.0},
                           NoiseProfile(los=PathNoise(1e-6, 1e-6),
                                        single=PathNoise(1e-6, 1e-6),
                                        double=PathNoise(1e-6, 1e-6)),
                           ClutterModel(mu_fp=0.0, d_max=30.0), rng)
    logw, _, _ = run_block(agent, [], batch, params, pa=pa, ctx=ctx, rng=rng,
                           clutter=ClutterModel(mu_fp=1e-9, d_max=30.0))
    assert np.argmax(logw) == 0
    finite = np.isfinite(logw)
    assert np.all(np.diff(logw[finite]) <= 1e-9)


def test_process_pa_bookkeeping_stacking():
    # with 2 anchors and 3 measurements at the first, the second block sees
    # S2 = S1 + 3 features before pruning
    params = HyperParams(n_particles=30, p_prune=0.0, pair_existence_floor=0.0)
    agent = point_belief(np.array([-2.0, 1.0]), np.array([0.2, 0.0]), 30)
    feats = [PmvaBelief(particles=np.full((30, 2), [10.0, 0.0]), existence=0.5, id=0)]
    batch1 = batch_of([[3.0, 0.1], [5.0, -0.4], [8.0, 1.0]])
    rng = np.random.default_rng(5)
    logw, legacy1, new1 = run_block(agent, feats, batch1, params, rng=rng)
    assert len(legacy1) == 1 and len(new1) == 3
    logw, legacy2, new2 = process_pa(agent, logw, legacy1, new1, empty_batch(),
                                     np.array([4.0, -1.0]), params, PROFILE, CLUTTER,
                                     rng, Environment(), [200])
    assert len(legacy2) == 4  # S2 = S1 + M1
    assert len(new2) == 0


def test_pure_prediction_reduction():
    # p_d = 0 for every class: the posterior equals the prediction
    ctx = one_wall_ctx()
    params = HyperParams(n_particles=100, p_detect_los=0.0, p_detect_single=0.0,
                         p_detect_double=0.0)
    rng = np.random.default_rng(6)
    agent = point_belief(np.array([-2.0, 1.0]), np.array([0.2, 0.1]), 100)
    agent.particles += rng.normal(0, 0.2, agent.particles.shape)
    feats = [PmvaBelief(particles=rng.normal([10.0, 0.0], 0.3, (100, 2)), existence=0.6, id=0),
             PmvaBelief(particles=rng.normal([0.0, 9.0], 0.3, (100, 2)), existence=0.4, id=1)]
    batch = batch_of([[4.0, 0.3], [7.0, -1.0]])
    logw, legacy, new = run_block(agent, feats, batch, params, ctx=ctx, rng=rng)
    assert np.allclose(logw, logw[0])  # constant weights: belief unchanged
    for before, after in zip(feats, legacy):
        assert after.existence == pytest.approx(before.existence)


def test_existence_stays_in_unit_interval():
    params = HyperParams(n_particles=40)
    rng = np.random.default_rng(7)
    agent = point_belief(np.array([-2.0, 1.0]), np.array([0.2, 0.0]), 40)
    feats = [PmvaBelief(particles=rng.normal([10.0, 0.0], 1.0, (40, 2)), existence=e, id=i)
             for i, e in enumerate([0.99999, 0.5, 1e-3])]
    for trial in range(20):
        batch = batch_of(rng.uniform([0, -np.pi], [15, np.pi], (3, 2)))
        logw, feats, new = run_block(agent, feats, batch, params, rng=rng)
        for f in feats + new:
            assert 0.0 <= f.existence <= 1.0
        feats = feats + new
        if len(feats) > 6:
            feats = feats[:6]


def test_finalize_uniform_weights_mean():
    params = HyperParams(n_particles=500)
    rng = np.random.default_rng(8)
    particles = rng.normal(0, 1, (500, 4))
    agent = AgentBelief(particles=particles, weights=np.full(500, 1 / 500),
                        headings=np.zeros(500))
    resampled, est = finalize_step(agent, np.zeros(500), [], params, rng)
    assert np.allclose(est.x_hat, particles.mean(axis=0))
    assert est.s_hat == 0
    assert np.allclose(resampled.weights, 1 / 500)


def test_finalize_confirmation_threshold():
    params = HyperParams(n_particles=10)
    rng = np.random.default_rng(9)
    agent = point_belief(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 10)
    feats = [PmvaBelief(particles=np.full((10, 2), [10.0, 0.0]), existence=0.49, id=0),
             PmvaBelief(particles=np.full((10, 2), [0.0, 7.0]), existence=0.51, id=1)]
    _, est = finalize_step(agent, np.zeros(10), feats, params, rng)
    assert est.mva_ids == [1]
    assert est.s_hat == 1


def test_finalize_single_particle():
    params = HyperParams(n_particles=1)
    agent = AgentBelief(particles=np.array([[1.0, 2.0, 0.1, 0.0]]),
                        weights=np.array([1.0]), headings=np.zeros(1))
    _, est = finalize_step(agent, np.zeros(1), [], params, np.random.default_rng(0))
    assert np.allclose(est.x_hat, [1.0, 2.0, 0.1, 0.0])


def test_finalize_degenerate_weights_raises():
    params = HyperParams(n_particles=10)
    agent = point_belief(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 10)
    with pytest.raises(DegenerateWeights):
        finalize_step(agent, np.full(10, -np.inf), [], params, np.random.default_rng(0))


def test_log_domain_safety_random_steps():
    # a large batch of randomized update blocks must never produce NaN
    params = HyperParams(n_particles=30)
    rng = np.random.default_rng(10)
    agent = point_belief(np.array([-2.0, 1.0]), np.array([0.2, 0.0]), 30)
    agent.particles[:, :2] += rng.normal(0, 0.5, (30, 2))
    for trial in range(1000):
        n_feats = int(rng.integers(0, 4))
        feats = [PmvaBelief(particles=rng.normal(rng.uniform(-12, 12, 2), 0.5, (30, 2)),
                            existence=float(rng.uniform(1e-3, 1.0)), id=i)
                 for i in range(n_feats)]
        n_meas = int(rng.integers(0, 4))
        batch = (batch_of(rng.uniform([0, -np.pi], [20, np.pi], (n_meas, 2)))
                 if n_meas else empty_batch())
        logw, legacy, new = run_block(agent, feats, batch, params,
                                      pa=rng.uniform(-3, 3, 2), rng=rng)
        assert not np.any(np.isnan(logw))
        assert np.any(np.isfinite(logw))
        for f in legacy + new:
            assert np.isfinite(f.existence)
            assert np.all(np.isfinite(f.particles))


def test_max_features_cap_prefers_existence_then_age():
    params = HyperParams(n_particles=10, max_features=2, p_prune=0.0,
                         p_detect_los=0.0, p_detect_single=0.0, p_detect_double=0.0)
    agent = point_belief(np.array([0.0, 0.0]), np.array([0.1, 0.0]), 10)
    feats = [PmvaBelief(particles=np.full((10, 2), [10.0, 0.0]), existence=0.5, id=3),
             PmvaBelief(particles=np.full((10, 2), [0.0, 7.0]), existence=0.5, id=1),
             PmvaBelief(particles=np.full((10, 2), [-9.0, 0.0]), existence=0.2, id=0)]
    _, legacy, _ = run_block(agent, feats, empty_batch(), params)
    assert sorted(f.id for f in legacy) == [1, 3]  # tie broken toward older id


def test_filter_determinism_same_seed():
    walls = [WallSegment([5.0, -3.5], [5.0, 3.5]),
             WallSegment([-5.0, 3.5], [5.0, 3.5])]
    env = Environment(walls=walls)
    params = HyperParams(n_particles=300)
    positions = np.array([[-2.0 + 0.1 * n, 1.0] for n in range(5)])
    blocks = candidate_blocks(len(walls), True)
    va, available = env.trace_paths(positions, [1.0, 0.5], blocks)

    def run_once():
        rng = np.random.default_rng(33)
        filt = SlamFilter([(1.0, 0.5)], params, PROFILE, CLUTTER, rng=rng,
                          start_pos=[-2.0, 1.0], extent_walls=walls)
        outs = []
        for n in range(5):
            batch = generate_batch(positions[n], 0.0, blocks, va[n], available[n],
                                   {"los": 0.95, "single": 0.95, "double": 0.95},
                                   PROFILE, CLUTTER, rng)
            outs.append(filt.step([batch]).x_hat)
        return np.stack(outs)

    first = run_once()
    second = run_once()
    assert np.array_equal(first, second)


def test_process_pa_peak_memory_is_bounded():
    # One anchor block at 1000 particles with 30 legacy features, all 870
    # ordered pairs active, and 15 measurements, in the paper room.  The
    # likelihood is held at the available entries only: with numpy 2.4 the
    # traced peak was 58 MiB, against 239 MiB for a dense (rows, particles,
    # measurements) tensor.
    config = bundled_scenario("exp1_rect_room")
    env = config.environment
    n, s_count, n_meas = 1000, 30, 15
    rng = np.random.default_rng(5)
    start = np.asarray(config.waypoints[0], dtype=float)
    agent = AgentBelief(particles=np.concatenate([start + rng.uniform(-0.5, 0.5, (n, 2)),
                                                  rng.uniform(-0.1, 0.1, (n, 2))], axis=1),
                        weights=np.full(n, 1.0 / n), headings=rng.uniform(-np.pi, np.pi, n))
    centres = np.concatenate([env.wall_mvas,
                              rng.uniform(-15.0, 15.0, (s_count - len(env.wall_mvas), 2))])
    legacy = [PmvaBelief(particles=rng.normal(c, 0.3, (n, 2)), existence=0.9, id=k)
              for k, c in enumerate(centres)]
    batch = batch_of(np.stack([rng.uniform(1.0, 20.0, n_meas),
                               rng.uniform(-np.pi, np.pi, n_meas)], axis=1))
    tracemalloc.start()
    try:
        process_pa(agent, np.zeros(n), legacy, [], batch, config.pas[0], HyperParams(n_particles=n),
                   config.profile, config.clutter, rng, env, [100])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 120 * 2**20, f"peak {peak / 2**20:.1f} MiB"
