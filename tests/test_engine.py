import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from mvaslam import association, engine
from mvaslam.engine import (
    AgentBelief,
    FeatureMap,
    HyperParams,
    _RowBlock,
    _block_likelihood,
    _draw_proposals,
    _row_log_sums,
    SlamFilter,
    finalize_step,
    initial_agent_belief,
    ncv_step,
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
    NoiseProfile,
    PathNoise,
    generate_batch,
)
from mvaslam import raytrace
from mvaslam.raytrace import Environment, candidate_blocks
from mvaslam.scenario import bundled_scenario

from oracles import (Measurement, assert_same_entries, backward_trace, block_likelihood_reference,
                     dense_lik_sums, dense_response, draw_new_pmva_reference, endpoint_pairs,
                     gated_likelihood_reference, likelihood, nearest_extents_reference,
                     process_pa_reference, systematic_resample_reference, trace_entries)

PROFILE = NoiseProfile(los=PathNoise(0.05, np.deg2rad(10.0)),
                       single=PathNoise(0.10, np.deg2rad(15.0)),
                       double=PathNoise(0.15, np.deg2rad(25.0)))
CLUTTER = ClutterModel(mu_fp=1.0, d_max=30.0)


def point_belief(pos, vel, n, heading=None):
    particles = np.tile(np.concatenate([pos, vel]), (n, 1))
    if heading is None:
        heading = np.arctan2(vel[1], vel[0])
    return AgentBelief(particles=particles, headings=np.full(n, heading))


def empty_batch():
    return np.zeros((0, 2))


def batch_of(rows):
    return np.asarray(rows, dtype=float).reshape(-1, 2)


def feature_map(clouds, existence, n_particles):
    """The map of the particle clouds (I, 2) with their existences, in birth order."""
    return FeatureMap(particles=np.array(clouds, dtype=float).reshape(len(existence),
                                                                      n_particles, 2),
                      existence=np.array(existence, dtype=float))


def test_ncv_step_values():
    # p' = p + dt v + dt^2 / 2 a and v' = v + dt a, per state of a batch
    x = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(ncv_step(x, np.zeros(2), 0.5), [2.5, 4.0, 3.0, 4.0])
    np.testing.assert_array_equal(ncv_step(x, np.array([1.0, 0.0]), 0.5), [2.625, 4.0, 3.5, 4.0])
    states = np.stack([x, -x])
    np.testing.assert_array_equal(ncv_step(states, np.array([[1.0, -2.0], [0.0, 4.0]]), 0.5),
                                  [[2.625, 3.75, 3.5, 3.0], [-2.5, -3.5, -3.0, -2.0]])
    assert x.tolist() == [1.0, 2.0, 3.0, 4.0]              # the input state is left as it was


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
    ("sigma_accel", float("nan"), 1e-300),
    ("sigma_accel", float("inf"), 1e-300),
    ("sigma_regularization", float("nan"), 1e-300),
    ("sigma_regularization", float("inf"), 1e-300),
    ("dt", float("nan"), 1e-3),
    ("dt", float("inf"), 1e-3),
    ("mu_new", float("nan"), 0.0),
    ("mu_new", float("inf"), 0.0),
    ("birth_region", ((-float("inf"), 15.0), (-15.0, 15.0)), ((-1e3, 1e3), (-1e3, 1e3))),
    ("birth_region", ((15.0, 15.0), (-15.0, 15.0)), ((-1e3, 1e3), (-1e3, 1e3))),
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
    assert np.allclose(out.mean(), [1.0, 0.0, 1.0, 0.0])


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


def test_initial_agent_belief_is_the_uniform_prior_box():
    # positions uniform within 0.5 m of the start, velocities within 0.1 m/s of 0
    n = 100_000
    start = np.array([-2.0, 1.0])
    belief = initial_agent_belief(start, HyperParams(n_particles=n), np.random.default_rng(2))
    pos, vel = belief.particles[:, :2], belief.particles[:, 2:]
    assert np.all(np.abs(pos - start) <= 0.5) and np.all(np.abs(vel) <= 0.1)
    # a uniform box of half-width h has standard deviation h / sqrt(3) per axis
    assert np.allclose(pos.mean(axis=0), start, atol=4 * 0.5 / np.sqrt(3 * n))
    assert np.allclose(vel.mean(axis=0), 0.0, atol=4 * 0.1 / np.sqrt(3 * n))
    assert np.allclose(pos.std(axis=0), 0.5 / np.sqrt(3), rtol=0.01)


def test_predict_agent_heading_fallback():
    params = HyperParams(n_particles=4, sigma_accel=1e-300)
    belief = point_belief(np.array([0.0, 0.0]), np.array([0.0, 0.0]), 4, heading=0.77)
    out = predict_agent(belief, params, np.random.default_rng(2))
    assert np.allclose(out.headings, 0.77)


def test_systematic_resample_rows_match_one_row_at_a_time():
    # process_pa resamples its legacy and new-feature rows in one call, and
    # finalize_step then resamples the agent's weights (n,): the batched call
    # draws what one call per row draws and leaves the generator where they do
    rng = np.random.default_rng(13)
    weights = rng.random((4, 50))
    weights[2, 30:] = 0.0                                  # a zero-weight tail
    weights /= weights.sum(axis=1, keepdims=True)
    agent_weights = rng.random(50)
    agent_weights /= agent_weights.sum()
    batched, one_by_one = np.random.default_rng(14), np.random.default_rng(14)
    got = systematic_resample(weights, batched.random(len(weights)))
    want = np.stack([systematic_resample_reference(w, one_by_one) for w in weights])
    assert got.shape == weights.shape
    np.testing.assert_array_equal(got, want)
    assert batched.bit_generator.state == one_by_one.bit_generator.state
    assert systematic_resample(np.zeros((0, 50)), batched.random(0)).shape == (0, 50)
    np.testing.assert_array_equal(systematic_resample(agent_weights, batched.random()),
                                  systematic_resample_reference(agent_weights, one_by_one))
    assert batched.bit_generator.state == one_by_one.bit_generator.state


def test_predict_legacy_survival_and_jitter():
    params = HyperParams(p_survival=0.999, sigma_regularization=1e-300, n_particles=8)
    feats = feature_map([np.ones((8, 2))], [1.0], 8)
    out = predict_legacy(feats, params, np.random.default_rng(0))
    assert out.existence[0] == pytest.approx(0.999)
    assert np.allclose(out.particles[0], 1.0)

    params_id = HyperParams(p_survival=1.0, sigma_regularization=1e-300, n_particles=8)
    out = predict_legacy(feats, params_id, np.random.default_rng(0))
    assert out.existence[0] == pytest.approx(1.0)

    existence = 1.0
    for _ in range(100):
        existence *= 0.999
    feats = feature_map([np.ones((8, 2))], [1.0], 8)
    for _ in range(100):
        feats = predict_legacy(feats, params, np.random.default_rng(0))
    assert feats.existence[0] == pytest.approx(existence)


def test_draw_new_pmva_inversion():
    params = HyperParams(n_particles=64)
    belief = point_belief(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 64, heading=0.0)
    pa = np.array([2.0, 1.0])
    z_d, z_phi = 3.0, 0.8
    props = _draw_proposals(batch_of([z_d, z_phi]), 1e-300, 1e-300, belief, pa, params,
                            np.random.default_rng(0))
    va = np.array([-z_d * np.cos(z_phi), -z_d * np.sin(z_phi)])
    expected = va_to_mva(va, pa)
    assert props.shape == (1, 64, 2)
    prop = props[0]
    assert np.allclose(prop, expected, atol=1e-9)


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
    prop, = _draw_proposals(batch_of([z_d, z_phi]), 1e-12, 1e-12, belief, pa, params,
                            np.random.default_rng(1))
    assert np.hypot(*(prop.mean(axis=0) - mva)) < 1e-6


def test_systematic_resample_preserves_mass():
    rng = np.random.default_rng(0)
    weights = np.zeros(1000)            # one draw per entry: 1000 draws
    weights[:3] = [0.5, 0.25, 0.25]
    idx = systematic_resample(weights, rng.random())
    counts = np.bincount(idx, minlength=3) / 1000
    assert np.allclose(counts, weights[:3], atol=1e-3)


def one_wall_ctx():
    return Environment(walls=[WallSegment([5.0, -10.0], [5.0, 10.0])])


def run_block(agent, feats, batch, params, pa=(1.0, 0.5), ctx=None, rng=None, clutter=CLUTTER):
    ctx = ctx or Environment()
    rng = rng or np.random.default_rng(0)
    logw = np.zeros(agent.n_particles)
    return process_pa(agent, logw, feats, batch, np.asarray(pa), params,
                      PROFILE, clutter, rng, ctx)


def entries(arrival, avail):
    """The available entries of a dense block, as the filter's trace returns them.

    ``arrival`` (R, I, 2) holds the arrival vectors, each particle minus its
    VA, and ``avail`` (R, I) the availability; returns the row-major flat
    indices of the available entries and the ``(x, y)`` planes of their
    arrival vectors.
    """
    flat = np.flatnonzero(avail)
    return flat, (arrival[..., 0].reshape(-1)[flat], arrival[..., 1].reshape(-1)[flat])


def dense_likelihood(rows, parts, gates, lik, shape):
    """A block's (R, I, M) likelihood from the values it keeps, zero elsewhere, and its mask."""
    full = np.zeros(shape + (len(lik),))
    kept = np.zeros(full.shape, dtype=bool)
    for m, (gate, values) in enumerate(zip(gates, lik)):
        assert values.dtype == np.float64 and values.shape == rows[gate].shape
        assert values.flags.c_contiguous
        full[rows[gate], parts[gate], m] = values
        kept[rows[gate], parts[gate], m] = True
    return full, kept


def gate_bound(sigma_d, sigma_phi):
    """The bound on every value the likelihood gate drops: exp(-G^2 / 2) / (2 pi sigma_d sigma_phi).

    A value at the gate's edge may round a few ulps past it.
    """
    gate = engine._GATE_SIGMAS
    return (1.0 + 1e-12) * np.exp(-0.5 * gate * gate) / (2.0 * np.pi * sigma_d * sigma_phi)


def assert_entries_sorted(rows, parts, arrival, avail):
    # every available entry once, nearest its VA first
    assert len(set(zip(rows.tolist(), parts.tolist()))) == len(rows) == avail.sum()
    assert avail[rows, parts].all()
    d = np.hypot(*np.moveaxis(arrival[rows, parts], -1, 0))
    assert np.all(np.diff(d) >= 0.0)


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
        d, phi = path_distance_angle(agent_xy[i] - va[r, i], headings[i])
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

    arrival = agent_xy - va
    rows, parts, gates, lik = _block_likelihood(headings, *entries(arrival, avail), z,
                                                sigma_d, sigma_phi)
    assert_entries_sorted(rows, parts, arrival, avail)
    assert len(gates) == len(lik) == n_meas
    got, kept = dense_likelihood(rows, parts, gates, lik, avail.shape)
    assert not (kept & ~scoring[..., None]).any() and kept.any() and not kept.all()
    # atol only covers values below the normal range, where the two factorizations round apart
    np.testing.assert_allclose(got[kept], ref[kept], rtol=1e-12, atol=1e-300)
    dropped = scoring[..., None] & ~kept
    assert dropped.any() and ref[dropped].max() <= gate_bound(sigma_d, sigma_phi)


def test_gate_bounds_the_values_it_drops():
    # An entry whose distance lies farther than G sigma_d from the measured
    # one is dropped, whatever its angle; it would score below the bound,
    # exp(-G^2 / 2) ~ 1.4e-49 of the peak density.  Entries just inside the
    # gate are kept, and at a matching angle they score above the bound.
    gate = engine._GATE_SIGMAS
    sigma_d, sigma_phi = 0.2, 0.3
    z = np.array([[10.0, 0.4]])
    offsets = sigma_d * np.array([-gate - 1.0, -gate - 1e-6, -gate + 1e-6, -1.0, 0.0,
                                  gate - 1e-6, gate + 1e-6, gate + 1.0])
    angles = np.array([0.4, 0.4, 0.4, 2.0, 0.4, 0.4, 0.4, -2.5])
    n_part = len(offsets)
    agent_xy = np.zeros((n_part, 2))           # at the origin, heading 0: phi is the angle
    headings = np.zeros(n_part)
    dist = z[0, 0] + offsets
    va = -(dist[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1))[None]
    avail = np.ones((1, n_part), dtype=bool)
    arrival = agent_xy - va
    rows, parts, gates, lik = _block_likelihood(headings, *entries(arrival, avail), z,
                                                sigma_d, sigma_phi)
    got, kept = dense_likelihood(rows, parts, gates, lik, avail.shape)
    inside = np.abs(offsets) < gate * sigma_d
    np.testing.assert_array_equal(kept[0, :, 0], inside)
    _, ref_parts, ref = block_likelihood_reference(headings, arrival, avail, z,
                                                   sigma_d, sigma_phi)
    bound = gate_bound(sigma_d, sigma_phi)
    assert np.all(ref[~inside[ref_parts], 0] <= bound)
    assert np.all(got[0, inside & (angles == 0.4), 0] > bound)
    assert bound * 2.0 * np.pi * sigma_d * sigma_phi < 1.5e-49


def test_block_likelihood_matches_reference_kernel():
    # planes in, gated runs out: every kept value equals the (..., 2) kernel's, bit
    # for bit, and the kernel lies below the gate's bound at every element it drops
    rng = np.random.default_rng(25)
    n_rows, n_part, n_meas = 5, 300, 9
    agent_xy = rng.uniform(-5.0, 5.0, (n_part, 2))
    headings = rng.uniform(-np.pi, np.pi, n_part)
    va = rng.uniform(-15.0, 15.0, (n_rows, n_part, 2))
    avail = rng.random((n_rows, n_part)) < 0.7
    avail[3, 11] = True
    va[3, 11] = agent_xy[11]                  # an available entry on its VA
    avail[4, 20:23] = True
    va[4, 20:23] = agent_xy[20:23]            # three more: four entries at distance 0
    headings[:40] = 0.0                       # predictions just inside +-pi ...
    va[0, :20] = agent_xy[:20] + [3.0, 0.01]
    va[0, 20:40] = agent_xy[20:40] + [3.0, -0.01]
    avail[0, :40] = True
    z = np.stack([rng.uniform(0.0, 30.0, n_meas), rng.uniform(-np.pi, np.pi, n_meas)], axis=1)
    z[:2] = [[3.0, -np.pi + 0.02], [3.0, np.pi - 0.02]]   # ... measured just across it
    arrival = agent_xy - va
    rows, parts, gates, lik = _block_likelihood(headings, *entries(arrival, avail), z, 0.1, 0.2)
    ref_rows, ref_parts, ref = block_likelihood_reference(headings, arrival, avail, z, 0.1, 0.2)
    assert_entries_sorted(rows, parts, arrival, avail)
    # entries at equal distance keep their row-major order
    assert list(zip(rows[:4], parts[:4])) == [(3, 11), (4, 20), (4, 21), (4, 22)]
    assert avail[3, 11] and not np.any((ref_rows == 3) & (ref_parts == 11))
    got, kept = dense_likelihood(rows, parts, gates, lik, avail.shape)
    want = np.zeros_like(got)
    want[ref_rows, ref_parts] = ref
    np.testing.assert_array_equal(got[kept].view(np.uint64), want[kept].view(np.uint64))
    assert np.all(want[~kept] <= gate_bound(0.1, 0.2)) and np.any(want[~kept] > 0.0)
    assert not kept[3, 11].any() and not kept[4, 20:23].any()
    # the gate drops most elements, and keeps the large values at +-pi
    assert 0 < kept.sum() < avail.sum() * n_meas / 2
    assert got[0, :40, :2][avail[0, :40]].min() > 0.1


def test_block_likelihood_keeps_the_bits_of_the_copying_kernel():
    # The kernel narrows its entry indices to 4 bytes and writes each
    # measurement's run in place; every output keeps the bits of the kernel
    # that copies the runs out and indexes with intp.
    rng = np.random.default_rng(31)
    n_rows, n_part = 4, 50
    headings = rng.uniform(-np.pi, np.pi, n_part)
    arrival = rng.uniform(-6.0, 6.0, (n_rows, n_part, 2))
    avail = rng.random((n_rows, n_part)) < 0.6
    # angle differences at exactly +-pi and one ulp beyond: particles 0-3 at heading 0
    # look along +x (angle 0) and along -x (angle pi).  A wrap at exactly +-pi keeps
    # |dphi| (pi - 2 pi is -pi in float64), so the ulp beyond is the case that decides
    headings[:4] = 0.0
    arrival[0, :4] = [[2.0, 0.0], [2.0, 0.0], [-2.0, 0.0], [-2.0, 0.0]]
    avail[0, :4] = True
    # three entries at equal distance: the stable sort
    arrival[1, 10:13] = [[3.0, 4.0], [-4.0, 3.0], [0.0, -5.0]]
    avail[1, 10:13] = True
    ulp = np.spacing(np.pi)
    wrap = np.array([[2.0, np.pi], [2.0, np.pi + ulp], [2.0, 0.0], [2.0, -ulp], [2.0, -0.0],
                     [5.0, 0.3]])
    far = np.array([[40.0, 0.1], [-30.0, 2.0]])           # gates with no entry
    covering = np.array([[6.0, -1.0]])                    # within 15 sigma_d of every entry
    cases = [(avail, np.concatenate([wrap, far, covering]), 0.4, 0.3),
             (avail, covering, 0.5, 0.2),
             (avail, far, 0.4, 0.3),
             (avail, np.zeros((0, 2)), 0.4, 0.3),            # M = 0
             (np.zeros_like(avail), np.concatenate([wrap, covering]), 0.4, 0.3)]  # no entries
    for mask, z, sigma_d, sigma_phi in cases:
        flat, planes = entries(arrival, mask)
        got = _block_likelihood(headings, flat, planes, z, sigma_d, sigma_phi)
        want = gated_likelihood_reference(headings, flat, planes, z, sigma_d, sigma_phi)
        rows, parts, gates, lik = got
        assert rows.dtype == parts.dtype == np.int32
        assert np.array_equal(rows, want[0]) and np.array_equal(parts, want[1])
        assert gates == want[2] and len(lik) == len(want[3]) == len(z)
        for values, ref in zip(lik, want[3]):
            assert values.dtype == np.float64 and np.array_equal(values, ref)
        if len(z) == len(covering) and mask.any():
            assert gates[0] == slice(0, len(flat))        # the gate covers every entry
    # the ties and the wrap were reached
    flat, planes = entries(arrival, avail)
    rows, parts, gates, lik = _block_likelihood(headings, flat, planes, cases[0][1], 0.4, 0.3)
    tied = np.flatnonzero(rows == 1)[np.isin(parts[rows == 1], [10, 11, 12])]
    assert parts[tied].tolist() == [10, 11, 12] and np.all(np.diff(tied) == 1)
    assert all(gates[m].stop > gates[m].start for m in range(5))
    assert not any(gates[m].stop > gates[m].start for m in (6, 7))


@pytest.mark.parametrize("n_meas", [0, 1, 6])
def test_compact_reductions_match_dense_reference(n_meas):
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
    arrival = agent_xy - va
    rows, parts, gates, lik = _block_likelihood(headings, *entries(arrival, avail), z, 0.3, 0.3)
    ref_rows, ref_parts, ref = block_likelihood_reference(headings, arrival, avail, z, 0.3, 0.3)
    assert len(lik) == n_meas and not np.any((ref_rows == 2) & (ref_parts == 7))
    block = _RowBlock("single", np.arange(n_rows)[:, None], slice(0, n_rows),
                      np.full(n_rows, 0.5), (rows, parts), gates, lik)
    eta = rng.uniform(0.1, 1.0, (n_rows, n_meas + 1))
    denom = rng.uniform(0.01, 0.1, max(n_meas, 1))[:n_meas]
    sums = block.lik_sums()
    assert sums.dtype == np.float64 and sums.shape == (n_rows, n_meas)
    np.testing.assert_allclose(sums, dense_lik_sums(ref_rows, ref_parts, ref, avail), rtol=1e-13)
    assert np.all(sums[1] == 0.0)
    resp = block.response(eta, denom, 0.9, rows)
    assert resp.dtype == np.float64 and resp.shape == rows.shape
    # off the entries the response is eta[:, 0]
    full = np.repeat(eta[:, :1], n_part, axis=1)
    full[rows, parts] = resp
    np.testing.assert_allclose(full, dense_response(ref_rows, ref_parts, ref, avail, eta, denom,
                                                    0.9), rtol=1e-13)
    assert full[2, 7] == eta[2, 0] * (1.0 - 0.9)
    # a block without an available entry
    none = np.zeros_like(avail)
    rows, parts, gates, lik = _block_likelihood(headings, *entries(arrival, none), z, 0.3, 0.3)
    assert len(rows) == 0 and len(gates) == n_meas and all(not rows[g].size for g in gates)
    empty = _RowBlock("single", np.arange(n_rows)[:, None], slice(0, n_rows),
                      np.full(n_rows, 0.5), (rows, parts), gates, lik)
    sums = empty.lik_sums()
    assert sums.dtype == np.float64 and sums.shape == (n_rows, n_meas) and not sums.any()
    assert empty.response(eta, denom, 0.9, rows).shape == (0,)


def test_row_log_sums_match_dense_rows():
    # per (group, particle) sums over rows of log(w resp + eta0 (1 - w)), the
    # response eta0 off the entries
    rng = np.random.default_rng(26)
    n_rows, n_part, n_groups = 12, 30, 4
    avail = rng.random((n_rows, n_part)) < 0.5
    avail[3] = True                            # a row available everywhere
    avail[5] = False
    weight = rng.uniform(0.0, 1.0, n_rows)
    weight[0] = 1.0
    eta0 = rng.uniform(0.05, 1.0, n_rows)
    groups = rng.integers(0, n_groups, n_rows)
    resp = rng.uniform(0.0, 2.0, (n_rows, n_part))
    resp[4, :5] = 0.0
    rows, parts = np.nonzero(avail)
    order = rng.permutation(len(rows))
    rows, parts = rows[order], parts[order]
    dense_resp = np.where(avail, resp, eta0[:, None])
    want = np.zeros((n_groups, n_part))
    for r in range(n_rows):
        want[groups[r]] += np.log(weight[r] * dense_resp[r] + eta0[r] * (1.0 - weight[r]))
    got = np.zeros((n_groups, n_part))
    _row_log_sums(weight, eta0, resp[rows, parts], (rows, parts), groups, got)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_draw_proposals_equal_one_draw_per_measurement():
    n = 64
    params = HyperParams(n_particles=n)
    rng = np.random.default_rng(41)
    agent = AgentBelief(particles=np.concatenate([rng.uniform(-3.0, 3.0, (n, 2)),
                                                  rng.uniform(-1.0, 1.0, (n, 2))], axis=1),
                        headings=rng.uniform(-np.pi, np.pi, n))
    pa = np.array([1.0, 0.5])
    # particle 0 inverts measurement 1 onto the anchor: a degenerate inversion
    agent.particles[0, :2] = [3.0, 0.5]
    agent.headings[0] = 0.0
    assert not np.isfinite(va_to_mva(agent.particles[0, :2] - [2.0, 0.0], pa)).any()
    cases = [(batch_of(rng.uniform([0.5, -np.pi], [12.0, np.pi], (5, 2))), 0.1, 0.2, None),
             (batch_of([[4.0, 0.3], [2.0, 0.0], [6.0, -1.0]]), 1e-300, 1e-300, (1, 0)),
             (empty_batch(), 0.1, 0.2, None)]
    for batch, sigma_d, sigma_phi, degenerate in cases:
        batched, looped = np.random.default_rng(7), np.random.default_rng(7)
        got = _draw_proposals(batch, sigma_d, sigma_phi, agent, pa, params, batched)
        want = np.array([draw_new_pmva_reference(float(z_d), float(z_phi), sigma_d, sigma_phi,
                                                 agent, pa, params, looped)
                         for z_d, z_phi in batch]).reshape(len(batch), n, 2)
        assert np.isfinite(got).all()
        if degenerate is None:
            np.testing.assert_array_equal(got, want)
            assert batched.random() == looped.random()    # both left the generator in one state
            continue
        # the batch draws its birth points after all the noise, the reference
        # right after the measurement's own; at these sigmas the noise moves no
        # inversion, so only the birth point differs
        (xlo, xhi), (ylo, yhi) = params.birth_region
        x, y = got[degenerate]
        assert xlo <= x <= xhi and ylo <= y <= yhi
        others = np.ones(got.shape[:2], dtype=bool)
        others[degenerate] = False
        np.testing.assert_array_equal(got[others], want[others])
        again = _draw_proposals(batch, sigma_d, sigma_phi, agent, pa, params,
                                np.random.default_rng(7))
        np.testing.assert_array_equal(got, again)
        # the birth point is one (x, y) draw after the whole batch's noise
        after = np.random.default_rng(7)
        after.standard_normal((len(batch), 2, n))
        u = after.random(2)
        assert (x, y) == (xlo + (xhi - xlo) * u[0], ylo + (yhi - ylo) * u[1])
        assert batched.random() == after.random()


def test_feature_trace_cache_matches_backward_trace():
    # the cache's available entries and their VAs equal a trace of each row
    # from scratch, entry for entry and bit for bit
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
        lo, hi = traces.surfaces[4:]
        assert np.all(np.isinf(lo)) and np.all(np.isinf(hi))
        for _, members in candidate_blocks(n_feat, True):
            want = trace_entries([backward_trace(agent_xy, pa, [clouds[i] for i in idx],
                                                 [(lo[i], hi[i]) for i in idx],
                                                 endpoint_pairs(ctx.blockers), check)
                                  for idx in members], agent_xy)
            assert_same_entries(traces.available_entries(agent_xy, members), want)
            rows, parts = np.divmod(want[0], n_part)
            if check and members.shape[1]:
                assert 0 < len(rows) < len(members) * n_part
            if members.shape[1]:
                assert not np.any((members[rows, 0] == 1) & (parts < 5))


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
    segments = np.array(endpoint_pairs(ctx.blockers))
    seen = [0] * len(segments)
    hop_obstructed = raytrace.hop_obstructed

    def counted(p, q, obstacles):
        assert np.array_equal(obstacles, segments)    # the filter's map: the blocker rows
        hops = int(np.prod(np.broadcast_shapes(np.shape(p[0]), np.shape(q[0]))))
        seen[:] = [n + hops for n in seen]
        return hop_obstructed(p, q, obstacles)

    monkeypatch.setattr(raytrace, "hop_obstructed", counted)
    traces = ctx.feature_traces(clouds, pa, True)
    lo, hi, _ = nearest_extents_reference(ctx, clouds, unit=True)
    live = hops = 0
    for _, members in candidate_blocks(len(clouds), True):
        rows = []
        for idx in members:
            masks = []
            rows.append(backward_trace(agent_xy, pa, [clouds[i] for i in idx],
                                       [(lo[i], hi[i]) for i in idx], segments, True, live=masks))
            live += sum(np.broadcast_to(m, (n_part,)).sum() for m in masks)
            hops += (len(idx) + 1) * n_part
        assert_same_entries(traces.available_entries(agent_xy, members),
                            trace_entries(rows, agent_xy))
    assert seen == [live] * len(segments)
    assert 0 < live < hops / 2


def test_process_pa_no_measurements_no_info():
    # all paths unavailable (anchor behind the wall relative to every VA
    # construction is emulated by an empty batch and existence-only factors)
    params = HyperParams(n_particles=50, p_detect_los=0.0, p_detect_single=0.0,
                         p_detect_double=0.0)
    agent = point_belief(np.array([-2.0, 1.0]), np.array([0.2, 0.0]), 50)
    agent.particles[:, :2] += np.random.default_rng(3).normal(0, 0.3, (50, 2))
    feats = feature_map([np.full((50, 2), [10.0, 0.0])], [0.7], 50)
    logw, out = run_block(agent, feats, empty_batch(), params)
    assert np.allclose(logw, logw[0])
    assert out.existence[0] == pytest.approx(0.7)


def test_birth_density_integrates_to_one_over_the_birth_region(monkeypatch):
    # The birth density is uniform on the birth region: at proposals inside it,
    # it is the inverse of the region's area, computed here from the box.  It
    # reaches the filter through each measurement's "new or clutter" evidence,
    # xi_new = 1 + mu_new * density / (mu_fp * clutter density).
    (xlo, xhi), (ylo, yhi) = region = ((-40.0, 60.0), (-30.0, 20.0))
    params = HyperParams(n_particles=50, birth_region=region)
    agent = point_belief(np.array([-2.0, 1.0]), np.array([0.2, 0.0]), 50)
    seen = []

    def record_association(beta, xi_new, **kw):
        seen.append(xi_new)
        return association.run_association(beta, xi_new, **kw)

    monkeypatch.setattr(engine, "run_association", record_association)
    run_block(agent, feature_map([], [], 50), batch_of([[4.0, 0.3], [6.0, -1.0]]), params)
    (xi_new,) = seen
    density = (xi_new - 1.0) * CLUTTER.mu_fp * CLUTTER.density / params.mu_new
    np.testing.assert_allclose(density * (xhi - xlo) * (yhi - ylo), 1.0, rtol=1e-12)


def test_process_pa_missed_detection_decays_existence():
    params = HyperParams(n_particles=50)
    agent = point_belief(np.array([-2.0, 1.0]), np.array([0.2, 0.0]), 50)
    feats = feature_map([np.full((50, 2), [10.0, 0.0])], [0.9], 50)
    _, out = run_block(agent, feats, empty_batch(), params)
    # a = 0 factor: available but undetected shrinks the existence
    expected = 0.9 * 0.05 / (0.9 * 0.05 + 0.1)
    assert out.existence[0] == pytest.approx(expected, rel=1e-6)


def test_process_pa_keeps_certain_existences_exact():
    # an existence of exactly 0 or 1 leaves one of the update's two masses at zero:
    # the update keeps both edges, and its log of a zero mass raises no RuntimeWarning
    params = HyperParams(n_particles=50, p_prune=0.0)
    agent = point_belief(np.array([-2.0, 1.0]), np.array([0.2, 0.0]), 50)
    feats = feature_map([np.full((50, 2), xy) for xy in ([10.0, 0.0], [0.0, 8.0], [-9.0, -1.0])],
                        [0.0, 1.0, 0.5], 50)
    _, out = run_block(agent, feats, batch_of([[4.0, 0.3], [6.0, -1.0]]), params)
    assert out.existence[0] == 0.0
    assert out.existence[1] == 1.0
    assert 0.0 < out.existence[2] < 1.0


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
    batch = generate_batch(0.0, blocks, ctx.trace_paths(truth, pa, blocks),
                           {"los": 1.0, "single": 1.0, "double": 1.0}.get,
                           NoiseProfile(los=PathNoise(1e-6, 1e-6),
                                        single=PathNoise(1e-6, 1e-6),
                                        double=PathNoise(1e-6, 1e-6)),
                           ClutterModel(mu_fp=0.0, d_max=30.0), rng)
    logw, _ = run_block(agent, feature_map([], [], 200), batch, params, pa=pa, ctx=ctx, rng=rng,
                        clutter=ClutterModel(mu_fp=1e-9, d_max=30.0))
    assert np.argmax(logw) == 0
    finite = np.isfinite(logw)
    assert np.all(np.diff(logw[finite]) <= 1e-9)


def test_process_pa_bookkeeping_stacking():
    # with 2 anchors and 3 measurements at the first, the second block sees
    # S2 = S1 + 3 features before pruning
    params = HyperParams(n_particles=30, p_prune=0.0, pair_existence_floor=0.0)
    agent = point_belief(np.array([-2.0, 1.0]), np.array([0.2, 0.0]), 30)
    feats = feature_map([np.full((30, 2), [10.0, 0.0])], [0.5], 30)
    batch1 = batch_of([[3.0, 0.1], [5.0, -0.4], [8.0, 1.0]])
    rng = np.random.default_rng(5)
    logw, map1 = run_block(agent, feats, batch1, params, rng=rng)
    assert len(map1) == 4  # the S1 = 1 survivor first, then the M1 = 3 new features
    assert np.allclose(map1.particles[0], [10.0, 0.0])
    logw, map2 = process_pa(agent, logw, map1, empty_batch(), np.array([4.0, -1.0]), params,
                            PROFILE, CLUTTER, rng, Environment())
    assert len(map2) == 4  # S2 = S1 + M1, and no new features


def test_pure_prediction_reduction():
    # p_d = 0 for every class: the posterior equals the prediction
    ctx = one_wall_ctx()
    params = HyperParams(n_particles=100, p_detect_los=0.0, p_detect_single=0.0,
                         p_detect_double=0.0)
    rng = np.random.default_rng(6)
    agent = point_belief(np.array([-2.0, 1.0]), np.array([0.2, 0.1]), 100)
    agent.particles += rng.normal(0, 0.2, agent.particles.shape)
    feats = feature_map([rng.normal([10.0, 0.0], 0.3, (100, 2)),
                         rng.normal([0.0, 9.0], 0.3, (100, 2))], [0.6, 0.4], 100)
    batch = batch_of([[4.0, 0.3], [7.0, -1.0]])
    logw, out = run_block(agent, feats, batch, params, ctx=ctx, rng=rng)
    assert np.allclose(logw, logw[0])  # constant weights: belief unchanged
    for before, after in zip(feats.existence, out.existence):   # the survivors lead the map
        assert after == pytest.approx(before)


def test_existence_stays_in_unit_interval():
    params = HyperParams(n_particles=40)
    rng = np.random.default_rng(7)
    agent = point_belief(np.array([-2.0, 1.0]), np.array([0.2, 0.0]), 40)
    feats = feature_map([rng.normal([10.0, 0.0], 1.0, (40, 2)) for _ in range(3)],
                        [0.99999, 0.5, 1e-3], 40)
    for trial in range(20):
        batch = batch_of(rng.uniform([0, -np.pi], [15, np.pi], (3, 2)))
        logw, feats = run_block(agent, feats, batch, params, rng=rng)
        for e in feats.existence:
            assert 0.0 <= e <= 1.0
        if len(feats) > 6:
            feats = FeatureMap(particles=feats.particles[:6], existence=feats.existence[:6])


def test_finalize_uniform_weights_mean():
    params = HyperParams(n_particles=500)
    rng = np.random.default_rng(8)
    particles = rng.normal(0, 1, (500, 4))
    agent = AgentBelief(particles=particles, headings=np.zeros(500))
    assert np.allclose(agent.mean(), particles.mean(axis=0))
    resampled, est = finalize_step(agent, np.zeros(500), feature_map([], [], 500), params, rng)
    assert np.allclose(est.x_hat, particles.mean(axis=0))
    assert est.mva_positions.shape == (0, 2)
    # the resampled particles are equally weighted: their mean is the plain average
    assert np.allclose(resampled.mean(), resampled.particles.mean(axis=0))


def test_finalize_resampling_carries_each_heading():
    # a resampled particle keeps its own heading: at a standstill the earlier,
    # non-zero one, and moving the one predict_agent took from its velocity
    n = 8
    params = HyperParams(n_particles=n, sigma_accel=1e-300)
    rng = np.random.default_rng(30)
    particles = np.zeros((n, 4))
    particles[:, 0] = np.arange(n)                          # a particle's position names it
    particles[1::2, 2:] = rng.normal(0.0, 1.0, (n // 2, 2))  # odd particles move
    earlier = 0.5 + 0.3 * np.arange(n)
    agent = predict_agent(AgentBelief(particles=particles, headings=earlier), params, rng)
    vel = agent.particles[1::2, 2:]
    assert np.array_equal(agent.headings[0::2], earlier[0::2])
    assert np.array_equal(agent.headings[1::2], np.arctan2(vel[:, 1], vel[:, 0]))
    log_weights = np.log([4.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    resampled, _ = finalize_step(agent, log_weights, feature_map([], [], n), params, rng)
    src = np.argmax((resampled.particles[:, None] == agent.particles[None]).all(axis=2), axis=1)
    assert np.array_equal(resampled.particles, agent.particles[src])
    assert np.count_nonzero(src == 0) >= 2 and np.count_nonzero(src == 1) >= 2
    assert np.array_equal(resampled.headings, agent.headings[src])


def test_finalize_confirmation_threshold():
    params = HyperParams(n_particles=10)
    rng = np.random.default_rng(9)
    agent = point_belief(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 10)
    feats = feature_map([np.full((10, 2), [10.0, 0.0]), np.full((10, 2), [0.0, 7.0])],
                        [0.49, 0.51], 10)
    _, est = finalize_step(agent, np.zeros(10), feats, params, rng)
    assert np.array_equal(est.mva_positions, [[0.0, 7.0]])
    assert len(est.mva_positions) == 1


def test_finalize_single_particle():
    params = HyperParams(n_particles=1)
    agent = AgentBelief(particles=np.array([[1.0, 2.0, 0.1, 0.0]]), headings=np.zeros(1))
    _, est = finalize_step(agent, np.zeros(1), feature_map([], [], 1), params,
                           np.random.default_rng(0))
    assert np.allclose(est.x_hat, [1.0, 2.0, 0.1, 0.0])


def test_finalize_degenerate_weights_raises():
    params = HyperParams(n_particles=10)
    agent = point_belief(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 10)
    with pytest.raises(DegenerateWeights):
        finalize_step(agent, np.full(10, -np.inf), feature_map([], [], 10), params,
                      np.random.default_rng(0))


def test_log_domain_safety_random_steps():
    # a large batch of randomized update blocks must never produce NaN
    params = HyperParams(n_particles=30)
    rng = np.random.default_rng(10)
    agent = point_belief(np.array([-2.0, 1.0]), np.array([0.2, 0.0]), 30)
    agent.particles[:, :2] += rng.normal(0, 0.5, (30, 2))
    for trial in range(1000):
        n_feats = int(rng.integers(0, 4))
        drawn = [(rng.normal(rng.uniform(-12, 12, 2), 0.5, (30, 2)),
                  float(rng.uniform(1e-3, 1.0)))
                 for _ in range(n_feats)]
        feats = feature_map([c for c, _ in drawn], [e for _, e in drawn], 30)
        n_meas = int(rng.integers(0, 4))
        batch = (batch_of(rng.uniform([0, -np.pi], [20, np.pi], (n_meas, 2)))
                 if n_meas else empty_batch())
        logw, out = run_block(agent, feats, batch, params, pa=rng.uniform(-3, 3, 2), rng=rng)
        assert not np.any(np.isnan(logw))
        assert np.any(np.isfinite(logw))
        assert np.all(np.isfinite(out.existence))
        assert np.all(np.isfinite(out.particles))


def test_max_features_cap_prefers_existence_then_age():
    # with no detection the update leaves the existences as they are, so
    # features 0 and 3 tie; the cap keeps the more likely features, the
    # earlier one of a tie, and returns them in list (birth) order
    quiet = dict(n_particles=10, p_prune=0.0,
                 p_detect_los=0.0, p_detect_single=0.0, p_detect_double=0.0)
    agent = point_belief(np.array([0.0, 0.0]), np.array([0.1, 0.0]), 10)
    centres = [[10.0, 0.0], [-9.0, 0.0], [0.0, 7.0], [0.0, -8.0]]
    feats = feature_map([np.full((10, 2), c) for c in centres], [0.5, 0.2, 0.9, 0.5], 10)
    _, uncapped = run_block(agent, feats, empty_batch(), HyperParams(max_features=4, **quiet))
    assert uncapped.existence[0] == uncapped.existence[3]   # a true tie
    _, kept = run_block(agent, feats, empty_batch(), HyperParams(max_features=2, **quiet))
    assert kept.particles[:, 0].tolist() == [centres[0], centres[2]]


def test_filter_determinism_same_seed():
    walls = [WallSegment([5.0, -3.5], [5.0, 3.5]),
             WallSegment([-5.0, 3.5], [5.0, 3.5])]
    env = Environment(walls=walls)
    params = HyperParams(n_particles=300)
    positions = np.array([[-2.0 + 0.1 * n, 1.0] for n in range(5)])
    blocks = candidate_blocks(len(walls), True)
    arrival = env.trace_paths(positions, [1.0, 0.5], blocks)

    def run_once():
        rng = np.random.default_rng(33)
        filt = SlamFilter([(1.0, 0.5)], params, PROFILE, CLUTTER, rng=rng,
                          start_pos=[-2.0, 1.0], extent_walls=walls)
        outs = []
        for n in range(5):
            batch = generate_batch(0.0, blocks, arrival[n], params.p_detect, PROFILE, CLUTTER,
                                   rng)
            outs.append(filt.step([batch]).x_hat)
        return np.stack(outs)

    first = run_once()
    second = run_once()
    assert np.array_equal(first, second)


@pytest.mark.parametrize("bad", ["nan_row", "inf_distance", "one_dim", "three_columns",
                                 "angle_above_pi", "angle_below_minus_pi"])
def test_filter_step_rejects_a_batch_it_cannot_score(bad):
    # A batch that is not an (M, 2) array of finite values, or that has an
    # angle outside [-pi, pi], is refused before the step changes anything,
    # naming its anchor; a negative distance, which noise can draw, and the
    # angles -pi and pi are scored
    good = batch_of([[3.0, 0.2], [-0.1, -1.0], [2.0, -np.pi], [4.0, np.pi]])
    batch = {"nan_row": batch_of([[3.0, 0.2], [np.nan, 0.5]]),
             "inf_distance": batch_of([[np.inf, 0.2]]),
             "one_dim": np.array([3.0, 0.2]),
             "three_columns": np.array([[3.0, 0.2, 1.0]]),
             "angle_above_pi": batch_of([[3.0, 0.2], [5.0, 0.283 + 2.0 * np.pi]]),
             "angle_below_minus_pi": batch_of([[3.0, np.nextafter(-np.pi, -4.0)]])}[bad]
    filt = SlamFilter([(1.0, 0.5), (-1.0, 0.5)], HyperParams(n_particles=50), PROFILE, CLUTTER,
                      rng=np.random.default_rng(1), start_pos=[0.0, 0.0])
    agent = filt.agent
    with pytest.raises(ValueError, match="anchor 1"):
        filt.step([good, batch])
    assert filt.agent is agent
    assert np.all(np.isfinite(filt.step([good, good]).x_hat))


def test_filter_step_takes_nested_list_batches():
    # A batch given as nested lists is the array of its values: the same
    # estimate, bit for bit, over two steps
    config = bundled_scenario("exp3_olos")
    params = replace(config.params, n_particles=50)
    batches = [[[3.0, 0.1]], [[4.0, -0.2]]]                 # one per anchor
    estimates = []
    for convert in (lambda b: b, batch_of):
        filt = SlamFilter(config.pas, params, config.profile, config.clutter,
                          np.random.default_rng(8), start_pos=config.waypoints[0],
                          extent_walls=config.walls, blockers=config.blockers)
        estimates.append([filt.step([convert(b) for b in batches]) for _ in range(2)])
    for got, want in zip(*estimates):
        assert np.array_equal(got.x_hat, want.x_hat)
        assert np.array_equal(got.mva_positions, want.mva_positions)


def paper_room_block(case):
    """Inputs of one anchor block at the start of the paper room, shaped by ``case``."""
    config = bundled_scenario("exp1_rect_room")
    env = Environment(config.walls, config.blockers)
    pa = np.asarray(config.pas[0], dtype=float)
    start = np.asarray(config.waypoints[0], dtype=float)
    step = np.asarray(config.waypoints[1], dtype=float) - start
    heading = float(np.arctan2(step[1], step[0]))
    s_count = 30 if case == "pairs_s30" else 4
    n = 120
    rng = np.random.default_rng(12)
    agent = AgentBelief(particles=np.concatenate([start + rng.uniform(-0.5, 0.5, (n, 2)),
                                                  rng.uniform(-0.1, 0.1, (n, 2))], axis=1),
                        headings=heading + rng.normal(0.0, 0.05, n))
    centres = np.concatenate([env.wall_mvas, rng.uniform(-15.0, 15.0, (s_count, 2))])[:s_count]
    existence = rng.uniform(0.3, 0.99, s_count)
    features = feature_map([rng.normal(c, 0.2, (n, 2)) for c in centres], existence, n)
    blocks = candidate_blocks(len(env.walls), True)
    batch = generate_batch(heading, blocks, env.trace_paths(start, pa, blocks),
                           HyperParams().p_detect, config.profile,
                           config.clutter, rng)
    params = HyperParams(n_particles=n, p_prune=0.0, max_features=1000, pair_existence_floor=0.0)
    ctx = env
    if case == "on_va":
        params = replace(params, visibility_check=False)
        agent.particles[:3, :2] = pa                  # on the LOS VA
        agent.particles[3:6, :2] = mva_to_va(features.particles[0, 3:6], pa)
    elif case == "no_entries":
        # a blocker across the anchor's line of sight, long enough to hide it from
        # every particle
        normal = np.array([-(pa - start)[1], (pa - start)[0]]) / np.hypot(*(pa - start))
        mid = (start + pa) / 2.0
        ctx = Environment(walls=env.walls, blockers=[WallSegment(mid - 3.0 * normal,
                                                                 mid + 3.0 * normal)])
        features.particles[1] = 0.0                  # a degenerate surface: no available row
    elif case == "no_measurements":
        batch = empty_batch()
    return (agent, np.zeros(n), features, batch, pa, params, config.profile, config.clutter), ctx


@pytest.mark.parametrize("case", ["pairs_s30", "on_va", "no_entries", "no_measurements"])
def test_process_pa_matches_dense_reference(case):
    args, ctx = paper_room_block(case)
    logw, updated = process_pa(*args, np.random.default_rng(3), ctx)
    want_logw, want_existence = process_pa_reference(*args, np.random.default_rng(3), ctx)
    assert len(updated) == len(want_existence)
    np.testing.assert_allclose(logw, want_logw, rtol=1e-12)
    np.testing.assert_allclose(updated.existence, want_existence, rtol=1e-12)
    assert np.isfinite(logw).all()


def pair_heavy_block():
    """One anchor block at 1000 particles with 30 legacy features, all 870 ordered
    pairs active, and 15 measurements, in the paper room: ``process_pa``'s
    arguments before the generator, and the environment."""
    config = bundled_scenario("exp1_rect_room")
    env = Environment(config.walls, config.blockers)
    n, s_count, n_meas = 1000, 30, 15
    rng = np.random.default_rng(5)
    start = np.asarray(config.waypoints[0], dtype=float)
    agent = AgentBelief(particles=np.concatenate([start + rng.uniform(-0.5, 0.5, (n, 2)),
                                                  rng.uniform(-0.1, 0.1, (n, 2))], axis=1),
                        headings=rng.uniform(-np.pi, np.pi, n))
    centres = np.concatenate([env.wall_mvas,
                              rng.uniform(-15.0, 15.0, (s_count - len(env.wall_mvas), 2))])
    legacy = feature_map([rng.normal(c, 0.3, (n, 2)) for c in centres], [0.9] * s_count, n)
    batch = batch_of(np.stack([rng.uniform(1.0, 20.0, n_meas),
                               rng.uniform(-np.pi, np.pi, n_meas)], axis=1))
    args = (agent, np.zeros(n), legacy, batch, config.pas[0], HyperParams(n_particles=n),
            config.profile, config.clutter)
    return args, rng, env


def test_process_pa_peak_memory_is_bounded():
    # The likelihood is held at the available entries only: with numpy 2.4
    # the traced peak was 58 MiB, against 239 MiB for a dense (rows,
    # particles, measurements) tensor.
    args, rng, env = pair_heavy_block()
    tracemalloc.start()
    try:
        process_pa(*args, rng, env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 120 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_filter_traces_no_dense_block_plane():
    # The filter traces a block straight to its available entries.  Besides
    # the entries it returns, tracing the 870 pair rows allocates less than
    # one dense (rows, particles) float64 plane plus one chunk plane, where
    # a dense trace allocates two such planes and a boolean one.  With numpy
    # 2.4 the whole anchor block's traced peak fell from 38.3 MiB with the
    # dense trace to 22.4 MiB, and scoring the block in row slices
    # (raytrace.row_slices) took it to 11.8 MiB.
    args, rng, env = pair_heavy_block()
    agent, features, pa = args[0], args[2], args[4]
    traces = env.feature_traces(features.particles, pa, True)
    _, members = candidate_blocks(len(features), True)[-1]
    agent_xy = agent.particles[:, :2]
    traces.available_entries(agent_xy, members)          # warms the workspace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        flat, (ax, ay) = traces.available_entries(agent_xy, members)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    n_part = agent.n_particles
    dense_plane = len(members) * n_part * ax.itemsize
    chunk_plane = raytrace._TRACE_CHUNK * ax.itemsize
    returned = flat.nbytes + ax.nbytes + ay.nbytes
    assert len(members) == 870 and 0 < len(flat) < len(members) * n_part
    assert peak - returned < dense_plane + chunk_plane, f"{peak / 2**20:.1f} MiB"

    tracemalloc.start()
    try:
        process_pa(*args, rng, env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_row_slices_change_no_association_bit(monkeypatch):
    # Each slice of a row block is traced and scored on its own.  A row lies
    # in one slice and its entries keep their order, so the evidence table
    # and the association keep every bit; only the sums over rows (agent
    # log-weights, legacy existence) add in another order.
    (agent, log_weights, legacy, *rest), _, env = pair_heavy_block()
    particles = legacy.particles.copy()
    particles[0] = 0.0               # a degenerate surface: the first 29 pair rows have no entry
    existence = np.linspace(0.5, 0.95, len(legacy))      # every pair row's existence its own
    args = (agent, log_weights, FeatureMap(particles, existence), *rest)
    n_part = agent.n_particles
    # slices of 11 rows: the 870 pair rows make 79 of them and a last one of 1 row
    monkeypatch.setattr(raytrace, "_TRACE_CHUNK", 11 * n_part)

    def run(row_slice):
        monkeypatch.setattr(raytrace, "_ROW_SLICE", row_slice)
        tables, slices = [], []

        def record_association(beta, xi_new, **kw):
            out = association.run_association(beta, xi_new, **kw)
            tables.append((beta, out.eta))
            return out

        def record_slice(*fields):
            slices.append(_RowBlock(*fields))
            return slices[-1]

        monkeypatch.setattr(engine, "run_association", record_association)
        monkeypatch.setattr(engine, "_RowBlock", record_slice)
        logw, updated = process_pa(*args, np.random.default_rng(3), env)
        return tables[0], [b for b in slices if b.kind == "double"], logw, updated

    (beta, eta), pairs, logw, updated = run(11 * n_part)
    (want_beta, want_eta), whole, want_logw, want = run(1 << 62)
    assert len(whole) == 1 and len(whole[0].members) == 870
    assert len(pairs) == 80 and len(pairs[-1].members) == 1
    assert len(pairs[0].entries[0]) == 0 and len(pairs[-1].entries[0]) > 0
    assert beta.tobytes() == want_beta.tobytes()
    assert eta.tobytes() == want_eta.tobytes()
    np.testing.assert_allclose(logw, want_logw, rtol=1e-12)
    assert len(updated) == len(want)
    np.testing.assert_allclose(updated.existence, want.existence, rtol=1e-12)


def test_gate_width_changes_no_update_bit(monkeypatch):
    # The values a 39 sigma gate keeps beyond the 15 sigma one lie below
    # exp(-112.5) of the peak density: they move a few evidence entries by
    # less than 1e-30 and no bit of the association or of the updates.
    args, _, env = pair_heavy_block()

    def run(gate):
        monkeypatch.setattr(engine, "_GATE_SIGMAS", gate)
        tables = []

        def record_association(beta, xi_new, **kw):
            out = association.run_association(beta, xi_new, **kw)
            tables.append((beta, out))
            return out

        monkeypatch.setattr(engine, "run_association", record_association)
        logw, updated = process_pa(*args, np.random.default_rng(3), env)
        (beta, assoc), = tables
        return beta, assoc, logw, updated

    wide_beta, wide, wide_logw, wide_map = run(39.0)
    beta, assoc, logw, updated = run(15.0)
    assert wide_beta.shape == beta.shape == (1 + 30 + 870, 16)
    moved = wide_beta != beta
    assert moved.any() and not moved[:, 0].any()
    assert np.max(np.abs(wide_beta - beta)) < 1e-30
    assert assoc.eta.tobytes() == wide.eta.tobytes()
    assert assoc.sigma_out[:, 0].tobytes() == wide.sigma_out[:, 0].tobytes()
    assert logw.tobytes() == wide_logw.tobytes()
    assert updated.particles.tobytes() == wide_map.particles.tobytes()
    assert updated.existence.tobytes() == wide_map.existence.tobytes()


def olos_block(blockers=None, double=False):
    """One anchor block like the olos_single benchmark's: exp3_olos's walls and
    blocker, 2000 particles, 25 legacy features (the 2 walls' MVAs, then random
    surfaces), single bounces only unless ``double`` and measurements drawn from
    the truth.  Returns ``process_pa``'s arguments before the generator, and the
    environment, with ``blockers`` in place of the scenario's when given."""
    config = bundled_scenario("exp3_olos")
    # a new environment: its trace workspace starts empty
    env = Environment(walls=config.walls,
                      blockers=config.blockers if blockers is None else blockers)
    n, s_count = 2000, 25
    rng = np.random.default_rng(9)
    start = np.asarray(config.waypoints[0], dtype=float)
    pa = np.asarray(config.pas[0], dtype=float)
    agent = AgentBelief(particles=np.concatenate([start + rng.uniform(-0.5, 0.5, (n, 2)),
                                                  rng.uniform(-0.1, 0.1, (n, 2))], axis=1),
                        headings=rng.normal(0.0, 0.05, n))
    centres = np.concatenate([env.wall_mvas,
                              rng.uniform(-15.0, 15.0, (s_count - len(env.wall_mvas), 2))])
    legacy = feature_map([rng.normal(c, 0.2, (n, 2)) for c in centres],
                         rng.uniform(0.3, 0.99, s_count), n)
    blocks = candidate_blocks(len(env.walls), double)
    batch = generate_batch(0.0, blocks, env.trace_paths(start, pa, blocks),
                           HyperParams().p_detect, config.profile, config.clutter, rng)
    params = HyperParams(n_particles=n, use_double_bounce=double)
    return (agent, np.zeros(n), legacy, batch, pa, params, config.profile, config.clutter), env


def test_anchor_block_frees_its_trace_cache_before_the_association(monkeypatch):
    # The association and the updates never read the trace cache, so it is
    # gone before the evidence table is built.  With numpy 2.4 the block's
    # traced peak reads 3.98 MiB while the rows are scored and 3.84 MiB from
    # the association on.  The second figure includes the tracer's workspace
    # (1.34 MiB), which the Environment keeps by design from block to block.
    args, env = olos_block()
    caches, alive, peaks = [], [], []
    feature_traces = Environment.feature_traces

    def record_traces(self, *a):
        traces = feature_traces(self, *a)
        caches.append(weakref.ref(traces))
        return traces

    def check_association(beta, xi_new, **kw):
        alive.append([ref() is not None for ref in caches])
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return association.run_association(beta, xi_new, **kw)

    monkeypatch.setattr(Environment, "feature_traces", record_traces)
    monkeypatch.setattr(engine, "run_association", check_association)
    tracemalloc.start()
    try:
        process_pa(*args, np.random.default_rng(3), env)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert alive == [[False]]
    scoring, update = (p / 2**20 for p in peaks)
    assert scoring < 6.5 and update < 4.5, f"peaks {scoring:.1f} and {update:.1f} MiB"


def test_pair_block_scoring_peak_is_bounded(monkeypatch):
    # While a block is scored, every slice's entry indices, gates and values
    # are held.  The indices are 4 bytes each, each measurement's run is
    # written in place, and a bounce draws its reflector bounds after the
    # crossing: with numpy 2.4 the traced peak of this pair-row block up to
    # the association read 7.6 MiB, against 8.7 MiB with int64 indices,
    # per-measurement run copies and the bounds drawn beside the crossing.
    args, env = olos_block(double=True)
    peaks = []

    def check_association(beta, xi_new, **kw):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return association.run_association(beta, xi_new, **kw)

    monkeypatch.setattr(engine, "run_association", check_association)
    tracemalloc.start()
    try:
        process_pa(*args, np.random.default_rng(3), env)
    finally:
        tracemalloc.stop()
    scoring = peaks[0] / 2**20
    assert scoring < 8.1, f"peak {scoring:.2f} MiB"


def test_filter_step_frees_the_map_before_prediction(monkeypatch):
    # Each stage's map replaces the filter's at once, so the map from before
    # prediction is gone while the anchor blocks run.
    config = bundled_scenario("exp3_olos")
    env = Environment(config.walls, config.blockers)
    params = replace(config.params, n_particles=200)
    rng = np.random.default_rng(4)
    filt = SlamFilter(config.pas, params, config.profile, config.clutter, rng,
                      start_pos=config.waypoints[0], extent_walls=env.walls,
                      blockers=env.blockers)
    blocks = candidate_blocks(len(env.walls), True)

    def batches(n):
        arrival = env.trace_paths(config.waypoints[n], np.array(config.pas), blocks)
        return [generate_batch(0.0, blocks, arrival[j], params.p_detect, config.profile,
                               config.clutter, rng)
                for j in range(len(config.pas))]

    filt.step(batches(1))
    assert len(filt.features) > 0
    before = weakref.ref(filt.features)
    gone = []
    plain_block = engine.process_pa

    def check_block(*a):
        gone.append(before() is None)
        return plain_block(*a)

    monkeypatch.setattr(engine, "process_pa", check_block)
    filt.step(batches(2))
    assert gone == [True] * len(config.pas)


def test_far_obstacle_changes_no_bit(monkeypatch):
    # A blocker that no hop comes near obstructs nothing: hop_obstructed
    # skips a segment before its division when no hop crosses it and none is
    # collinear with it.  So adding one changes no bit of one setup-1 anchor
    # block (its available entries, evidence table, association, agent
    # log-weights and map) nor of the truth's trace.
    config = bundled_scenario("exp3_olos")
    far = WallSegment([40.0, 41.0], [43.0, 40.0])
    blockers = tuple(config.blockers)
    entries, tables = [], []
    available_entries = raytrace.SurfaceTraces.available_entries

    def record_entries(self, agent, members):
        entries.append(available_entries(self, agent, members))
        return entries[-1]

    def record_association(beta, xi_new, **kw):
        out = association.run_association(beta, xi_new, **kw)
        tables.append((beta, out.eta))
        return out

    monkeypatch.setattr(raytrace.SurfaceTraces, "available_entries", record_entries)
    monkeypatch.setattr(engine, "run_association", record_association)

    def run(blockers):
        args, env = olos_block(blockers, double=True)
        entries.clear()
        tables.clear()
        logw, updated = process_pa(*args, np.random.default_rng(3), env)
        truth = env.trace_paths(config.waypoints, np.array(config.pas)[:, None],
                                candidate_blocks(len(env.walls), True))
        return list(entries), list(tables), logw, updated, truth

    entries, ((beta, eta),), logw, updated, truth = run(blockers)
    far_entries, ((far_beta, far_eta),), far_logw, far_map, far_truth = run(blockers + (far,))
    # LOS, single rows, pair rows a row slice at a time, then the truth's three blocks
    assert len(entries) == len(far_entries) > 6
    assert all(len(flat) for flat, _ in entries[:2])
    for (flat, arrival), (far_flat, far_arrival) in zip(entries, far_entries, strict=True):
        assert flat.tobytes() == far_flat.tobytes()
        assert arrival[0].tobytes() == far_arrival[0].tobytes()
        assert arrival[1].tobytes() == far_arrival[1].tobytes()
    assert beta.tobytes() == far_beta.tobytes() and eta.tobytes() == far_eta.tobytes()
    assert logw.tobytes() == far_logw.tobytes()
    assert updated.particles.tobytes() == far_map.particles.tobytes()
    assert updated.existence.tobytes() == far_map.existence.tobytes()
    assert truth.tobytes() == far_truth.tobytes()
    available = ~np.isnan(truth[..., 0])
    assert available.any() and not available.all()


def recorded_block(monkeypatch, args, env):
    """Run one anchor block; return its evidence table, association messages,
    agent log-weights and updated map."""
    tables = []

    def record_association(beta, xi_new, **kw):
        out = association.run_association(beta, xi_new, **kw)
        tables.append((beta, out.eta))
        return out

    monkeypatch.setattr(engine, "run_association", record_association)
    logw, updated = process_pa(*args, np.random.default_rng(3), env)
    (beta, eta), = tables
    return beta, eta, logw, updated


def test_inert_feature_changes_no_other_row(monkeypatch):
    # A legacy feature with existence 0 adds one single row whose evidence is
    # [1, 0, ..., 0], and its pair rows fall below the existence floor: it
    # sends nothing to any measurement.  So every other row's beta and eta,
    # every other feature's updated existence and the normalized agent weights
    # keep their values, and the agent log-weights all move by the log of the
    # inert row's eta[:, 0].  The single rows stay in one row slice, so the
    # other rows' evidence keeps its bits.  Compared before the resampling:
    # the inert feature still draws a resampling offset, so the resampled
    # clouds differ.  The inert cloud sits on a true wall's MVA, where it
    # would be detected if it existed.
    (agent, log_weights, legacy, *rest), env = olos_block(double=True)
    s_count = len(legacy)
    cloud = np.random.default_rng(4).normal(env.wall_mvas[0], 0.2, (1, agent.n_particles, 2))
    inert = FeatureMap(np.concatenate([legacy.particles, cloud]),
                       np.concatenate([legacy.existence, [0.0]]))
    beta, eta, logw, updated = recorded_block(monkeypatch, (agent, log_weights, legacy, *rest),
                                              env)
    got_beta, got_eta, got_logw, got = recorded_block(
        monkeypatch, (agent, log_weights, inert, *rest), env)
    row = 1 + s_count                         # after the LOS row and the other single rows
    assert got_beta[row].tolist() == [1.0] + [0.0] * (beta.shape[1] - 1)
    others = np.delete(np.arange(len(got_beta)), row)
    assert len(others) == len(beta) > 1 + s_count
    assert got_beta[others].tobytes() == beta.tobytes()
    np.testing.assert_allclose(got_eta[others], eta, rtol=1e-12)
    np.testing.assert_allclose(got_logw - logw, np.log(got_eta[row, 0]), rtol=1e-12)
    assert np.log(got_eta[row, 0]) < -1e-3
    np.testing.assert_allclose(np.exp(got_logw - got_logw.max()), np.exp(logw - logw.max()),
                               rtol=1e-12)
    # the inert feature is pruned, and every other feature keeps its existence
    assert len(got) == len(updated) > s_count // 2
    np.testing.assert_allclose(got.existence, updated.existence, rtol=1e-12)


def test_blocker_that_hides_a_surface_makes_its_row_undetectable(monkeypatch):
    # A blocker just inside the top wall cuts both hops of every particle's
    # single bounce off feature 0, the top wall's cloud.  That path is
    # unavailable everywhere, so its detection probability is 0: the
    # feature's evidence row is exactly [1, 0, ..., 0], and its updated
    # existence equals its predicted existence.  Without the blocker the
    # same row is detected.
    config = bundled_scenario("exp3_olos")
    blockers = tuple(config.blockers)
    hiding = WallSegment([-4.9, 2.5], [4.9, 2.5])
    top = config.walls[0]
    assert top.a[1] == top.b[1] == 3.5
    for blocked in (False, True):
        args, env = olos_block(blockers + (hiding,) if blocked else blockers)
        params = replace(args[5], p_prune=0.0, max_features=1000)    # every feature is kept
        args = args[:5] + (params,) + args[6:]
        legacy = args[2]
        beta, _, _, updated = recorded_block(monkeypatch, args, env)
        row = beta[1]                                               # feature 0's single row
        if not blocked:
            assert row[0] < 1.0 and row[1:].max() > 0.0
            continue
        assert row.tolist() == [1.0] + [0.0] * (len(row) - 1)
        assert updated.existence[0] == pytest.approx(legacy.existence[0], rel=1e-12)
        assert 0.3 < legacy.existence[0] < 0.99


def test_relabeling_the_legacy_features_permutes_their_rows(monkeypatch):
    # The features' order is a label, not part of the model.  Permuting the
    # legacy features permutes their single rows, their pair rows (a pair
    # (s, s2) becomes the pair of the two features' new labels) and their
    # updated existences and clouds the same way; the normalized agent weights
    # keep their values.  A row's evidence reads only its own members, so
    # beta keeps its bits; the association and the sums over rows add in
    # another order, so the rest agrees within rtol 1e-12.  Compared before
    # the resampling: the resampling indices are the identity, and the kept
    # clouds are the gathered ones, so each names the feature it came from.
    monkeypatch.setattr(engine, "systematic_resample",
                        lambda weights, offsets: np.tile(np.arange(weights.shape[1]),
                                                         (len(weights), 1)))
    (agent, log_weights, legacy, *rest), env = olos_block(double=True)
    params = rest[2]
    s_count = len(legacy)
    perm = np.random.default_rng(8).permutation(s_count)
    relabeled = FeatureMap(legacy.particles[perm], legacy.existence[perm])
    beta, eta, logw, updated = recorded_block(monkeypatch, (agent, log_weights, legacy, *rest),
                                              env)
    got_beta, got_eta, got_logw, got = recorded_block(
        monkeypatch, (agent, log_weights, relabeled, *rest), env)

    def pair_rows(existence):
        pairs = np.argwhere(~np.eye(s_count, dtype=bool))
        return pairs[np.prod(existence[pairs], axis=1) >= params.pair_existence_floor]

    row_of = {tuple(p): 1 + s_count + r
              for r, p in enumerate(pair_rows(legacy.existence).tolist())}
    pairs = perm[pair_rows(relabeled.existence)]          # each pair row's features, old labels
    rows = np.concatenate([[0], 1 + perm, [row_of[tuple(p)] for p in pairs.tolist()]])
    assert len(rows) == len(beta) > 1 + s_count
    assert got_beta.tobytes() == beta[rows].tobytes()
    np.testing.assert_allclose(got_eta, eta[rows], rtol=1e-12)
    np.testing.assert_allclose(np.exp(got_logw - got_logw.max()), np.exp(logw - logw.max()),
                               rtol=1e-12)

    def sources(features, clouds):
        """The index in ``clouds`` of each kept cloud of ``features``, -1 for a new one."""
        return np.array([next((k for k, c in enumerate(clouds) if np.array_equal(c, cloud)), -1)
                         for cloud in features.particles])

    kept, got_kept = sources(updated, legacy.particles), sources(got, relabeled.particles)
    n_old = np.count_nonzero(kept >= 0)
    assert s_count // 2 < n_old < s_count and len(got) == len(updated)
    kept, got_kept = kept[:n_old], got_kept[:n_old]
    # the survivors are the same features, each kept in its own label order
    assert np.all(np.diff(kept) > 0) and np.all(np.diff(got_kept) > 0)
    assert sorted(perm[got_kept].tolist()) == kept.tolist()
    order = np.searchsorted(kept, perm[got_kept])
    np.testing.assert_allclose(got.existence[:n_old], updated.existence[order], rtol=1e-12)
    # the new features follow, the same in both
    assert got.particles[n_old:].tobytes() == updated.particles[n_old:].tobytes()
    np.testing.assert_allclose(got.existence[n_old:], updated.existence[n_old:], rtol=1e-12)


@pytest.mark.parametrize("transform", ["turn", "mirror"])
def test_quarter_turn_and_mirror_keep_the_block(transform, monkeypatch):
    # A quarter turn about the origin, (x, y) -> (-y, x), or a mirror,
    # (x, y) -> (-x, y), of the whole scene: agent, headings, legacy clouds,
    # anchor, walls and blocker.  Both are exact in floating point and map
    # the default birth box onto itself.  Distances stay; an angle relative
    # to the heading stays under the turn and negates under the mirror, so
    # the measured angles do too.  The new-feature proposals are the same
    # draw, mapped.  Then the evidence table, the association, the updated
    # existences and the normalized agent weights keep their values, within
    # rtol 1e-12: arctan2 and the headings round differently.
    (agent, log_weights, legacy, batch, pa, params, profile, clutter), env = olos_block(double=True)
    assert params.birth_region == ((-15.0, 15.0), (-15.0, 15.0))
    if transform == "turn":
        def point(p):
            return np.stack([-p[..., 1], p[..., 0]], axis=-1)
        headings, z_phi = agent.headings + np.pi / 2, batch[:, 1]
    else:
        def point(p):
            return np.stack([-p[..., 0], p[..., 1]], axis=-1)
        headings, z_phi = np.pi - agent.headings, -batch[:, 1]

    def segments(walls):
        return [WallSegment(point(w.a), point(w.b)) for w in walls]

    props = _draw_proposals(batch, profile.single.sigma_d, profile.single.sigma_phi, agent, pa,
                            params, np.random.default_rng(2))
    monkeypatch.setattr(engine, "_draw_proposals", lambda *args: props)
    beta, eta, logw, updated = recorded_block(
        monkeypatch, (agent, log_weights, legacy, batch, pa, params, profile, clutter), env)
    assert len(batch) > 2 and len(updated) > 1

    moved_agent = AgentBelief(np.concatenate([point(agent.particles[:, :2]),
                                              point(agent.particles[:, 2:])], axis=1), headings)
    moved_legacy = FeatureMap(point(legacy.particles), legacy.existence)
    moved_env = Environment(segments(env.walls), segments(env.blockers))
    monkeypatch.setattr(engine, "_draw_proposals", lambda *args: point(props))
    moved_batch = np.stack([batch[:, 0], z_phi], axis=1)
    got_beta, got_eta, got_logw, got = recorded_block(
        monkeypatch, (moved_agent, log_weights, moved_legacy, moved_batch, point(pa), params,
                      profile, clutter), moved_env)
    np.testing.assert_allclose(got_beta, beta, rtol=1e-12)
    np.testing.assert_allclose(got_eta, eta, rtol=1e-12)
    np.testing.assert_allclose(np.exp(got_logw - got_logw.max()), np.exp(logw - logw.max()),
                               rtol=1e-12)
    np.testing.assert_allclose(got.existence, updated.existence, rtol=1e-12)
