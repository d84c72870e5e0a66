import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mvaslam import raytrace
from mvaslam.experiment import available_path_keys
from mvaslam.geometry import WallSegment
from mvaslam.raytrace import Environment, candidate_blocks
from mvaslam.scenario import bundled_scenario

from oracles import (AMBIGUOUS, KINDS, assert_same_entries, backward_trace, candidate_bounces,
                     nearest_extents_reference, oracle_path_available, trace_entries,
                     wall_extents)

LOS = ()


def rect_room():
    return Environment(walls=[
        WallSegment([5.0, -3.5], [5.0, 3.5]),
        WallSegment([-5.0, -3.5], [-5.0, 3.5]),
        WallSegment([-5.0, 3.5], [5.0, 3.5]),
        WallSegment([-5.0, -3.5], [5.0, -3.5]),
    ])


def nonrect_room():
    return Environment(walls=[
        WallSegment([-2.0, 2.5], [-2.0, 7.0]),
        WallSegment([-2.0, 7.0], [5.5, 7.0]),
        WallSegment([5.5, 1.0], [5.5, 7.0]),
        WallSegment([0.5, 0.36], [5.5, 1.0]),
    ])


def available(agent, pa, bounces, env):
    """Availability of one path at one agent position, traced as the generator does."""
    kind = KINDS[len(bounces)]
    arrival = env.trace_paths(agent, pa, [(kind, np.array([bounces]).reshape(1, -1))])
    return not np.isnan(arrival[0, 0])


def test_los_open_room():
    env = rect_room()
    assert available([-2.0, 1.0], [3.0, -2.0], LOS, env)


def test_los_blocked_by_obstacle():
    env = rect_room()
    env2 = Environment(walls=env.walls,
                       blockers=[WallSegment([0.0, -3.0], [1.0, 2.0])])
    assert not available([-2.0, 1.0], [3.0, -2.0], LOS, env2)


def test_los_symmetry():
    env = rect_room()
    env2 = Environment(walls=env.walls,
                       blockers=[WallSegment([0.0, -3.0], [1.0, 2.0])])
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = rng.uniform([-4.5, -3.0], [4.5, 3.0])
        b = rng.uniform([-4.5, -3.0], [4.5, 3.0])
        assert available(a, b, LOS, env2) == available(b, a, LOS, env2)


def test_blocker_removal_monotonicity():
    env = rect_room()
    blocker = WallSegment([0.0, -3.0], [0.5, 2.0])
    env_b = Environment(walls=env.walls, blockers=[blocker])
    rng = np.random.default_rng(6)
    blocks = candidate_blocks(4, True)
    for _ in range(200):
        agent = rng.uniform([-4.5, -3.0], [4.5, 3.0])
        pa = rng.uniform([-4.5, -3.0], [4.5, 3.0])
        with_blocker = ~np.isnan(env_b.trace_paths(agent, pa, blocks)[:, 0])
        without = ~np.isnan(env.trace_paths(agent, pa, blocks)[:, 0])
        assert np.all(without[with_blocker])


def test_perpendicular_double_bounce_exactly_one_order():
    # perpendicular walls, one anchor: at any interior position exactly one
    # of the two bounce orders is traceable (both map to the same image)
    env = Environment(walls=[WallSegment([5.0, -6.0], [5.0, 4.0]),
                             WallSegment([-3.0, 4.0], [5.0, 4.0])])
    pa = np.array([1.0, 2.0])
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(1000):
        agent = rng.uniform([-2.5, -5.5], [4.5, 3.5])
        against = [oracle_path_available(agent, pa, path, env) for path in ((0, 1), (1, 0))]
        if AMBIGUOUS in against:
            continue
        got = [available(agent, pa, path, env) for path in ((0, 1), (1, 0))]
        assert got == against
        assert sum(got) <= 1
        checked += 1
    assert checked > 900


@pytest.mark.parametrize("room", [rect_room, nonrect_room])
def test_oracle_equivalence(room):
    env = room()
    lo = np.min([[w.a, w.b] for w in env.walls], axis=(0, 1))
    hi = np.max([[w.a, w.b] for w in env.walls], axis=(0, 1))
    rng = np.random.default_rng(1234)
    pas = [rng.uniform(lo + 0.5, hi - 0.5) for _ in range(2)]
    paths = candidate_bounces(len(env.walls), True)
    agents, anchors = [], []
    for _ in range(1000):
        agents.append(rng.uniform(lo + 0.2, hi - 0.2))
        anchors.append(pas[int(rng.integers(2))])
    blocks = candidate_blocks(len(env.walls), True)
    got = ~np.isnan(env.trace_paths(np.array(agents), np.array(anchors), blocks)[..., 0])
    checked = skipped = 0
    for agent, pa, row in zip(agents, anchors, got):
        for path, avail in zip(paths, row):
            expected = oracle_path_available(agent, pa, path, env)
            if expected is AMBIGUOUS:
                skipped += 1
                continue
            assert avail == expected, f"disagreement at agent={agent}, pa={pa}, path={path}"
            checked += 1
    assert checked > 10 * skipped


def test_wall_extents():
    # each wall's extent is its endpoints' coordinates along its own line
    lo, hi = wall_extents(rect_room()).T
    assert np.allclose(hi - lo, [7.0, 7.0, 10.0, 10.0])
    tilted = Environment(walls=[WallSegment([0.5, 0.36], [5.5, 1.0])])
    lo, hi = wall_extents(tilted)[0]
    assert hi - lo == pytest.approx(np.hypot(5.0, 0.64))
    assert wall_extents(Environment()).shape == (0, 2)


def test_nearest_extents_match_cloud_mean_reference():
    # the filter's cache takes each surface's nearest wall and its extents
    # from the surface's one frame; they equal the (..., 2) reference bit for
    # bit, degenerate and far-off clouds included
    rng = np.random.default_rng(5)
    env = rect_room()
    n_part = 997
    clouds = np.concatenate([
        rng.normal(env.wall_mvas[:, None], 0.5, (4, n_part, 2)),        # near the walls
        rng.normal([[[3e7, -2e8]]], 1e-3, (1, n_part, 2)),              # far off, tiny spread
        rng.normal(0.0, 1.0, (1, n_part, 2)) * np.logspace(-12, 12, n_part)[:, None],
        rng.normal(env.wall_mvas[None, 2] / 2, 1e-3, (1, n_part, 2)),   # between two walls
        np.zeros((1, n_part, 2)),                                       # degenerate
        np.full((1, n_part, 2), -0.0),
    ])
    for c in (clouds, clouds[:, :1], clouds[:, :2], clouds[:, :17]):
        lo, hi = env.feature_traces(c, [1.0, 0.5], True).surfaces[4:]
        want_lo, want_hi, walls = nearest_extents_reference(env, c)
        assert len(set(walls.tolist())) > 1
        assert lo.tobytes() == want_lo.tobytes() and hi.tobytes() == want_hi.tobytes()


@pytest.mark.parametrize("name", ["exp1_rect_room", "exp3_olos", "nonrect"])
def test_filter_and_generator_agree_on_bundled_scenarios(name):
    # The filter traces feature clouds clipped to the nearest wall with only
    # the blockers obstructing; the generator traces the true walls with
    # their own extents and every wall and blocker obstructing.  At
    # true-MVA clouds along the bundled trajectories both must agree.
    config = bundled_scenario(name)
    env = config.environment
    points = config.waypoints
    paths = candidate_bounces(len(env.walls), True)
    # one "particle" per waypoint, every particle at the true MVA
    clouds = np.repeat(env.wall_mvas[:, None], len(points), axis=1)
    for pa in config.pas:
        lo, hi, _ = nearest_extents_reference(env, clouds, unit=True)
        generator = ~np.isnan(env.trace_paths(points, pa,
                                              candidate_blocks(len(env.walls), True))[..., 0])
        for k, idx in enumerate(paths):
            _, filt = backward_trace(points, pa, [clouds[i] for i in idx],
                                     [(lo[i], hi[i]) for i in idx], env.blocker_segments,
                                     check=True)
            assert np.array_equal(filt, generator[:, k]), f"{name}: {idx} at pa={pa}"


@pytest.mark.parametrize("name", ["exp1_rect_room", "exp3_olos", "nonrect"])
@pytest.mark.parametrize("double", [True, False])
def test_truth_table_matches_backward_trace(name, double):
    # the truth table, traced once through the trace cache, equals a trace of
    # each candidate path from scratch, column by column and bit for bit
    config = bundled_scenario(name)
    config = replace(config, double_bounce=double,
                     params=replace(config.params, use_double_bounce=double))
    env = config.environment
    truth = available_path_keys(config)
    paths = candidate_bounces(len(env.walls), double)
    kinds = [kind for kind, members in truth.blocks for _ in members]
    assert kinds == [KINDS[len(idx)] for idx in paths]
    assert [tuple(row) for _, members in truth.blocks for row in members.tolist()] == paths
    lo, hi = wall_extents(env).T
    pas = np.array(config.pas)[:, None]
    assert truth.arrival.shape == (len(config.pas), len(config.waypoints), len(paths), 2)
    for k, idx in enumerate(paths):
        va, available = backward_trace(config.waypoints, pas, [env.wall_mvas[i] for i in idx],
                                       [(lo[i], hi[i]) for i in idx], env.segments, check=True)
        # the waypoint minus the path's VA where the path is available, NaN elsewhere
        want = np.where(available[..., None], config.waypoints - va, np.nan)
        assert np.array_equal(truth.arrival[:, :, k], want, equal_nan=True), (name, double, idx)


def test_chunking_and_scratch_reuse_change_no_bit(monkeypatch):
    # Rows traced one per chunk, in chunks whose last one is partial, and in
    # one chunk give the same available entries and VA bits, and all equal
    # the reference trace.  The calls alternate between more and fewer rows
    # and points on one environment, so a scratch plane left stale by a
    # larger call would show.
    rng = np.random.default_rng(17)
    env = Environment(walls=rect_room().walls,
                      blockers=[WallSegment([2.0, -3.0], [2.0, 1.0]),
                                WallSegment([-4.0, 1.0], [-1.0, 3.0])])
    pa = np.array([1.0, 0.5])
    cases = []
    for n_part, n_surf in ((80, 5), (45, 4)):
        clouds = np.concatenate([rng.normal(env.wall_mvas[:, None], 0.3, (4, n_part, 2)),
                                 rng.normal([[[30.0, -40.0]]], 1.0, (1, n_part, 2))])[:n_surf]
        clouds[1, :4] = 0.0                       # degenerate MVA rows
        cases.append((clouds, rng.uniform([-4.8, -3.3], [4.8, 3.3], (n_part, 2))))

    def trace_all(against_reference=False):
        out = []
        for clouds, agent in cases + cases:
            for check in (True, False):
                traces = env.feature_traces(clouds, pa, check)
                lo, hi, _ = nearest_extents_reference(env, clouds, unit=True)
                for _, members in candidate_blocks(len(clouds), True):
                    out.append(traces.available_entries(agent, members))
                    if not against_reference:
                        continue
                    want = [backward_trace(agent, pa, [clouds[i] for i in idx],
                                           [(lo[i], hi[i]) for i in idx], env.blocker_segments,
                                           check) for idx in members]
                    assert_same_entries(out[-1], trace_entries(want, agent))
        return out

    monkeypatch.setattr(raytrace, "_TRACE_CHUNK", 1 << 30)
    whole = trace_all(against_reference=True)
    # 240 elements: 3 of 80 points, so 20 pairs end in a chunk of 2, and 5
    # of 45 points, so 12 pairs end in a chunk of 2
    for chunk in (1, 240):
        monkeypatch.setattr(raytrace, "_TRACE_CHUNK", chunk)
        for got, want in zip(trace_all(), whole, strict=True):
            assert_same_entries(got, want)


def test_single_rows_are_read_as_a_slice_of_surfaces(monkeypatch):
    # A chunk of single-bounce rows reads its surfaces' planes as views of a
    # slice, so a run of rows that starts past the first surface, as a later
    # row slice of the block does, traces those surfaces; rows that are not
    # consecutive surfaces are refused
    rng = np.random.default_rng(29)
    env = rect_room()
    n_part = 40
    clouds = rng.normal(np.concatenate([env.wall_mvas, env.wall_mvas[:1] * 1.5])[:, None], 0.3,
                        (5, n_part, 2))
    agent = rng.uniform([-4.8, -3.3], [4.8, 3.3], (n_part, 2))
    traces = env.feature_traces(clouds, [1.0, 0.5], True)
    _, singles = candidate_blocks(len(clouds), False)[1]
    whole_flat, whole_arrival = traces.available_entries(agent, singles)
    monkeypatch.setattr(raytrace, "_TRACE_CHUNK", 2 * n_part)   # chunks of 2 rows
    flat, arrival = traces.available_entries(agent, singles[2:])
    keep = whole_flat >= 2 * n_part
    assert_same_entries((flat, arrival), (whole_flat[keep] - 2 * n_part,
                                          tuple(v[keep] for v in whole_arrival)))
    assert 0 < len(flat) < len(whole_flat)
    with pytest.raises(ValueError, match="consecutive"):
        traces.available_entries(agent, singles[[1, 0]])


def test_warm_trace_allocates_no_chunk_temporaries():
    # Once an environment's workspace is warm, tracing a block allocates its
    # entries and no chunk-sized temporary.  Its three outputs are joined one
    # at a time, so the peak is their pieces plus one output, 4/3 of the
    # outputs, and at most one chunk plane more.  Without blockers: the
    # obstruction test gathers the live hops into new arrays.
    rng = np.random.default_rng(23)
    env = rect_room()
    n_part = 1000
    clouds = np.concatenate([rng.normal(env.wall_mvas[:, None], 0.3, (4, n_part, 2)),
                             rng.normal(1.5 * env.wall_mvas[:, None], 0.3, (4, n_part, 2))])
    agent = rng.uniform([-4.8, -3.3], [4.8, 3.3], (n_part, 2))
    traces = env.feature_traces(clouds, [1.0, 0.5], True)
    _, members = candidate_blocks(len(clouds), True)[-1]
    chunk_rows = raytrace._TRACE_CHUNK // n_part
    assert len(members) > 3 * chunk_rows
    traces.available_entries(agent, members)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        flat, (ax, ay) = traces.available_entries(agent, members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk_plane = chunk_rows * n_part * ax.itemsize
    returned = flat.nbytes + ax.nbytes + ay.nbytes
    assert peak - before <= returned * 4 / 3 + chunk_plane
    assert 0 < len(flat) < len(members) * n_part
    # the scratch planes stay behind when the environment is pickled
    assert len(pickle.dumps(env)) < chunk_plane
