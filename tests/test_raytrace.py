from dataclasses import replace

import numpy as np
import pytest

from mvaslam.experiment import available_path_keys
from mvaslam.geometry import WallSegment
from mvaslam.raytrace import Environment, candidate_blocks
from mvaslam.scenario import bundled_scenario

from oracles import (AMBIGUOUS, KINDS, backward_trace, candidate_bounces,
                     nearest_extents_reference, oracle_path_available)

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
    return bool(env.trace_paths(agent, pa, [(kind, np.array([bounces]).reshape(1, -1))])[1][0])


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
        with_blocker = env_b.trace_paths(agent, pa, blocks)[1]
        without = env.trace_paths(agent, pa, blocks)[1]
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
    got = env.trace_paths(np.array(agents), np.array(anchors), blocks)[1]
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
    lo, hi = rect_room().wall_extents.T
    assert np.allclose(hi - lo, [7.0, 7.0, 10.0, 10.0])
    tilted = Environment(walls=[WallSegment([0.5, 0.36], [5.5, 1.0])])
    lo, hi = tilted.wall_extents[0]
    assert hi - lo == pytest.approx(np.hypot(5.0, 0.64))
    assert Environment().wall_extents.shape == (0, 2)


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
        lo, hi = env.feature_traces(c, [1.0, 0.5], True).extents
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
        lo, hi = env.feature_traces(clouds, pa, True).extents
        generator = env.trace_paths(points, pa, candidate_blocks(len(env.walls), True))[1]
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
    lo, hi = env.wall_extents.T
    pas = np.array(config.pas)[:, None]
    assert truth.va.shape == (len(config.pas), len(config.waypoints), len(paths), 2)
    for k, idx in enumerate(paths):
        va, available = backward_trace(config.waypoints, pas, [env.wall_mvas[i] for i in idx],
                                       [(lo[i], hi[i]) for i in idx], env.segments, check=True)
        assert np.array_equal(truth.va[:, :, k], va), (name, double, idx)
        assert np.array_equal(truth.available[:, :, k], available), (name, double, idx)
