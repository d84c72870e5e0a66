import numpy as np
import pytest

from mvaslam.geometry import Surface, WallSegment
from mvaslam.measurement import enumerate_paths
from mvaslam.raytrace import (
    LOS,
    Environment,
    PathClass,
    backward_trace,
)
from mvaslam.scenario import bundled_scenario

from oracles import AMBIGUOUS, oracle_path_available


def rect_room():
    walls = [
        WallSegment([5.0, -3.5], [5.0, 3.5], 0),
        WallSegment([-5.0, -3.5], [-5.0, 3.5], 1),
        WallSegment([-5.0, 3.5], [5.0, 3.5], 2),
        WallSegment([-5.0, -3.5], [5.0, -3.5], 3),
    ]
    surfaces = [Surface.from_segment(w.a, w.b) for w in walls]
    return surfaces, Environment(walls=walls)


def nonrect_room():
    walls = [
        WallSegment([-2.0, 2.5], [-2.0, 7.0], 0),
        WallSegment([-2.0, 7.0], [5.5, 7.0], 1),
        WallSegment([5.5, 1.0], [5.5, 7.0], 2),
        WallSegment([0.5, 0.36], [5.5, 1.0], 3),
    ]
    surfaces = [Surface.from_segment(w.a, w.b) for w in walls]
    return surfaces, Environment(walls=walls)


def available(agent, pa, path, surfaces, env):
    """Availability of one path at one agent position, traced as the generator does."""
    return bool(env.trace_paths(agent, pa, [path], surfaces)[1][0])


def test_los_open_room():
    surfaces, env = rect_room()
    assert available([-2.0, 1.0], [3.0, -2.0], LOS, surfaces, env)


def test_los_blocked_by_obstacle():
    surfaces, env = rect_room()
    env2 = Environment(walls=env.walls,
                       blockers=[WallSegment([0.0, -3.0], [1.0, 2.0])])
    assert not available([-2.0, 1.0], [3.0, -2.0], LOS, surfaces, env2)


def test_los_symmetry():
    surfaces, env = rect_room()
    env2 = Environment(walls=env.walls,
                       blockers=[WallSegment([0.0, -3.0], [1.0, 2.0])])
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = rng.uniform([-4.5, -3.0], [4.5, 3.0])
        b = rng.uniform([-4.5, -3.0], [4.5, 3.0])
        assert (available(a, b, LOS, surfaces, env2)
                == available(b, a, LOS, surfaces, env2))


def test_blocker_removal_monotonicity():
    surfaces, env = rect_room()
    blocker = WallSegment([0.0, -3.0], [0.5, 2.0])
    env_b = Environment(walls=env.walls, blockers=[blocker])
    rng = np.random.default_rng(6)
    paths = enumerate_paths(4)
    for _ in range(200):
        agent = rng.uniform([-4.5, -3.0], [4.5, 3.0])
        pa = rng.uniform([-4.5, -3.0], [4.5, 3.0])
        with_blocker = env_b.trace_paths(agent, pa, paths, surfaces)[1]
        without = env.trace_paths(agent, pa, paths, surfaces)[1]
        assert np.all(without[with_blocker])


def test_perpendicular_double_bounce_exactly_one_order():
    # perpendicular walls, one anchor: at any interior position exactly one
    # of the two bounce orders is traceable (both map to the same image)
    walls = [WallSegment([5.0, -6.0], [5.0, 4.0], 0),
             WallSegment([-3.0, 4.0], [5.0, 4.0], 1)]
    surfaces = [Surface.from_segment(w.a, w.b) for w in walls]
    env = Environment(walls=walls)
    pa = np.array([1.0, 2.0])
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(1000):
        agent = rng.uniform([-2.5, -5.5], [4.5, 3.5])
        against = [oracle_path_available(agent, pa, PathClass(s=s, s2=t), surfaces, env)
                   for s, t in ((0, 1), (1, 0))]
        if AMBIGUOUS in against:
            continue
        got = [available(agent, pa, PathClass(s=s, s2=t), surfaces, env)
               for s, t in ((0, 1), (1, 0))]
        assert got == against
        assert sum(got) <= 1
        checked += 1
    assert checked > 900


@pytest.mark.parametrize("room", [rect_room, nonrect_room])
def test_oracle_equivalence(room):
    surfaces, env = room()
    lo = np.min([[w.a, w.b] for w in env.walls], axis=(0, 1))
    hi = np.max([[w.a, w.b] for w in env.walls], axis=(0, 1))
    rng = np.random.default_rng(1234)
    pas = [rng.uniform(lo + 0.5, hi - 0.5) for _ in range(2)]
    paths = enumerate_paths(len(surfaces))
    agents, anchors = [], []
    for _ in range(1000):
        agents.append(rng.uniform(lo + 0.2, hi - 0.2))
        anchors.append(pas[int(rng.integers(2))])
    got = env.trace_paths(np.array(agents), np.array(anchors), paths, surfaces)[1]
    checked = skipped = 0
    for agent, pa, row in zip(agents, anchors, got):
        for path, avail in zip(paths, row):
            expected = oracle_path_available(agent, pa, path, surfaces, env)
            if expected is AMBIGUOUS:
                skipped += 1
                continue
            assert avail == expected, f"disagreement at agent={agent}, pa={pa}, path={path}"
            checked += 1
    assert checked > 10 * skipped


def test_path_class_validation():
    with pytest.raises(ValueError):
        PathClass(s=1, s2=1)
    with pytest.raises(ValueError):
        PathClass(s=None, s2=3)
    assert PathClass(s=2).kind == "single"
    assert PathClass(s=0, s2=1).kind == "double"
    assert LOS.kind == "los"


def test_environment_validation():
    surfaces, env = rect_room()
    env.validate(surfaces)
    bad = Environment(walls=[WallSegment([5.0, -3.5], [5.1, 3.5], 0)])
    with pytest.raises(Exception):
        bad.validate(surfaces)


def test_reflector_extent():
    surfaces, env = rect_room()
    lo, hi = env.reflector_extent(0, surfaces)
    assert hi - lo == pytest.approx(7.0)
    assert Environment().reflector_extent(0, surfaces) is None


@pytest.mark.parametrize("name", ["exp1_rect_room", "exp3_olos", "nonrect"])
def test_filter_and_generator_agree_on_bundled_scenarios(name):
    # The filter traces feature clouds clipped to the nearest wall with only
    # the blockers obstructing; the generator traces the true surfaces with
    # their own walls' extents and every wall and blocker obstructing.  At
    # true-MVA clouds along the bundled trajectories both must agree.
    config = bundled_scenario(name)
    surfaces = config.surfaces
    env = config.environment
    points = config.waypoints
    paths = enumerate_paths(len(surfaces))
    # one "particle" per waypoint, every particle at the true MVA
    clouds = np.repeat(np.stack([s.mva for s in surfaces])[:, None], len(points), axis=1)
    lo, hi = env.nearest_extents(clouds)
    for pa in config.pas:
        generator = env.trace_paths(points, pa, paths, surfaces)[1]
        for k, path in enumerate(paths):
            idx = path.bounces
            _, filt = backward_trace(points, pa, [clouds[i] for i in idx],
                                     [(lo[i], hi[i]) for i in idx], env.blocker_segments)
            assert np.array_equal(filt, generator[:, k]), f"{name}: {path} at pa={pa}"
