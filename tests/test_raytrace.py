import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mvaslam import raytrace
from mvaslam.experiment import available_path_keys
from mvaslam.geometry import EPS_GEO, WallSegment
from mvaslam.raytrace import Environment, candidate_blocks
from mvaslam.scenario import bundled_scenario

from oracles import (AMBIGUOUS, KINDS, _hop_obstructed, assert_same_entries, backward_trace,
                     candidate_bounces, endpoint_pairs, nearest_extents_reference,
                     oracle_path_available, trace_entries, wall_extents)
from rooms import random_room

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


def assert_trace_matches_oracle(env, agents, anchors):
    """Every LOS, single and double path at each agent point and its anchor is
    traced available exactly where the oracle decides it is, skipping the
    oracle's ambiguous paths, which are few."""
    paths = candidate_bounces(len(env.walls), True)
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
    return checked


@pytest.mark.parametrize("room", [rect_room, nonrect_room])
def test_oracle_equivalence(room):
    env = room()
    lo = np.min([[w.a, w.b] for w in env.walls], axis=(0, 1))
    hi = np.max([[w.a, w.b] for w in env.walls], axis=(0, 1))
    rng = np.random.default_rng(1234)
    pas = [rng.uniform(lo + 0.5, hi - 0.5) for _ in range(2)]
    agents, anchors = [], []
    for _ in range(1000):
        agents.append(rng.uniform(lo + 0.2, hi - 0.2))
        anchors.append(pas[int(rng.integers(2))])
    assert_trace_matches_oracle(env, agents, anchors)


@pytest.mark.parametrize("seed", [0, 9, 25])
def test_oracle_equivalence_on_random_rooms(seed):
    # rooms of 4-7 walls at random angles and radii, the anchors and agents
    # inside, and 1-2 random blockers (6, 5 and 4 walls): the bundled rooms
    # of the check above have none
    room = random_room(seed, 80)
    anchors = room.pas[np.arange(len(room.agents)) % 2]
    assert assert_trace_matches_oracle(room.env, room.agents, anchors) > 1000


def _hops_at_segments(rng, segments, n):
    """``n`` hops of each of four families against ``segments``, as (4n, 2) endpoints ``p``, ``q``.

    Random hops; hops ending on a segment, at a dyadic fraction of it (exactly
    on it) or a random one; hops through a segment's end, exactly, with
    dyadic endpoints; and hops through the point 1e-7 of a segment's length
    before or past an end.
    """
    ends = np.array(segments)                                   # (G, 2, 2)
    seg = ends[rng.integers(len(ends), size=(3, n))]            # (3, n, 2, 2)
    a, b = seg[..., 0, :], seg[..., 1, :]
    grid = rng.integers(-128, 192, (3, n, 2)) / 64.0            # dyadic points in [-2, 3)
    s = np.where(rng.random((n, 1)) < 0.5, rng.integers(0, 17, (n, 1)) / 16.0, rng.random((n, 1)))
    on_segment = a[0] + s * (b[0] - a[0])
    end = np.where(rng.random((n, 1)) < 0.5, a[1], b[1])
    past = rng.choice([-1e-7, 1.0 + 1e-7], size=(n, 1))
    beyond = a[2] + past * (b[2] - a[2])
    p = np.concatenate([rng.uniform(-2.0, 3.0, (n, 2)), grid[0], grid[1], grid[2]])
    q = np.concatenate([rng.uniform(-2.0, 3.0, (n, 2)), on_segment, 2.0 * end - grid[1],
                        grid[2] + rng.uniform(0.5, 3.0, (n, 1)) * (beyond - grid[2])])
    return p, q


def test_hop_obstructed_matches_reference_off_collinear_hops():
    # The one obstruction test decides every hop that is not collinear with a
    # segment as the reference's crossing test, which also divides out the
    # segment's parameter: the sign tests imply its range.  Exact touches of a
    # segment's end and of its line are included.
    segments = [(np.array([0.125, 0.25]), np.array([0.75, 1.5])),
                (np.array([-1.0, 0.5]), np.array([1.0, 0.5])),
                (np.array([0.5, -1.0]), np.array([0.5, 2.0]))]
    rng = np.random.default_rng(29)
    checked = blocked = touching = 0
    for _ in range(4):
        p, q = _hops_at_segments(rng, segments, 1 << 16)
        keep = np.ones(len(p), dtype=bool)
        hop_len = np.hypot(*(q - p).T)
        for a, b in segments:
            ab = b - a
            cross_p = ab[0] * (p[:, 1] - a[1]) - ab[1] * (p[:, 0] - a[0])
            cross_q = ab[0] * (q[:, 1] - a[1]) - ab[1] * (q[:, 0] - a[0])
            keep &= np.maximum(abs(cross_p), abs(cross_q)) > 1e3 * EPS_GEO * np.hypot(*ab) * hop_len
            touching += np.count_nonzero((cross_p == 0.0) | (cross_q == 0.0))
        p, q = p[keep], q[keep]
        got = raytrace.hop_obstructed(tuple(p.T), tuple(q.T), segments)
        assert np.array_equal(got, _hop_obstructed(p, q, segments))
        checked += len(p)
        blocked += np.count_nonzero(got)
    assert checked > 1_000_000 and 0.1 < blocked / checked < 0.9 and touching > 10_000


def test_hop_through_a_segment_endpoint_is_blocked():
    # A hop that grazes a blocker's endpoint, on exact dyadic coordinates, is
    # blocked: touching counts as crossing, the deterministic tie-break
    a, b = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    env = Environment(blockers=[WallSegment(a, b)])
    los = [("los", np.zeros((1, 0), dtype=int))]
    # through b, through a, and each nudged a dyadic step past that endpoint
    for agent, pa, away in (([2.0, 0.0], [0.0, 2.0], 1.0), ([1.0, -1.0], [-1.0, 1.0], -1.0)):
        for p, q in ((agent, pa), (pa, agent)):
            assert np.isnan(env.trace_paths(p, q, los)[0, 0])
        nudge = away * 2.0 ** -10
        assert not np.isnan(env.trace_paths(np.add(agent, nudge), np.add(pa, nudge), los)[0, 0])


def test_collinear_overlap_at_the_endpoint_margin_does_not_block():
    # A segment along the hop (0, 0) -> (1, 0) blocks only where it overlaps
    # the hop by more than the endpoint margin, EPS_GEO of a unit hop: a
    # segment that reaches exactly the margin from either hop end does not
    # block, one that reaches twice as far does
    assert EPS_GEO == 1e-6
    hop = (np.array([0.0]), np.array([0.0])), (np.array([1.0]), np.array([0.0]))
    for a, b, blocks in (((-1.0, 0.0), (1e-6, 0.0), False),
                         ((-1.0, 0.0), (2e-6, 0.0), True),
                         ((1.0 - 1e-6, 0.0), (2.0, 0.0), False),
                         ((1.0 - 2e-6, 0.0), (2.0, 0.0), True)):
        got = raytrace.hop_obstructed(*hop, [(np.array(a), np.array(b))])
        assert got.tolist() == [blocks], (a, b)


def test_surface_at_the_validity_tie_is_degenerate():
    # A surface is valid where |m|^2 > EPS_GEO^2: a particle whose MVA has
    # |m| = EPS_GEO exactly has no path, one at twice that has one
    clouds = np.array([[[EPS_GEO, 0.0], [0.0, -EPS_GEO], [2 * EPS_GEO, 0.0], [0.0, 3.0]]])
    agent = np.array([[2.0, 1.0]] * 4)
    _, singles = candidate_blocks(1, False)[1]
    for check in (False, True):
        flat, _ = Environment().feature_traces(clouds, [1.0, 0.5], check).available_entries(
            agent, singles)
        assert flat.tolist() == [2, 3]


def test_collinear_hop_blocks_only_where_it_overlaps_the_segment():
    # A LOS hop along a blocker's line: blocked only where it overlaps the
    # blocker, as the dense-sampling oracle judges it
    a, b = np.array([0.1, 0.3]), np.array([0.7, 0.9])
    env = Environment(blockers=[WallSegment(a, b)])
    los = [("los", np.zeros((1, 0), dtype=int))]
    pa, agent = a + 1.34 * (b - a), a + 3.3 * (b - a)           # both past b
    assert oracle_path_available(agent, pa, LOS, env) is True
    assert not np.isnan(env.trace_paths(agent, pa, los)[0, 0])
    for s_pa, s_agent in ((-0.5, 2.0), (0.5, 3.0)):             # over the whole blocker, half of it
        agent, pa = a + s_agent * (b - a), a + s_pa * (b - a)
        assert oracle_path_available(agent, pa, LOS, env) is False
        assert np.isnan(env.trace_paths(agent, pa, los)[0, 0])


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


def assert_filter_agrees_with_generator(env, points, pas):
    """The filter traces feature clouds clipped to the nearest wall with only
    the blockers obstructing; the generator traces the true walls with their
    own extents and every wall and blocker obstructing.  At true-MVA clouds,
    one "particle" per agent point, both agree in a convex room."""
    paths = candidate_bounces(len(env.walls), True)
    clouds = np.repeat(env.wall_mvas[:, None], len(points), axis=1)
    lo, hi, _ = nearest_extents_reference(env, clouds, unit=True)
    for pa in pas:
        generator = ~np.isnan(env.trace_paths(points, pa,
                                              candidate_blocks(len(env.walls), True))[..., 0])
        for k, idx in enumerate(paths):
            _, filt = backward_trace(points, pa, [clouds[i] for i in idx],
                                     [(lo[i], hi[i]) for i in idx], endpoint_pairs(env.blockers),
                                     check=True)
            assert np.array_equal(filt, generator[:, k]), f"{idx} at pa={pa}"


@pytest.mark.parametrize("name", ["exp1_rect_room", "exp3_olos", "nonrect"])
def test_filter_and_generator_agree_on_bundled_scenarios(name):
    # along the bundled trajectories
    config = bundled_scenario(name)
    assert_filter_agrees_with_generator(Environment(config.walls, config.blockers),
                                        config.waypoints, config.pas)


def test_filter_and_generator_agree_on_a_random_convex_room():
    # 6 walls on a circle and 2 blockers, the anchors and agents inside
    room = random_room(4, 200, convex=True)
    assert len(room.env.blockers) == 2
    assert_filter_agrees_with_generator(room.env, room.agents, room.pas)


@pytest.mark.parametrize("name", ["exp1_rect_room", "exp3_olos", "nonrect"])
@pytest.mark.parametrize("double", [True, False])
def test_truth_table_matches_backward_trace(name, double):
    # the truth table, traced once through the trace cache, equals a trace of
    # each candidate path from scratch, column by column and bit for bit
    config = bundled_scenario(name)
    config = replace(config, double_bounce=double,
                     params=replace(config.params, use_double_bounce=double))
    env = Environment(config.walls, config.blockers)
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
                                       [(lo[i], hi[i]) for i in idx],
                                       endpoint_pairs(env.walls + env.blockers), check=True)
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
                                           [(lo[i], hi[i]) for i in idx], endpoint_pairs(env.blockers),
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
    # outputs, and at most one chunk plane more.  Single-bounce rows build
    # their surfaces' frames and images in workspace planes, so a fresh cache
    # that traces only them allocates no (S, I) plane but its MVA planes.
    # Without blockers: the obstruction test gathers the live hops into new arrays.
    # The workspace holds as many buffers as planes are alive at once: a bounce
    # draws its reflector bounds after the crossing's planes are gone, so a
    # single-bounce chunk holds at most 10 and a pair chunk 17 (12 and 19 with
    # the bounds drawn beside the crossing).
    rng = np.random.default_rng(23)
    env = rect_room()
    n_part = 1000
    pa = [1.0, 0.5]
    clouds = np.concatenate([rng.normal(env.wall_mvas[:, None], 0.3, (4, n_part, 2)),
                             rng.normal(1.5 * env.wall_mvas[:, None], 0.3, (4, n_part, 2))])
    agent = rng.uniform([-4.8, -3.3], [4.8, 3.3], (n_part, 2))
    chunk_rows = raytrace._TRACE_CHUNK // n_part
    chunk_plane = chunk_rows * n_part * 8
    for (kind, members), planes in zip(candidate_blocks(len(clouds), True)[1:], (10, 17)):
        assert len(members) > 3 * chunk_rows or kind == "single"
        traces = env.feature_traces(clouds, pa, True)
        traces.available_entries(agent, members)
        assert len(env.workspace._buffers) <= planes, kind
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            if kind == "single":
                traces = env.feature_traces(clouds, pa, True)
            flat, (ax, ay) = traces.available_entries(agent, members)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cache = clouds.nbytes if kind == "single" else 0        # the MVA planes
        returned = flat.nbytes + ax.nbytes + ay.nbytes
        assert peak - before <= cache + returned * 4 / 3 + chunk_plane, kind
        assert 0 < len(flat) < len(members) * n_part
    # the scratch planes stay behind when the environment is pickled
    assert len(pickle.dumps(env)) < chunk_plane
