from dataclasses import replace

import numpy as np
import pytest

from mvaslam.experiment import available_path_keys, truth_va_sets
from mvaslam.geometry import EPS_GEO, mva_to_va
from mvaslam.metrics import OspaParams, dedupe_points, ospa, va_ospa, va_set
from mvaslam.scenario import bundled_scenario

from oracles import brute_force_assignment_cost, dedupe_points_loop, double_bounce_va, scipy_ospa

P51 = OspaParams(cutoff=5.0, order=1.0)


def test_ospa_empty_sets():
    assert ospa([], [], P51) == 0.0


def test_ospa_pure_cardinality():
    assert ospa([[0.0, 0.0]], np.zeros((0, 2)), P51) == pytest.approx(5.0)
    assert ospa(np.zeros((0, 2)), [[0.0, 0.0]], P51) == pytest.approx(5.0)


def test_ospa_mixed_example():
    val = ospa([[0.0, 0.0], [10.0, 10.0]], [[0.0, 0.0]], P51)
    assert val == pytest.approx(2.5)


def test_ospa_matches_brute_force_assignment():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        est = rng.uniform(-10, 10, (n, 2))
        truth = rng.uniform(-10, 10, (n, 2))
        got = ospa(est, truth, P51)
        diff = est[:, None, :] - truth[None, :, :]
        cost = np.minimum(np.hypot(diff[..., 0], diff[..., 1]), P51.cutoff)
        want = brute_force_assignment_cost(cost) / n
        assert got == pytest.approx(want, abs=1e-12)


def random_sets(rng, m, n, saturated):
    """``m`` estimates near ``n`` truth points; ``saturated`` of the estimates
    lie beyond the cutoff of every truth point."""
    truth = rng.uniform(-10, 10, (n, 2))
    est = truth[rng.integers(0, n, m)] + rng.normal(0.0, 2.0, (m, 2))
    est[:saturated] = rng.uniform(-10, 10, (saturated, 2)) + [100.0, 0.0]
    return est, truth


def test_ospa_equals_scipy_assignment_bit_for_bit():
    rng = np.random.default_rng(20)
    shapes = [(1, 1), (1, 50), (15, 15), (15, 50), (50, 15), (9, 1)]
    shapes += [(int(rng.integers(1, 16)), int(rng.integers(1, 51))) for _ in range(1500)]
    searched = 0
    for trial, (m, n) in enumerate(shapes):          # m > n goes through ospa's swap
        saturated = int(rng.integers(0, m + 1)) if trial % 3 == 0 else 0
        est, truth = random_sets(rng, m, n, saturated)
        params = P51 if trial % 4 else OspaParams(cutoff=3.0, order=2.0)
        got = ospa(est, truth, params)
        assert got == scipy_ospa(est, truth, params.cutoff, params.order), (trial, m, n)
        small, large = (est, truth) if m <= n else (truth, est)
        nearest = np.hypot(*(small[:, None] - large[None]).transpose(2, 0, 1)).argmin(axis=1)
        searched += len(set(nearest.tolist())) < len(small)
    assert searched > 300          # these need a search, not only the row minima


def test_ospa_matches_scipy_assignment_on_exact_ties():
    # integer-grid points tie exactly, and an equally cheap assignment may
    # sum its entries in another order
    rng = np.random.default_rng(21)
    for trial in range(1500):
        m, n = int(rng.integers(1, 16)), int(rng.integers(1, 51))
        est = rng.integers(-4, 5, (m, 2)).astype(float)
        truth = rng.integers(-4, 5, (n, 2)).astype(float)
        params = P51 if trial % 2 else OspaParams(cutoff=3.0, order=2.0)
        want = scipy_ospa(est, truth, params.cutoff, params.order)
        assert ospa(est, truth, params) == pytest.approx(want, rel=1e-12, abs=0.0), trial


def test_ospa_rejects_nan_points():
    with pytest.raises(ValueError):
        ospa([[np.nan, 0.0]], [[0.0, 0.0]], P51)


def test_ospa_metric_properties_equal_cardinality():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        a = rng.uniform(-5, 5, (n, 2))
        b = rng.uniform(-5, 5, (n, 2))
        c = rng.uniform(-5, 5, (n, 2))
        dab = ospa(a, b, P51)
        assert dab == pytest.approx(ospa(b, a, P51), abs=1e-12)
        assert dab <= ospa(a, c, P51) + ospa(c, b, P51) + 1e-12


def test_ospa_bounded_and_monotone_in_cardinality_gap():
    rng = np.random.default_rng(2)
    base = rng.uniform(-5, 5, (4, 2))
    prev = 0.0
    for k in range(4, 0, -1):
        val = ospa(base[:k], base, P51)
        assert val <= P51.cutoff + 1e-12
        assert val >= prev - 1e-12
        prev = val


def test_ospa_order_two():
    params = OspaParams(cutoff=2.0, order=2.0)
    val = ospa([[0.0, 0.0]], [[1.0, 0.0], [10.0, 0.0]], params)
    assert val == pytest.approx(np.sqrt((1.0 + 4.0) / 2.0))


def test_dedupe_points():
    pts = dedupe_points([[1.0, 1.0], [1.0, 1.0 + 1e-9], [2.0, 2.0]])
    assert pts.shape == (2, 2)


def test_dedupe_points_matches_loop_on_near_duplicate_chains():
    rng = np.random.default_rng(11)
    step = 0.6 * EPS_GEO            # consecutive chain links are near, links two apart are not
    for trial in range(200):
        n = int(rng.integers(0, 25))
        base = rng.uniform(-10.0, 10.0, (n, 2))
        links = []
        for p in base[rng.random(n) < 0.4]:
            direction = rng.normal(size=2)
            direction /= np.hypot(*direction)
            links += [p + k * step * direction for k in range(1, int(rng.integers(1, 5)))]
        exact = base[rng.integers(0, n, 3)] if n else np.zeros((0, 2))
        points = np.concatenate([base, np.reshape(links, (-1, 2)), exact])
        if trial % 2:
            points = points[rng.permutation(len(points))]
        got = dedupe_points(points)
        assert np.array_equal(got, dedupe_points_loop(points, EPS_GEO)), trial
    chain = [[0.0, 0.0], [step, 0.0], [2 * step, 0.0], [3 * step, 0.0]]
    assert np.array_equal(dedupe_points(chain), [[0.0, 0.0], [2 * step, 0.0]])
    assert dedupe_points(np.zeros((0, 2))).shape == (0, 2)


def test_va_ospa_perfect_single_estimate():
    pa = np.array([1.0, 2.0])
    truth = np.array([[9.0, 2.0]])          # pa mirrored across x = 5
    val = va_ospa(np.array([[10.0, 0.0]]), truth, pa, params=P51)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_va_ospa_all_missed():
    pa = [1.0, 2.0]
    # pa mirrored across x = 5, x = -5, y = 3.5 and y = -3.5
    truth = np.array([[9.0, 2.0], [-11.0, 2.0], [1.0, 5.0], [1.0, -9.0]])
    val = va_ospa(np.zeros((0, 2)), truth, pa, params=P51)
    assert val == pytest.approx(5.0)


def test_va_ospa_hand_computed_room():
    # walls x = 5 and y = 4; anchor at (1, 2); hand-built VA sets
    mvas = np.array([[10.0, 0.0], [0.0, 8.0]])
    pa = np.array([1.0, 2.0])
    va_xx = np.array([9.0, 2.0])         # mirror across x=5
    va_yy = np.array([1.0, 6.0])         # mirror across y=4
    va_dd = np.array([9.0, 6.0])         # both orders coincide (perpendicular)
    truth_set = np.array([va_xx, va_yy, va_dd])
    assert truth_set.shape == (3, 2)
    for expected in (va_xx, va_yy, va_dd):
        assert np.min(np.hypot(*(truth_set - expected).T)) < 1e-9

    # estimate with one wall displaced by 0.2 m
    est = np.array([[10.4, 0.0], [0.0, 8.0]])
    got = va_ospa(est, truth_set, pa, params=P51)
    est_vas = va_set(est, pa)
    diff = est_vas[:, None, :] - truth_set[None, :, :]
    cost = np.minimum(np.hypot(diff[..., 0], diff[..., 1]), 5.0)
    want = brute_force_assignment_cost(cost) / 3.0
    assert got == pytest.approx(want, abs=1e-12)


def test_va_set_availability_filter():
    mvas = np.array([[10.0, 0.0], [0.0, 8.0]])
    pa = np.array([1.0, 2.0])
    full = va_set(mvas, pa)
    assert full.shape[0] == 3  # 2 singles + 1 merged double
    assert va_set(mvas, pa, include_double=False).shape[0] == 2


def test_va_set_point_order():
    # single bounce at s, then (s, s2) for every s2: dedupe keeps the first
    mvas = np.array([[10.0, 0.0], [3.0, 8.0]])
    pa = np.array([1.0, 2.0])
    want = [mva_to_va(mvas[0], pa), double_bounce_va(mvas[0], mvas[1], pa),
            mva_to_va(mvas[1], pa), double_bounce_va(mvas[1], mvas[0], pa)]
    assert np.array_equal(va_set(mvas, pa), np.array(want))


def test_va_ospa_ignores_degenerate_estimate():
    # a confirmed MVA at the origin implies no VA: it scores as no estimate
    mvas = np.array([[10.0, 0.0], [0.0, 8.0]])
    pa = np.array([1.0, 2.0])
    truth = va_set(mvas, pa)
    assert va_set([[0.0, 0.0], [10.0, 0.0]], pa).shape == (1, 2)
    assert va_ospa(np.array([[0.0, 0.0]]), truth, pa, P51) == va_ospa(np.zeros((0, 2)), truth, pa, P51)


def reference_truth_vas(mvas, pa, seen):
    """The true VAs of the paths in ``seen``, one surface at a time: single
    bounce at ``s``, then ``(s, s2)`` for every ``s2``, deduplicated."""
    points = []
    for s, mva in enumerate(mvas):
        if (s,) in seen:
            points.append(mva_to_va(mva, pa))
        for s2, mva2 in enumerate(mvas):
            if s2 != s and (s, s2) in seen:
                points.append(double_bounce_va(mva, mva2, pa))
    return dedupe_points(points)


@pytest.mark.parametrize("name", ["exp1_rect_room", "exp3_olos", "nonrect"])
def test_truth_va_sets_match_va_set_of_seen_paths(name):
    for double in (True, False):
        config = bundled_scenario(name)
        config = replace(config, double_bounce=double,
                         params=replace(config.params, use_double_bounce=double))
        truth = available_path_keys(config)
        seen = ~np.isnan(truth.arrival[..., 0]).all(axis=1)
        bounces = [tuple(row) for _, members in truth.blocks for row in members.tolist()]
        for j, got in enumerate(truth_va_sets(config, truth)):
            paths = {path for path, s in zip(bounces, seen[j]) if s}
            want = reference_truth_vas(config.environment.wall_mvas, config.pas[j], paths)
            assert len(want) and np.array_equal(got, want), (name, double, j)


def test_ospa_params_validation():
    for field, bad in [("cutoff", 0.0), ("cutoff", np.nan), ("cutoff", np.inf),
                       ("order", 0.5), ("order", np.nan), ("order", np.inf)]:
        with pytest.raises(ValueError, match=field):
            OspaParams(**{field: bad})
    assert OspaParams(cutoff=1e300, order=1.0).cutoff == 1e300
