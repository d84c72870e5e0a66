import numpy as np
import pytest

from mvaslam.errors import CoincidentPoints, DegenerateSurface
from mvaslam.geometry import (
    WallSegment,
    mva_to_va,
    path_distance_angle,
    va_to_mva,
    wrap_angle,
)

from oracles import double_bounce_va, line_point, mirror_point, unit_normal

WALL_X5 = np.array([10.0, 0.0])   # MVA of the line x = 5
WALL_Y4 = np.array([0.0, 8.0])    # MVA of the line y = 4


def angles_close(a, b, tol=1e-12):
    return abs(wrap_angle(a - b)) < tol


def random_surface(rng):
    mva = rng.uniform(-20, 20, 2)
    while np.hypot(*mva) < 0.5:
        mva = rng.uniform(-20, 20, 2)
    return mva


def test_mirror_across_vertical_wall():
    assert np.allclose(mirror_point([1.0, 2.0], WALL_X5), [9.0, 2.0])


def test_mirror_fixed_point_on_line():
    assert np.allclose(mirror_point([5.0, 7.0], WALL_X5), [5.0, 7.0])


def test_mirror_involution_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        s = random_surface(rng)
        p = rng.uniform(-30, 30, 2)
        assert np.allclose(mirror_point(mirror_point(p, s), s), p, atol=1e-12)


def test_mva_to_va_vertical_wall():
    assert np.allclose(mva_to_va([10.0, 0.0], [1.0, 2.0]), [9.0, 2.0])


def test_mva_to_va_origin_anchor_returns_mva():
    m = np.array([3.0, -7.0])
    assert np.allclose(mva_to_va(m, [0.0, 0.0]), m)


def test_mva_to_va_matches_mirror_oracle():
    # independent route: the normal/line-point reflection form
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        s = random_surface(rng)
        pa = rng.uniform(-30, 30, 2)
        assert np.allclose(mva_to_va(s, pa), mirror_point(pa, s), atol=1e-9)


def test_double_bounce_perpendicular_orders_agree():
    pa = np.array([1.0, 2.0])
    va_a = double_bounce_va(WALL_X5, WALL_Y4, pa)
    va_b = double_bounce_va(WALL_Y4, WALL_X5, pa)
    assert np.allclose(va_a, [9.0, 6.0])
    assert np.allclose(va_a, va_b, atol=1e-9)


def test_double_bounce_same_surface_is_identity():
    pa = np.array([1.0, 2.0])
    assert np.allclose(double_bounce_va(WALL_X5, WALL_X5, pa), pa, atol=1e-12)


def test_double_bounce_acute_pair_orders_differ():
    # surfaces at 60 degrees: composition of the two reflections is a rotation,
    # whose direction depends on the order, so the two images differ
    s1 = WallSegment([0.0, 1.0], [1.0, 1.0]).mva                    # y = 1
    s2 = WallSegment([0.0, 1.0], [np.cos(np.pi / 3), 1.0 + np.sin(np.pi / 3)]).mva
    pa = np.array([2.0, 3.0])
    mirror_1 = mirror_point(pa, s1)
    mirror_12 = mirror_point(mirror_1, s2)
    va_a = double_bounce_va(s2, s1, pa)
    assert np.allclose(va_a, mirror_12, atol=1e-9)
    va_b = double_bounce_va(s1, s2, pa)
    assert np.hypot(*(va_a - va_b)) > 1.0


def test_va_to_mva_inverse_example():
    assert np.allclose(va_to_mva([9.0, 2.0], [1.0, 2.0]), [10.0, 0.0])


def test_va_to_mva_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        s = random_surface(rng)
        pa = rng.uniform(-30, 30, 2)
        va = mva_to_va(s, pa)
        if np.hypot(*(va - pa)) < 1e-3:
            continue
        assert np.allclose(va_to_mva(va, pa), s, atol=1e-9)


def test_va_to_mva_degenerate_pair_is_nan():
    # a VA on its PA fixes no surface: that row is NaN, the others are exact
    mva = va_to_mva([[1.0, 2.0], [9.0, 2.0]], [1.0, 2.0])
    assert np.all(np.isnan(mva[0])) and np.allclose(mva[1], [10.0, 0.0])
    assert np.all(np.isnan(va_to_mva([1.0, 0.0], [1.0, 0.0])))


def test_degenerate_surface_through_origin():
    va = mva_to_va([[0.0, 1e-9], [10.0, 0.0]], [1.0, 2.0])
    assert np.all(np.isnan(va[0])) and np.allclose(va[1], [9.0, 2.0])


def test_reflected_path_length_property():
    # |agent - va| equals the physical reflected path agent -> wall -> anchor
    rng = np.random.default_rng(3)
    for _ in range(500):
        s = random_surface(rng)
        n = unit_normal(s)
        c = float(n @ line_point(s))
        pa = rng.uniform(-20, 20, 2)
        agent = rng.uniform(-20, 20, 2)
        # keep both strictly on the same side so the reflection is physical
        if (agent @ n - c) * (pa @ n - c) <= 1e-6:
            continue
        va = mva_to_va(s, pa)
        direct = np.hypot(*(agent - va))
        sd_a = float(agent @ n - c)
        sd_v = float(va @ n - c)
        w = agent + sd_a / (sd_a - sd_v) * (va - agent)
        via = np.hypot(*(agent - w)) + np.hypot(*(w - pa))
        assert direct == pytest.approx(via, abs=1e-9)


def test_path_distance_angle_collinear():
    d, phi = path_distance_angle([-3.0, 0.0], 0.0)
    assert d == pytest.approx(3.0)
    assert angles_close(phi, np.pi)


def test_path_distance_angle_heading_subtraction():
    d, phi = path_distance_angle([0.0, 5.0], np.pi / 2)
    assert d == pytest.approx(5.0)
    assert phi == pytest.approx(0.0)


def test_wrap_angle_convention():
    assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    assert wrap_angle(np.pi) == pytest.approx(-np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(-np.pi)
    values = wrap_angle(np.linspace(-10, 10, 1001))
    assert np.all(values >= -np.pi) and np.all(values < np.pi)


def test_path_distance_angle_coincident_raises():
    with pytest.raises(CoincidentPoints):
        path_distance_angle([0.0, 0.0], 0.0)


def test_wall_segment_validation():
    with pytest.raises(CoincidentPoints):
        WallSegment([1.0, 1.0], [1.0, 1.0])
    seg = WallSegment([0.0, 0.0], [1.0, 0.0])
    assert np.array_equal(seg.b, [1.0, 0.0])


def test_wall_segment_mva_matches_mirror():
    assert np.allclose(WallSegment([5.0, -1.0], [5.0, 4.0]).mva, [10.0, 0.0])
    with pytest.raises(DegenerateSurface):
        WallSegment([0.0, 0.0], [1.0, 1.0]).mva
