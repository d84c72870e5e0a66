import numpy as np
import pytest

from mvaslam.association import AssociationOutput, run_association
from mvaslam.errors import NonFinite

from oracles import enumerate_association, general_association


def xi_table(xi_new, n_paths):
    """The model's full (M, K+1) measurement table: ``xi_new``, then 1 for every path."""
    xi = np.ones((len(xi_new), n_paths + 1))
    xi[:, 0] = xi_new
    return xi


def beliefs(beta, xi_new, out: AssociationOutput):
    """Normalized association beliefs: evidence times marginal message."""
    bel_path = beta * out.eta
    bel_path /= bel_path.sum(axis=1, keepdims=True)
    bel_meas = xi_table(xi_new, len(beta)) * out.sigma_out
    bel_meas /= bel_meas.sum(axis=1, keepdims=True)
    return bel_path, bel_meas


def assert_exact(beta, xi_new, out):
    bel_path, bel_meas = beliefs(beta, xi_new, out)
    ref_path, ref_meas = enumerate_association(beta, xi_table(xi_new, len(beta)))
    assert np.allclose(bel_path, ref_path, atol=1e-9)
    assert np.allclose(bel_meas, ref_meas, atol=1e-9)


def random_instance(rng, n_paths, n_meas):
    beta = rng.random((n_paths, n_meas + 1))
    beta[:, 0] = 0.1 + 0.9 * rng.random(n_paths)
    rng.random((n_meas, n_paths + 1))    # the path columns of a general table, set to 1 here
    return beta, 0.1 + 0.9 * rng.random(n_meas)


def test_no_measurements_gives_unit_messages():
    out = run_association(np.array([[0.3], [0.8], [1.0]]), np.zeros(0))
    assert out.eta.shape == (3, 1)
    assert np.allclose(out.eta, 1.0)
    assert out.sigma_out.shape == (0, 4)


def test_no_paths():
    out = run_association(np.zeros((0, 3)), np.ones(2))
    assert out.sigma_out.shape == (2, 1)
    assert np.allclose(out.sigma_out, 1.0)


def test_tree_single_path_single_measurement_exact():
    rng = np.random.default_rng(0)
    for _ in range(50):
        beta, xi_new = rng.random((1, 2)) + 0.1, rng.random(1) + 0.1
        assert_exact(beta, xi_new, run_association(beta, xi_new))


def test_tree_many_paths_one_measurement_exact():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n_paths = int(rng.integers(2, 6))
        beta, xi_new = rng.random((n_paths, 2)) + 0.05, rng.random(1) + 0.05
        assert_exact(beta, xi_new, run_association(beta, xi_new))


def test_tree_one_path_many_measurements_exact():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n_meas = int(rng.integers(2, 5))
        beta, xi_new = rng.random((1, n_meas + 1)) + 0.05, rng.random(n_meas) + 0.05
        assert_exact(beta, xi_new, run_association(beta, xi_new))


def test_exchangeable_instances_are_symmetric():
    row = np.array([0.4, 1.3, 1.3])
    out = run_association(np.stack([row, row]), np.array([0.7, 0.7]))
    assert np.allclose(out.eta[0], out.eta[1], atol=1e-12)
    assert np.allclose(out.sigma_out[0], out.sigma_out[1], atol=1e-12)
    assert out.eta[0, 1] == pytest.approx(out.eta[0, 2], abs=1e-12)
    assert out.sigma_out[0, 1] == pytest.approx(out.sigma_out[0, 2], abs=1e-12)


def test_random_instances_close_to_enumeration():
    rng = np.random.default_rng(2024)
    worst_tv = 0.0
    converged = 0
    n_instances = 1000
    for _ in range(n_instances):
        n_paths = int(rng.integers(1, 5))
        n_meas = int(rng.integers(1, 4))
        beta, xi_new = random_instance(rng, n_paths, n_meas)
        out = run_association(beta, xi_new, max_iters=20, tol=1e-6)
        if out.iterations_used < 20:
            converged += 1
        bel_path, bel_meas = beliefs(beta, xi_new, out)
        ref_path, ref_meas = enumerate_association(beta, xi_table(xi_new, n_paths))
        tv_path = 0.5 * np.max(np.abs(bel_path - ref_path).sum(axis=1))
        tv_meas = 0.5 * np.max(np.abs(bel_meas - ref_meas).sum(axis=1)) if n_meas else 0.0
        worst_tv = max(worst_tv, tv_path, tv_meas)
    # the error of loopy BP's fixed point itself, largest on 2 x 2 cycles: 0.111
    # here with xi's path columns at 1, 0.086 with uniform random path columns
    assert worst_tv <= 0.12, f"worst TV {worst_tv}"
    assert converged >= 0.99 * n_instances


def test_scale_invariance_of_decisions():
    rng = np.random.default_rng(9)
    for _ in range(100):
        beta, xi_new = random_instance(rng, 3, 3)
        out = run_association(beta, xi_new)
        scaled = beta.copy()
        scaled[1] *= 37.5
        out2 = run_association(scaled, xi_new)
        assert np.argmax(beta[1] * out.eta[1]) == np.argmax(scaled[1] * out2.eta[1])


def test_matches_full_table_iteration_bit_for_bit():
    # with the path columns of the measurement table at 1, the vector form
    # takes the same sums in the same order as the full-table iteration
    rng = np.random.default_rng(13)
    sizes = [(1, 1), (2, 15), (31, 7), (132, 12), (871, 15), (870, 9)]
    sizes += [(int(rng.integers(1, 871)), int(rng.integers(1, 16))) for _ in range(30)]
    for n_paths, n_meas in sizes:
        beta = rng.random((n_paths, n_meas + 1)) * 10.0 ** rng.uniform(-8, 4, (n_paths, n_meas + 1))
        beta[:, 1:] *= rng.random((n_paths, n_meas)) < 0.6     # paths that cannot explain m
        beta[:, 0] += 1e-3
        xi_new = 1.0 + 10.0 ** rng.uniform(-3, 3, n_meas)
        max_iters = int(rng.integers(1, 21))
        out = run_association(beta, xi_new, max_iters=max_iters, tol=1e-6)
        eta, sigma_out, iterations = general_association(beta, xi_table(xi_new, n_paths),
                                                         max_iters, 1e-6)
        assert out.iterations_used == iterations
        assert out.eta.tobytes() == eta.tobytes(), (n_paths, n_meas)
        assert out.sigma_out.tobytes() == sigma_out.tobytes(), (n_paths, n_meas)


@pytest.mark.parametrize("empty_frac", [0.0, 0.7, 1.0])
def test_rows_without_evidence_change_no_bit(empty_frac):
    # rows whose measurement columns are all zero keep z = 0, so the sweeps skip
    # them; every message and the iteration count equal the full-table sweep's
    rng = np.random.default_rng(41)
    sizes = [(1, 1), (1, 12), (170, 12), (136, 12), (40, 3)]
    sizes += [(int(rng.integers(1, 200)), int(rng.integers(1, 16))) for _ in range(40)]
    for n_paths, n_meas in sizes:
        beta = rng.random((n_paths, n_meas + 1)) * 10.0 ** rng.uniform(-8, 4, (n_paths, n_meas + 1))
        beta[:, 1:] *= rng.random((n_paths, n_meas)) < 0.5
        beta[rng.random(n_paths) < empty_frac, 1:] = 0.0
        beta[:, 0] += 1e-3
        xi_new = 1.0 + 10.0 ** rng.uniform(-3, 3, n_meas)
        max_iters = int(rng.integers(1, 21))
        out = run_association(beta, xi_new, max_iters=max_iters, tol=1e-6)
        eta, sigma_out, iterations = general_association(beta, xi_table(xi_new, n_paths),
                                                         max_iters, 1e-6)
        assert out.iterations_used == iterations
        assert out.eta.tobytes() == eta.tobytes(), (n_paths, n_meas)
        assert out.sigma_out.tobytes() == sigma_out.tobytes(), (n_paths, n_meas)


def test_input_validation():
    with pytest.raises(ValueError):
        run_association(np.ones((2, 3)), np.ones(3))
    with pytest.raises(ValueError):
        run_association(np.ones((2, 3)), np.ones((2, 1)))
    with pytest.raises(ValueError):
        run_association(-np.ones((1, 2)), np.ones(1))
    with pytest.raises(ValueError):
        run_association(np.ones((1, 2)), -np.ones(1))
    with pytest.raises(NonFinite):
        run_association(np.array([[np.inf, 1.0]]), np.ones(1))
    with pytest.raises(NonFinite):
        run_association(np.ones((1, 2)), np.array([np.nan]))
    bad = np.ones((2, 3))
    bad[0, 0] = 0.0
    with pytest.raises(ValueError):
        run_association(bad, np.ones(2))


@pytest.mark.parametrize("max_iters", [0, -3])
def test_association_needs_a_sweep(max_iters):
    # without a sweep there are no marginals to return
    beta, xi_new = random_instance(np.random.default_rng(5), 3, 2)
    with pytest.raises(ValueError, match="max_iters"):
        run_association(beta, xi_new, max_iters=max_iters)
    with pytest.raises(ValueError, match="max_iters"):
        run_association(np.ones((2, 1)), np.zeros(0), max_iters=max_iters)


def test_outputs_are_normalized():
    rng = np.random.default_rng(77)
    out = run_association(*random_instance(rng, 4, 3))
    assert np.allclose(out.eta.sum(axis=1), 1.0)
    assert np.allclose(out.sigma_out.sum(axis=1), 1.0)
    assert out.iterations_used >= 1


def test_missed_detection_message_has_a_floor():
    # every measurement's new-or-clutter evidence is at least 1 in the filter, so a
    # measurement's message to a path is at most its message to "no measurement":
    # eta[:, 0] >= 1 / (M + 1), and the filter's update takes a finite log of it
    rng = np.random.default_rng(37)
    for _ in range(300):
        n_paths, n_meas = int(rng.integers(1, 201)), int(rng.integers(1, 41))
        beta = np.empty((n_paths, n_meas + 1))
        beta[:, 0] = rng.uniform(0.05, 1.0, n_paths)
        beta[:, 1:] = 10.0 ** rng.uniform(-12, 6, (n_paths, n_meas))
        beta[:, 1:] *= rng.random((n_paths, n_meas)) < 0.5
        beta[rng.random(n_paths) < 0.3, 1:] = 0.0          # rows without evidence
        xi_new = rng.uniform(1.0, 10.0, n_meas)
        xi_new[rng.random(n_meas) < 0.3] = 1.0
        out = run_association(beta, xi_new, max_iters=int(rng.integers(1, 21)), tol=1e-6)
        assert np.all(out.eta[:, 0] * (n_meas + 1) >= 1.0 - 1e-12), (n_paths, n_meas)
