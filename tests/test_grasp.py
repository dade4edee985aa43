"""Grasp transmission, load shares, and the counterbalance identity."""
import numpy as np
import pytest

from coopwrench import (AllocationWeights, GraspMap, ScenarioValidationError,
                        Wrench, ZeroCapabilityError, allocate_proportional,
                        counterbalance_moment, grasp_matrix,
                        object_wrench_from_ee, reference_scenario, skew)

REFERENCE_OFFSETS = np.array([[0.1, 0.0, 0.0], [0.0, 0.0, -0.075],
                              [-0.1, 0.0, 0.0], [0.0, 0.0, 0.075]])


def test_skew_reproduces_cross_product():
    rng = np.random.default_rng(30)
    for _ in range(50):
        a, b = rng.normal(size=3), rng.normal(size=3)
        np.testing.assert_allclose(skew(a) @ b, np.cross(a, b), atol=1e-15)


def test_grasp_matrix_zero_offset_is_identity():
    np.testing.assert_array_equal(grasp_matrix(np.zeros(3)), np.eye(6))


def test_grasp_matrix_s_block_values():
    G = grasp_matrix([0.1, 0.0, 0.0])
    np.testing.assert_allclose(
        G[3:, :3], [[0.0, 0.0, 0.0], [0.0, 0.0, -0.1], [0.0, 0.1, 0.0]])
    np.testing.assert_array_equal(G[:3, :3], np.eye(3))
    np.testing.assert_array_equal(G[3:, 3:], np.eye(3))
    np.testing.assert_array_equal(G[:3, 3:], np.zeros((3, 3)))


def test_grasp_matrix_transports_pure_force():
    rng = np.random.default_rng(31)
    for _ in range(50):
        r, f = rng.normal(size=3), rng.normal(size=3)
        out = grasp_matrix(r) @ np.concatenate([f, np.zeros(3)])
        np.testing.assert_allclose(out[:3], f)
        np.testing.assert_allclose(out[3:], np.cross(r, f), atol=1e-15)


def test_grasp_matrix_structure():
    rng = np.random.default_rng(32)
    for _ in range(20):
        r = rng.normal(size=3)
        G = grasp_matrix(r)
        S = G[3:, :3]
        np.testing.assert_allclose(S.T, -S, atol=1e-15)
        assert np.linalg.matrix_rank(G - np.eye(6)) <= 2


def test_object_wrench_single_centered_grasp():
    gm = GraspMap.from_vectors([[0.0, 0.0, 0.0]])
    h1 = Wrench([1.0, -2.0, 3.0], [0.4, 0.5, -0.6])
    total = object_wrench_from_ee(gm, [h1])
    np.testing.assert_array_equal(total.force, h1.force)
    np.testing.assert_array_equal(total.torque, h1.torque)


def test_object_wrench_force_couple():
    r = np.array([0.1, 0.0, 0.05])
    f = np.array([0.0, 0.0, 3.0])
    gm = GraspMap.from_vectors([r, -r])
    total = object_wrench_from_ee(
        gm, [Wrench(f, np.zeros(3)), Wrench(-f, np.zeros(3))])
    np.testing.assert_allclose(total.force, np.zeros(3), atol=1e-15)
    np.testing.assert_allclose(total.torque, 2.0 * np.cross(r, f), atol=1e-15)


def test_object_wrench_count_mismatch():
    gm = GraspMap.from_vectors([[0.1, 0.0, 0.0], [-0.1, 0.0, 0.0]])
    with pytest.raises(ValueError):
        object_wrench_from_ee(gm, [Wrench.zero()])


def test_grasp_map_from_object_rotates_offsets():
    cfg = reference_scenario()
    quarter = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    gm = GraspMap.from_object(cfg.object, quarter)
    np.testing.assert_allclose(gm.grasp_vectors,
                               REFERENCE_OFFSETS @ quarter.T, atol=1e-15)
    assert gm.count == 4


def test_allocate_proportional():
    np.testing.assert_array_equal(allocate_proportional([1.0, 1.0, 1.0, 1.0]),
                                  [0.25, 0.25, 0.25, 0.25])
    np.testing.assert_array_equal(allocate_proportional([2.0, 1.0, 1.0, 0.0]),
                                  [0.5, 0.25, 0.25, 0.0])
    rng = np.random.default_rng(33)
    for _ in range(100):
        beta = allocate_proportional(rng.uniform(0.0, 5.0, 4) + 0.01)
        assert abs(beta.sum() - 1.0) <= 1e-12


def test_allocate_proportional_rejects_zero_and_negative():
    with pytest.raises(ZeroCapabilityError, match="zero capability"):
        allocate_proportional(np.zeros(4))
    with pytest.raises(ValueError):
        allocate_proportional([1.0, -0.5])


def test_allocation_weights_validation():
    with pytest.raises(ScenarioValidationError, match="sum to 1"):
        AllocationWeights([0.5, 0.4])
    with pytest.raises(ScenarioValidationError, match="alpha"):
        AllocationWeights([0.5, 0.5], [1.0])
    with pytest.raises(ScenarioValidationError, match="sum to 1"):
        AllocationWeights([0.5, 0.5], [0.8, 0.1])
    w = AllocationWeights([0.25, 0.75])
    assert w.alpha is None


def test_counterbalance_symmetric_equal_shares_is_zero():
    gm = GraspMap.from_vectors(REFERENCE_OFFSETS)
    weights = AllocationWeights(np.full(4, 0.25))
    t_delta, h_delta = counterbalance_moment(weights, gm, [0.0, 0.0, 19.6134])
    np.testing.assert_array_equal(t_delta, np.zeros(3))
    np.testing.assert_array_equal(h_delta.force, np.zeros(3))
    np.testing.assert_array_equal(h_delta.torque, np.zeros(3))


def test_counterbalance_single_loaded_arm():
    gm = GraspMap.from_vectors(REFERENCE_OFFSETS)
    weights = AllocationWeights([1.0, 0.0, 0.0, 0.0])
    t_delta, h_delta = counterbalance_moment(weights, gm, [0.0, 0.0, 19.6134])
    np.testing.assert_allclose(t_delta, [0.0, -1.96134, 0.0], atol=1e-15)
    np.testing.assert_allclose(h_delta.torque, [0.0, 1.96134, 0.0],
                               atol=1e-15)
    np.testing.assert_array_equal(h_delta.force, np.zeros(3))


def test_counterbalance_parallel_force_is_zero():
    gm = GraspMap.from_vectors([[0.2, 0.0, 0.0], [0.1, 0.0, 0.0]])
    weights = AllocationWeights([0.5, 0.5])
    t_delta, _ = counterbalance_moment(weights, gm, [3.0, 0.0, 0.0])
    np.testing.assert_allclose(t_delta, np.zeros(3), atol=1e-15)


def test_counterbalance_linear_in_force():
    gm = GraspMap.from_vectors(REFERENCE_OFFSETS)
    weights = AllocationWeights([0.4, 0.3, 0.2, 0.1])
    rng = np.random.default_rng(34)
    f = rng.normal(size=3)
    one, _ = counterbalance_moment(weights, gm, f)
    two, _ = counterbalance_moment(weights, gm, 2.0 * f)
    np.testing.assert_allclose(two, 2.0 * one, atol=1e-15)


def test_closed_loop_wrench_balance():
    """Shares of h_d plus shares of the compensation reassemble exactly h_d."""
    rng = np.random.default_rng(35)
    worst = 0.0
    for _ in range(1000):
        count = int(rng.integers(1, 6))
        gm = GraspMap.from_vectors(rng.uniform(-0.3, 0.3, (count, 3)))
        beta = rng.uniform(0.05, 1.0, count)
        beta /= beta.sum()
        alpha = rng.uniform(-1.0, 1.0, count)
        alpha += (1.0 - alpha.sum()) / count
        h_d = Wrench(rng.normal(size=3) * 20.0, rng.normal(size=3) * 2.0)
        _, h_delta = counterbalance_moment(
            AllocationWeights(beta), gm, h_d.force)
        wrenches = [
            Wrench.from_vector(beta[i] * h_d.as_vector()
                               + alpha[i] * h_delta.as_vector())
            for i in range(count)
        ]
        total = object_wrench_from_ee(gm, wrenches)
        err = np.linalg.norm(total.as_vector() - h_d.as_vector())
        worst = max(worst, err)
    assert worst <= 1e-10
