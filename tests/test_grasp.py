"""Grasp transmission, load shares, and the counterbalance identity."""
import numpy as np
import pytest

from coopwrench import (AllocationWeights, GraspMap, ScenarioValidationError,
                        ZeroCapabilityError, allocate_proportional,
                        counterbalance_moment, reference_scenario)
from coopwrench.grasp import _shares
from oracles import grasp_matrix, object_wrench_from_ee, skew

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
    h1 = np.array([1.0, -2.0, 3.0, 0.4, 0.5, -0.6])
    total = object_wrench_from_ee(gm, [h1])
    np.testing.assert_array_equal(total, h1)


def test_object_wrench_force_couple():
    r = np.array([0.1, 0.0, 0.05])
    f = np.array([0.0, 0.0, 3.0])
    gm = GraspMap.from_vectors([r, -r])
    zero = np.zeros(3)
    total = object_wrench_from_ee(
        gm, [np.concatenate([f, zero]), np.concatenate([-f, zero])])
    np.testing.assert_allclose(total[:3], np.zeros(3), atol=1e-15)
    np.testing.assert_allclose(total[3:], 2.0 * np.cross(r, f), atol=1e-15)


def test_object_wrench_count_mismatch():
    gm = GraspMap.from_vectors([[0.1, 0.0, 0.0], [-0.1, 0.0, 0.0]])
    with pytest.raises(ValueError):
        object_wrench_from_ee(gm, [np.zeros(6)])


@pytest.mark.parametrize("wrenches", [np.zeros(12), np.zeros((2, 3)),
                                      np.zeros((2, 6, 1)), np.zeros((3, 6))])
def test_object_wrench_takes_one_6_row_per_grasp(wrenches):
    gm = GraspMap.from_vectors([[0.1, 0.0, 0.0], [-0.1, 0.0, 0.0]])
    with pytest.raises(ValueError, match=r"\(2, 6\)"):
        object_wrench_from_ee(gm, wrenches)


@pytest.mark.parametrize("vectors", [[[np.nan, 0.0, 0.0], [0.1, 0.0, 0.0]],
                                     [[np.inf, 0.0, 0.0]], np.zeros((0, 3)),
                                     [0.1, 0.0, 0.0], np.zeros((2, 2))])
def test_grasp_map_rejects_bad_grasp_sets(vectors):
    with pytest.raises(ValueError, match="grasp_vectors"):
        GraspMap.from_vectors(vectors)


def test_grasp_map_from_object_rotates_offsets():
    # the object never rotates: world offsets are the body-frame offsets
    cfg = reference_scenario()
    gm = GraspMap.from_object(cfg.object)
    np.testing.assert_array_equal(gm.grasp_vectors, REFERENCE_OFFSETS)
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


@pytest.mark.parametrize("capabilities", [[np.nan, 1.0], [np.inf, 1.0]])
def test_allocate_proportional_rejects_non_finite(capabilities):
    with pytest.raises(ValueError, match="capabilities"):
        allocate_proportional(capabilities)


def test_allocate_proportional_rejects_an_overflowing_sum():
    # each entry is finite, but their sum is inf and every share would be 0
    with pytest.raises(ValueError, match="finite sum"):
        allocate_proportional([1e308, 1e308])


def test_allocate_proportional_is_the_one_row_view_of_the_share_rule():
    """Stacked rows through the run's share rule give, row by row, the bits
    of allocate_proportional and of its former rule k / sum(k)."""
    rng = np.random.default_rng(34)
    for count in range(1, 9):
        k = 10.0 ** rng.uniform(-5.0, 5.0, (500, count))
        k[rng.random(k.shape) < 0.2] = 0.0
        k[:, 0] = np.where(k.any(axis=1), k[:, 0], 1.0)
        stacked = _shares(k, False)
        for row, shares in zip(k, stacked):
            single = allocate_proportional(row)
            assert single.tobytes() == shares.tobytes()
            assert single.tobytes() == (row / float(np.sum(row))).tobytes()


def test_allocation_weights_validation():
    with pytest.raises(ScenarioValidationError, match="sum to 1"):
        AllocationWeights([0.5, 0.4])
    w = AllocationWeights([0.25, 0.75])
    np.testing.assert_array_equal(w.beta, [0.25, 0.75])
    assert not w.beta.flags.writeable


def test_counterbalance_symmetric_equal_shares_is_zero():
    gm = GraspMap.from_vectors(REFERENCE_OFFSETS)
    weights = AllocationWeights(np.full(4, 0.25))
    t_delta, h_delta = counterbalance_moment(weights, gm, [0.0, 0.0, 19.6134])
    np.testing.assert_array_equal(t_delta, np.zeros(3))
    np.testing.assert_array_equal(h_delta, np.zeros(6))


def test_counterbalance_single_loaded_arm():
    gm = GraspMap.from_vectors(REFERENCE_OFFSETS)
    weights = AllocationWeights([1.0, 0.0, 0.0, 0.0])
    t_delta, h_delta = counterbalance_moment(weights, gm, [0.0, 0.0, 19.6134])
    np.testing.assert_allclose(t_delta, [0.0, -1.96134, 0.0], atol=1e-15)
    np.testing.assert_allclose(h_delta[3:], [0.0, 1.96134, 0.0],
                               atol=1e-15)
    np.testing.assert_array_equal(h_delta[:3], np.zeros(3))


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


@pytest.mark.parametrize("force", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0],
                                   [[1.0], [2.0], [3.0]]])
def test_counterbalance_rejects_force_not_a_3_vector(force):
    gm = GraspMap.from_vectors([[0.2, 0.0, 0.0], [-0.1, 0.0, 0.1]])
    with pytest.raises(ValueError, match="object_force"):
        counterbalance_moment(AllocationWeights([0.3, 0.7]), gm, force)


def test_counterbalance_rejects_share_count_mismatch():
    gm = GraspMap.from_vectors([[0.2, 0.0, 0.0], [-0.1, 0.0, 0.1]])
    with pytest.raises(ValueError, match="3 shares for 2 grasp points"):
        counterbalance_moment(AllocationWeights([0.2, 0.3, 0.5]), gm,
                              [0.0, 0.0, 1.0])


def test_counterbalance_matches_numpy_cross_bit_for_bit():
    rng = np.random.default_rng(36)
    for _ in range(500):
        count = int(rng.integers(1, 5))
        gm = GraspMap.from_vectors(rng.uniform(-0.3, 0.3, (count, 3)))
        beta = rng.uniform(0.05, 1.0, count)
        weights = AllocationWeights(beta / beta.sum())
        force = rng.normal(size=3) * 20.0
        force[rng.random(3) < 0.3] = 0.0
        induced, h_delta = counterbalance_moment(weights, gm, force)
        expected = np.cross(weights.beta @ gm.grasp_vectors, force)
        assert np.array_equal(induced, expected)
        assert np.array_equal(np.signbit(induced), np.signbit(expected))
        assert np.array_equal(np.signbit(h_delta[3:]),
                              np.signbit(-expected))


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
        h_d = np.concatenate([rng.normal(size=3) * 20.0,
                              rng.normal(size=3) * 2.0])
        _, h_delta = counterbalance_moment(
            AllocationWeights(beta), gm, h_d[:3])
        wrenches = [beta[i] * h_d + alpha[i] * h_delta for i in range(count)]
        total = object_wrench_from_ee(gm, wrenches)
        err = np.linalg.norm(total - h_d)
        worst = max(worst, err)
    assert worst <= 1e-10
