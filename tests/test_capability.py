"""Capability solves checked against bisection and grid-search oracles."""
import time

import numpy as np
import pytest

from coopwrench import (AllocationWeights, CapabilityProblem,
                        ScenarioValidationError, capability_scalar,
                        feasible_wrench_check, group_capability,
                        group_capability_joint)
from coopwrench.capability import (FLAG_INFEASIBLE, FLAG_UNBOUNDED,
                                   DEFAULT_UNBOUNDED_CAP)
from oracles import bisect_capability


def random_problem(rng, n=None, zero_fraction=0.15):
    """A problem whose zero-scale point is feasible, so bisection applies."""
    if n is None:
        n = int(rng.integers(1, 7))
    tau_max = rng.uniform(0.5, 2.0, n)
    return CapabilityProblem(
        jt_hd=np.where(rng.random(n) < zero_fraction, 0.0,
                       rng.normal(size=n)),
        jt_hdelta=rng.normal(size=n) * 0.4,
        tau_prime=rng.uniform(-0.95, 0.95, n) * tau_max,
        tau_max=tau_max,
    )


def test_single_row_hand_example():
    problem = CapabilityProblem(jt_hd=[2.0], jt_hdelta=[0.0],
                                tau_prime=[0.2], tau_max=[1.0])
    result = capability_scalar(problem)
    assert result.k == pytest.approx(0.4, abs=1e-15)
    assert result.flag is None


def test_zero_direction_rows_only_gate_feasibility():
    free = CapabilityProblem(jt_hd=[0.0, 0.0], jt_hdelta=[0.0, 0.0],
                             tau_prime=[0.3, -0.2], tau_max=[1.0, 1.0])
    result = capability_scalar(free)
    assert result.k == DEFAULT_UNBOUNDED_CAP
    assert result.flag == FLAG_UNBOUNDED

    violated = CapabilityProblem(jt_hd=[0.0, 1.0], jt_hdelta=[0.0, 0.0],
                                 tau_prime=[1.5, 0.0], tau_max=[1.0, 1.0])
    result = capability_scalar(violated)
    assert result.k == 0.0
    assert result.flag == FLAG_INFEASIBLE


def test_exact_saturation():
    rng = np.random.default_rng(50)
    a = rng.normal(size=4)
    a[np.abs(a) < 0.1] = 0.5
    problem = CapabilityProblem(jt_hd=a, jt_hdelta=np.zeros(4),
                                tau_prime=np.zeros(4), tau_max=np.abs(a))
    result = capability_scalar(problem)
    assert result.k == pytest.approx(1.0, abs=1e-12)


def test_lower_bounded_interval_still_maximizes():
    # zero scale violates the row, but a band of larger scales is feasible
    problem = CapabilityProblem(jt_hd=[1.0], jt_hdelta=[0.0],
                                tau_prime=[-2.0], tau_max=[1.0])
    result = capability_scalar(problem)
    assert result.k == pytest.approx(3.0, abs=1e-15)
    assert result.flag is None
    assert not feasible_wrench_check(problem, 0.0)
    assert feasible_wrench_check(problem, 3.0)


def test_empty_shifted_interval_is_infeasible():
    problem = CapabilityProblem(jt_hd=[1.0, -1.0], jt_hdelta=[0.0, 0.0],
                                tau_prime=[-2.0, -2.0], tau_max=[1.0, 1.0])
    result = capability_scalar(problem)
    assert result.k == 0.0
    assert result.flag == FLAG_INFEASIBLE


def test_finite_bound_beyond_cap_is_flagged():
    problem = CapabilityProblem(jt_hd=[1e-9], jt_hdelta=[0.0],
                                tau_prime=[0.0], tau_max=[1.0])
    result = capability_scalar(problem, unbounded_cap=1e6)
    assert result.k == 1e6
    assert result.flag == FLAG_UNBOUNDED


def test_matches_bisection_oracle():
    rng = np.random.default_rng(51)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        problem = random_problem(rng)
        result = capability_scalar(problem)
        expected = bisect_capability(problem)
        if result.flag == FLAG_UNBOUNDED:
            assert expected >= DEFAULT_UNBOUNDED_CAP * 0.99
            continue
        worst = max(worst, abs(result.k - expected))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 1.0


def test_matches_bisection_oracle_with_delta():
    # offsets drawn so zero scale stays feasible after the alpha shift,
    # which is the regime bisection can certify
    rng = np.random.default_rng(52)
    compared = 0
    for _ in range(300):
        n = int(rng.integers(1, 7))
        tau_max = rng.uniform(0.5, 2.0, n)
        alpha_i = float(rng.uniform(-1.0, 1.5))
        problem = CapabilityProblem(
            jt_hd=np.where(rng.random(n) < 0.15, 0.0, rng.normal(size=n)),
            jt_hdelta=rng.uniform(-1.0, 1.0, n) * tau_max / 3.0,
            tau_prime=rng.uniform(-0.45, 0.45, n) * tau_max,
            tau_max=tau_max,
        )
        result = capability_scalar(problem, alpha_i=alpha_i)
        if result.flag == FLAG_UNBOUNDED:
            continue
        expected = bisect_capability(problem, use_delta=True, alpha_i=alpha_i)
        assert abs(result.k - expected) <= 1e-8
        compared += 1
    assert compared > 200


def test_scale_invariance():
    rng = np.random.default_rng(53)
    for _ in range(100):
        problem = random_problem(rng, zero_fraction=0.0)
        result = capability_scalar(problem)
        if result.flag is not None:
            continue
        for scale in (0.5, 2.0, 7.0):
            scaled = CapabilityProblem(
                jt_hd=scale * problem.jt_hd, jt_hdelta=problem.jt_hdelta,
                tau_prime=problem.tau_prime, tau_max=problem.tau_max)
            rescaled = capability_scalar(scaled)
            assert rescaled.k == pytest.approx(result.k / scale, rel=1e-12)


def test_monotone_in_torque_limits():
    rng = np.random.default_rng(54)
    for _ in range(100):
        problem = random_problem(rng)
        k = capability_scalar(problem).k
        relaxed = CapabilityProblem(
            jt_hd=problem.jt_hd, jt_hdelta=problem.jt_hdelta,
            tau_prime=problem.tau_prime,
            tau_max=problem.tau_max + rng.uniform(0.0, 1.0,
                                                  problem.joint_count))
        assert capability_scalar(relaxed).k >= k - 1e-12


def test_reduction_identity_bitwise():
    rng = np.random.default_rng(55)
    for _ in range(100):
        problem = random_problem(rng)
        zeroed = CapabilityProblem(
            jt_hd=problem.jt_hd, jt_hdelta=np.zeros(problem.joint_count),
            tau_prime=problem.tau_prime, tau_max=problem.tau_max)
        baseline = capability_scalar(problem)
        with_zero_delta = capability_scalar(zeroed, alpha_i=0.7)
        with_zero_alpha = capability_scalar(problem, alpha_i=0.0)
        assert with_zero_delta.k == baseline.k
        assert with_zero_alpha.k == baseline.k


def test_feasible_wrench_check_brackets_the_optimum():
    rng = np.random.default_rng(56)
    for _ in range(200):
        problem = random_problem(rng)
        result = capability_scalar(problem)
        if result.flag is not None:
            continue
        assert feasible_wrench_check(problem, result.k - 1e-9)
        assert not feasible_wrench_check(problem, result.k + 1e-6)


def test_feasible_wrench_check_zero_scale():
    ok = CapabilityProblem(jt_hd=[1.0], jt_hdelta=[0.0], tau_prime=[0.5],
                           tau_max=[1.0])
    assert feasible_wrench_check(ok, 0.0)
    overloaded = CapabilityProblem(jt_hd=[1.0], jt_hdelta=[0.0],
                                   tau_prime=[1.5], tau_max=[1.0])
    assert not feasible_wrench_check(overloaded, 0.0)
    assert not feasible_wrench_check(overloaded, 0.3)


def test_group_capability_sums_scalars():
    rng = np.random.default_rng(57)
    problems = [random_problem(rng, n=3) for _ in range(4)]
    weights = AllocationWeights(np.full(4, 0.25), np.full(4, 0.25))
    sample = group_capability(problems, weights)
    expected = [capability_scalar(p, alpha_i=0.25).k for p in problems]
    np.testing.assert_array_equal(sample.k, expected)
    assert sample.K1 == pytest.approx(sum(expected), abs=0.0)
    assert sample.K1 == pytest.approx(float(np.sum(sample.k)), abs=0.0)
    assert sample.K0 is None


def test_group_capability_single_arm_reduction():
    problem = CapabilityProblem(jt_hd=[2.0], jt_hdelta=[0.0],
                                tau_prime=[0.2], tau_max=[1.0])
    sample = group_capability([problem], AllocationWeights([1.0], [1.0]))
    assert sample.K1 == pytest.approx(0.4, abs=1e-15)


def test_group_capability_zero_delta_reduces_to_baseline():
    rng = np.random.default_rng(58)
    problems = [
        CapabilityProblem(jt_hd=rng.normal(size=3), jt_hdelta=np.zeros(3),
                          tau_prime=rng.uniform(-0.5, 0.5, 3),
                          tau_max=np.ones(3))
        for _ in range(4)
    ]
    weights = AllocationWeights(np.full(4, 0.25), np.full(4, 0.25))
    baseline = [capability_scalar(p).k for p in problems]
    improved = group_capability(problems, weights)
    np.testing.assert_array_equal(improved.k, baseline)
    assert improved.K1 == float(np.sum(baseline))


def test_group_capability_flags_propagate():
    bad = CapabilityProblem(jt_hd=[1.0], jt_hdelta=[0.0], tau_prime=[2.0],
                            tau_max=[1.0])
    good = CapabilityProblem(jt_hd=[1.0], jt_hdelta=[0.0], tau_prime=[0.0],
                             tau_max=[1.0])
    sample = group_capability([bad, good],
                              AllocationWeights([0.5, 0.5], [0.5, 0.5]))
    assert FLAG_INFEASIBLE in sample.flags
    np.testing.assert_array_equal(sample.k, [0.0, 1.0])


def grid_search_joint(problems, alphas, cap=DEFAULT_UNBOUNDED_CAP):
    """Oracle: exhaustive scan of the two-arm compensation split.

    Vectorized over the whole alpha grid; a split where any arm cannot even
    hold its own torque load contributes no candidate.
    """
    assert len(problems) == 2
    best = -np.inf
    totals = np.zeros_like(alphas)
    valid = np.ones_like(alphas, dtype=bool)
    for problem, share in zip(problems, (alphas, 1.0 - alphas)):
        a = problem.jt_hd[:, None]
        offsets = problem.tau_prime[:, None] \
            + share[None, :] * problem.jt_hdelta[:, None]
        tau = problem.tau_max[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            end1 = (tau - offsets) / a
            end2 = (-tau - offsets) / a
        hi = np.where(a == 0.0, np.inf, np.maximum(end1, end2))
        lo = np.where(a == 0.0, -np.inf, np.minimum(end1, end2))
        fixed_ok = np.abs(offsets) <= tau
        row_ok = np.where(a == 0.0, fixed_ok, True)
        upper = np.minimum(np.min(hi, axis=0), cap)
        lower = np.maximum(np.max(lo, axis=0), 0.0)
        valid &= np.all(row_ok, axis=0) & (upper >= lower)
        totals += np.where(valid, upper, 0.0)
    if valid.any():
        best = float(np.max(totals[valid]))
    return best, valid


def test_joint_mode_matches_grid_search():
    problems = [
        CapabilityProblem(jt_hd=[1.0, 0.5], jt_hdelta=[0.6, -0.2],
                          tau_prime=[0.1, -0.05], tau_max=[1.0, 1.0]),
        CapabilityProblem(jt_hd=[0.8, -0.4], jt_hdelta=[-0.5, 0.3],
                          tau_prime=[0.0, 0.1], tau_max=[1.0, 1.0]),
    ]
    alphas = np.linspace(-8.0, 9.0, 170001)
    expected, valid = grid_search_joint(problems, alphas)
    # feasible split range sits strictly inside the scanned window
    assert not valid[0] and not valid[-1]
    sample = group_capability_joint(problems, beta=[0.5, 0.5])
    assert sample.K1 == pytest.approx(expected, abs=1e-3)
    assert abs(np.sum(sample.alpha) - 1.0) <= 1e-9


def test_joint_mode_zero_delta_equals_baseline_sum():
    rng = np.random.default_rng(59)
    problems = [
        CapabilityProblem(jt_hd=rng.normal(size=3), jt_hdelta=np.zeros(3),
                          tau_prime=rng.uniform(-0.5, 0.5, 3),
                          tau_max=np.ones(3))
        for _ in range(3)
    ]
    k0 = sum(capability_scalar(p).k for p in problems)
    sample = group_capability_joint(problems, beta=np.full(3, 1.0 / 3.0))
    assert sample.K1 == pytest.approx(k0, abs=1e-9)


def test_joint_mode_dominates_fixed_alpha():
    rng = np.random.default_rng(60)
    for _ in range(30):
        problems = [random_problem(rng, n=3, zero_fraction=0.0)
                    for _ in range(3)]
        beta = rng.uniform(0.1, 1.0, 3)
        beta /= beta.sum()
        weights = AllocationWeights(beta, beta)
        fixed = group_capability(problems, weights)
        joint = group_capability_joint(problems, beta)
        if FLAG_UNBOUNDED in fixed.flags or FLAG_UNBOUNDED in joint.flags:
            continue
        assert joint.K1 >= fixed.K1 - 1e-9


def test_joint_mode_caps_unbounded_scales():
    problems = [
        CapabilityProblem(jt_hd=[0.0, 0.0], jt_hdelta=[0.1, -0.1],
                          tau_prime=[0.0, 0.0], tau_max=[1.0, 1.0]),
        CapabilityProblem(jt_hd=[1.0, 0.5], jt_hdelta=[0.2, 0.1],
                          tau_prime=[0.0, 0.0], tau_max=[1.0, 1.0]),
    ]
    sample = group_capability_joint(problems, beta=[0.5, 0.5],
                                    unbounded_cap=100.0)
    assert FLAG_UNBOUNDED in sample.flags
    assert sample.k[0] == pytest.approx(100.0, rel=1e-9)


def test_joint_mode_infeasible_split():
    # first arm is overloaded by its own weight and no split can help:
    # its compensation column is zero and its scale can only push further
    problems = [
        CapabilityProblem(jt_hd=[1.0], jt_hdelta=[0.0], tau_prime=[1.5],
                          tau_max=[1.0]),
        CapabilityProblem(jt_hd=[1.0], jt_hdelta=[-1.0], tau_prime=[0.0],
                          tau_max=[1.0]),
    ]
    sample = group_capability_joint(problems, beta=[0.5, 0.5])
    assert FLAG_INFEASIBLE in sample.flags
    assert sample.K1 == 0.0
    np.testing.assert_array_equal(sample.k, np.zeros(2))


def test_problem_validation():
    with pytest.raises(ScenarioValidationError):
        CapabilityProblem(jt_hd=[1.0, 2.0], jt_hdelta=[0.0],
                          tau_prime=[0.0, 0.0], tau_max=[1.0, 1.0])
    with pytest.raises(ScenarioValidationError):
        CapabilityProblem(jt_hd=[1.0], jt_hdelta=[0.0], tau_prime=[0.0],
                          tau_max=[0.0])
    with pytest.raises(ScenarioValidationError):
        CapabilityProblem(jt_hd=[np.nan], jt_hdelta=[0.0], tau_prime=[0.0],
                          tau_max=[1.0])


def test_capability_api_takes_alpha_by_keyword_only():
    problem = CapabilityProblem(jt_hd=[1.0], jt_hdelta=[0.5], tau_prime=[0.0],
                                tau_max=[1.0])
    with pytest.raises(TypeError):
        capability_scalar(problem, 0.5)
    assert capability_scalar(problem, alpha_i=0.5).k == 0.75


def test_group_capability_requires_alpha_shares():
    problem = CapabilityProblem(jt_hd=[1.0], jt_hdelta=[0.0], tau_prime=[0.0],
                                tau_max=[1.0])
    with pytest.raises(ValueError, match="alpha"):
        group_capability([problem], AllocationWeights([1.0]))
