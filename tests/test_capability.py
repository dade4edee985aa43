"""Capability solves checked against bisection and grid-search oracles.

The joint solve is also held bit for bit to its frozen row-by-row
predecessor, ``oracles.reference_group_capability_joint``.
"""
import dataclasses
import time
from types import SimpleNamespace

import numpy as np
import pytest

from coopwrench import (CapabilityProblem, ScenarioValidationError,
                        asymmetric_scenario, capability_scalar,
                        group_capability, group_capability_joint,
                        reference_scenario, run_scenario)
from coopwrench import runner
from coopwrench.capability import (FLAG_INFEASIBLE, FLAG_UNBOUNDED,
                                   DEFAULT_UNBOUNDED_CAP)
from oracles import (bisect_capability, feasible_wrench_check,
                     reference_group_capability_joint)


def random_problem(rng, n=None, zero_fraction=0.15):
    """A problem whose zero-scale point is feasible, so bisection applies."""
    if n is None:
        n = int(rng.integers(1, 7))
    tau_max = rng.uniform(0.5, 2.0, n)
    return CapabilityProblem(
        jt_hd=np.where(rng.random(n) < zero_fraction, 0.0,
                       rng.normal(size=n)),
        tau_prime=rng.uniform(-0.95, 0.95, n) * tau_max,
        tau_max=tau_max,
    )


def with_moment(problem, moment):
    """The problem as the oracles read it: moment as a per-joint column."""
    return SimpleNamespace(
        jt_hd=problem.jt_hd, jt_hdelta=np.full(problem.joint_count, moment),
        tau_prime=problem.tau_prime, tau_max=problem.tau_max,
        joint_count=problem.joint_count)


def test_single_row_hand_example():
    problem = CapabilityProblem(jt_hd=[2.0], tau_prime=[0.2], tau_max=[1.0])
    result = capability_scalar(problem)
    assert result.k == pytest.approx(0.4, abs=1e-15)
    assert result.flag is None


def test_zero_direction_rows_only_gate_feasibility():
    free = CapabilityProblem(jt_hd=[0.0, 0.0],
                             tau_prime=[0.3, -0.2], tau_max=[1.0, 1.0])
    result = capability_scalar(free)
    assert result.k == DEFAULT_UNBOUNDED_CAP
    assert result.flag == FLAG_UNBOUNDED

    violated = CapabilityProblem(jt_hd=[0.0, 1.0],
                                 tau_prime=[1.5, 0.0], tau_max=[1.0, 1.0])
    result = capability_scalar(violated)
    assert result.k == 0.0
    assert result.flag == FLAG_INFEASIBLE


def test_exact_saturation():
    rng = np.random.default_rng(50)
    a = rng.normal(size=4)
    a[np.abs(a) < 0.1] = 0.5
    problem = CapabilityProblem(jt_hd=a, tau_prime=np.zeros(4),
                                tau_max=np.abs(a))
    result = capability_scalar(problem)
    assert result.k == pytest.approx(1.0, abs=1e-12)


def test_lower_bounded_interval_still_maximizes():
    # zero scale violates the row, but a band of larger scales is feasible
    problem = CapabilityProblem(jt_hd=[1.0], tau_prime=[-2.0], tau_max=[1.0])
    result = capability_scalar(problem)
    assert result.k == pytest.approx(3.0, abs=1e-15)
    assert result.flag is None
    assert not feasible_wrench_check(problem, 0.0)
    assert feasible_wrench_check(problem, 3.0)


def test_empty_shifted_interval_is_infeasible():
    problem = CapabilityProblem(jt_hd=[1.0, -1.0],
                                tau_prime=[-2.0, -2.0], tau_max=[1.0, 1.0])
    result = capability_scalar(problem)
    assert result.k == 0.0
    assert result.flag == FLAG_INFEASIBLE


def test_finite_bound_beyond_cap_is_flagged():
    problem = CapabilityProblem(jt_hd=[1e-9], tau_prime=[0.0], tau_max=[1.0])
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
        moment = float(rng.uniform(-1.0, 1.0)) * tau_max.min() / 3.0
        problem = CapabilityProblem(
            jt_hd=np.where(rng.random(n) < 0.15, 0.0, rng.normal(size=n)),
            tau_prime=rng.uniform(-0.45, 0.45, n) * tau_max,
            tau_max=tau_max,
        )
        result = capability_scalar(problem, moment=alpha_i * moment)
        if result.flag == FLAG_UNBOUNDED:
            continue
        expected = bisect_capability(with_moment(problem, moment),
                                     use_delta=True, alpha_i=alpha_i)
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
                jt_hd=scale * problem.jt_hd, tau_prime=problem.tau_prime,
                tau_max=problem.tau_max)
            rescaled = capability_scalar(scaled)
            assert rescaled.k == pytest.approx(result.k / scale, rel=1e-12)


def test_monotone_in_torque_limits():
    rng = np.random.default_rng(54)
    for _ in range(100):
        problem = random_problem(rng)
        k = capability_scalar(problem).k
        relaxed = CapabilityProblem(
            jt_hd=problem.jt_hd, tau_prime=problem.tau_prime,
            tau_max=problem.tau_max + rng.uniform(0.0, 1.0,
                                                  problem.joint_count))
        assert capability_scalar(relaxed).k >= k - 1e-12


def test_reduction_identity_bitwise():
    rng = np.random.default_rng(55)
    for _ in range(100):
        problem = random_problem(rng)
        moment = float(rng.normal()) * 0.4
        baseline = capability_scalar(problem)
        with_zero_delta = group_capability([problem], [0.7], 0.0)
        with_zero_alpha = group_capability([problem], [0.0], moment)
        assert capability_scalar(problem, moment=0.0).k == baseline.k
        assert with_zero_delta.k[0] == baseline.k
        assert with_zero_alpha.k[0] == baseline.k


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
    ok = CapabilityProblem(jt_hd=[1.0], tau_prime=[0.5], tau_max=[1.0])
    assert feasible_wrench_check(ok, 0.0)
    overloaded = CapabilityProblem(jt_hd=[1.0], tau_prime=[1.5], tau_max=[1.0])
    assert not feasible_wrench_check(overloaded, 0.0)
    assert not feasible_wrench_check(overloaded, 0.3)


def test_group_capability_sums_scalars():
    rng = np.random.default_rng(57)
    problems = [random_problem(rng, n=3) for _ in range(4)]
    moment = float(rng.normal()) * 0.4
    sample = group_capability(problems, np.full(4, 0.25), moment)
    expected = [capability_scalar(p, moment=0.25 * moment).k
                for p in problems]
    np.testing.assert_array_equal(sample.k, expected)
    assert sample.K1 == pytest.approx(sum(expected), abs=0.0)
    assert sample.K1 == pytest.approx(float(np.sum(sample.k)), abs=0.0)


def test_group_capability_single_arm_reduction():
    problem = CapabilityProblem(jt_hd=[2.0], tau_prime=[0.2], tau_max=[1.0])
    sample = group_capability([problem], np.array([1.0]), 0.0)
    assert sample.K1 == pytest.approx(0.4, abs=1e-15)


def test_group_capability_zero_delta_reduces_to_baseline():
    rng = np.random.default_rng(58)
    problems = [
        CapabilityProblem(jt_hd=rng.normal(size=3),
                          tau_prime=rng.uniform(-0.5, 0.5, 3),
                          tau_max=np.ones(3))
        for _ in range(4)
    ]
    baseline = [capability_scalar(p).k for p in problems]
    improved = group_capability(problems, np.full(4, 0.25), 0.0)
    np.testing.assert_array_equal(improved.k, baseline)
    assert improved.K1 == float(np.sum(baseline))


def test_group_capability_flags_propagate():
    bad = CapabilityProblem(jt_hd=[1.0], tau_prime=[2.0], tau_max=[1.0])
    good = CapabilityProblem(jt_hd=[1.0], tau_prime=[0.0], tau_max=[1.0])
    sample = group_capability([bad, good], np.array([0.5, 0.5]), 0.0)
    assert FLAG_INFEASIBLE in sample.flags
    np.testing.assert_array_equal(sample.k, [0.0, 1.0])


def grid_search_joint(problems, moment, alphas, cap=DEFAULT_UNBOUNDED_CAP):
    """Oracle: exhaustive scan of the two-arm compensation split.

    Vectorized over the whole alpha grid; a split where any arm cannot even
    hold its own torque load contributes no candidate.
    """
    assert len(problems) == 2
    best = -np.inf
    totals = np.zeros_like(alphas)
    valid = np.ones_like(alphas, dtype=bool)
    for problem, share in zip(problems, (alphas, 1.0 - alphas)):
        column = with_moment(problem, moment).jt_hdelta
        a = problem.jt_hd[:, None]
        offsets = problem.tau_prime[:, None] \
            + share[None, :] * column[:, None]
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
        CapabilityProblem(jt_hd=[1.0, 0.5], tau_prime=[0.1, -0.05],
                          tau_max=[1.0, 1.0]),
        CapabilityProblem(jt_hd=[0.8, -0.4], tau_prime=[0.0, 0.1],
                          tau_max=[1.0, 1.0]),
    ]
    alphas = np.linspace(-8.0, 9.0, 170001)
    expected, valid = grid_search_joint(problems, 0.3, alphas)
    # feasible split range sits strictly inside the scanned window
    assert not valid[0] and not valid[-1]
    sample = group_capability_joint(problems, 0.3)
    assert sample.K1 == pytest.approx(expected, abs=1e-3)
    assert abs(np.sum(sample.alpha) - 1.0) <= 1e-9


def test_joint_mode_zero_delta_equals_baseline_sum():
    rng = np.random.default_rng(59)
    problems = [
        CapabilityProblem(jt_hd=rng.normal(size=3),
                          tau_prime=rng.uniform(-0.5, 0.5, 3),
                          tau_max=np.ones(3))
        for _ in range(3)
    ]
    k0 = sum(capability_scalar(p).k for p in problems)
    sample = group_capability_joint(problems, 0.0)
    assert sample.K1 == pytest.approx(k0, abs=1e-9)


def test_joint_mode_dominates_fixed_alpha():
    # a fixed split is a point of the joint program only if every arm can
    # carry its share there; an infeasible arm adds 0 and the rest still sum
    rng = np.random.default_rng(60)
    compared = 0
    for _ in range(30):
        problems = [random_problem(rng, n=3, zero_fraction=0.0)
                    for _ in range(3)]
        beta = rng.uniform(0.1, 1.0, 3)
        beta /= beta.sum()
        moment = float(rng.normal()) * 0.4
        fixed = group_capability(problems, beta, moment)
        joint = group_capability_joint(problems, moment)
        if fixed.flags or FLAG_UNBOUNDED in joint.flags:
            continue
        assert joint.K1 >= fixed.K1 - 1e-9
        compared += 1
    assert compared >= 25


def test_joint_mode_caps_unbounded_scales():
    problems = [
        CapabilityProblem(jt_hd=[0.0, 0.0], tau_prime=[0.0, 0.0],
                          tau_max=[1.0, 1.0]),
        CapabilityProblem(jt_hd=[1.0, 0.5], tau_prime=[0.0, 0.0],
                          tau_max=[1.0, 1.0]),
    ]
    sample = group_capability_joint(problems, 0.1, unbounded_cap=100.0)
    assert FLAG_UNBOUNDED in sample.flags
    assert sample.k[0] == pytest.approx(100.0, rel=1e-9)


def test_joint_mode_infeasible_split():
    # first arm is overloaded by its own weight at both joints, pulling
    # opposite ways: one needs a positive share of the moment, the other a
    # negative one once its scale pushes further, so no split can help
    problems = [
        CapabilityProblem(jt_hd=[1.0, 0.0], tau_prime=[1.5, -1.5],
                          tau_max=[1.0, 1.0]),
        CapabilityProblem(jt_hd=[1.0], tau_prime=[0.0], tau_max=[1.0]),
    ]
    sample = group_capability_joint(problems, -1.0)
    assert FLAG_INFEASIBLE in sample.flags
    assert sample.K1 == 0.0
    np.testing.assert_array_equal(sample.k, np.zeros(2))


def test_problem_validation():
    with pytest.raises(ScenarioValidationError):
        CapabilityProblem(jt_hd=[1.0, 2.0], tau_prime=[0.0],
                          tau_max=[1.0, 1.0])
    with pytest.raises(ScenarioValidationError):
        CapabilityProblem(jt_hd=[1.0], tau_prime=[0.0], tau_max=[0.0])
    with pytest.raises(ScenarioValidationError):
        CapabilityProblem(jt_hd=[np.nan], tau_prime=[0.0], tau_max=[1.0])


def test_capability_api_takes_moment_by_keyword_only():
    problem = CapabilityProblem(jt_hd=[1.0], tau_prime=[0.0], tau_max=[1.0])
    with pytest.raises(TypeError):
        capability_scalar(problem, 0.25)
    with pytest.raises(TypeError):
        capability_scalar(problem, alpha_i=0.5)
    with pytest.raises(TypeError):
        CapabilityProblem(jt_hd=[1.0], jt_hdelta=[0.5], tau_prime=[0.0],
                          tau_max=[1.0])
    assert capability_scalar(problem, moment=0.25).k == 0.75


def test_group_capability_rejects_wrong_share_count():
    rng = np.random.default_rng(61)
    problems = [random_problem(rng, n=3) for _ in range(4)]
    with pytest.raises(ValueError):
        group_capability(problems, [0.5, 0.5], 0.1)
    with pytest.raises(ValueError):
        group_capability(problems[:1], [0.5, 0.5], 0.1)


def test_group_solves_take_no_pass_through_arguments():
    problem = CapabilityProblem(jt_hd=[1.0], tau_prime=[0.0], tau_max=[1.0])
    for extra in ({"time": 0.0}, {"t_delta": np.zeros(3)}):
        with pytest.raises(TypeError):
            group_capability([problem], [1.0], 0.0, **extra)
        with pytest.raises(TypeError):
            group_capability_joint([problem], 0.0, **extra)
    with pytest.raises(TypeError):
        group_capability_joint([problem], 0.0, beta=[1.0])
    with pytest.raises(TypeError):
        group_capability_joint([problem], 0.0, [1.0])


@pytest.mark.parametrize("share", [np.nan, np.inf, -np.inf])
def test_non_finite_share_is_rejected(share):
    problem = CapabilityProblem(jt_hd=[1.0], tau_prime=[0.0], tau_max=[1.0])
    # named as a share even where share * moment would blame the moment
    for moment in (0.5, 0.0):
        with pytest.raises(ValueError, match="alpha must be finite"):
            group_capability([problem, problem], [share, 1.0], moment)


def test_overflowing_share_times_moment_names_the_product():
    problem = CapabilityProblem(jt_hd=[1.0], tau_prime=[0.0], tau_max=[1.0])
    # a finite share and a finite moment whose product overflows
    with pytest.raises(ValueError, match=r"alpha\[1\] \* moment"):
        group_capability([problem, problem], [1.0, 1e300], 1e300)
    # a finite product of extreme factors solves as the scalar solve does
    result = group_capability([problem], [1e150], 1e-150)
    expected = capability_scalar(problem, moment=1e150 * 1e-150)
    assert result.k.tolist() == [expected.k]
    assert result.alpha.tolist() == [1e150]


@pytest.mark.parametrize("moment", [
    np.nan, np.inf, -np.inf, True, "0.5", None, np.array(0.5),
    np.array([0.5])])
def test_moment_must_be_a_finite_real_number(moment):
    problem = CapabilityProblem(jt_hd=[1.0], tau_prime=[0.0], tau_max=[1.0])
    for solve in (lambda: capability_scalar(problem, moment=moment),
                  lambda: group_capability([problem], [1.0], moment),
                  lambda: group_capability_joint([problem], moment)):
        with pytest.raises(ValueError, match="moment must be a finite real"):
            solve()


@pytest.mark.parametrize("cap", [-1.0, 0.0, np.nan, np.inf])
def test_cap_must_be_positive_and_finite(cap):
    problem = CapabilityProblem(jt_hd=[1.0], tau_prime=[0.0], tau_max=[1.0])
    for solve in (lambda: capability_scalar(problem, moment=0.5,
                                            unbounded_cap=cap),
                  lambda: group_capability([problem], [1.0], 0.5,
                                           unbounded_cap=cap),
                  lambda: group_capability_joint([problem], 0.5,
                                                 unbounded_cap=cap)):
        with pytest.raises(ValueError, match="unbounded_cap"):
            solve()


def assert_same_group_capability(actual, expected):
    """Equal flags, and k and alpha equal in value and sign bit."""
    assert actual.flags == expected.flags
    for name in ("k", "alpha"):
        value, frozen = getattr(actual, name), getattr(expected, name)
        if frozen is None:
            assert value is None
            continue
        assert np.array_equal(value, frozen)
        assert np.array_equal(np.signbit(value), np.signbit(frozen))


def test_joint_matches_frozen_reference_on_random_groups():
    """Arms of unequal joint counts, some overloaded, some uncapped."""
    rng = np.random.default_rng(62)
    flags = set()
    for _ in range(400):
        problems = []
        for _ in range(int(rng.integers(1, 5))):
            n = int(rng.integers(1, 5))
            tau_max = rng.uniform(0.5, 2.0, n).round(2)
            problems.append(CapabilityProblem(
                jt_hd=np.where(rng.random(n) < 0.3, 0.0,
                               rng.normal(size=n).round(2)),
                tau_prime=rng.uniform(-1.2, 1.2, n).round(2) * tau_max,
                tau_max=tau_max))
        moment = round(float(rng.normal()), 2) * 0.4
        cap = float(rng.choice([DEFAULT_UNBOUNDED_CAP, 3.0]))
        result = group_capability_joint(problems, moment, unbounded_cap=cap)
        assert_same_group_capability(result, reference_group_capability_joint(
            [with_moment(p, moment) for p in problems], unbounded_cap=cap))
        flags |= result.flags or {None}
    assert flags == {None, FLAG_INFEASIBLE, FLAG_UNBOUNDED}


@pytest.mark.parametrize("scenario", [reference_scenario, asymmetric_scenario])
def test_joint_matches_frozen_reference_along_built_in_paths(scenario,
                                                             monkeypatch):
    """Every joint solve of one refined joint-mode cycle.

    Equal scales and shares are the program's whole solution x, so its
    status and objective agree as well.
    """
    solves = []

    def checked_joint(problems, moment, **kwargs):
        result = solve_joint(problems, moment, **kwargs)
        assert_same_group_capability(result, reference_group_capability_joint(
            [with_moment(p, moment) for p in problems], **kwargs))
        solves.append(result)
        return result

    solve_joint = runner.group_capability_joint
    monkeypatch.setattr(runner, "group_capability_joint", checked_joint)
    config = dataclasses.replace(scenario(), mode="improved-joint", cycles=1,
                                 beta_iterations=2)
    run_scenario(config)
    assert len(solves) > config.step_count
    assert not any(FLAG_INFEASIBLE in solve.flags for solve in solves)
