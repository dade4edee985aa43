"""Simplex solver checks against a brute-force vertex-enumeration oracle.

The oracle converts each program to pure inequality form D x <= d (upper
rows, negated lower rows, sign rows for non-negative variables), solves
every n-subset of rows for a candidate vertex, keeps the feasible ones, and
takes the best objective.  Test programs embed box rows so the feasible set
is a bounded polytope with all optima at vertices.

The solver is also held bit for bit to its frozen row-by-row predecessor,
``oracles.reference_simplex_solve``.
"""
import numpy as np
import pytest

from coopwrench import LinearProgram, capability_scalar, simplex_solve
from coopwrench.capability import CapabilityProblem, FLAG_INFEASIBLE, \
    FLAG_UNBOUNDED
from coopwrench.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED
from oracles import reference_simplex_solve, vertex_enumeration_optimum

# (variables, most extra two-sided rows): sized so the oracle's subset count
# stays tractable; small programs dominate, the wide and tall extremes appear
# a few times each
LP_SIZES = [(2, 18)] * 5 + [(3, 12)] * 4 + [(4, 8)] * 4 + [(5, 5)] * 3 + \
    [(6, 4)] * 2 + [(8, 2)] + [(10, 0)]


def boxed_random_lp(rng, n, extra_rows, box=5.0):
    """A bounded feasible program: random two-sided rows around a point.

    Non-negative variables lean on their sign restriction for the lower
    bound, so the box rows only cap them from above.
    """
    coeffs = [np.eye(n)]
    lowers = [np.full(n, -np.inf)]
    uppers = [np.full(n, box)]
    nonneg = rng.random(n) < 0.5
    lowers[0][~nonneg] = -box
    x0 = rng.uniform(0.5, box - 0.5, n)
    x0[~nonneg] -= box / 2.0
    if extra_rows:
        A = rng.normal(size=(extra_rows, n))
        mid = A @ x0
        slack = rng.uniform(0.3, 2.0, extra_rows)
        coeffs.append(A)
        lowers.append(mid - slack)
        uppers.append(mid + slack)
    return LinearProgram(
        objective=rng.normal(size=n),
        row_coeffs=np.vstack(coeffs),
        row_lower=np.concatenate(lowers),
        row_upper=np.concatenate(uppers),
        nonnegative=nonneg,
    )


def test_single_variable_maximum():
    result = simplex_solve(LinearProgram(
        objective=[1.0], row_coeffs=[[1.0]], row_lower=[-np.inf],
        row_upper=[3.0], nonnegative=[True]))
    assert result.status == OPTIMAL
    assert abs(result.objective - 3.0) <= 1e-12
    np.testing.assert_allclose(result.x, [3.0], atol=1e-12)


def test_infeasible_interval():
    result = simplex_solve(LinearProgram(
        objective=[1.0], row_coeffs=[[1.0], [1.0]], row_lower=[2.0, -np.inf],
        row_upper=[np.inf, 1.0], nonnegative=[True]))
    assert result.status == INFEASIBLE


def test_unbounded_ray():
    result = simplex_solve(LinearProgram(
        objective=[1.0], row_coeffs=[[1.0]], row_lower=[2.0],
        row_upper=[np.inf], nonnegative=[False]))
    assert result.status == UNBOUNDED


def test_equality_row_with_free_variables():
    result = simplex_solve(LinearProgram(
        objective=[1.0, 1.0], row_coeffs=[[1.0, 1.0]], row_lower=[1.0],
        row_upper=[1.0], nonnegative=[False, False]))
    assert result.status == OPTIMAL
    assert abs(result.objective - 1.0) <= 1e-9
    assert abs(result.x.sum() - 1.0) <= 1e-9


def test_free_variable_reaches_negative_optimum():
    # minimize x (as max -x) with x >= -4 enforced through a row
    result = simplex_solve(LinearProgram(
        objective=[-1.0], row_coeffs=[[1.0]], row_lower=[-4.0],
        row_upper=[np.inf], nonnegative=[False]))
    assert result.status == OPTIMAL
    np.testing.assert_allclose(result.x, [-4.0], atol=1e-9)


def test_no_rows_zero_objective_is_trivially_optimal():
    result = simplex_solve(LinearProgram(
        objective=[0.0, 0.0], row_coeffs=np.zeros((0, 2)),
        row_lower=np.zeros(0), row_upper=np.zeros(0),
        nonnegative=[True, False]))
    assert result.status == OPTIMAL
    assert result.objective == 0.0


def test_no_rows_positive_gain_is_unbounded():
    result = simplex_solve(LinearProgram(
        objective=[1.0], row_coeffs=np.zeros((0, 1)),
        row_lower=np.zeros(0), row_upper=np.zeros(0), nonnegative=[True]))
    assert result.status == UNBOUNDED


def test_crossed_bounds_are_infeasible():
    result = simplex_solve(LinearProgram(
        objective=[1.0], row_coeffs=[[1.0]], row_lower=[2.0],
        row_upper=[1.0], nonnegative=[True]))
    assert result.status == INFEASIBLE


def test_degenerate_redundant_equalities():
    result = simplex_solve(LinearProgram(
        objective=[1.0, 2.0],
        row_coeffs=[[1.0, 1.0], [2.0, 2.0], [1.0, 0.0]],
        row_lower=[1.0, 2.0, -np.inf],
        row_upper=[1.0, 2.0, 0.75],
        nonnegative=[True, True]))
    assert result.status == OPTIMAL
    # all weight on x2 maximizes 2 x2 under x1 + x2 = 1
    assert abs(result.objective - 2.0) <= 1e-9


def test_matches_vertex_enumeration_on_random_programs():
    rng = np.random.default_rng(40)
    worst = 0.0
    for trial in range(200):
        n, max_extra = LP_SIZES[trial % len(LP_SIZES)]
        lp = boxed_random_lp(rng, n, int(rng.integers(0, max_extra + 1)))
        expected = vertex_enumeration_optimum(lp)
        result = simplex_solve(lp)
        assert expected is not None, "oracle lost the constructed optimum"
        assert result.status == OPTIMAL, f"trial {trial}: {result.status}"
        worst = max(worst, abs(result.objective - expected))
    assert worst <= 1e-7


def capability_lp(problem):
    """The scalar capability program posed for the general solver."""
    return LinearProgram(
        objective=[1.0],
        row_coeffs=problem.jt_hd.reshape(-1, 1),
        row_lower=-problem.tau_max - problem.tau_prime,
        row_upper=problem.tau_max - problem.tau_prime,
        nonnegative=[True])


def test_cross_check_against_analytic_scalar_solver():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        problem = CapabilityProblem(
            jt_hd=np.where(rng.random(n) < 0.15, 0.0, rng.normal(size=n)),
            tau_prime=rng.uniform(-0.9, 0.9, n),
            tau_max=rng.uniform(0.5, 2.0, n),
        )
        analytic = capability_scalar(problem)
        result = simplex_solve(capability_lp(problem))
        if analytic.flag == FLAG_INFEASIBLE:
            assert result.status == INFEASIBLE
        elif analytic.flag == FLAG_UNBOUNDED:
            assert result.status == UNBOUNDED
        else:
            assert result.status == OPTIMAL
            assert abs(result.objective - analytic.k) <= 1e-9


def test_rejects_malformed_programs():
    with pytest.raises(ValueError):
        LinearProgram(objective=[1.0, 2.0], row_coeffs=[[1.0]],
                      row_lower=[0.0], row_upper=[1.0], nonnegative=[True])
    with pytest.raises(ValueError):
        LinearProgram(objective=[np.inf], row_coeffs=[[1.0]],
                      row_lower=[0.0], row_upper=[1.0], nonnegative=[True])
    with pytest.raises(ValueError):
        LinearProgram(objective=[1.0], row_coeffs=[[1.0]],
                      row_lower=[np.nan], row_upper=[1.0], nonnegative=[True])


@pytest.mark.parametrize("lower, upper", [
    ([np.inf], [np.inf]), ([-np.inf], [-np.inf]),
    ([0.0, np.inf], [1.0, np.inf]), ([-np.inf, 0.0], [-np.inf, 1.0])])
def test_row_no_finite_value_satisfies_is_infeasible(lower, upper):
    count = len(lower)
    result = simplex_solve(LinearProgram(
        objective=[-1.0], row_coeffs=np.ones((count, 1)), row_lower=lower,
        row_upper=upper, nonnegative=[True]))
    assert result.status == INFEASIBLE
    assert result.x is None


def assert_same_result(actual, expected):
    """Equal status, and x and objective equal in value and sign bit."""
    assert actual.status == expected.status
    if expected.x is None:
        assert actual.x is None and actual.objective is None
        return
    assert np.array_equal(actual.x, expected.x)
    assert np.array_equal(np.signbit(actual.x), np.signbit(expected.x))
    assert actual.objective == expected.objective
    assert np.signbit(actual.objective) == np.signbit(expected.objective)


def random_program(rng):
    """A small program mixing every row kind, with ties and redundancy.

    Coefficients and bounds are rounded so that degenerate vertices, ratio
    ties and exactly cancelling rows occur; bounds straddle zero, so some
    rows need sign normalization.  A scaled copy of an earlier row makes a
    redundant row that phase 1 must drop when it is an equality.
    """
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 8))
    coeffs = rng.normal(size=(m, n)).round(int(rng.integers(0, 3)))
    lower = rng.normal(size=m).round(1)
    upper = lower + np.abs(rng.normal(size=m)).round(1)
    kind = rng.integers(0, 5, m)  # lower-only, upper-only, equality, ...
    lower[kind == 0] = -np.inf
    upper[kind == 1] = np.inf
    upper[kind == 2] = lower[kind == 2]
    if m > 1 and rng.random() < 0.4:
        coeffs[-1], lower[-1], upper[-1] = 2.0 * coeffs[0], 2.0 * lower[0], \
            2.0 * upper[0]
    return LinearProgram(
        objective=rng.normal(size=n).round(1), row_coeffs=coeffs,
        row_lower=lower, row_upper=upper, nonnegative=rng.random(n) < 0.5)


def test_matches_frozen_reference_bit_for_bit():
    rng = np.random.default_rng(42)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(1500):
        lp = random_program(rng)
        result = simplex_solve(lp)
        assert_same_result(result, reference_simplex_solve(lp))
        seen[result.status] += 1
    assert min(seen.values()) >= 100, seen


def test_matches_frozen_reference_on_redundant_equalities():
    """Duplicated equality rows leave an artificial that phase 1 drops."""
    rng = np.random.default_rng(43)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        x0 = rng.uniform(0.0, 2.0, n).round(1)
        base = rng.integers(-3, 4, size=(2, n)).astype(float)
        coeffs = np.vstack([base, 2.0 * base, -base[:1], np.eye(n)])
        rhs = coeffs[:5] @ x0
        lp = LinearProgram(
            objective=rng.normal(size=n).round(1), row_coeffs=coeffs,
            row_lower=np.concatenate([rhs, np.full(n, -3.0)]),
            row_upper=np.concatenate([rhs, np.full(n, 3.0)]),
            nonnegative=rng.random(n) < 0.7)
        result = simplex_solve(lp)
        assert result.status == OPTIMAL
        assert_same_result(result, reference_simplex_solve(lp))
