"""Checks of the tests' simplex oracle against brute-force vertex enumeration.

``oracles.reference_simplex_solve`` is the one simplex in the project; the
package solves its joint program with a breakpoint sweep.  The enumeration
converts each program to pure inequality form D x <= d (upper rows, negated
lower rows, sign rows for non-negative variables), solves every n-subset of
rows that holds each equality row for a candidate vertex, keeps the
feasible ones, and takes the best objective.  Test programs embed box rows so the feasible set is a bounded
polytope with all optima at vertices.
"""
import numpy as np
import pytest

from coopwrench import capability_scalar
from coopwrench.capability import CapabilityProblem, FLAG_INFEASIBLE, \
    FLAG_UNBOUNDED
from oracles import (INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram,
                     reference_simplex_solve, vertex_enumeration_optimum)

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
    result = reference_simplex_solve(LinearProgram(
        objective=[1.0], row_coeffs=[[1.0]], row_lower=[-np.inf],
        row_upper=[3.0], nonnegative=[True]))
    assert result.status == OPTIMAL
    assert abs(result.objective - 3.0) <= 1e-12
    np.testing.assert_allclose(result.x, [3.0], atol=1e-12)


def test_infeasible_interval():
    result = reference_simplex_solve(LinearProgram(
        objective=[1.0], row_coeffs=[[1.0], [1.0]], row_lower=[2.0, -np.inf],
        row_upper=[np.inf, 1.0], nonnegative=[True]))
    assert result.status == INFEASIBLE


def test_unbounded_ray():
    result = reference_simplex_solve(LinearProgram(
        objective=[1.0], row_coeffs=[[1.0]], row_lower=[2.0],
        row_upper=[np.inf], nonnegative=[False]))
    assert result.status == UNBOUNDED


def test_equality_row_with_free_variables():
    result = reference_simplex_solve(LinearProgram(
        objective=[1.0, 1.0], row_coeffs=[[1.0, 1.0]], row_lower=[1.0],
        row_upper=[1.0], nonnegative=[False, False]))
    assert result.status == OPTIMAL
    assert abs(result.objective - 1.0) <= 1e-9
    assert abs(result.x.sum() - 1.0) <= 1e-9


def test_free_variable_reaches_negative_optimum():
    # minimize x (as max -x) with x >= -4 enforced through a row
    result = reference_simplex_solve(LinearProgram(
        objective=[-1.0], row_coeffs=[[1.0]], row_lower=[-4.0],
        row_upper=[np.inf], nonnegative=[False]))
    assert result.status == OPTIMAL
    np.testing.assert_allclose(result.x, [-4.0], atol=1e-9)


def test_no_rows_zero_objective_is_trivially_optimal():
    result = reference_simplex_solve(LinearProgram(
        objective=[0.0, 0.0], row_coeffs=np.zeros((0, 2)),
        row_lower=np.zeros(0), row_upper=np.zeros(0),
        nonnegative=[True, False]))
    assert result.status == OPTIMAL
    assert result.objective == 0.0


def test_no_rows_positive_gain_is_unbounded():
    result = reference_simplex_solve(LinearProgram(
        objective=[1.0], row_coeffs=np.zeros((0, 1)),
        row_lower=np.zeros(0), row_upper=np.zeros(0), nonnegative=[True]))
    assert result.status == UNBOUNDED


def test_crossed_bounds_are_infeasible():
    result = reference_simplex_solve(LinearProgram(
        objective=[1.0], row_coeffs=[[1.0]], row_lower=[2.0],
        row_upper=[1.0], nonnegative=[True]))
    assert result.status == INFEASIBLE


def test_degenerate_redundant_equalities():
    result = reference_simplex_solve(LinearProgram(
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
        result = reference_simplex_solve(lp)
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
        result = reference_simplex_solve(capability_lp(problem))
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
