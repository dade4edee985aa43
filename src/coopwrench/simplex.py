"""Dense two-phase simplex solver for small linear programs.

Problems are stated as: maximize objective @ x subject to elementwise
row_lower <= row_coeffs @ x <= row_upper, with each variable either
non-negative or free.  Free variables are split into positive parts, rows
are rewritten as equalities with slacks, and infeasibility is detected by a
phase-1 artificial objective.  Pivoting is Dantzig's rule with lowest-index
tie-breaking, switching to Bland's rule after a fixed iteration budget so
the solver cannot cycle; both rules are deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PIVOT_TOL = 1e-10
_COST_TOL = 1e-9
_FEAS_TOL = 1e-8
_BLAND_AFTER = 2000
_MAX_ITER = 50000

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize objective @ x  s.t.  row_lower <= row_coeffs @ x <= row_upper.

    Bounds may be -inf/+inf; a row with equal finite bounds is an equality,
    and one with row_lower = +inf or row_upper = -inf cannot be satisfied.
    nonnegative[j] False marks variable j as free.
    """

    objective: np.ndarray
    row_coeffs: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    nonnegative: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "objective",
                           np.asarray(self.objective, dtype=float))
        object.__setattr__(self, "row_coeffs",
                           np.atleast_2d(np.asarray(self.row_coeffs,
                                                    dtype=float)))
        object.__setattr__(self, "row_lower",
                           np.asarray(self.row_lower, dtype=float))
        object.__setattr__(self, "row_upper",
                           np.asarray(self.row_upper, dtype=float))
        object.__setattr__(self, "nonnegative",
                           np.asarray(self.nonnegative, dtype=bool))
        m, n = self.row_coeffs.shape
        if self.objective.shape != (n,) or self.nonnegative.shape != (n,):
            raise ValueError("objective/nonnegative length must match columns")
        if self.row_lower.shape != (m,) or self.row_upper.shape != (m,):
            raise ValueError("row bound length must match row count")
        if not np.isfinite(self.objective).all():
            raise ValueError("objective must be finite")
        if not np.isfinite(self.row_coeffs).all():
            raise ValueError("row coefficients must be finite")
        if np.isnan(self.row_lower).any() or np.isnan(self.row_upper).any():
            raise ValueError("row bounds must not be NaN")


@dataclass(frozen=True, eq=False)
class SimplexResult:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None


def _pivot(T, basis, row, col):
    T[row] = T[row] / T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * T[row]
    basis[row] = col


def _iterate(T, basis, cost):
    """Run simplex iterations for one phase; returns 'optimal'/'unbounded'."""
    for iteration in range(_MAX_ITER):
        reduced = cost[basis] @ T[:, :-1] - cost
        # Dantzig: the first most negative reduced cost; Bland: the first
        # negative one
        col = reduced.argmin()
        if not reduced[col] < -_COST_TOL:
            return OPTIMAL
        if iteration >= _BLAND_AFTER:
            col = (reduced < -_COST_TOL).argmax()
        coeffs = T[:, col]
        rows = (coeffs > _PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return UNBOUNDED
        ratios = np.maximum(T[rows, -1], 0.0) / coeffs[rows]
        best = ratios.min()
        ties = rows[(ratios <= best + _PIVOT_TOL).nonzero()[0]]
        row = ties[int(basis[ties].argmin())]
        _pivot(T, basis, row, col)
    raise RuntimeError("simplex iteration limit exceeded")


def simplex_solve(lp):
    """Solve a LinearProgram; status is optimal, infeasible, or unbounded."""
    n = lp.objective.size
    lo, up = lp.row_lower, lp.row_upper
    # crossed bounds, or a side no finite row value can meet
    if ((lo > up) | (lo == np.inf) | (up == -np.inf)).any():
        return SimplexResult(INFEASIBLE)
    # split free variables into differences of non-negative parts
    free_at = (~lp.nonnegative).nonzero()[0]
    n_std = n + free_at.size
    cost = np.concatenate([lp.objective, -lp.objective[free_at]])

    # each source row gives its upper (or equality) row, then its lower
    # row, in source order; an infinite side gives none
    eq = np.isfinite(lo) & (lo == up)
    expand = np.column_stack([eq | np.isfinite(up),
                              ~eq & np.isfinite(lo)]).ravel()
    source, side = np.divmod(expand.nonzero()[0], 2)
    m = source.size
    if m == 0:
        # only the sign restrictions remain; bounded iff no free/positive gain
        gain = (lp.objective[lp.nonnegative] > _COST_TOL).any() or \
            (lp.objective[free_at] != 0.0).any()
        if gain:
            return SimplexResult(UNBOUNDED)
        x = np.zeros(n)
        return SimplexResult(OPTIMAL, x, 0.0)

    b = np.column_stack([np.where(eq, lo, up), -lo]).ravel()[expand]
    negate = b < 0.0
    b[negate] = -b[negate]
    slack = ~eq[source]
    basis = np.full(m, -1)
    basis[slack] = n_std + np.arange(int(slack.sum()))
    n_real = n_std + int(slack.sum())
    # rows whose slack survived sign-normalization start as the basis;
    # all others receive an artificial variable
    needs_artificial = np.flatnonzero(negate | ~slack)
    art_cols = n_real + np.arange(needs_artificial.size)
    T = np.zeros((m, n_real + needs_artificial.size + 1))
    coeffs = lp.row_coeffs[source]
    T[:, :n] = coeffs
    T[:, n:n_std] = -coeffs[:, free_at]
    T[side == 1, :n_std] *= -1.0  # a lower row is its negated upper row
    T[slack, basis[slack]] = 1.0
    T[negate, :n_real] *= -1.0
    T[:, -1] = b
    T[needs_artificial, art_cols] = 1.0
    basis[needs_artificial] = art_cols
    art_cost = np.zeros(T.shape[1] - 1)
    art_cost[n_real:] = -1.0

    if needs_artificial.size:
        status = _iterate(T, basis, art_cost)
        assert status == OPTIMAL  # phase-1 objective is bounded by zero
        if art_cost[basis] @ T[:, -1] < -_FEAS_TOL:
            return SimplexResult(INFEASIBLE)
        # pivot lingering artificials out, dropping redundant rows
        keep = np.ones(m, dtype=bool)
        for i in (basis >= n_real).nonzero()[0]:
            pivots = np.flatnonzero(np.abs(T[i, :n_real]) > _PIVOT_TOL)
            if pivots.size:
                _pivot(T, basis, i, pivots[0])
            else:
                keep[i] = False
        T = T[keep][:, list(range(n_real)) + [-1]]
        basis = basis[keep]

    full_cost = np.zeros(T.shape[1] - 1)
    full_cost[:n_std] = cost
    status = _iterate(T, basis, full_cost)
    if status != OPTIMAL:
        return SimplexResult(UNBOUNDED)

    solution = np.zeros(T.shape[1] - 1)
    solution[basis] = T[:, -1]
    x = solution[:n].copy()
    x[free_at] -= solution[n:n_std]
    return SimplexResult(OPTIMAL, x, float(lp.objective @ x))
