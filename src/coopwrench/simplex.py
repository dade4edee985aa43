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

    Bounds may be -inf/+inf; a row with equal finite bounds is an equality.
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
        if not np.all(np.isfinite(self.objective)):
            raise ValueError("objective must be finite")
        if not np.all(np.isfinite(self.row_coeffs)):
            raise ValueError("row coefficients must be finite")
        if np.any(np.isnan(self.row_lower)) or np.any(np.isnan(self.row_upper)):
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
    T -= np.outer(factors, T[row])
    basis[row] = col


def _iterate(T, basis, cost):
    """Run simplex iterations for one phase; returns 'optimal'/'unbounded'."""
    for iteration in range(_MAX_ITER):
        reduced = cost[basis] @ T[:, :-1] - cost
        candidates = (reduced < -_COST_TOL).nonzero()[0]
        if candidates.size == 0:
            return OPTIMAL
        if iteration < _BLAND_AFTER:
            col = candidates[int(reduced[candidates].argmin())]
        else:
            col = candidates[0]
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
    # split free variables into differences of non-negative parts
    pos_col = np.arange(n)
    free = ~lp.nonnegative
    neg_col = np.full(n, -1)
    neg_col[free] = n + np.arange(int(free.sum()))
    n_std = n + int(free.sum())

    def widen(vec):
        wide = np.zeros(n_std)
        wide[pos_col] = vec
        wide[neg_col[free]] = -vec[free]
        return wide

    cost = widen(lp.objective)

    rows = []          # (coeffs in standard vars, rhs, is_equality)
    for a, lo, up in zip(lp.row_coeffs, lp.row_lower, lp.row_upper):
        if lo > up:
            return SimplexResult(INFEASIBLE)
        wide = widen(a)
        if np.isfinite(lo) and lo == up:
            rows.append((wide, lo, True))
            continue
        if np.isfinite(up):
            rows.append((wide, up, False))
        if np.isfinite(lo):
            rows.append((-wide, -lo, False))
    m = len(rows)
    if m == 0:
        # only the sign restrictions remain; bounded iff no free/positive gain
        gain = (lp.objective[lp.nonnegative] > _COST_TOL).any() or \
            (lp.objective[free] != 0.0).any()
        if gain:
            return SimplexResult(UNBOUNDED)
        x = np.zeros(n)
        return SimplexResult(OPTIMAL, x, 0.0)

    n_slack = sum(1 for _, _, eq in rows if not eq)
    A = np.zeros((m, n_std + n_slack))
    b = np.zeros(m)
    slack_at = n_std
    slack_cols = np.full(m, -1)
    for i, (wide, rhs, eq) in enumerate(rows):
        A[i, :n_std] = wide
        b[i] = rhs
        if not eq:
            A[i, slack_at] = 1.0
            slack_cols[i] = slack_at
            slack_at += 1
    negate = b < 0.0
    A[negate] *= -1.0
    b[negate] = -b[negate]

    # rows whose slack survived sign-normalization start as the basis;
    # all others receive an artificial variable
    needs_artificial = np.flatnonzero(negate | (slack_cols < 0))
    n_real = A.shape[1]
    T = np.zeros((m, n_real + needs_artificial.size + 1))
    T[:, :n_real] = A
    T[:, -1] = b
    basis = np.full(m, -1)
    for i in range(m):
        if slack_cols[i] >= 0 and not negate[i]:
            basis[i] = slack_cols[i]
    art_cost = np.zeros(n_real + needs_artificial.size)
    for offset, i in enumerate(needs_artificial):
        col = n_real + offset
        T[i, col] = 1.0
        basis[i] = col
        art_cost[col] = -1.0

    if needs_artificial.size:
        status = _iterate(T, basis, art_cost)
        assert status == OPTIMAL  # phase-1 objective is bounded by zero
        if art_cost[basis] @ T[:, -1] < -_FEAS_TOL:
            return SimplexResult(INFEASIBLE)
        # pivot lingering artificials out, dropping redundant rows
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= n_real:
                pivots = np.flatnonzero(np.abs(T[i, :n_real]) > _PIVOT_TOL)
                if pivots.size:
                    _pivot(T, basis, i, pivots[0])
                else:
                    keep[i] = False
        T = T[keep][:, list(range(n_real)) + [-1]]
        basis = basis[keep]

    full_cost = np.zeros(T.shape[1] - 1)
    full_cost[:n_std] = cost[:n_std]
    status = _iterate(T, basis, full_cost)
    if status != OPTIMAL:
        return SimplexResult(UNBOUNDED)

    solution = np.zeros(T.shape[1] - 1)
    solution[basis] = T[:, -1]
    x = solution[pos_col].copy()
    x[free] -= solution[neg_col[free]]
    return SimplexResult(OPTIMAL, x, float(lp.objective @ x))
