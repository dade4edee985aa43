"""Wrench-task capability of individual manipulators and the whole group.

A manipulator's capability scalar is the largest multiple of the desired
object wrench it can carry on top of its own dynamic load without violating
any joint torque limit.  Because the scale enters every torque constraint
affinely, each constraint row admits it to an interval and the maximization
is an exact interval intersection, no iterative solver involved.  Group
capability sums the per-manipulator scalars; the joint mode additionally
optimizes how the compensating wrench is split, which requires a genuine
linear program over all manipulators at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_UNBOUNDED_CAP, ScenarioValidationError, _set
from .simplex import INFEASIBLE, LinearProgram, OPTIMAL, simplex_solve

FLAG_INFEASIBLE = "infeasible"
FLAG_UNBOUNDED = "capability-unbounded"
FLAG_SINGULAR = "singular-damped"
FLAG_VELOCITY = "velocity-limit"


@dataclass(frozen=True, eq=False)
class CapabilityProblem:
    """Per-manipulator torque picture for one time step.

    jt_hd and jt_hdelta are the joint-torque images of the desired object
    wrench and of the compensating wrench; tau_prime the torques already
    spent carrying the chain itself.  The optional Jacobian allows checking
    feasibility of arbitrary wrenches after the fact.
    """

    jt_hd: np.ndarray
    jt_hdelta: np.ndarray
    tau_prime: np.ndarray
    tau_max: np.ndarray
    jacobian: np.ndarray | None = None

    def __post_init__(self):
        n = np.asarray(self.jt_hd).size
        for name in ("jt_hd", "jt_hdelta", "tau_prime", "tau_max"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ScenarioValidationError(
                    f"{name} must have {n} entries to match jt_hd")
            if not np.all(np.isfinite(arr)):
                raise ScenarioValidationError(f"{name} must be finite")
            arr = arr.copy()
            arr.flags.writeable = False
            _set(self, name, arr)
        if np.any(self.tau_max <= 0.0):
            raise ScenarioValidationError("tau_max must be strictly positive")
        if self.jacobian is not None:
            jac = np.asarray(self.jacobian, dtype=float)
            if jac.shape != (6, n):
                raise ScenarioValidationError("jacobian must be 6 x n")
            jac = jac.copy()
            jac.flags.writeable = False
            _set(self, "jacobian", jac)

    @property
    def joint_count(self):
        return self.jt_hd.size


@dataclass(frozen=True, eq=False)
class CapabilitySample:
    """Capability of the group at one instant, plus how it was allocated."""

    time: float
    k: np.ndarray
    K0: float | None
    K1: float | None
    beta: np.ndarray
    alpha: np.ndarray | None
    t_delta: np.ndarray
    flags: frozenset[str]

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float).copy()
        k.flags.writeable = False
        _set(self, "k", k)
        beta = np.asarray(self.beta, dtype=float).copy()
        beta.flags.writeable = False
        _set(self, "beta", beta)
        if self.alpha is not None:
            alpha = np.asarray(self.alpha, dtype=float).copy()
            alpha.flags.writeable = False
            _set(self, "alpha", alpha)
        t_delta = np.asarray(self.t_delta, dtype=float).copy()
        t_delta.flags.writeable = False
        _set(self, "t_delta", t_delta)
        _set(self, "flags", frozenset(self.flags))


class ScalarCapability(NamedTuple):
    k: float
    flag: str | None


def capability_scalar(problem, use_delta=False, alpha_i=0.0,
                      unbounded_cap=DEFAULT_UNBOUNDED_CAP):
    """Largest feasible multiple of the desired wrench for one manipulator.

    Solves max k >= 0 subject to |offset + k * jt_hd| <= tau_max per joint,
    where the offset is tau_prime plus, when use_delta is set, this
    manipulator's alpha share of the compensating wrench torque image.
    Rows whose jt_hd entry is zero cannot bound k; they only gate
    feasibility.  If no row bounds k from above the documented cap is
    returned with a flag, as it also is when a finite bound exceeds the cap.
    """
    offset = problem.tau_prime
    if use_delta:
        offset = offset + alpha_i * problem.jt_hdelta
    a = problem.jt_hd
    tau = problem.tau_max
    fixed = a == 0.0
    if np.any(np.abs(offset[fixed]) > tau[fixed]):
        return ScalarCapability(0.0, FLAG_INFEASIBLE)
    active = ~fixed
    if not np.any(active):
        return ScalarCapability(float(unbounded_cap), FLAG_UNBOUNDED)
    lo = (-tau[active] - offset[active]) / a[active]
    hi = (tau[active] - offset[active]) / a[active]
    lower = float(max(0.0, np.max(np.minimum(lo, hi))))
    upper = float(np.min(np.maximum(lo, hi)))
    if upper < lower:
        return ScalarCapability(0.0, FLAG_INFEASIBLE)
    if upper > unbounded_cap:
        return ScalarCapability(float(unbounded_cap), FLAG_UNBOUNDED)
    return ScalarCapability(upper, None)


def feasible_wrench_check(problem, wrench, k):
    """Whether scaling a wrench by k keeps every joint within its limit.

    wrench may be None to test the problem's own desired wrench; otherwise
    it is a 6-vector mapped through the stored Jacobian.
    """
    if wrench is None:
        image = problem.jt_hd
    else:
        if problem.jacobian is None:
            raise ValueError("problem carries no jacobian for arbitrary wrenches")
        vec = wrench.as_vector() if hasattr(wrench, "as_vector") \
            else np.asarray(wrench, dtype=float)
        image = problem.jacobian.T @ vec
    load = problem.tau_prime + k * image
    return bool(np.all(np.abs(load) <= problem.tau_max))


def group_capability(problems, mode, weights, *, time=0.0, t_delta=None,
                     unbounded_cap=DEFAULT_UNBOUNDED_CAP):
    """Group capability with per-manipulator scalar solves.

    mode 'baseline' ignores the compensating wrench; 'improved-fixed-alpha'
    offsets each manipulator by its fixed alpha share of it.  The summed
    scalar lands in K0 or K1 accordingly.
    """
    if mode not in ("baseline", "improved-fixed-alpha"):
        raise ValueError(f"unsupported group mode {mode!r}")
    use_delta = mode == "improved-fixed-alpha"
    if use_delta and weights.alpha is None:
        raise ValueError("improved-fixed-alpha mode requires alpha weights")
    k = np.empty(len(problems))
    flags = set()
    for i, problem in enumerate(problems):
        alpha_i = float(weights.alpha[i]) if use_delta else 0.0
        k[i], flag = capability_scalar(problem, use_delta, alpha_i,
                                       unbounded_cap)
        if flag is not None:
            flags.add(flag)
    total = float(np.sum(k))
    if t_delta is None:
        t_delta = np.zeros(3)
    return CapabilitySample(
        time=time,
        k=k,
        K0=None if use_delta else total,
        K1=total if use_delta else None,
        beta=weights.beta,
        alpha=weights.alpha,
        t_delta=t_delta,
        flags=frozenset(flags),
    )


def group_capability_joint(problems, beta, *, time=0.0, t_delta=None,
                           unbounded_cap=DEFAULT_UNBOUNDED_CAP):
    """Group capability co-optimizing the compensation split.

    Decision variables are every manipulator's scale k_i >= 0 and free
    shares alpha_i summing to 1; the objective is the summed scale.  Each
    joint contributes a two-sided torque row.  Explicit caps keep otherwise
    unbounded scales at the documented ceiling instead of an unbounded
    verdict.
    """
    count = len(problems)
    n_vars = 2 * count
    rows = []
    lowers = []
    uppers = []
    for i, problem in enumerate(problems):
        for j in range(problem.joint_count):
            row = np.zeros(n_vars)
            row[i] = problem.jt_hd[j]
            row[count + i] = problem.jt_hdelta[j]
            rows.append(row)
            lowers.append(-problem.tau_max[j] - problem.tau_prime[j])
            uppers.append(problem.tau_max[j] - problem.tau_prime[j])
    share_row = np.zeros(n_vars)
    share_row[count:] = 1.0
    rows.append(share_row)
    lowers.append(1.0)
    uppers.append(1.0)
    for i in range(count):
        cap_row = np.zeros(n_vars)
        cap_row[i] = 1.0
        rows.append(cap_row)
        lowers.append(-np.inf)
        uppers.append(float(unbounded_cap))
    objective = np.zeros(n_vars)
    objective[:count] = 1.0
    nonneg = np.zeros(n_vars, dtype=bool)
    nonneg[:count] = True

    result = simplex_solve(LinearProgram(
        objective=objective,
        row_coeffs=np.array(rows),
        row_lower=np.array(lowers),
        row_upper=np.array(uppers),
        nonnegative=nonneg,
    ))
    if t_delta is None:
        t_delta = np.zeros(3)
    beta = np.asarray(beta, dtype=float)
    if result.status == INFEASIBLE:
        return CapabilitySample(
            time=time, k=np.zeros(count), K0=None, K1=0.0, beta=beta,
            alpha=None, t_delta=t_delta, flags=frozenset({FLAG_INFEASIBLE}))
    if result.status != OPTIMAL:
        raise RuntimeError("joint capability program unexpectedly unbounded")
    k = result.x[:count].copy()
    alpha = result.x[count:].copy()
    flags = set()
    if np.any(k >= unbounded_cap * (1.0 - 1e-9)):
        flags.add(FLAG_UNBOUNDED)
    return CapabilitySample(
        time=time, k=k, K0=None, K1=float(np.sum(k)), beta=beta, alpha=alpha,
        t_delta=t_delta, flags=frozenset(flags))
