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

from .config import (DEFAULT_UNBOUNDED_CAP, ScenarioValidationError, _freeze,
                     _set)
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
    spent carrying the chain itself.
    """

    jt_hd: np.ndarray
    jt_hdelta: np.ndarray
    tau_prime: np.ndarray
    tau_max: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.jt_hd).size
        for name in ("jt_hd", "jt_hdelta", "tau_prime", "tau_max"):
            _set(self, name, _freeze(getattr(self, name), (n,), name))
        if np.any(self.tau_max <= 0.0):
            raise ScenarioValidationError("tau_max must be strictly positive")

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
        optional = () if self.alpha is None else ("alpha",)
        for name in ("k", "beta", "t_delta", *optional):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            _set(self, name, arr)
        _set(self, "flags", frozenset(self.flags))


class ScalarCapability(NamedTuple):
    k: float
    flag: str | None


def capability_scalar(problem, *, alpha_i=0.0,
                      unbounded_cap=DEFAULT_UNBOUNDED_CAP):
    """Largest feasible multiple of the desired wrench for one manipulator.

    Solves max k >= 0 subject to |offset + k * jt_hd| <= tau_max per joint,
    where the offset is tau_prime plus this manipulator's alpha share of the
    compensating wrench torque image (alpha_i = 0 is the baseline, bit for
    bit, since the problem's arrays are finite).
    Rows whose jt_hd entry is zero cannot bound k; they only gate
    feasibility.  If no row bounds k from above the documented cap is
    returned with a flag, as it also is when a finite bound exceeds the cap.
    """
    offset = problem.tau_prime + alpha_i * problem.jt_hdelta
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


def feasible_wrench_check(problem, k):
    """Whether k times the desired wrench keeps every joint in its limit."""
    load = problem.tau_prime + k * problem.jt_hd
    return bool(np.all(np.abs(load) <= problem.tau_max))


def group_capability(problems, weights, *, time=0.0, t_delta=None,
                     unbounded_cap=DEFAULT_UNBOUNDED_CAP):
    """Fixed-alpha group capability K1 from per-manipulator scalar solves.

    Each manipulator is offset by its alpha share of the compensating
    wrench; the summed scalar is K1.
    """
    if weights.alpha is None:
        raise ValueError("fixed-alpha group capability requires alpha weights")
    k = np.empty(len(problems))
    flags = set()
    for i, (problem, alpha_i) in enumerate(zip(problems, weights.alpha)):
        k[i], flag = capability_scalar(problem, alpha_i=float(alpha_i),
                                       unbounded_cap=unbounded_cap)
        if flag is not None:
            flags.add(flag)
    if t_delta is None:
        t_delta = np.zeros(3)
    return CapabilitySample(
        time=time, k=k, K0=None, K1=float(np.sum(k)), beta=weights.beta,
        alpha=weights.alpha, t_delta=t_delta, flags=frozenset(flags))


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
