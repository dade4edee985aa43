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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import (DEFAULT_UNBOUNDED_CAP, ScenarioValidationError, _freeze,
                     _real, _set)
from .simplex import INFEASIBLE, LinearProgram, OPTIMAL, simplex_solve

FLAG_INFEASIBLE = "infeasible"
FLAG_UNBOUNDED = "capability-unbounded"
FLAG_SINGULAR = "singular-damped"
FLAG_VELOCITY = "velocity-limit"


@dataclass(frozen=True, eq=False)
class CapabilityProblem:
    """Per-manipulator torque picture for one time step.

    jt_hd is the joint-torque image of the desired object wrench, tau_prime
    the torques already spent carrying the chain itself.  The compensating
    wrench [0; m] needs no field: every joint turns about JOINT_AXIS, so
    jacobian(arm, q).T @ [0; m] is JOINT_AXIS @ m, the solves' ``moment``.
    """

    jt_hd: np.ndarray
    tau_prime: np.ndarray
    tau_max: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.jt_hd).size
        for name in ("jt_hd", "tau_prime", "tau_max"):
            _set(self, name, _freeze(getattr(self, name), (n,), name))
        if (self.tau_max <= 0.0).any():
            raise ScenarioValidationError("tau_max must be strictly positive")

    @property
    def joint_count(self):
        return self.jt_hd.size


@dataclass(frozen=True, eq=False)
class CapabilitySample:
    """Capability of the group at one instant, plus how it was allocated."""

    time: float
    k: np.ndarray
    K0: float
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


def _check_cap(unbounded_cap):
    if not 0.0 < unbounded_cap < np.inf:
        raise ValueError("unbounded_cap must be positive and finite, "
                         f"got {unbounded_cap!r}")


def _check_moment(moment):
    value = _real(moment)
    if not math.isfinite(value):
        raise ValueError(
            f"moment must be a finite real number, got {moment!r}")
    return value


class ScalarCapability(NamedTuple):
    k: float
    flag: str | None


def capability_scalar(problem, *, moment=0.0,
                      unbounded_cap=DEFAULT_UNBOUNDED_CAP):
    """Largest feasible multiple of the desired wrench for one manipulator.

    Solves max k >= 0 subject to |offset + k * jt_hd| <= tau_max per joint,
    where the offset is tau_prime plus ``moment``, this manipulator's share
    of the compensating moment, at every joint (moment = 0 is the baseline).
    Rows whose jt_hd entry is zero cannot bound k; they only gate
    feasibility.  If no row bounds k from above the documented cap is
    returned with a flag, as it also is when a finite bound exceeds the cap.
    moment must be a finite real number and unbounded_cap positive and
    finite (ValueError otherwise).
    """
    moment = _check_moment(moment)
    _check_cap(unbounded_cap)
    offset = problem.tau_prime + moment
    a = problem.jt_hd
    tau = problem.tau_max
    fixed = a == 0.0
    if fixed.any():
        if (np.abs(offset[fixed]) > tau[fixed]).any():
            return ScalarCapability(0.0, FLAG_INFEASIBLE)
        active = ~fixed
        if not active.any():
            return ScalarCapability(float(unbounded_cap), FLAG_UNBOUNDED)
        a, offset, tau = a[active], offset[active], tau[active]
    lo = (-tau - offset) / a
    hi = (tau - offset) / a
    lower = float(max(0.0, np.minimum(lo, hi).max()))
    upper = float(np.maximum(lo, hi).min())
    if upper < lower:
        return ScalarCapability(0.0, FLAG_INFEASIBLE)
    if upper > unbounded_cap:
        return ScalarCapability(float(unbounded_cap), FLAG_UNBOUNDED)
    return ScalarCapability(upper, None)


class GroupCapability(NamedTuple):
    """Per-manipulator scales, the compensation shares used, and flags."""

    k: np.ndarray
    alpha: np.ndarray | None
    flags: frozenset[str]

    @property
    def K1(self):
        return float(np.sum(self.k))


def group_capability(problems, alpha, moment, *,
                     unbounded_cap=DEFAULT_UNBOUNDED_CAP):
    """Fixed-alpha group capability K1 from per-manipulator scalar solves.

    Manipulator i is offset by its share alpha[i] * moment of the
    compensating moment; the summed scalar is K1.  alpha needs one finite
    share per problem, and moment and every alpha[i] * moment must be
    finite (ValueError otherwise).
    """
    moment = _check_moment(moment)
    shares = np.asarray(alpha, dtype=float)
    if not np.isfinite(shares).all():
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    solves = []
    for i, (problem, alpha_i) in enumerate(zip(problems, shares.tolist(),
                                               strict=True)):
        offset = alpha_i * moment
        if not math.isfinite(offset):
            raise ValueError(f"alpha[{i}] * moment must be finite, got "
                             f"{alpha_i!r} * {moment!r}")
        solves.append(capability_scalar(problem, moment=offset,
                                        unbounded_cap=unbounded_cap))
    return GroupCapability(
        np.array([solve.k for solve in solves], dtype=float), shares,
        frozenset(solve.flag for solve in solves if solve.flag is not None))


def group_capability_joint(problems, moment, *,
                           unbounded_cap=DEFAULT_UNBOUNDED_CAP):
    """Group capability co-optimizing the compensation split.

    Decision variables are every manipulator's scale k_i >= 0 and free
    shares alpha_i summing to 1; the objective is the summed scale.  Each
    joint contributes a two-sided torque row, in which alpha_i carries the
    compensating ``moment``.  Explicit caps keep otherwise unbounded scales
    at the documented ceiling instead of an unbounded verdict.
    """
    moment = _check_moment(moment)
    _check_cap(unbounded_cap)
    count = len(problems)
    n_vars = 2 * count
    # a two-sided torque row per joint of every arm, in arm order, then the
    # share row (the alphas sum to 1), then a cap row per scale
    n_torque = sum(problem.joint_count for problem in problems)
    rows = np.zeros((n_torque + 1 + count, n_vars))
    lowers = np.full(n_torque + 1 + count, -np.inf)
    uppers = np.full(n_torque + 1 + count, float(unbounded_cap))
    start = 0
    for i, problem in enumerate(problems):
        torque = slice(start, start + problem.joint_count)
        rows[torque, i] = problem.jt_hd
        rows[torque, count + i] = moment
        lowers[torque] = -problem.tau_max - problem.tau_prime
        uppers[torque] = problem.tau_max - problem.tau_prime
        start = torque.stop
    rows[n_torque, count:] = 1.0
    lowers[n_torque] = uppers[n_torque] = 1.0
    rows[n_torque + 1:, :count] = np.eye(count)
    objective = np.zeros(n_vars)
    objective[:count] = 1.0
    nonneg = np.zeros(n_vars, dtype=bool)
    nonneg[:count] = True

    result = simplex_solve(LinearProgram(
        objective=objective,
        row_coeffs=rows,
        row_lower=lowers,
        row_upper=uppers,
        nonnegative=nonneg,
    ))
    if result.status == INFEASIBLE:
        return GroupCapability(np.zeros(count), None,
                               frozenset({FLAG_INFEASIBLE}))
    if result.status != OPTIMAL:
        raise RuntimeError("joint capability program unexpectedly unbounded")
    k = result.x[:count].copy()
    capped = np.any(k >= unbounded_cap * (1.0 - 1e-9))
    return GroupCapability(k, result.x[count:].copy(),
                           frozenset({FLAG_UNBOUNDED} if capped else ()))
