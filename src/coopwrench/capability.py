"""Wrench-task capability of individual manipulators and the whole group.

A manipulator's capability scalar is the largest multiple of the desired
object wrench it can carry on top of its own dynamic load without violating
any joint torque limit.  Because the scale enters every torque constraint
affinely, each constraint row admits it to an interval and the maximization
is an exact interval intersection, no iterative solver involved.  Group
capability sums the per-manipulator scalars.  The joint mode additionally
optimizes how the compensating moment is split: each arm's capability is a
concave, piecewise-linear function of the moment it takes, so the best
split is a separable concave allocation, solved exactly by a sweep over
the functions' pieces in order of falling slope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import (DEFAULT_UNBOUNDED_CAP, ScenarioValidationError, _freeze,
                     _real, _set)

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
        if n == 0:
            raise ScenarioValidationError("a problem needs at least one joint")
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
    k, infeasible, capped = _scalar(problem.jt_hd, problem.tau_prime + moment,
                                    problem.tau_max, unbounded_cap)
    return ScalarCapability(float(k), FLAG_INFEASIBLE if infeasible else
                            FLAG_UNBOUNDED if capped else None)


def _scalar(jt_hd, offset, tau_max, cap):
    """capability_scalar over stacked rows (..., n): k, infeasible, capped."""
    fixed = jt_hd == 0.0
    a = np.where(fixed, 1.0, jt_hd)
    lo, hi = (-tau_max - offset) / a, (tau_max - offset) / a
    lower = np.where(fixed, -np.inf, np.minimum(lo, hi)).max(axis=-1)
    upper = np.where(fixed, np.inf, np.maximum(lo, hi)).min(axis=-1)
    infeasible = (fixed & (np.abs(offset) > tau_max)).any(axis=-1) \
        | (upper < np.maximum(lower, 0.0))
    capped = ~infeasible & (upper > cap)
    return (np.where(infeasible, 0.0, np.where(capped, cap, upper)),
            infeasible, capped)


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


# How far the joint sweep lets the moment pass the sum of the arms' domain
# ends, or two parallel torque rows' bands miss each other, and still call
# the program feasible: rounding in sums of ends of up to 1e6 in size.
_FEASIBILITY_TOL = 1e-9


def _meet(first, second):
    """Where two lines (bound, a, slope) of unequal slope cross, as (mu, k).

    A line with a != 0 is a torque row's edge mu + a * k = bound, of slope
    -1 / a in the (mu, k) plane; with a == 0 it is k = bound.  k is solved
    first, not read off a line at mu, so it stays accurate where a line is
    nearly vertical (a tiny jt_hd entry).
    """
    b1, a1, _ = first
    b2, a2, _ = second
    if a1 == 0.0:
        return b2 - a2 * b1, b1
    if a2 == 0.0:
        return b1 - a1 * b2, b2
    k = (b1 - b2) / (a1 - a2)
    return b1 - a1 * k, k


def _value(line, mu):
    bound, a, _ = line
    return bound if a == 0.0 else (bound - mu) / a


class _Profile(NamedTuple):
    """k(mu) on [low, high]: k(low), then pieces (slope, end, k(end), line)
    in order of falling slope, the last ending at high."""

    low: float
    high: float
    k_low: float
    pieces: list


def _arm_profile(jt_hd, tau_prime, tau_max, cap):
    """One arm's capability k(mu) as a function of the moment mu it takes.

    Each torque row with a nonzero jt_hd entry a holds (mu, k) between two
    parallel lines mu + a * k = bound, and k lies in [0, cap].  k(mu) is the
    least upper line, on the interval of moments where no lower line
    exceeds it and every a == 0 row holds.  Returns its _Profile, or None
    when the interval is empty.
    """
    ends = [[-math.inf, None], [math.inf, None]]  # (mu, k) at low, high
    lowers, uppers = [(0.0, 0.0, 0.0)], [(float(cap), 0.0, 0.0)]
    for a, prime, tau in zip(jt_hd.tolist(), tau_prime.tolist(),
                             tau_max.tolist()):
        below, above = -tau - prime, tau - prime
        if a == 0.0:
            if below > ends[0][0]:
                ends[0] = [below, None]
            if above < ends[1][0]:
                ends[1] = [above, None]
        elif a > 0.0:
            lowers.append((below, a, -1.0 / a))
            uppers.append((above, a, -1.0 / a))
        else:
            lowers.append((above, a, -1.0 / a))
            uppers.append((below, a, -1.0 / a))
    for lower in lowers:
        for upper in uppers:
            if lower[2] == upper[2]:
                if lower[1] != 0.0 and (lower[0] - upper[0]) / lower[1] \
                        > _FEASIBILITY_TOL:
                    return None  # parallel rows whose bands never overlap
                continue
            mu, k = _meet(lower, upper)
            if lower[2] > upper[2]:
                if mu < ends[1][0]:
                    ends[1] = [mu, k]
            elif mu > ends[0][0]:
                ends[0] = [mu, k]
    (low, k_low), (high, k_high) = ends
    if low > high + _FEASIBILITY_TOL:
        return None
    high = max(low, high)
    # the least upper line from mu = -inf on: the steepest rising one, then
    # at each crossing the next line of smaller slope
    line = min(uppers, key=lambda ln: (-ln[2], _value(ln, 0.0)))
    pieces = []
    while True:
        following, end, k_end = None, math.inf, None
        for other in uppers:
            if other[2] < line[2]:
                mu, k = _meet(line, other)
                if following is None or mu < end or (
                        mu == end and other[2] < following[2]):
                    following, end, k_end = other, mu, k
        if k_low is None and end > low:
            k_low = _value(line, low)
        if end >= high:
            if k_high is None:
                k_high = _value(line, high)
            if high > low:
                pieces.append((line[2], high, k_high, line))
            return _Profile(low, high, k_low, pieces)
        if end > low and (not pieces or end > pieces[-1][1]):
            pieces.append((line[2], end, k_end, line))
        line = following


def group_capability_joint(problems, moment, *,
                           unbounded_cap=DEFAULT_UNBOUNDED_CAP):
    """Group capability co-optimizing the compensation split.

    Maximizes the summed scale over every manipulator's scale k_i >= 0 and
    free shares alpha_i summing to 1, where arm i carries alpha_i * moment
    at each of its joints.  With mu_i = alpha_i * moment this is
    max sum k_i(mu_i) subject to sum mu_i = moment, where each k_i(mu) is
    concave and piecewise linear; a sweep that hands the moment out in
    pieces of falling slope solves it exactly (the equal-marginal rule:
    at the optimum one slope lies between every arm's left and right
    slopes).  Every mu_i ends on a breakpoint of its profile except that of
    one marginal arm, which takes the rest of the moment.  At moment 0
    every mu_i is 0, so each k_i is the scalar solve and alpha is
    (1, 0, ..., 0).  Scales stop at the documented ceiling, with a flag.
    moment must be a finite real number and unbounded_cap positive and
    finite (ValueError otherwise).
    """
    moment = _check_moment(moment)
    _check_cap(unbounded_cap)
    return _joint([(p.jt_hd, p.tau_prime, p.tau_max) for p in problems],
                  moment, unbounded_cap)


def _joint(arms, moment, unbounded_cap):
    """The joint solve on (jt_hd, tau_prime, tau_max) per arm, unchecked."""
    count = len(arms)
    infeasible = GroupCapability(np.zeros(count), None,
                                 frozenset({FLAG_INFEASIBLE}))
    if count == 0:
        return infeasible
    if moment == 0.0:
        solves = [_scalar(*arm, unbounded_cap) for arm in arms]
        if any(solve[1] for solve in solves):
            return infeasible
        k = [float(solve[0]) for solve in solves]
        alpha = np.zeros(count)
        alpha[0] = 1.0
    else:
        profiles = [_arm_profile(*arm, unbounded_cap) for arm in arms]
        if None in profiles:
            return infeasible
        mu = [profile.low for profile in profiles]
        k = [profile.k_low for profile in profiles]
        remaining = moment - math.fsum(mu)
        if remaining < -_FEASIBILITY_TOL or moment > math.fsum(
                profile.high for profile in profiles) + _FEASIBILITY_TOL:
            return infeasible
        marginal, inside = 0, None
        for _, arm, end, k_end, line in sorted(
                (-slope, arm, end, k_end, line)
                for arm, profile in enumerate(profiles)
                for slope, end, k_end, line in profile.pieces):
            if remaining <= 0.0:
                break
            marginal = arm
            step = end - mu[arm]
            if step > remaining:
                inside = (line, k[arm], k_end)
                break
            mu[arm], k[arm] = end, k_end
            remaining -= step
        # the marginal arm takes the rest of the moment, summed exactly
        mu[marginal] = 0.0
        mu[marginal] = moment - math.fsum(mu)
        if inside is not None:
            line, k_start, k_end = inside
            k[marginal] = min(max(_value(line, mu[marginal]),
                                  min(k_start, k_end)), max(k_start, k_end))
        # the share of least size absorbs the rounding, so the shares sum
        # to 1 as closely as floats allow even beside shares of 1e7
        alpha = [m / moment for m in mu]
        least = min(range(count), key=lambda arm: abs(alpha[arm]))
        alpha[least] = 0.0
        alpha[least] = 1.0 - math.fsum(alpha)
        alpha = np.array(alpha)
        k = np.clip(k, 0.0, unbounded_cap)
    k = np.array(k)
    capped = np.any(k >= unbounded_cap * (1.0 - 1e-9))
    return GroupCapability(k, alpha,
                           frozenset({FLAG_UNBOUNDED} if capped else ()))
