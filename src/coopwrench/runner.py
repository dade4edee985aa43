"""Trajectory runner: per-step capability evaluation and result export.

Each time step flows through the same pipeline: object state from the
trajectory, desired object wrench from its dynamics, joint states per
manipulator from closed-form plus differential inverse kinematics, chain
self-load torques from inverse dynamics, then the capability solves for the
configured mode.  The load-share vector comes from the baseline solve, so
every mode computes the baseline series; improved modes add the
counterbalanced series on the identical states.  Steps run serially, in
order, and every pass solves each manipulator once.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .capability import (FLAG_SINGULAR, FLAG_VELOCITY, CapabilityProblem,
                         CapabilitySample, capability_scalar,
                         group_capability, group_capability_joint)
from .config import ObjectState, scenario_dict
from .dynamics import inverse_dynamics, object_desired_wrench
from .grasp import (AllocationWeights, GraspMap, ZeroCapabilityError,
                    allocate_proportional, counterbalance_moment)
from .kinematics import (JointState, differential_ik, ee_accel_from_object,
                         ee_pose_from_object, ee_twist_from_object,
                         ik_planar3r, jacobian, joint_positions)

_BETA_TOL = 1e-6

CSV_FIXED_COLUMNS = ("t", "K0", "K1", "tdelta_y", "flags")


class TrajectoryError(RuntimeError):
    """A step of the trajectory cannot be realized; aborts the run."""

    def __init__(self, step, manipulator_id, target):
        self.step = step
        self.manipulator_id = manipulator_id
        self.target = np.asarray(target, dtype=float)
        super().__init__(
            f"manipulator {manipulator_id} cannot reach "
            f"{self.target.tolist()} at step {step}")


class ExportError(RuntimeError):
    """Result serialization failed; carries the offending path."""


def evaluate_trajectory(spec, t):
    """Object state (pose and derivatives) at time t.

    The orientation is held at identity with zero angular rates for both
    supported trajectory kinds.
    """
    eye = np.eye(3)
    zero = np.zeros(3)
    if spec.kind == "static-hold":
        return ObjectState(spec.center, eye, zero, zero, zero, zero)
    w = spec.angular_rate
    angle = w * t
    radial = np.array([math.cos(angle), 0.0, math.sin(angle)])
    tangent = np.array([-math.sin(angle), 0.0, math.cos(angle)])
    return ObjectState(
        position=spec.center + spec.radius * radial,
        orientation=eye,
        linear_velocity=spec.radius * w * tangent,
        angular_velocity=zero,
        linear_accel=-spec.radius * w * w * radial,
        angular_accel=zero,
    )


def time_grid(config):
    """Sample times: cycles * period, inclusive of both endpoints."""
    return np.arange(config.step_count + 1) * config.dt


def _wrap_angle(delta):
    return (delta + math.pi) % (2.0 * math.pi) - math.pi


def _select_branch(model, solutions, previous, object_position):
    """Pick an IK branch: continuity, or elbow-out at the first step."""
    if previous is None:
        def score(state):
            elbow = joint_positions(model, state.q)[1]
            return -float(np.linalg.norm(elbow - object_position))
        return min(solutions, key=score).q
    best = None
    best_dist = np.inf
    for state in solutions:
        adjusted = previous + _wrap_angle(state.q - previous)
        dist = float(np.linalg.norm(adjusted - previous))
        if dist < best_dist:
            best, best_dist = adjusted, dist
    return best


def _solve_ik_paths(config, states):
    """Joint positions for every manipulator at every step, or abort."""
    paths = []
    for model, grasp_point in zip(config.manipulators,
                                  config.object.grasp_points):
        path = np.empty((len(states), model.joint_count))
        previous = None
        for s, state in enumerate(states):
            target = ee_pose_from_object(state, grasp_point)
            solutions = ik_planar3r(model, target)
            if not solutions:
                raise TrajectoryError(s, model.id, target.position)
            previous = _select_branch(model, solutions, previous,
                                      state.position)
            path[s] = previous
        paths.append(path)
    return paths


def _step_sample(config, state, t, joints):
    """Run the capability pipeline for one time step.

    ``joints`` holds each manipulator's joint positions at ``state``.
    """
    h_d = object_desired_wrench(config.object, state, config.gravity)
    h_d6 = h_d.as_vector()
    step_flags = set()

    arms = []  # (Jacobian, self-load torques, torque limits) per manipulator
    for model, grasp_point, q in zip(config.manipulators,
                                     config.object.grasp_points, joints):
        motion = differential_ik(
            model, q, ee_twist_from_object(state, grasp_point),
            ee_accel_from_object(state, grasp_point))
        if motion.damped:
            step_flags.add(FLAG_SINGULAR)
        if np.any(np.abs(motion.qdot) > model.velocity_limits):
            step_flags.add(FLAG_VELOCITY)
        tau_prime = inverse_dynamics(
            model, JointState(q, motion.qdot, motion.qddot), config.gravity)
        arms.append((jacobian(model, q), tau_prime, model.torque_limits))

    cap = config.unbounded_cap
    count = len(arms)

    def build_problems(h_delta6):
        return [CapabilityProblem(
            jt_hd=jac.T @ h_d6, jt_hdelta=jac.T @ h_delta6,
            tau_prime=tau_prime, tau_max=tau_max)
            for jac, tau_prime, tau_max in arms]

    k0 = np.empty(count)
    for a, problem in enumerate(build_problems(np.zeros(6))):
        k0[a], flag = capability_scalar(problem, unbounded_cap=cap)
        if flag is not None:
            step_flags.add(flag)
    K0 = float(np.sum(k0))

    def shares(k_vector):
        if config.beta_policy == "uniform":
            return np.full(count, 1.0 / count)
        try:
            return allocate_proportional(k_vector)
        except ZeroCapabilityError:
            return np.full(count, 1.0 / count)

    beta = shares(k0)
    grasp_map = GraspMap.from_object(config.object, state.orientation)

    if config.mode == "baseline":
        t_delta, _ = counterbalance_moment(
            AllocationWeights(beta), grasp_map, h_d.force)
        return CapabilitySample(time=t, k=k0, K0=K0, K1=None, beta=beta,
                                alpha=None, t_delta=t_delta, flags=step_flags)

    for _ in range(config.beta_iterations + 1):
        weights = AllocationWeights(beta, beta)
        t_delta, h_delta = counterbalance_moment(weights, grasp_map, h_d.force)
        problems = build_problems(h_delta.as_vector())
        if config.mode == "improved-joint":
            improved = group_capability_joint(
                problems, beta, time=t, t_delta=t_delta, unbounded_cap=cap)
        else:
            improved = group_capability(
                problems, weights, time=t, t_delta=t_delta, unbounded_cap=cap)
        if float(np.sum(improved.k)) <= 0.0:
            break
        refined = shares(improved.k)
        if float(np.max(np.abs(refined - beta))) <= _BETA_TOL:
            break
        beta = refined
    return CapabilitySample(
        time=t, k=improved.k, K0=K0, K1=improved.K1, beta=improved.beta,
        alpha=improved.alpha, t_delta=t_delta,
        flags=step_flags | improved.flags)


@dataclass(frozen=True, eq=False)
class RunSummary:
    """Aggregates of the capability series; recomputable from the samples."""

    sample_count: int
    flagged_steps: int
    k0_min: float | None = None
    k0_mean: float | None = None
    k0_max: float | None = None
    k1_min: float | None = None
    k1_mean: float | None = None
    k1_max: float | None = None
    improvement_percent: float | None = None

    def to_dict(self):
        return {
            "sample_count": self.sample_count,
            "flagged_steps": self.flagged_steps,
            "K0": None if self.k0_min is None else {
                "min": self.k0_min, "mean": self.k0_mean, "max": self.k0_max},
            "K1": None if self.k1_min is None else {
                "min": self.k1_min, "mean": self.k1_mean, "max": self.k1_max},
            "improvement_percent": self.improvement_percent,
        }


def summarize(samples):
    """Min/mean/max of each capability series plus flag counts."""
    flagged = sum(1 for s in samples if s.flags)
    if not samples:
        return RunSummary(sample_count=0, flagged_steps=0)
    k0 = [s.K0 for s in samples if s.K0 is not None]
    k1 = [s.K1 for s in samples if s.K1 is not None]
    fields = {}
    if k0:
        fields.update(k0_min=min(k0), k0_mean=sum(k0) / len(k0),
                      k0_max=max(k0))
    if k1:
        fields.update(k1_min=min(k1), k1_mean=sum(k1) / len(k1),
                      k1_max=max(k1))
    if k0 and k1 and fields["k0_mean"] != 0.0:
        fields["improvement_percent"] = 100.0 * (
            fields["k1_mean"] - fields["k0_mean"]) / fields["k0_mean"]
    return RunSummary(sample_count=len(samples), flagged_steps=flagged,
                      **fields)


@dataclass(frozen=True, eq=False)
class RunResult:
    """Everything a run produced: the config that ran, samples, summary."""

    config: object
    samples: tuple
    summary: RunSummary


def run_scenario(config, mode=None, dt=None, cycles=None):
    """Evaluate a scenario over its whole time grid, one step after another.

    mode/dt/cycles override the config when given.
    """
    config = config.with_overrides(mode=mode, dt=dt, cycles=cycles)
    times = time_grid(config)
    states = [evaluate_trajectory(config.trajectory, t) for t in times]
    ik_paths = _solve_ik_paths(config, states)
    samples = tuple(
        _step_sample(config, state, float(t), joints)
        for state, t, joints in zip(states, times, zip(*ik_paths)))
    return RunResult(config=config, samples=samples,
                     summary=summarize(samples))


def _fmt(value):
    return format(float(value), ".17g")


def _csv_header(count):
    columns = ["t"]
    columns += [f"k_{i + 1}" for i in range(count)]
    columns += ["K0", "K1"]
    columns += [f"beta_{i + 1}" for i in range(count)]
    columns += [f"alpha_{i + 1}" for i in range(count)]
    columns += ["tdelta_y", "flags"]
    return columns


def _sample_row(sample, count):
    row = [_fmt(sample.time)]
    row += [_fmt(v) for v in sample.k]
    row.append("" if sample.K0 is None else _fmt(sample.K0))
    row.append("" if sample.K1 is None else _fmt(sample.K1))
    row += [_fmt(v) for v in sample.beta]
    if sample.alpha is None:
        row += [""] * count
    else:
        row += [_fmt(v) for v in sample.alpha]
    row.append(_fmt(sample.t_delta[1]))
    row.append(";".join(sorted(sample.flags)))
    return row


def export(result, fmt, path):
    """Write a RunResult as 'csv' (series table) or 'json' (full mirror)."""
    if fmt == "csv":
        count = len(result.config.manipulators)
        lines = [",".join(_csv_header(count))]
        lines += [",".join(_sample_row(s, count)) for s in result.samples]
        payload = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = json.dumps(result_dict(result), indent=2, sort_keys=True)
        payload += "\n"
    else:
        raise ValueError(f"unsupported export format {fmt!r}")
    try:
        with open(path, "w", newline="") as handle:
            handle.write(payload)
    except OSError as exc:
        raise ExportError(f"cannot write {path}: {exc}") from exc


def result_dict(result):
    """Plain-data mirror of a RunResult (what the JSON export contains)."""
    return {
        "config": scenario_dict(result.config),
        "samples": [
            {
                "time": s.time,
                "k": [float(v) for v in s.k],
                "K0": s.K0,
                "K1": s.K1,
                "beta": [float(v) for v in s.beta],
                "alpha": None if s.alpha is None else
                         [float(v) for v in s.alpha],
                "t_delta": [float(v) for v in s.t_delta],
                "flags": sorted(s.flags),
            }
            for s in result.samples
        ],
        "summary": result.summary.to_dict(),
    }


def emit_plot_data(result, path):
    """Plain-text plot table: t, K0, K1 block plus a K = 1 reference line.

    Missing series values are written as nan so generic plotting tools skip
    them.  The second block holds the two endpoints of the reference line.
    """
    lines = ["# capability vs time", "# t K0 K1"]
    for s in result.samples:
        k0 = "nan" if s.K0 is None else _fmt(s.K0)
        k1 = "nan" if s.K1 is None else _fmt(s.K1)
        lines.append(f"{_fmt(s.time)} {k0} {k1}")
    lines.append("")
    lines.append("# reference line K = 1")
    if result.samples:
        t0 = result.samples[0].time
        t1 = result.samples[-1].time
    else:
        t0 = t1 = 0.0
    lines.append(f"{_fmt(t0)} 1")
    lines.append(f"{_fmt(t1)} 1")
    try:
        with open(path, "w", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ExportError(f"cannot write {path}: {exc}") from exc
