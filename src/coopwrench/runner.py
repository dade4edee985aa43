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
from .kinematics import (JointState, differential_ik, ee_pose_from_object,
                         ik_planar3r, jacobian, joint_positions)

_BETA_TOL = 1e-6


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
    """Object state at time t; neither trajectory kind rotates the object."""
    if spec.kind == "static-hold":
        zero = np.zeros(3)
        return ObjectState(spec.center, zero, zero)
    w = spec.angular_rate
    angle = w * t
    radial = np.array([math.cos(angle), 0.0, math.sin(angle)])
    tangent = np.array([-math.sin(angle), 0.0, math.cos(angle)])
    return ObjectState(
        position=spec.center + spec.radius * radial,
        linear_velocity=spec.radius * w * tangent,
        linear_accel=-spec.radius * w * w * radial,
    )


def time_grid(config):
    """Sample times: cycles * period, inclusive of both endpoints."""
    return np.arange(config.step_count + 1) * config.dt


def _wrap_angle(delta):
    return (delta + math.pi) % (2.0 * math.pi) - math.pi


def _select_branch(model, solutions, previous, object_position):
    """Pick an IK branch: continuity, or elbow-out at the first step."""
    if previous is None:
        def score(q):
            elbow = joint_positions(model, q)[1]
            return -float(np.linalg.norm(elbow - object_position))
        return min(solutions, key=score)
    wrapped = [previous + _wrap_angle(q - previous) for q in solutions]
    return min(wrapped, key=lambda q: float(np.linalg.norm(q - previous)))


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


def _step_sample(config, grasp_map, state, t, joints):
    """Run the capability pipeline for one time step.

    ``joints`` holds each manipulator's joint positions at ``state``.
    """
    h_d = object_desired_wrench(config.object, state, config.gravity)
    step_flags = set()
    # every point of a translating body moves alike: one planar twist
    # (px, pz, wy) for all arms
    ee_twist = np.append(state.linear_velocity[::2], 0.0)
    ee_accel = np.append(state.linear_accel[::2], 0.0)

    arms = []  # (Jacobian, its image of h_d, self-load, limits) per arm
    for model, q in zip(config.manipulators, joints):
        motion = differential_ik(model, q, ee_twist, ee_accel)
        if motion.damped:
            step_flags.add(FLAG_SINGULAR)
        if (np.abs(motion.qdot) > model.velocity_limits).any():
            step_flags.add(FLAG_VELOCITY)
        tau_prime = inverse_dynamics(
            model, JointState(q, motion.qdot, motion.qddot), config.gravity)
        jac = jacobian(model, q)
        arms.append((jac, jac.T @ h_d, tau_prime, model.torque_limits))

    cap = config.unbounded_cap
    count = len(arms)

    def build_problems(h_delta):
        return [CapabilityProblem(
            jt_hd=jt_hd, jt_hdelta=jac.T @ h_delta,
            tau_prime=tau_prime, tau_max=tau_max)
            for jac, jt_hd, tau_prime, tau_max in arms]

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

    if config.mode == "baseline":
        t_delta, _ = counterbalance_moment(
            AllocationWeights(beta), grasp_map, h_d[:3])
        return CapabilitySample(time=t, k=k0, K0=K0, K1=None, beta=beta,
                                alpha=None, t_delta=t_delta, flags=step_flags)

    for _ in range(config.beta_iterations + 1):
        weights = AllocationWeights(beta)
        t_delta, h_delta = counterbalance_moment(weights, grasp_map, h_d[:3])
        problems = build_problems(h_delta)
        if config.mode == "improved-joint":
            improved = group_capability_joint(problems, unbounded_cap=cap)
        else:
            improved = group_capability(problems, beta, unbounded_cap=cap)
        if improved.K1 <= 0.0:
            break
        refined = shares(improved.k)
        if float(np.max(np.abs(refined - beta))) <= _BETA_TOL:
            break
        beta = refined
    # weights still holds the shares the last pass used, not the refined ones
    return CapabilitySample(
        time=t, k=improved.k, K0=K0, K1=improved.K1, beta=weights.beta,
        alpha=improved.alpha, t_delta=t_delta,
        flags=step_flags | improved.flags)


def summarize(samples):
    """The run's summary document, as result.json holds it (None: no data)."""
    def stats(series):
        return {"min": min(series), "mean": sum(series) / len(series),
                "max": max(series)} if series else None

    k0 = stats([s.K0 for s in samples])
    k1 = stats([s.K1 for s in samples if s.K1 is not None])
    improvement = None
    if k1 is not None and k0["mean"] != 0.0:
        improvement = 100.0 * (k1["mean"] - k0["mean"]) / k0["mean"]
    return {"sample_count": len(samples),
            "flagged_steps": sum(1 for s in samples if s.flags),
            "K0": k0, "K1": k1, "improvement_percent": improvement}


@dataclass(frozen=True, eq=False)
class RunResult:
    """Everything a run produced: the config that ran, samples, summary."""

    config: object
    samples: tuple
    summary: dict


def run_scenario(config):
    """Evaluate a scenario over its whole time grid, one step after another."""
    times = time_grid(config)
    states = [evaluate_trajectory(config.trajectory, t) for t in times]
    ik_paths = _solve_ik_paths(config, states)
    grasp_map = GraspMap.from_object(config.object)
    samples = tuple(
        _step_sample(config, grasp_map, state, float(t), joints)
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
    row.append(_fmt(sample.K0))
    row.append("" if sample.K1 is None else _fmt(sample.K1))
    row += [_fmt(v) for v in sample.beta]
    if sample.alpha is None:
        row += [""] * count
    else:
        row += [_fmt(v) for v in sample.alpha]
    row.append(_fmt(sample.t_delta[1]))
    row.append(";".join(sorted(sample.flags)))
    return row


def _write(path, text):
    try:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ExportError(f"cannot write {path}: {exc}") from exc


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
    _write(path, payload)


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
        "summary": result.summary,
    }


def emit_plot_data(result, path):
    """Plain-text plot table: t, K0, K1 block plus a K = 1 reference line.

    Missing series values are written as nan so generic plotting tools skip
    them.  The second block holds the two endpoints of the reference line.
    """
    lines = ["# capability vs time", "# t K0 K1"]
    for s in result.samples:
        k1 = "nan" if s.K1 is None else _fmt(s.K1)
        lines.append(f"{_fmt(s.time)} {_fmt(s.K0)} {k1}")
    lines.append("")
    lines.append("# reference line K = 1")
    if result.samples:
        t0 = result.samples[0].time
        t1 = result.samples[-1].time
    else:
        t0 = t1 = 0.0
    lines.append(f"{_fmt(t0)} 1")
    lines.append(f"{_fmt(t1)} 1")
    _write(path, "\n".join(lines) + "\n")
