"""Trajectory runner: capability evaluation over a time grid and export.

A run works on whole (steps, ...) arrays: the object trajectory, each
manipulator's closed-form IK, motion and load, and the baseline solve.
Only the IK branch choice, which follows the previous step, loops over the
steps, for all manipulators at once.  The baseline scalars set the load
shares; improved modes add the counterbalanced series on the identical
states, refining the shares of every unsettled step in lockstep.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .capability import (FLAG_INFEASIBLE, FLAG_SINGULAR, FLAG_UNBOUNDED,
                         FLAG_VELOCITY, CapabilitySample, _joint, _scalar)
from .config import ObjectState, scenario_dict
from .dynamics import _inverse_dynamics, object_desired_wrench
from .grasp import GraspMap, _induced, _shares
from .kinematics import JOINT_AXIS, _branches, _differential_ik, _ik

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


# an ObjectState's fields at every step, as (steps, 3) stacks
_States = NamedTuple("_States", [(name, np.ndarray) for name in (
    "position", "linear_velocity", "linear_accel")])


def _trajectory(spec, t):
    """Object states at the times t; neither trajectory kind rotates it."""
    if spec.kind == "static-hold":
        zero = np.zeros((len(t), 3))
        return _States(np.tile(spec.center, (len(t), 1)), zero, zero)
    w = spec.angular_rate
    angle = w * t
    cos, sin, zero = np.cos(angle), np.sin(angle), np.zeros_like(angle)
    radial = np.stack([cos, zero, sin], axis=1)
    tangent = np.stack([-sin, zero, cos], axis=1)
    return _States(spec.center + spec.radius * radial,
                   spec.radius * w * tangent, -spec.radius * w * w * radial)


def evaluate_trajectory(spec, t):
    """Object state at time t."""
    return ObjectState(*(field[0] for field in
                         _trajectory(spec, np.array([t], dtype=float))))


def time_grid(config):
    """Sample times: cycles * period, inclusive of both endpoints."""
    return np.arange(config.step_count + 1) * config.dt


def _ik_paths(config, position):
    """Every manipulator's joint positions at every step: (arms, steps, 3).

    Aborts at the first arm, in order, that cannot reach, at its first such
    step."""
    solutions = []
    for model, grasp_point in zip(config.manipulators,
                                  config.object.grasp_points):
        target = position + grasp_point
        q, count = _ik(model, target, 0.0)
        if not count.all():
            step = int(np.argmin(count))
            raise TrajectoryError(step, model.id, target[step])
        solutions.append(q)
    return _branches(config.manipulators, np.stack(solutions, axis=1),
                     position[0])


class _ArmPass(NamedTuple):
    """One manipulator's loads at every step, row s for step s."""

    jt_hd: np.ndarray  # (steps, joints): J^T h_d
    tau_prime: np.ndarray  # (steps, joints): the chain's own load
    damped: np.ndarray  # (steps,): differential IK fell back to damping
    too_fast: np.ndarray  # (steps,): some joint rate exceeds its limit


def _arm_pass(model, path, twist, accel, wrenches, gravity):
    """Motion and load of one manipulator along its whole IK path."""
    jac, qdot, qddot, damped = _differential_ik(model, path, twist, accel)
    return _ArmPass(
        jt_hd=np.matmul(jac.transpose(0, 2, 1), wrenches[:, :, None])[..., 0],
        tau_prime=_inverse_dynamics(model, path, qdot, qddot, gravity),
        damped=damped,
        too_fast=(np.abs(qdot) > model.velocity_limits).any(axis=1))


def _samples(config, times, wrenches, arms):
    """Every step's CapabilitySample, from the manipulators' passes."""
    cap, steps = config.unbounded_cap, len(times)
    # (steps, arms, joints) and (steps, arms) stacks
    jt_hd, tau_prime, damped, too_fast = (np.stack(part, axis=1)
                                          for part in zip(*arms))
    tau_max = np.array([model.torque_limits for model in config.manipulators])
    k0, infeasible, capped = _scalar(jt_hd, tau_prime, tau_max, cap)
    names = (FLAG_SINGULAR, FLAG_VELOCITY, FLAG_INFEASIBLE, FLAG_UNBOUNDED)
    hits = np.stack([damped, too_fast, infeasible, capped], axis=1)
    flags = [{n for n, hit in zip(names, row) if hit}
             for row in hits.any(axis=2).tolist()]

    grasp_vectors = GraspMap.from_object(config.object).grasp_vectors
    uniform = config.beta_policy == "uniform"
    beta = _shares(k0, uniform)
    k, used, t_delta = k0.copy(), beta.copy(), np.empty((steps, 3))
    alpha, solved = [None] * steps, [()] * steps
    rows = np.arange(steps)  # the steps whose shares are still refined
    for _ in range(config.beta_iterations + 1):
        b = beta[rows]
        used[rows] = b
        t_delta[rows] = _induced(b, grasp_vectors, wrenches[rows, :3])
        if config.mode == "baseline":
            break
        moment = -t_delta[rows] @ JOINT_AXIS  # alike at every joint
        if config.mode == "improved-joint":
            for s, m in zip(rows.tolist(), moment.tolist()):
                k[s], alpha[s], solved[s] = _joint(
                    list(zip(jt_hd[s], tau_prime[s], tau_max)), m, cap)
        else:
            offset = tau_prime[rows] + b[:, :, None] * moment[:, None, None]
            k[rows], infeasible, capped = _scalar(jt_hd[rows], offset,
                                                  tau_max, cap)
            for s, a, *hit in zip(rows.tolist(), b, infeasible.any(axis=1),
                                  capped.any(axis=1)):
                alpha[s], solved[s] = a, [n for n, h in zip(names[2:], hit)
                                          if h]
        refined = _shares(k[rows], uniform)
        settled = (k[rows].sum(axis=1) <= 0.0) \
            | (np.abs(refined - b).max(axis=1) <= _BETA_TOL)
        beta[rows] = refined
        rows = rows[~settled]
        if not rows.size:
            break
    K0, K1 = k0.sum(axis=1).tolist(), k.sum(axis=1).tolist()
    return tuple(CapabilitySample(
        time=t, k=k[s], K0=K0[s], beta=used[s], alpha=alpha[s],
        K1=None if config.mode == "baseline" else K1[s], t_delta=t_delta[s],
        flags=flags[s].union(solved[s])) for s, t in enumerate(times.tolist()))


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
    """Evaluate a scenario over its whole time grid."""
    times = time_grid(config)
    states = _trajectory(config.trajectory, times)
    paths = _ik_paths(config, states.position)
    wrenches = object_desired_wrench(config.object, states, config.gravity)
    # every point of a translating body moves alike: one planar twist
    # (px, pz, wy) per step for all arms
    twist, accel = np.zeros((2, len(times), 3))
    twist[:, :2] = states.linear_velocity[:, ::2]
    accel[:, :2] = states.linear_accel[:, ::2]
    arms = [_arm_pass(model, path, twist, accel, wrenches, config.gravity)
            for model, path in zip(config.manipulators, paths)]
    samples = _samples(config, times, wrenches, arms)
    return RunResult(config=config, samples=samples,
                     summary=summarize(samples))


def _fmt(value):
    return format(float(value), ".17g")


def _csv_header(count):
    def per_arm(name):
        return [f"{name}_{i + 1}" for i in range(count)]
    return ["t", *per_arm("k"), "K0", "K1", *per_arm("beta"),
            *per_arm("alpha"), "tdelta_y", "flags"]


def _sample_row(sample, count):
    row = [_fmt(sample.time)]
    row += [_fmt(v) for v in sample.k]
    row.append(_fmt(sample.K0))
    row.append("" if sample.K1 is None else _fmt(sample.K1))
    row += [_fmt(v) for v in sample.beta]
    row += [""] * count if sample.alpha is None else \
        [_fmt(v) for v in sample.alpha]
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
    def floats(values):
        return None if values is None else [float(v) for v in values]
    return {
        "config": scenario_dict(result.config),
        "samples": [{"time": s.time, "k": floats(s.k), "K0": s.K0, "K1": s.K1,
                     "beta": floats(s.beta), "alpha": floats(s.alpha),
                     "t_delta": floats(s.t_delta), "flags": sorted(s.flags)}
                    for s in result.samples],
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
    lines += ["", "# reference line K = 1"]
    samples = result.samples
    t0, t1 = (samples[0].time, samples[-1].time) if samples else (0.0, 0.0)
    lines += [f"{_fmt(t0)} 1", f"{_fmt(t1)} 1"]
    _write(path, "\n".join(lines) + "\n")
