"""Planar 3R kinematics embedded in 3-D space.

Every chain moves in the world X-Z plane (all base y-coordinates equal all
reachable y-coordinates).  The planar link angle is measured counterclockwise
from +X toward +Z as conventionally drawn with X right and Z up.  In
right-handed 3-D terms a positive joint rate therefore spins the links about
the -Y axis, so the angular rows of the geometric Jacobian carry -1 in the
y slot.  A pose is therefore a position plus one pitch angle, and a twist
its planar rows (px, pz, wy).  The carried object translates without
rotating, so each end effector holds its grasp point at pitch 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import ScenarioValidationError, _freeze, _real, _set

# Unit rotation axis generated by a positive joint rate (see module docstring).
JOINT_AXIS = np.array([0.0, -1.0, 0.0])
JOINT_AXIS.flags.writeable = False

# Below this smallest singular value the planar Jacobian is treated as
# singular and the velocity solve falls back to damped least squares.
SINGULAR_THRESHOLD = 1e-6
DAMPING = 1e-6
_FD_STEP = 1e-7


@dataclass(frozen=True, eq=False)
class JointState:
    """Joint positions, velocities and accelerations for inverse_dynamics."""

    q: np.ndarray
    qdot: np.ndarray
    qddot: np.ndarray

    def __post_init__(self):
        n = np.size(self.q)
        for name in ("q", "qdot", "qddot"):
            _set(self, name, _freeze(getattr(self, name), (n,), name))


@dataclass(frozen=True, eq=False)
class Pose:
    """World position of a frame plus its pitch, the planar link angle."""

    position: np.ndarray
    pitch: float

    def __post_init__(self):
        _set(self, "position", _freeze(self.position, (3,), "pose position"))
        pitch = _real(self.pitch)
        if not math.isfinite(pitch):
            raise ScenarioValidationError(
                f"pose pitch must be a finite number, got {self.pitch!r}")
        _set(self, "pitch", pitch)


def _link_points(model, q):
    """X and Z of each joint origin and of the end effector, as floats.

    Each coordinate is the base plus a prefix sum of the link vectors,
    summed left to right as np.cumsum does; that order fixes the bits.
    """
    if q.shape != model.link_lengths.shape:
        raise ValueError(f"q must have {model.joint_count} entries, "
                         f"got shape {q.shape}")
    angles = q.cumsum()
    dx = (model.link_lengths * np.cos(angles)).tolist()
    dz = (model.link_lengths * np.sin(angles)).tolist()
    for j in range(1, len(dx)):
        dx[j] += dx[j - 1]
        dz[j] += dz[j - 1]
    bx, _, bz = model.base_position.tolist()
    return [bx] + [bx + x for x in dx], [bz] + [bz + z for z in dz]


def joint_positions(model, q):
    """World positions of each joint origin plus the end effector.

    Returns an (n+1, 3) array: row 0 is the base (joint 1), row j the origin
    of joint j+1, and the last row the end-effector point.
    """
    xs, zs = _link_points(model, np.asarray(q, dtype=float))
    by = float(model.base_position[1])
    return np.array([[x, by, z] for x, z in zip(xs, zs)])


def forward_kinematics(model, q):
    """End-effector pose for the given joint positions."""
    q = np.asarray(q, dtype=float)
    return Pose(joint_positions(model, q)[-1], float(q.sum()))


def jacobian(model, q):
    """Geometric Jacobian (6 x n): stacked linear then angular velocity maps.

    Row order is [px, py, pz, wx, wy, wz].  Rows py, wx, wz are identically
    zero for these planar chains and row wy is -1 per joint (the chains spin
    about -Y for positive joint rates).
    """
    xs, zs = _link_points(model, np.asarray(q, dtype=float))
    ex, ez = xs.pop(), zs.pop()
    zero = [0.0] * len(xs)
    # JOINT_AXIS x lever expands to (-lever_z, 0, lever_x); the angular
    # rows are JOINT_AXIS per joint
    return np.array([[z - ez for z in zs], zero, [ex - x for x in xs],
                     zero, [-1.0] * len(xs), zero])


def ik_planar3r(model, target):
    """Closed-form inverse kinematics for a 3-link planar chain.

    The end-effector planar angle fixes the last joint once the first two are
    known, so the wrist point (end effector minus the last link) reduces the
    problem to a two-link reach with elbow sign ambiguity.  Returns a list of
    0, 1, or 2 joint-angle arrays; exactly 1 at the straight-arm boundary.
    """
    if model.joint_count != 3:
        raise ValueError("ik_planar3r requires a 3-joint model")
    p, pitch = target.position, target.pitch
    base = model.base_position
    # out-of-plane targets are unreachable for a planar chain
    if abs(p[1] - base[1]) > 1e-9:
        return []
    l1, l2, l3 = model.link_lengths
    wrist_u = p[0] - l3 * np.cos(pitch) - base[0]
    wrist_v = p[2] - l3 * np.sin(pitch) - base[2]
    rr = wrist_u ** 2 + wrist_v ** 2
    cos_elbow = (rr - l1 ** 2 - l2 ** 2) / (2.0 * l1 * l2)
    if abs(cos_elbow) > 1.0 + 1e-9:
        return []
    cos_elbow = min(1.0, max(-1.0, cos_elbow))
    elbow = float(np.arccos(cos_elbow))
    solutions = []
    for q2 in (elbow, -elbow):
        q1 = float(np.arctan2(wrist_v, wrist_u)
                   - np.arctan2(l2 * np.sin(q2), l1 + l2 * np.cos(q2)))
        q3 = pitch - q1 - q2
        solutions.append(np.array([q1, q2, q3]))
    if np.abs(solutions[0] - solutions[1]).max() < 1e-10:
        return solutions[:1]
    return solutions


class DifferentialIk(NamedTuple):
    qdot: np.ndarray
    qddot: np.ndarray
    damped: bool


def _solve_planar(J3, rhs, damped):
    """Solve the 3x3 planar system, by damped least squares if singular."""
    if damped:
        lhs = J3.T @ J3 + DAMPING * np.eye(3)
        return np.linalg.solve(lhs, J3.T @ rhs)
    return np.linalg.solve(J3, rhs)


def differential_ik(model, q, ee_twist, ee_accel):
    """Joint velocities and accelerations realizing an end-effector motion.

    ee_twist and ee_accel are the planar rows (px, pz, wy) of the twist and
    of its derivative, 3-vectors each (ValueError otherwise).  The
    acceleration solve uses a central finite-difference Jacobian
    derivative.  A damped solve is reported through the ``damped`` flag
    rather than raised.
    """
    q = np.asarray(q, dtype=float)
    ee_twist = np.asarray(ee_twist, dtype=float)
    ee_accel = np.asarray(ee_accel, dtype=float)
    if ee_twist.shape != (3,) or ee_accel.shape != (3,):
        raise ValueError("ee_twist and ee_accel must be (px, pz, wy) rows, "
                         f"got shapes {ee_twist.shape}, {ee_accel.shape}")
    J3 = jacobian(model, q)[[0, 2, 4]]  # rows px, pz, wy
    damped = bool(np.linalg.svd(J3, compute_uv=False)[-1] < SINGULAR_THRESHOLD)
    qdot = _solve_planar(J3, ee_twist, damped)
    jdot = np.zeros((3, q.size))  # the same rows; [::2] selects them too
    bump = np.zeros(q.size)
    for j in range(q.size):
        bump[j] = _FD_STEP
        dJ = (jacobian(model, q + bump)[::2]
              - jacobian(model, q - bump)[::2]) / (2.0 * _FD_STEP)
        bump[j] = 0.0
        jdot += dJ * qdot[j]
    qddot = _solve_planar(J3, ee_accel - jdot @ qdot, damped)
    return DifferentialIk(qdot, qddot, damped)


def ee_pose_from_object(state, grasp_point):
    """Pose holding the non-rotating object at a body-frame grasp point."""
    return Pose(state.position + np.asarray(grasp_point, dtype=float), 0.0)
