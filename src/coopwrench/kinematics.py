"""Planar 3R kinematics embedded in 3-D space.

Every chain moves in the world X-Z plane (all base y-coordinates equal all
reachable y-coordinates).  The planar link angle is measured counterclockwise
from +X toward +Z as conventionally drawn with X right and Z up.  In
right-handed 3-D terms a positive joint rate therefore spins the links about
the -Y axis, so the angular rows of the geometric Jacobian carry -1 in the
y slot.  The carried object translates without rotating, so each end
effector holds its grasp point at identity orientation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import ScenarioValidationError, _freeze, _set

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
    """Joint positions with optional velocities and accelerations."""

    q: np.ndarray
    qdot: np.ndarray | None = None
    qddot: np.ndarray | None = None

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        n = q.size
        _set(self, "q", _freeze(q, (n,), "q"))
        for name in ("qdot", "qddot"):
            value = getattr(self, name)
            if value is None:
                value = np.zeros(n)
                value.flags.writeable = False
            else:
                value = _freeze(value, (n,), name)
            _set(self, name, value)


@dataclass(frozen=True, eq=False)
class Pose:
    """Position plus orthonormal orientation of a frame in the world."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        _set(self, "position", _freeze(self.position, (3,), "pose position"))
        _set(self, "orientation",
             _freeze(self.orientation, (3, 3), "pose orientation"))
        R = self.orientation
        if np.abs(R.T @ R - np.eye(3)).max() > 1e-12:
            raise ScenarioValidationError("pose orientation must be orthonormal")


def planar_rotation(angle):
    """World orientation of a frame at the given planar angle.

    The frame's x-axis is [cos a, 0, sin a]; y stays the world Y axis.
    """
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, -s],
                     [0.0, 1.0, 0.0],
                     [s, 0.0, c]])


def planar_angle(orientation):
    """Planar angle of an in-plane orientation (inverse of planar_rotation)."""
    return float(np.arctan2(orientation[2, 0], orientation[0, 0]))


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


def forward_kinematics(model, state):
    """End-effector pose for the given joint state."""
    q = state.q if isinstance(state, JointState) else np.asarray(state, float)
    points = joint_positions(model, q)
    return Pose(points[-1], planar_rotation(float(np.sum(q))))


def jacobian(model, state):
    """Geometric Jacobian (6 x n): stacked linear then angular velocity maps.

    Row order is [px, py, pz, wx, wy, wz].  Rows py, wx, wz are identically
    zero for these planar chains and row wy is -1 per joint (the chains spin
    about -Y for positive joint rates).
    """
    q = state.q if isinstance(state, JointState) else np.asarray(state, float)
    xs, zs = _link_points(model, q)
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
    p = target.position
    R = target.orientation
    base = model.base_position
    # out-of-plane targets are unreachable for a planar chain
    if abs(p[1] - base[1]) > 1e-9 or abs(R[1, 1] - 1.0) > 1e-9:
        return []
    l1, l2, l3 = model.link_lengths
    pitch = planar_angle(R)
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


def differential_ik(model, state, ee_twist, ee_accel):
    """Joint velocities and accelerations realizing an end-effector motion.

    ee_twist and ee_accel are 6-vectors (linear stacked over angular); only
    the three planar rows are solvable for a planar chain and the remaining
    rows must be zero for a consistent task.  The acceleration solve uses a
    central finite-difference Jacobian derivative.  A damped solve is
    reported through the ``damped`` flag rather than raised.
    """
    q = state.q if isinstance(state, JointState) else np.asarray(state, float)
    ee_twist = np.asarray(ee_twist, dtype=float)
    ee_accel = np.asarray(ee_accel, dtype=float)
    J3 = jacobian(model, q)[[0, 2, 4]]  # rows px, pz, wy
    damped = bool(np.linalg.svd(J3, compute_uv=False)[-1] < SINGULAR_THRESHOLD)
    qdot = _solve_planar(J3, ee_twist[[0, 2, 4]], damped)
    jdot = np.zeros((3, q.size))  # the same rows; [::2] selects them too
    bump = np.zeros(q.size)
    for j in range(q.size):
        bump[j] = _FD_STEP
        dJ = (jacobian(model, q + bump)[::2]
              - jacobian(model, q - bump)[::2]) / (2.0 * _FD_STEP)
        bump[j] = 0.0
        jdot += dJ * qdot[j]
    qddot = _solve_planar(J3, ee_accel[[0, 2, 4]] - jdot @ qdot, damped)
    return DifferentialIk(qdot, qddot, damped)


def ee_pose_from_object(state, grasp_point):
    """Pose holding the non-rotating object at a body-frame grasp point."""
    return Pose(state.position + np.asarray(grasp_point, dtype=float),
                np.eye(3))
