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


def _joint_vector(model, q):
    """q as a float array with one entry per joint (ValueError otherwise)."""
    q = np.asarray(q, dtype=float)
    if q.shape != model.link_lengths.shape:
        raise ValueError(f"q must have {model.joint_count} entries, "
                         f"got shape {q.shape}")
    return q


def _link_vectors(model, q):
    """X and Z extent of each link, per row of a (T, n) stack of positions."""
    angles = q.cumsum(axis=1)
    return (model.link_lengths * np.cos(angles),
            model.link_lengths * np.sin(angles))


def _points(base, d):
    """base followed by base plus each prefix sum of a row of d: (T, n+1).

    The prefix sums run left to right as np.cumsum does; that order fixes
    the bits.
    """
    out = np.empty((d.shape[0], d.shape[1] + 1))
    out[:, 0] = base
    out[:, 1:] = base + d.cumsum(axis=1)
    return out


def _jacobians(model, dx, dz):
    """(T, 6, n) geometric Jacobians from a stack's link vectors."""
    bx, _, bz = model.base_position
    xs, zs = _points(bx, dx), _points(bz, dz)
    jac = np.zeros((dx.shape[0], 6, dx.shape[1]))
    # JOINT_AXIS x lever expands to (-lever_z, 0, lever_x); the angular
    # rows are JOINT_AXIS per joint
    jac[:, 0] = zs[:, :-1] - zs[:, -1:]
    jac[:, 2] = xs[:, -1:] - xs[:, :-1]
    jac[:, 3:] = JOINT_AXIS[:, None]
    return jac


def joint_positions(model, q):
    """World positions of each joint origin plus the end effector.

    Returns an (n+1, 3) array: row 0 is the base (joint 1), row j the origin
    of joint j+1, and the last row the end-effector point.
    """
    dx, dz = _link_vectors(model, _joint_vector(model, q)[None])
    bx, by, bz = model.base_position
    points = np.full((dx.shape[1] + 1, 3), by)
    points[:, 0] = _points(bx, dx)[0]
    points[:, 2] = _points(bz, dz)[0]
    return points


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
    q = _joint_vector(model, q)
    return _jacobians(model, *_link_vectors(model, q[None]))[0]


def _ik(model, position, pitch):
    """Both elbow branches of the closed-form IK over (T, 3) target positions.

    Returns the (T, 2, 3) joint angles and the (T,) count of solutions: 0
    out of the plane or out of reach, 1 at the straight-arm boundary, where
    the second branch repeats the first.
    """
    base = model.base_position
    l1, l2, l3 = model.link_lengths
    wrist_u = position[:, 0] - l3 * np.cos(pitch) - base[0]
    wrist_v = position[:, 2] - l3 * np.sin(pitch) - base[2]
    rr = wrist_u ** 2 + wrist_v ** 2
    cos_elbow = (rr - l1 ** 2 - l2 ** 2) / (2.0 * l1 * l2)
    elbow = np.arccos(np.clip(cos_elbow, -1.0, 1.0))
    q2 = np.stack([elbow, -elbow], axis=1)
    q1 = np.arctan2(wrist_v, wrist_u)[:, None] \
        - np.arctan2(l2 * np.sin(q2), l1 + l2 * np.cos(q2))
    q = np.stack([q1, q2, pitch - q1 - q2], axis=2)
    single = np.abs(q[:, 0] - q[:, 1]).max(axis=1) < 1e-10
    q[single, 1] = q[single, 0]
    count = 2 - single
    # out-of-plane targets are unreachable for a planar chain
    count[(np.abs(position[:, 1] - base[1]) > 1e-9)
          | (np.abs(cos_elbow) > 1.0 + 1e-9)] = 0
    return q, count


def ik_planar3r(model, target):
    """Closed-form inverse kinematics for a 3-link planar chain.

    The end-effector planar angle fixes the last joint once the first two are
    known, so the wrist point (end effector minus the last link) reduces the
    problem to a two-link reach with elbow sign ambiguity.  Returns a list of
    0, 1, or 2 joint-angle arrays; exactly 1 at the straight-arm boundary.
    """
    if model.joint_count != 3:
        raise ValueError("ik_planar3r requires a 3-joint model")
    q, count = _ik(model, target.position[None], target.pitch)
    return list(q[0, :count[0]])


def _norms(d):
    """Norms along the last axis, kept as an axis of length 1: the bits of
    np.linalg.norm on each vector, so branch ties break as it breaks them."""
    return np.sqrt(np.matmul(d[..., None, :], d[..., :, None]))[..., 0]


def _branches(models, q, position):
    """Each arm's path through its (steps, arms, 2, 3) IK branches.

    An arm starts on the branch whose elbow lies farther from the object
    at ``position``, then takes the branch nearer its previous joint
    angles, each wrapped to within pi of them.  Returns (arms, steps, 3).
    """
    base = np.array([model.base_position for model in models])
    upper = np.array([model.link_lengths[:1] for model in models])
    angle = q[0, ..., :1]
    elbow = base[:, None] + upper[:, None] * np.concatenate(
        [np.cos(angle), np.zeros_like(angle), np.sin(angle)], axis=-1)
    dist = _norms(elbow - position)
    previous = np.where(dist[:, 1] > dist[:, 0], q[0, :, 1], q[0, :, 0])
    paths = np.empty((len(base), len(q), 3))
    paths[:, 0] = previous
    for s in range(1, len(q)):
        near = previous[:, None]
        wrapped = near + ((q[s] - near + math.pi) % (2.0 * math.pi) - math.pi)
        dist = _norms(wrapped - near)
        previous = np.where(dist[:, 1] < dist[:, 0], wrapped[:, 1],
                            wrapped[:, 0])
        paths[:, s] = previous
    return paths


class DifferentialIk(NamedTuple):
    qdot: np.ndarray
    qddot: np.ndarray
    damped: bool


def _solve_planar(J3, rhs, damped):
    """Solve each 3x3 planar system, by damped least squares where singular.

    J3 is a (T, 3, n) stack, rhs (T, 3) and damped a (T,) mask; the damped
    rows are solved together as their own stack.
    """
    out = np.empty_like(rhs)
    plain = ~damped
    out[plain] = np.linalg.solve(J3[plain], rhs[plain, :, None])[..., 0]
    J3d = J3[damped]
    J3dT = J3d.transpose(0, 2, 1)
    lhs = J3dT @ J3d + DAMPING * np.eye(J3.shape[2])
    out[damped] = np.linalg.solve(lhs, J3dT @ rhs[damped, :, None])[..., 0]
    return out


def _differential_ik(model, q, twist, accel):
    """Differential IK over a (T, n) stack of joint positions.

    twist and accel are (T, 3) stacks of planar rows (px, pz, wy).  Returns
    the (T, 6, n) Jacobians, the (T, n) joint rates and accelerations and
    the (T,) mask of damped solves; row t of each is what differential_ik
    gives for row t alone.
    """
    dx, dz = _link_vectors(model, q)
    jac = _jacobians(model, dx, dz)
    J3 = jac[:, [0, 2, 4]]  # rows px, pz, wy
    damped = np.linalg.svd(J3, compute_uv=False)[:, -1] < SINGULAR_THRESHOLD
    qdot = _solve_planar(J3, twist, damped)
    # exact Jdot @ qdot: each link's tip circles its joint at the link's
    # absolute rate, the prefix sum of the joint rates, so its centripetal
    # part is -rate^2 times the link vector; row wy of J is constant
    rate_sq = np.square(qdot.cumsum(axis=1))
    jdot_qdot = np.zeros_like(twist)
    jdot_qdot[:, 0] = -(dx * rate_sq).sum(axis=1)
    jdot_qdot[:, 1] = -(dz * rate_sq).sum(axis=1)
    qddot = _solve_planar(J3, accel - jdot_qdot, damped)
    return jac, qdot, qddot, damped


def differential_ik(model, q, ee_twist, ee_accel):
    """Joint velocities and accelerations realizing an end-effector motion.

    ee_twist and ee_accel are the planar rows (px, pz, wy) of the twist and
    of its derivative, 3-vectors each (ValueError otherwise).  The
    acceleration solve uses the exact Jacobian derivative.  A damped solve
    is reported through the ``damped`` flag rather than raised.
    """
    q = _joint_vector(model, q)
    ee_twist = np.asarray(ee_twist, dtype=float)
    ee_accel = np.asarray(ee_accel, dtype=float)
    if ee_twist.shape != (3,) or ee_accel.shape != (3,):
        raise ValueError("ee_twist and ee_accel must be (px, pz, wy) rows, "
                         f"got shapes {ee_twist.shape}, {ee_accel.shape}")
    _, qdot, qddot, damped = _differential_ik(model, q[None], ee_twist[None],
                                              ee_accel[None])
    return DifferentialIk(qdot[0], qddot[0], bool(damped[0]))


def ee_pose_from_object(state, grasp_point):
    """Pose holding the non-rotating object at a body-frame grasp point."""
    return Pose(state.position + np.asarray(grasp_point, dtype=float), 0.0)
