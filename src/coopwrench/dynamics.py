"""Inverse dynamics for the planar chains and the carried object.

Joint torques come from a recursive Newton-Euler sweep specialized to
fixed-base serial chains whose joints all rotate about the axis normal to
the X-Z motion plane, so it runs on in-plane vectors and scalar moments.
Gravity acts along world -Z and is injected through the standard
base-acceleration trick, so no separate gravity pass is needed.
Torque vectors are plain float arrays ordered by joint.
"""
from __future__ import annotations

import numpy as np

from .kinematics import _joint_vector


def _inverse_dynamics(model, q, qdot, qddot, gravity):
    """inverse_dynamics over (T, n) stacks of joint states: (T, n) torques.

    The sweep loops over links and works on whole columns, so row t is
    what inverse_dynamics gives for row t alone.
    """
    # Forward sweep in the world X-Z plane.  Angles, rates and moments are
    # about the joint axis, positive from +X toward +Z, so a link's angle,
    # rate and angular acceleration are sums over the joints inboard of it.
    angles = q.cumsum(axis=1)
    cos, sin = np.cos(angles).T, np.sin(angles).T
    accel_x, accel_z = 0.0, gravity  # base acceleration trick
    links = []
    for c, s, rate, rate_dot, length, com, mass, inertia in zip(
            cos, sin, qdot.cumsum(axis=1).T, qddot.cumsum(axis=1).T,
            model.link_lengths, model.link_com_offsets, model.link_masses,
            model.link_inertias):
        # acceleration per unit distance along the link, relative to its
        # joint: tangential plus centripetal
        per_x = -rate_dot * s - rate * rate * c
        per_z = rate_dot * c - rate * rate * s
        links.append((length * c, length * s, com * c, com * s,
                      mass * (accel_x + com * per_x),
                      mass * (accel_z + com * per_z), inertia * rate_dot))
        accel_x = accel_x + length * per_x
        accel_z = accel_z + length * per_z

    # Backward sweep: the outboard force acts at the link tip, the link's
    # own inertial force at its CoM.
    torques = np.empty(q.shape)
    force_x = force_z = moment = 0.0
    for i in range(len(links) - 1, -1, -1):
        tip_x, tip_z, com_x, com_z, inertial_x, inertial_z, spin = links[i]
        moment = moment + (spin + tip_x * force_z - tip_z * force_x
                           + com_x * inertial_z - com_z * inertial_x)
        force_x = force_x + inertial_x
        force_z = force_z + inertial_z
        torques[:, i] = moment
    return torques


def inverse_dynamics(model, state, gravity):
    """Joint torques carrying the chain itself through the given state.

    The result covers inertial, velocity-product, and gravity loads of the
    links only; any wrench applied at the end effector is accounted for
    separately through the Jacobian transpose by the capability layer.
    """
    q = _joint_vector(model, state.q)
    return _inverse_dynamics(model, q[None], state.qdot[None],
                             state.qddot[None], gravity)[0]


def object_desired_wrench(obj, state, gravity):
    """Net wrench [f; 0] the grasp group applies to realize an object motion.

    Force balances inertia plus weight (hovering therefore needs a purely
    upward force).  The object translates without rotating, so the torque
    about its CoM is zero and its inertia tensor never enters.  A state of
    (T, 3) stacks gives (T, 6) wrenches.
    """
    force = obj.mass * state.linear_accel \
        + np.array([0.0, 0.0, obj.mass * gravity])
    return np.concatenate([force, np.zeros_like(force)], axis=-1)
