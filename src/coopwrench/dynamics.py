"""Inverse dynamics for the planar chains and the carried object.

Joint torques come from a recursive Newton-Euler sweep specialized to
fixed-base serial chains whose joints all rotate about the axis normal to
the X-Z motion plane, so it runs on in-plane vectors and scalar moments.
Gravity acts along world -Z and is injected through the standard
base-acceleration trick, so no separate gravity pass is needed.
Torque vectors are plain float arrays ordered by joint.
"""
from __future__ import annotations

import math
from itertools import accumulate

import numpy as np


def inverse_dynamics(model, state, gravity):
    """Joint torques carrying the chain itself through the given state.

    The result covers inertial, velocity-product, and gravity loads of the
    links only; any wrench applied at the end effector is accounted for
    separately through the Jacobian transpose by the capability layer.
    """
    # Forward sweep in the world X-Z plane.  Angles, rates and moments are
    # about the joint axis, positive from +X toward +Z, so a link's angle,
    # rate and angular acceleration are sums over the joints inboard of it.
    accel_x, accel_z = 0.0, gravity  # base acceleration trick
    links = []
    for angle, rate, rate_dot, length, com, mass, inertia in zip(
            accumulate(state.q.tolist()), accumulate(state.qdot.tolist()),
            accumulate(state.qddot.tolist()), model.link_lengths.tolist(),
            model.link_com_offsets.tolist(), model.link_masses.tolist(),
            model.link_inertias.tolist(), strict=True):
        c, s = math.cos(angle), math.sin(angle)
        # acceleration per unit distance along the link, relative to its
        # joint: tangential plus centripetal
        per_x = -rate_dot * s - rate * rate * c
        per_z = rate_dot * c - rate * rate * s
        links.append((length * c, length * s, com * c, com * s,
                      mass * (accel_x + com * per_x),
                      mass * (accel_z + com * per_z), inertia * rate_dot))
        accel_x += length * per_x
        accel_z += length * per_z

    # Backward sweep: the outboard force acts at the link tip, the link's
    # own inertial force at its CoM.
    torques = np.empty(len(links))
    force_x = force_z = moment = 0.0
    for i in range(len(links) - 1, -1, -1):
        tip_x, tip_z, com_x, com_z, inertial_x, inertial_z, spin = links[i]
        moment += spin + tip_x * force_z - tip_z * force_x \
            + com_x * inertial_z - com_z * inertial_x
        force_x += inertial_x
        force_z += inertial_z
        torques[i] = moment
    return torques


def object_desired_wrench(obj, state, gravity):
    """Net wrench [f; 0] the grasp group applies to realize an object motion.

    Force balances inertia plus weight (hovering therefore needs a purely
    upward force).  The object translates without rotating, so the torque
    about its CoM is zero and its inertia tensor never enters.
    """
    force = obj.mass * state.linear_accel \
        + np.array([0.0, 0.0, obj.mass * gravity])
    return np.concatenate([force, np.zeros(3)])
