"""Inverse dynamics checks against the textbook planar 2R closed form.

The oracle writes the two-link equations of motion out longhand (inertia
matrix, Christoffel Coriolis terms, gravity loads) with the link angle
measured counterclockwise from +X toward +Z, gravity along -Z; it shares
nothing with the recursive sweep under test.  Longer chains are checked
against a spatial Newton-Euler sweep in 3-D link frames.
"""
import numpy as np
import pytest

from coopwrench import (JointState, ManipulatorModel, ObjectState,
                        RigidObjectModel, Wrench, cuboid_inertia,
                        gravity_vector, inverse_dynamics, mass_matrix,
                        object_desired_wrench, reference_scenario)
from oracles import closed_form_2r, spatial_rne

G = 9.8067


def make_2r(m1=0.8, m2=0.5, l1=0.3, l2=0.25, c1=0.17, c2=0.11,
            i1=0.006, i2=0.0026):
    return ManipulatorModel(
        id=1,
        base_position=np.zeros(3),
        link_lengths=[l1, l2],
        link_masses=[m1, m2],
        link_com_offsets=[c1, c2],
        link_inertias=[i1, i2],
        torque_limits=[1.0, 1.0],
        velocity_limits=[4.8, 4.8],
    )


def test_rne_matches_closed_form_2r():
    arm = make_2r()
    rng = np.random.default_rng(20)
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, 2)
        qdot = rng.uniform(-3.0, 3.0, 2)
        qddot = rng.uniform(-5.0, 5.0, 2)
        tau = inverse_dynamics(arm, JointState(q, qdot, qddot), G)
        expected = closed_form_2r(arm, q, qdot, qddot, G)
        np.testing.assert_allclose(tau, expected, atol=1e-9)


def test_static_horizontal_torques():
    # holding both links straight out needs the full gravity moments
    arm = make_2r()
    m1, m2 = arm.link_masses
    l1 = arm.link_lengths[0]
    c1, c2 = arm.link_com_offsets
    tau = inverse_dynamics(arm, JointState(np.zeros(2)), G)
    assert abs(tau[0] - (m1 * c1 + m2 * (l1 + c2)) * G) < 1e-12
    assert abs(tau[1] - m2 * c2 * G) < 1e-12


def test_static_free_floating_is_torque_free():
    arm = make_2r()
    tau = inverse_dynamics(arm, JointState([0.4, -1.1]), gravity=0.0)
    np.testing.assert_allclose(tau, np.zeros(2), atol=1e-15)


def test_mass_matrix_symmetric_positive_definite():
    arm = make_2r()
    rng = np.random.default_rng(21)
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, 2)
        M = mass_matrix(arm, q)
        assert np.max(np.abs(M - M.T)) <= 1e-12
        x = rng.normal(size=2)
        assert x @ M @ x > 0.0


def test_mass_matrix_matches_closed_form():
    arm = make_2r()
    rng = np.random.default_rng(22)
    for _ in range(20):
        q = rng.uniform(-np.pi, np.pi, 2)
        M = mass_matrix(arm, q)
        for j in range(2):
            unit = np.zeros(2)
            unit[j] = 1.0
            np.testing.assert_allclose(
                M[:, j], closed_form_2r(arm, q, np.zeros(2), unit, 0.0),
                atol=1e-12)


def test_gravity_vector_zero_gravity():
    arm = make_2r()
    np.testing.assert_array_equal(gravity_vector(arm, [0.3, 0.7], 0.0),
                                  np.zeros(2))


def test_rne_splits_into_inertia_coriolis_gravity():
    arm = make_2r()
    rng = np.random.default_rng(23)
    for _ in range(50):
        q = rng.uniform(-np.pi, np.pi, 2)
        qdot = rng.uniform(-3.0, 3.0, 2)
        qddot = rng.uniform(-5.0, 5.0, 2)
        tau = inverse_dynamics(arm, JointState(q, qdot, qddot), G)
        coriolis = inverse_dynamics(arm, JointState(q, qdot), 0.0)
        rebuilt = mass_matrix(arm, q) @ qddot + coriolis \
            + gravity_vector(arm, q, G)
        np.testing.assert_allclose(tau, rebuilt, atol=1e-9)


def test_coriolis_energy_consistency():
    """q̇ᵀ(Ṁ - 2C)q̇ = 0: the power balance of the inertia terms."""
    arm = make_2r()
    rng = np.random.default_rng(24)
    h = 1e-6
    for _ in range(30):
        q = rng.uniform(-np.pi, np.pi, 2)
        qdot = rng.uniform(-3.0, 3.0, 2)
        mdot = np.zeros((2, 2))
        for j in range(2):
            dq = np.zeros(2)
            dq[j] = h
            mdot += (mass_matrix(arm, q + dq) - mass_matrix(arm, q - dq)) \
                / (2.0 * h) * qdot[j]
        coriolis = inverse_dynamics(arm, JointState(q, qdot), 0.0)
        assert abs(qdot @ mdot @ qdot - 2.0 * qdot @ coriolis) <= 1e-6


def test_three_link_rne_consistent_with_its_own_split():
    arm = ManipulatorModel(
        id=1, base_position=[0.1, 0.0, 0.2],
        link_lengths=[0.2, 0.2, 0.05], link_masses=[0.08, 0.07, 0.04],
        link_com_offsets=[0.1, 0.1, 0.025],
        link_inertias=[2.7e-4, 2.3e-4, 8.3e-6],
        torque_limits=[1.0, 1.0, 1.0], velocity_limits=[4.8, 4.8, 4.8])
    rng = np.random.default_rng(25)
    for _ in range(25):
        q = rng.uniform(-np.pi, np.pi, 3)
        qdot = rng.uniform(-3.0, 3.0, 3)
        qddot = rng.uniform(-5.0, 5.0, 3)
        tau = inverse_dynamics(arm, JointState(q, qdot, qddot), G)
        rebuilt = mass_matrix(arm, q) @ qddot \
            + inverse_dynamics(arm, JointState(q, qdot), 0.0) \
            + gravity_vector(arm, q, G)
        np.testing.assert_allclose(tau, rebuilt, atol=1e-9)


def test_planar_rne_matches_spatial_sweep_on_reference_arm():
    arm = reference_scenario().manipulators[0]
    rng = np.random.default_rng(27)
    worst = 0.0
    for _ in range(200):
        q = rng.uniform(-np.pi, np.pi, 3)
        qdot = rng.uniform(-3.0, 3.0, 3)
        qddot = rng.uniform(-5.0, 5.0, 3)
        tau = inverse_dynamics(arm, JointState(q, qdot, qddot), G)
        expected = spatial_rne(arm, q, qdot, qddot, G)
        np.testing.assert_allclose(tau, expected, rtol=1e-12, atol=1e-12)
        worst = max(worst, float(np.max(np.abs(tau - expected))))
    print(f"PASS planar vs spatial RNE: max deviation {worst:.2e}")


def hover_state(position=(0.35, 0.0, 0.35)):
    zero = np.zeros(3)
    return ObjectState(position, zero, zero)


def make_object(mass=2.0):
    return RigidObjectModel(
        mass=mass,
        inertia=cuboid_inertia(mass, [0.2, 0.02, 0.15]),
        grasp_points=[[0.1, 0.0, 0.0]],
    )


def test_hover_wrench_is_exact_weight():
    wrench = object_desired_wrench(make_object(), hover_state(), G)
    np.testing.assert_allclose(wrench.force, [0.0, 0.0, 19.6134], atol=1e-10)
    np.testing.assert_allclose(wrench.torque, np.zeros(3), atol=1e-10)


def test_zero_gravity_zero_motion_zero_wrench():
    wrench = object_desired_wrench(make_object(), hover_state(), 0.0)
    np.testing.assert_array_equal(wrench.force, np.zeros(3))
    np.testing.assert_array_equal(wrench.torque, np.zeros(3))


def test_circular_trajectory_centripetal_force():
    obj = make_object()
    radius, rate = 0.05, 0.4 * np.pi
    for t in np.linspace(0.0, 5.0, 11):
        angle = rate * t
        accel = -radius * rate ** 2 * np.array(
            [np.cos(angle), 0.0, np.sin(angle)])
        state = ObjectState([0.35, 0.0, 0.35], np.zeros(3), accel)
        wrench = object_desired_wrench(obj, state, G)
        expected_x = -obj.mass * radius * rate ** 2 * np.cos(angle)
        assert abs(wrench.force[0] - expected_x) <= 1e-10
        assert abs(wrench.force[2]
                   - (obj.mass * accel[2] + obj.mass * G)) <= 1e-10


def test_wrench_linear_in_acceleration():
    obj = make_object()
    rng = np.random.default_rng(26)
    accel = rng.normal(size=3)
    base = object_desired_wrench(obj, hover_state(), G)
    one = object_desired_wrench(
        obj, ObjectState([0.35, 0.0, 0.35], np.zeros(3), accel), G)
    two = object_desired_wrench(
        obj, ObjectState([0.35, 0.0, 0.35], np.zeros(3), 2.0 * accel), G)
    np.testing.assert_allclose(two.force - base.force,
                               2.0 * (one.force - base.force), atol=1e-12)
