"""Kinematics checks against independently coded oracles.

The forward-kinematics oracle chains homogeneous 4x4 transforms built from
Rodrigues' rotation formula, sharing no code with the cumulative-angle
implementation under test.  Jacobians are checked column-by-column against
central finite differences of the oracle-verified forward kinematics.
"""
import dataclasses
import re

import numpy as np
import pytest

from coopwrench import (JointState, ObjectState, Pose,
                        ScenarioValidationError, asymmetric_scenario,
                        differential_ik, ee_pose_from_object,
                        evaluate_trajectory, forward_kinematics, ik_planar3r,
                        inverse_dynamics, jacobian, joint_positions,
                        reference_scenario, runner, time_grid)
from coopwrench.dynamics import _inverse_dynamics
from coopwrench.kinematics import JOINT_AXIS, _differential_ik, _ik
from oracles import (_reference_ik_path, exact_differential_ik,
                     reference_differential_ik, reference_ik_planar3r,
                     reference_jacobian, reference_joint_positions, rodrigues,
                     transform_chain_fk)

# qddot against the exact oracle, and against the frozen finite-difference
# J-dot, as a share of max(1, |qddot|); both are well above what the
# built-in arms reach (4.4e-10 and 3.9e-7 near a singularity)
EXACT_QDDOT_TOL = 1e-8
FROZEN_QDDOT_TOL = 1e-5


def make_arm(base=(0.0, 0.0, 0.0), lengths=(0.1, 0.1, 0.1)):
    from coopwrench import ManipulatorModel
    lengths = np.asarray(lengths, dtype=float)
    return ManipulatorModel(
        id=1,
        base_position=base,
        link_lengths=lengths,
        link_masses=0.05 * np.ones(lengths.size),
        link_com_offsets=lengths / 2.0,
        link_inertias=0.05 * lengths ** 2 / 12.0,
        torque_limits=np.ones(lengths.size),
        velocity_limits=4.8 * np.ones(lengths.size),
    )


def test_fk_straight_chain():
    arm = make_arm()
    pose = forward_kinematics(arm, np.zeros(3))
    np.testing.assert_allclose(pose.position, [0.3, 0.0, 0.0], atol=1e-15)
    assert pose.pitch == 0.0


def test_fk_quarter_turn_reaches_straight_up():
    arm = make_arm()
    pose = forward_kinematics(arm, [np.pi / 2, 0.0, 0.0])
    np.testing.assert_allclose(pose.position, [0.0, 0.0, 0.3], atol=1e-15)


def test_fk_matches_transform_chain_oracle():
    arm = make_arm(base=(0.2, 0.0, -0.1), lengths=(0.15, 0.23, 0.07))
    rng = np.random.default_rng(7)
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, 3)
        pose = forward_kinematics(arm, q)
        pos, rot = transform_chain_fk(arm, q, JOINT_AXIS)
        np.testing.assert_allclose(pose.position, pos, atol=1e-12)
        np.testing.assert_allclose(rodrigues(JOINT_AXIS, pose.pitch), rot,
                                   atol=1e-12)


def test_fk_stays_in_plane():
    arm = make_arm(base=(0.1, 0.25, 0.0))
    rng = np.random.default_rng(8)
    for _ in range(50):
        q = rng.uniform(-np.pi, np.pi, 3)
        pose = forward_kinematics(arm, q)
        assert pose.position[1] == arm.base_position[1]


def test_joint_positions_shape_and_endpoints():
    arm = make_arm(base=(0.1, 0.0, 0.3))
    q = np.array([0.4, -0.9, 1.3])
    points = joint_positions(arm, q)
    assert points.shape == (4, 3)
    np.testing.assert_allclose(points[0], arm.base_position)
    pose = forward_kinematics(arm, q)
    np.testing.assert_allclose(points[-1], pose.position, atol=1e-15)


def test_jacobian_linear_rows_match_finite_differences():
    arm = make_arm(base=(0.05, 0.0, 0.1), lengths=(0.2, 0.2, 0.05))
    rng = np.random.default_rng(10)
    h = 1e-7
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, 3)
        J = jacobian(arm, q)
        for j in range(3):
            dq = np.zeros(3)
            dq[j] = h
            fwd = forward_kinematics(arm, q + dq).position
            bwd = forward_kinematics(arm, q - dq).position
            fd = (fwd - bwd) / (2.0 * h)
            scale = max(1.0, np.linalg.norm(fd))
            assert np.max(np.abs(fd - J[:3, j])) / scale <= 1e-6


def test_jacobian_angular_rows_match_rotation_derivative():
    # dR/dq_j R^T must be the cross-product matrix of the angular column,
    # with R the rotation by the pose's pitch about the joint axis
    arm = make_arm()
    rng = np.random.default_rng(11)
    h = 1e-7

    def rotation(q):
        return rodrigues(JOINT_AXIS, forward_kinematics(arm, q).pitch)

    for _ in range(20):
        q = rng.uniform(-np.pi, np.pi, 3)
        J = jacobian(arm, q)
        R = rotation(q)
        for j in range(3):
            dq = np.zeros(3)
            dq[j] = h
            Rp = rotation(q + dq)
            Rm = rotation(q - dq)
            W = (Rp - Rm) / (2.0 * h) @ R.T
            omega = np.array([W[2, 1], W[0, 2], W[1, 0]])
            np.testing.assert_allclose(omega, J[3:, j], atol=1e-7)


def test_jacobian_planar_zero_rows_and_spin_axis():
    # positive joint rates turn +X toward +Z, which is a spin about -Y
    arm = make_arm()
    rng = np.random.default_rng(12)
    for _ in range(20):
        q = rng.uniform(-np.pi, np.pi, 3)
        J = jacobian(arm, q)
        np.testing.assert_array_equal(J[1, :], np.zeros(3))
        np.testing.assert_array_equal(J[3, :], np.zeros(3))
        np.testing.assert_array_equal(J[5, :], np.zeros(3))
        np.testing.assert_array_equal(J[4, :], -np.ones(3))


def test_ik_roundtrip_contains_original():
    arm = make_arm(base=(0.3, 0.0, 0.1), lengths=(0.2, 0.2, 0.05))
    rng = np.random.default_rng(13)
    for _ in range(100):
        q = rng.uniform(-2.5, 2.5, 3)
        target = forward_kinematics(arm, q)
        solutions = ik_planar3r(arm, target)
        assert solutions, f"no IK solution for its own FK pose, q={q}"
        best = min(np.max(np.abs(s - q)) for s in solutions)
        # wrapped angles may differ by 2*pi; compare through FK instead
        for s in solutions:
            pose = forward_kinematics(arm, s)
            assert np.linalg.norm(pose.position - target.position) <= 1e-9
            angle_err = pose.pitch - target.pitch
            assert abs(np.arctan2(np.sin(angle_err),
                                  np.cos(angle_err))) <= 1e-9
        assert best < 1e-6 or len(solutions) == 2


def test_ik_full_extension_single_solution():
    arm = make_arm()
    target = forward_kinematics(arm, np.zeros(3))
    solutions = ik_planar3r(arm, target)
    assert len(solutions) == 1
    np.testing.assert_allclose(solutions[0], np.zeros(3), atol=1e-9)


def test_ik_unreachable_targets():
    arm = make_arm()
    beyond = Pose([1.0, 0.0, 0.0], 0.0)
    assert ik_planar3r(arm, beyond) == []
    out_of_plane = Pose([0.1, 0.2, 0.1], 0.0)
    assert ik_planar3r(arm, out_of_plane) == []


def test_ik_two_elbow_branches():
    arm = make_arm(lengths=(0.2, 0.2, 0.05))
    target = forward_kinematics(arm, [0.3, -0.8, 0.2])
    solutions = ik_planar3r(arm, target)
    assert len(solutions) == 2
    elbows = sorted(s[1] for s in solutions)
    assert elbows[0] < 0.0 < elbows[1]


def test_differential_ik_null_motion():
    arm = make_arm()
    motion = differential_ik(arm, [0.3, -0.5, 0.4], np.zeros(3), np.zeros(3))
    np.testing.assert_array_equal(motion.qdot, np.zeros(3))
    np.testing.assert_array_equal(motion.qddot, np.zeros(3))
    assert not motion.damped


def test_differential_ik_velocity_residual():
    arm = make_arm(lengths=(0.2, 0.2, 0.05))
    rng = np.random.default_rng(14)
    for _ in range(50):
        q = rng.uniform(0.2, 1.2, 3)
        twist = np.zeros(6)
        twist[[0, 2, 4]] = rng.normal(size=3)
        motion = differential_ik(arm, q, twist[[0, 2, 4]], np.zeros(3))
        J = jacobian(arm, q)
        np.testing.assert_allclose(J @ motion.qdot, twist, atol=1e-9)
        assert not motion.damped


def test_differential_ik_matches_trajectory_differencing():
    """Joint rates and accelerations agree with differenced IK paths."""
    cfg = reference_scenario()
    arm = cfg.manipulators[0]
    grasp = cfg.object.grasp_points[0]
    h = 1e-4

    def solved_q(t, near):
        state = evaluate_trajectory(cfg.trajectory, t)
        target = ee_pose_from_object(state, grasp)
        solutions = ik_planar3r(arm, target)
        assert solutions
        return min(solutions, key=lambda s: np.linalg.norm(s - near))

    t0 = 0.25
    state = evaluate_trajectory(cfg.trajectory, t0)
    q0 = solved_q(t0, np.array([0.0, -1.5, 1.0]))
    qp = solved_q(t0 + h, q0)
    qm = solved_q(t0 - h, q0)
    motion = differential_ik(arm, q0,
                             [*state.linear_velocity[::2], 0.0],
                             [*state.linear_accel[::2], 0.0])
    fd_qdot = (qp - qm) / (2.0 * h)
    fd_qddot = (qp - 2.0 * q0 + qm) / h ** 2
    np.testing.assert_allclose(motion.qdot, fd_qdot, atol=1e-4)
    np.testing.assert_allclose(motion.qddot, fd_qddot, atol=1e-3)


def test_differential_ik_damps_at_singularity():
    arm = make_arm()
    motion = differential_ik(arm, np.zeros(3), [0.1, 0.0, 0.0], np.zeros(3))
    assert motion.damped
    assert np.all(np.isfinite(motion.qdot))


def test_ee_pose_from_object():
    state = ObjectState([0.35, 0.0, 0.35], np.zeros(3), np.zeros(3))
    pose = ee_pose_from_object(state, [0.1, 0.0, 0.0])
    np.testing.assert_allclose(pose.position, [0.45, 0.0, 0.35])
    assert pose.pitch == 0.0


@pytest.mark.parametrize("pitch", [np.nan, np.inf, -np.inf, True, "0.1",
                                   None, np.eye(3), 10 ** 400])
def test_pose_rejects_pitch_not_a_finite_number(pitch):
    with pytest.raises(ScenarioValidationError, match="pitch"):
        Pose([0.0, 0.0, 0.0], pitch)


@pytest.mark.parametrize("twist", [np.zeros(6), np.zeros(2), np.zeros(5),
                                   np.zeros((3, 1))])
def test_differential_ik_takes_only_planar_rows(twist):
    arm = make_arm()
    with pytest.raises(ValueError, match="px, pz, wy"):
        differential_ik(arm, [0.3, -0.5, 0.4], twist, np.zeros(3))
    with pytest.raises(ValueError, match="px, pz, wy"):
        differential_ik(arm, [0.3, -0.5, 0.4], np.zeros(3), twist)


def assert_same_bits(actual, expected):
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def assert_kinematics_match_reference(arm, q, twist, accel):
    """Bit for bit where the frozen reference is exact, qddot to tolerance.

    The frozen reference's J-dot is a finite difference; the package's is
    exact, so qddot is held to the exact oracle and, loosely, to the frozen
    value.
    """
    assert_same_bits(joint_positions(arm, q),
                     reference_joint_positions(arm, q))
    assert_same_bits(jacobian(arm, q), reference_jacobian(arm, q))
    # the references take 6-row twists whose py, wx and wz rows are zero
    motion = differential_ik(arm, q, twist[[0, 2, 4]], accel[[0, 2, 4]])
    frozen = reference_differential_ik(arm, q, twist, accel)
    assert_same_bits(motion.qdot, frozen.qdot)
    assert motion.damped == frozen.damped
    exact = exact_differential_ik(arm, q, twist, accel)
    scale = max(1.0, float(np.max(np.abs(exact.qddot))))
    assert np.max(np.abs(motion.qddot - exact.qddot)) \
        <= EXACT_QDDOT_TOL * scale
    assert np.max(np.abs(motion.qddot - frozen.qddot)) \
        <= FROZEN_QDDOT_TOL * scale
    return motion.damped


BUILT_IN_ARMS = [
    pytest.param(arm, id=f"{scenario.__name__}-{arm.id}")
    for scenario in (reference_scenario, asymmetric_scenario)
    for arm in scenario().manipulators]


def random_states(arm):
    """400 (q, twist, accel) with 6-row twists; every second q lies within
    1e-7 of a straight or folded elbow."""
    rng = np.random.default_rng(arm.id)
    for i in range(400):
        q = rng.uniform(-np.pi, np.pi, 3)
        if i % 2:
            q[1] = rng.choice([0.0, np.pi, -np.pi]) + rng.uniform(-1e-7, 1e-7)
        twist, accel = np.zeros(6), np.zeros(6)
        twist[[0, 2, 4]] = rng.normal(size=3)
        accel[[0, 2, 4]] = rng.normal(size=3)
        yield q, twist, accel


@pytest.mark.parametrize("arm", BUILT_IN_ARMS)
def test_kinematics_match_frozen_reference_bit_for_bit(arm):
    """Random states, half of them within 1e-7 of a straight or folded elbow."""
    damped = sum(assert_kinematics_match_reference(arm, *state)
                 for state in random_states(arm))
    assert damped > 0


@pytest.mark.parametrize("arm", BUILT_IN_ARMS)
def test_batched_rows_equal_per_call_results_bit_for_bit(arm):
    """One code path: a stack of states gives each row's per-call result.

    The stack mixes damped and undamped rows, so both solves run batched.
    """
    qs, twists, accels = zip(*random_states(arm))
    q = np.array(qs)
    twist = np.array(twists)[:, [0, 2, 4]]
    accel = np.array(accels)[:, [0, 2, 4]]
    wrenches = np.random.default_rng(300 + arm.id).normal(size=(len(q), 6))
    gravity = 9.8067
    jac, qdot, qddot, damped = _differential_ik(arm, q, twist, accel)
    tau_prime = _inverse_dynamics(arm, q, qdot, qddot, gravity)
    loads = runner._arm_pass(arm, q, twist, accel, wrenches, gravity)
    assert 0 < damped.sum() < len(q)
    for s in range(len(q)):
        motion = differential_ik(arm, q[s], twist[s], accel[s])
        assert_same_bits(qdot[s], motion.qdot)
        assert_same_bits(qddot[s], motion.qddot)
        assert damped[s] == loads.damped[s] == motion.damped
        assert_same_bits(jac[s], jacobian(arm, q[s]))
        assert_same_bits(loads.jt_hd[s],
                         jacobian(arm, q[s]).T @ wrenches[s])
        tau = inverse_dynamics(
            arm, JointState(q[s], motion.qdot, motion.qddot), gravity)
        assert_same_bits(tau_prime[s], tau)
        assert_same_bits(loads.tau_prime[s], tau)
        assert loads.too_fast[s] == \
            (np.abs(motion.qdot) > arm.velocity_limits).any()


@pytest.mark.parametrize("arm", BUILT_IN_ARMS)
def test_pure_moment_loads_every_joint_alike(arm):
    """J^T [0; m] is JOINT_AXIS @ m at every joint, exactly.

    The capability solves carry the compensating moment as that one
    scalar, which holds only while every joint axis is JOINT_AXIS.
    """
    rng = np.random.default_rng(100 + arm.id)
    for i in range(400):
        q = rng.uniform(-np.pi, np.pi, 3)
        if i % 2:
            q[1] = rng.choice([0.0, np.pi, -np.pi]) + rng.uniform(-1e-7, 1e-7)
        m = rng.uniform(0.1, 10.0, 3) * rng.choice([-1.0, 1.0], 3)
        assert np.array_equal(jacobian(arm, q).T @ np.r_[np.zeros(3), m],
                              np.full(3, JOINT_AXIS @ m))


@pytest.mark.parametrize("scenario", [reference_scenario, asymmetric_scenario])
def test_kinematics_match_frozen_reference_along_ik_paths(scenario):
    config = scenario()
    states = [evaluate_trajectory(config.trajectory, t)
              for t in time_grid(config)]
    zero = np.zeros(3)
    positions = np.array([state.position for state in states])
    for arm, path in zip(config.manipulators,
                         runner._ik_paths(config, positions)):
        for state, q in zip(states, path):
            assert_kinematics_match_reference(
                arm, q, np.concatenate([state.linear_velocity, zero]),
                np.concatenate([state.linear_accel, zero]))


def ik_targets(arm, rng, count=300):
    """Wrist points inside the reach, just past it, at the straight-arm
    boundary (within 1e-11 outside it, so one solution), and off the plane
    by 2e-9 (no solution) or 5e-10 (still in it)."""
    l1, l2, _ = arm.link_lengths
    for i in range(count):
        reach = (l1 + l2) * [rng.uniform(0.05, 1.0), 1.0 + 1e-8,
                             1.0 + rng.uniform(0.0, 1e-11), 0.8, 0.8][i % 5]
        angle = rng.uniform(-np.pi, np.pi)
        wrist = arm.base_position + reach * np.array(
            [np.cos(angle), 0.0, np.sin(angle)])
        wrist[1] += [0.0, 0.0, 0.0, 2e-9, 5e-10][i % 5]
        yield wrist


@pytest.mark.parametrize("pitch", [0.0, 0.7, -2.1])
@pytest.mark.parametrize("arm", BUILT_IN_ARMS)
def test_batched_ik_equals_per_call_ik_bit_for_bit(arm, pitch):
    """Each row of the (T, 2, 3) kernel is ik_planar3r's list, bit for bit,
    with the one straight-arm branch repeated.

    The frozen per-call solve finds as many solutions, equal to 1e-12.  It
    squared by scalar ``** 2``, which calls libm pow and misses the
    correctly rounded x * x of the kernel in the last bit for about one
    input in a thousand: 12 of the 7200 solutions here move by one ulp.
    """
    rng = np.random.default_rng(400 + arm.id)
    tip = arm.link_lengths[2] * np.array([np.cos(pitch), 0.0, np.sin(pitch)])
    position = np.array(list(ik_targets(arm, rng))) + tip
    q, count = _ik(arm, position, pitch)
    assert set(count.tolist()) == {0, 1, 2}
    for s, target in enumerate(position):
        solutions = ik_planar3r(arm, Pose(target, pitch))
        frozen = reference_ik_planar3r(arm, Pose(target, pitch))
        assert count[s] == len(solutions) == len(frozen)
        for branch, expected in enumerate(frozen):
            assert_same_bits(q[s, branch], solutions[branch])
            np.testing.assert_allclose(q[s, branch], expected, rtol=0,
                                       atol=1e-12)
        if count[s] == 1:
            assert_same_bits(q[s, 1], q[s, 0])


def jittered_layout(seed):
    """A built-in scenario with its grasp points, circle centre and radius
    jittered as perfbench/workloads.py jitters them, over one cycle."""
    rng = np.random.default_rng(600 + seed)
    config = (reference_scenario, asymmetric_scenario)[seed % 2]()
    grasps = config.object.grasp_points + rng.uniform(-0.005, 0.005, (4, 3))
    grasps[:, 1] = 0.0
    center = config.trajectory.center + rng.uniform(-0.005, 0.005, 3)
    center[1] = 0.0
    trajectory = dataclasses.replace(
        config.trajectory, center=center,
        radius=config.trajectory.radius * rng.uniform(0.9, 1.1))
    return dataclasses.replace(
        config, trajectory=trajectory, dt=0.05, cycles=1,
        object=dataclasses.replace(config.object, grasp_points=grasps))


@pytest.mark.parametrize("seed", range(20))
def test_branch_pass_equals_frozen_branch_selection(seed):
    config = jittered_layout(seed)
    states = [evaluate_trajectory(config.trajectory, t)
              for t in time_grid(config)]
    positions = np.array([state.position for state in states])
    paths = runner._ik_paths(config, positions)
    assert paths.shape == (4, len(states), 3)
    for arm, grasp_point, path in zip(config.manipulators,
                                      config.object.grasp_points, paths):
        frozen = _reference_ik_path(arm, grasp_point, states)
        for q, expected in zip(path, frozen, strict=True):
            assert_same_bits(q, expected)


@pytest.mark.parametrize("length", [1, 2, 4])
def test_joint_count_mismatch_is_rejected(length):
    arm = make_arm()
    q = np.zeros(length)
    message = re.escape(f"q must have 3 entries, got shape ({length},)")
    with pytest.raises(ValueError, match=message):
        jacobian(arm, q)
    with pytest.raises(ValueError, match=message):
        joint_positions(arm, q)
    with pytest.raises(ValueError, match=message):
        differential_ik(arm, q, np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match=message):
        inverse_dynamics(arm, JointState(q, q, q), 9.8067)


def test_joint_state_requires_rates_and_freezes_them():
    with pytest.raises(TypeError, match="qdot"):
        JointState([0.1, -0.2, 0.3])
    with pytest.raises(TypeError, match="qddot"):
        JointState([0.1, -0.2], qdot=[1.0, 2.0])
    given = JointState([0.1, -0.2], qdot=[1.0, 2.0], qddot=[-0.0, 0.0])
    np.testing.assert_array_equal(given.qdot, [1.0, 2.0])
    assert_same_bits(given.qddot, np.array([-0.0, 0.0]))
    for value in (given.q, given.qdot, given.qddot):
        assert not value.flags.writeable
    with pytest.raises(ScenarioValidationError, match="qddot"):
        JointState([0.1, -0.2], [0.0, 0.0], qddot=[np.nan, 0.0])
