"""Kinematics checks against independently coded oracles.

The forward-kinematics oracle chains homogeneous 4x4 transforms built from
Rodrigues' rotation formula, sharing no code with the cumulative-angle
implementation under test.  Jacobians are checked column-by-column against
central finite differences of the oracle-verified forward kinematics.
"""
import numpy as np
import pytest

from coopwrench import (JointState, ObjectState, Pose,
                        ScenarioValidationError, asymmetric_scenario,
                        differential_ik, ee_pose_from_object,
                        evaluate_trajectory, forward_kinematics, ik_planar3r,
                        jacobian, joint_positions, reference_scenario,
                        time_grid)
from coopwrench.kinematics import JOINT_AXIS
from coopwrench.runner import _solve_ik_paths
from oracles import (reference_differential_ik, reference_jacobian,
                     reference_joint_positions, rodrigues, transform_chain_fk)


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
    assert_same_bits(joint_positions(arm, q),
                     reference_joint_positions(arm, q))
    assert_same_bits(jacobian(arm, q), reference_jacobian(arm, q))
    # the reference takes 6-row twists whose py, wx and wz rows are zero
    motion = differential_ik(arm, q, twist[[0, 2, 4]], accel[[0, 2, 4]])
    frozen = reference_differential_ik(arm, q, twist, accel)
    assert_same_bits(motion.qdot, frozen.qdot)
    assert_same_bits(motion.qddot, frozen.qddot)
    assert motion.damped == frozen.damped
    return motion.damped


BUILT_IN_ARMS = [
    pytest.param(arm, id=f"{scenario.__name__}-{arm.id}")
    for scenario in (reference_scenario, asymmetric_scenario)
    for arm in scenario().manipulators]


@pytest.mark.parametrize("arm", BUILT_IN_ARMS)
def test_kinematics_match_frozen_reference_bit_for_bit(arm):
    """Random states, half of them within 1e-7 of a straight or folded elbow."""
    rng = np.random.default_rng(arm.id)
    damped = 0
    for i in range(400):
        q = rng.uniform(-np.pi, np.pi, 3)
        if i % 2:
            q[1] = rng.choice([0.0, np.pi, -np.pi]) + rng.uniform(-1e-7, 1e-7)
        twist, accel = np.zeros(6), np.zeros(6)
        twist[[0, 2, 4]] = rng.normal(size=3)
        accel[[0, 2, 4]] = rng.normal(size=3)
        damped += assert_kinematics_match_reference(arm, q, twist, accel)
    assert damped > 0


@pytest.mark.parametrize("scenario", [reference_scenario, asymmetric_scenario])
def test_kinematics_match_frozen_reference_along_ik_paths(scenario):
    config = scenario()
    states = [evaluate_trajectory(config.trajectory, t)
              for t in time_grid(config)]
    zero = np.zeros(3)
    for arm, path in zip(config.manipulators,
                         _solve_ik_paths(config, states)):
        for state, q in zip(states, path):
            assert_kinematics_match_reference(
                arm, q, np.concatenate([state.linear_velocity, zero]),
                np.concatenate([state.linear_accel, zero]))


@pytest.mark.parametrize("length", [1, 2, 4])
def test_joint_count_mismatch_is_rejected(length):
    arm = make_arm()
    with pytest.raises(ValueError):
        jacobian(arm, np.zeros(length))
    with pytest.raises(ValueError):
        joint_positions(arm, np.zeros(length))


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
