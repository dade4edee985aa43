"""End-to-end acceptance checks, one test per shipped guarantee.

Every test prints a PASS line with the measured quantity next to its
tolerance, so a log scan shows how much margin each guarantee has.
"""
import dataclasses
import time

import numpy as np
import pytest

from coopwrench import (AllocationWeights, CapabilityProblem, GraspMap,
                        JointState, ManipulatorModel, TrajectorySpec,
                        capability_scalar, counterbalance_moment,
                        evaluate_trajectory, export, forward_kinematics,
                        group_capability, group_capability_joint,
                        ik_planar3r, inverse_dynamics, jacobian,
                        object_desired_wrench, reference_scenario,
                        asymmetric_scenario, run_scenario)
from coopwrench.capability import (FLAG_INFEASIBLE, FLAG_UNBOUNDED,
                                   DEFAULT_UNBOUNDED_CAP)

from coopwrench.kinematics import JOINT_AXIS
from oracles import (bisect_capability, closed_form_2r, joint_program,
                     object_wrench_from_ee, rodrigues,
                     vertex_enumeration_optimum)
from test_capability import with_moment


@pytest.fixture(scope="module")
def full_both():
    start = time.perf_counter()
    result = run_scenario(reference_scenario())
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def full_joint():
    return run_scenario(dataclasses.replace(reference_scenario(),
                                            mode="improved-joint"))


@pytest.fixture(scope="module")
def static_uniform():
    config = dataclasses.replace(
        reference_scenario(),
        trajectory=TrajectorySpec(kind="static-hold",
                                  center=[0.35, 0.0, 0.35]),
        beta_policy="uniform", cycles=1)
    return (run_scenario(config),
            run_scenario(dataclasses.replace(config, mode="baseline")))


def test_reference_run_completes_with_both_series(full_both):
    result, elapsed = full_both
    assert result.summary["sample_count"] == 1001
    assert all(s.K0 is not None and s.K1 is not None
               for s in result.samples)
    assert elapsed < 5.0
    print(f"PASS reference run: 1001 samples, both series, "
          f"{elapsed:.2f} s < 5 s")


def test_joint_mode_never_loses_capability(full_joint):
    margins = [s.K1 - s.K0 for s in full_joint.samples]
    worst = min(margins)
    assert worst >= -1e-9
    print(f"PASS joint-mode dominance: min(K1 - K0) = {worst:.3e} >= -1e-9 "
          f"over {len(margins)} steps")


def test_asymmetric_variant_gains_on_average():
    result = run_scenario(asymmetric_scenario())
    improvement = result.summary["improvement_percent"]
    assert improvement > 0.0
    print(f"PASS asymmetric variant: mean improvement "
          f"{improvement:+.2f}% > 0")


def test_static_symmetric_hover_is_exact_null(static_uniform):
    both, _ = static_uniform
    worst = 0.0
    for sample in both.samples:
        np.testing.assert_array_equal(sample.t_delta, np.zeros(3))
        worst = max(worst, abs(sample.K1 - sample.K0))
    assert worst <= 1e-9
    print(f"PASS symmetry null: t_delta identically zero, "
          f"max |K1 - K0| = {worst:.1e} <= 1e-9")


def test_scalar_capability_matches_bisection():
    rng = np.random.default_rng(70)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        tau_max = rng.uniform(0.5, 2.0, n)
        problem = CapabilityProblem(
            jt_hd=np.where(rng.random(n) < 0.15, 0.0, rng.normal(size=n)),
            tau_prime=rng.uniform(-0.95, 0.95, n) * tau_max,
            tau_max=tau_max,
        )
        result = capability_scalar(problem)
        expected = bisect_capability(problem)
        if result.flag == FLAG_UNBOUNDED:
            assert expected >= DEFAULT_UNBOUNDED_CAP * 0.99
            continue
        worst = max(worst, abs(result.k - expected))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 1.0
    print(f"PASS scalar capability: 1000 problems, max |dk| = {worst:.2e} "
          f"<= 1e-8 in {elapsed:.2f} s < 1 s")


def test_joint_sweep_matches_vertex_enumeration():
    """The joint sweep against every vertex of the joint program.

    Random groups of 3-joint arms, some overloaded, at a nonzero moment,
    so the shares are bounded and the program is a polytope: its best
    vertex is the optimum, and no vertex means no feasible split.
    """
    rng = np.random.default_rng(71)
    start = time.perf_counter()
    worst, infeasible = 0.0, 0
    counts = [1, 2] * 100 + [3] * 12
    for count in counts:
        problems = []
        for _ in range(count):
            tau_max = rng.uniform(0.5, 2.0, 3)
            problems.append(CapabilityProblem(
                jt_hd=np.where(rng.random(3) < 0.15, 0.0,
                               rng.normal(size=3)),
                tau_prime=rng.uniform(-1.2, 1.2, 3) * tau_max,
                tau_max=tau_max))
        moment = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 1.5))
        cap = float(rng.choice([3.0, 50.0]))
        result = group_capability_joint(problems, moment, unbounded_cap=cap)
        expected = vertex_enumeration_optimum(joint_program(
            [with_moment(p, moment) for p in problems], cap))
        assert (FLAG_INFEASIBLE in result.flags) == (expected is None)
        if expected is None:
            infeasible += 1
        else:
            worst = max(worst, abs(result.K1 - expected) / abs(expected))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert 0 < infeasible < len(counts)
    assert elapsed < 5.0
    print(f"PASS joint sweep vs vertex enumeration: {len(counts)} groups "
          f"({counts.count(3)} of 3 arms), {infeasible} infeasible on both, "
          f"max |dK1| / K1 = {worst:.2e} <= 1e-9 in {elapsed:.2f} s")


def test_closed_loop_balance_identity():
    rng = np.random.default_rng(73)
    worst = 0.0
    for _ in range(1000):
        count = int(rng.integers(1, 6))
        grasp_map = GraspMap.from_vectors(rng.normal(size=(count, 3)) * 0.2)
        h_d = np.concatenate([rng.normal(size=3) * 10.0, rng.normal(size=3)])
        beta = rng.uniform(0.05, 1.0, count)
        beta /= beta.sum()
        alpha = rng.normal(size=count)
        alpha += (1.0 - alpha.sum()) / count
        weights = AllocationWeights(beta)
        _, h_delta = counterbalance_moment(weights, grasp_map, h_d[:3])
        parts = [b * h_d + a * h_delta for b, a in zip(beta, alpha)]
        total = object_wrench_from_ee(grasp_map, parts)
        worst = max(worst, float(np.linalg.norm(total - h_d)))
    assert worst <= 1e-10
    print(f"PASS closed-loop balance: 1000 random allocations, "
          f"max residual = {worst:.2e} <= 1e-10")


def _reference_arm():
    return reference_scenario().manipulators[0]


def test_jacobian_matches_finite_differences():
    model = _reference_arm()
    rng = np.random.default_rng(74)
    h = 1e-7
    worst = 0.0
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, model.joint_count)
        J = jacobian(model, q)
        fd = np.zeros_like(J)
        for j in range(model.joint_count):
            dq = np.zeros(model.joint_count)
            dq[j] = h
            plus = forward_kinematics(model, q + dq)
            minus = forward_kinematics(model, q - dq)
            fd[:3, j] = (plus.position - minus.position) / (2.0 * h)
            W = (rodrigues(JOINT_AXIS, plus.pitch)
                 - rodrigues(JOINT_AXIS, minus.pitch)) / (2.0 * h) \
                @ rodrigues(JOINT_AXIS, forward_kinematics(model, q).pitch).T
            fd[3:, j] = [W[2, 1], W[0, 2], W[1, 0]]
        rel = np.max(np.abs(fd - J)) / max(1.0, np.max(np.abs(J)))
        worst = max(worst, rel)
    assert worst <= 1e-6
    print(f"PASS Jacobian vs central differences: 100 configurations, "
          f"max rel err = {worst:.2e} <= 1e-6")


def test_ik_round_trip_position():
    model = _reference_arm()
    rng = np.random.default_rng(75)
    worst = 0.0
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, model.joint_count)
        target = forward_kinematics(model, q)
        solutions = ik_planar3r(model, target)
        assert solutions
        for q in solutions:
            reached = forward_kinematics(model, q).position
            worst = max(worst, float(np.linalg.norm(
                reached - target.position)))
    assert worst <= 1e-9
    print(f"PASS IK round trip: 100 poses, "
          f"max position error = {worst:.2e} <= 1e-9")


def test_rne_matches_closed_form_planar_chain():
    model = ManipulatorModel(
        id=1, base_position=[0.0, 0.0, 0.0],
        link_lengths=[0.3, 0.25], link_masses=[0.8, 0.5],
        link_com_offsets=[0.17, 0.11], link_inertias=[0.006, 0.0026],
        torque_limits=[1.0, 1.0], velocity_limits=[10.0, 10.0])
    rng = np.random.default_rng(76)
    gravity = 9.8067
    worst = 0.0
    for _ in range(100):
        state = JointState(rng.uniform(-np.pi, np.pi, 2),
                           rng.normal(size=2) * 2.0,
                           rng.normal(size=2) * 4.0)
        tau = inverse_dynamics(model, state, gravity)
        expected = closed_form_2r(model, state.q, state.qdot, state.qddot,
                                  gravity)
        worst = max(worst, float(np.max(np.abs(tau - expected))))
    assert worst <= 1e-9
    print(f"PASS inverse dynamics vs closed-form planar chain: 100 states, "
          f"max |dtau| = {worst:.2e} <= 1e-9")


def test_static_hover_wrench_value():
    obj = reference_scenario().object
    state = evaluate_trajectory(
        TrajectorySpec(kind="static-hold", center=[0.35, 0.0, 0.35]), 0.0)
    wrench = object_desired_wrench(obj, state, 9.8067)
    np.testing.assert_allclose(wrench[:3], [0.0, 0.0, 19.6134],
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(wrench[3:], np.zeros(3), rtol=0,
                               atol=1e-10)
    print(f"PASS static hover wrench: force = {wrench[:3].tolist()} "
          f"within 1e-10 of [0, 0, 19.6134]")


def test_zero_compensation_reduces_to_baseline_bitwise(static_uniform):
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        problem = CapabilityProblem(
            jt_hd=rng.normal(size=n), tau_prime=rng.uniform(-0.9, 0.9, n),
            tau_max=rng.uniform(0.5, 2.0, n))
        plain = capability_scalar(problem)
        shifted = group_capability([problem], [float(rng.normal())], 0.0)
        assert shifted.k[0] == plain.k
        assert shifted.flags == {plain.flag} - {None}
    both, baseline = static_uniform
    for improved, base in zip(both.samples, baseline.samples):
        assert improved.K1 == base.K0
        np.testing.assert_array_equal(improved.k, base.k)
    print("PASS reduction identity: zero compensation reproduces the "
          "baseline series bit for bit (200 problems + full static run)")


def test_repeat_runs_are_byte_identical(tmp_path):
    first, second = (run_scenario(dataclasses.replace(
        reference_scenario(), dt=0.02, cycles=1)) for _ in range(2))
    a, b = tmp_path / "first.csv", tmp_path / "second.csv"
    export(first, "csv", a)
    export(second, "csv", b)
    assert a.read_bytes() == b.read_bytes()
    print(f"PASS determinism: repeated runs give byte-identical CSV "
          f"({a.stat().st_size} bytes)")
