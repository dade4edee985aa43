"""Trajectory runs end to end: sampling, flags, exports, determinism."""
import dataclasses
import json
import math

import numpy as np
import pytest

from coopwrench import (MODES, AllocationWeights, CapabilityProblem,
                        ExportError, GraspMap, Pose, RunResult,
                        TrajectoryError, TrajectorySpec,
                        asymmetric_scenario, capability, dynamics,
                        ee_pose_from_object, evaluate_trajectory, export,
                        ik_planar3r, kinematics,
                        object_desired_wrench, reference_scenario, runner,
                        run_scenario, summarize, time_grid)
from coopwrench.runner import emit_plot_data, result_dict
from oracles import (object_wrench_from_ee, reference_evaluate_trajectory,
                     reference_run)


@pytest.fixture(scope="module")
def short_both():
    return run_scenario(dataclasses.replace(reference_scenario(), dt=0.05,
                                            cycles=1))


@pytest.fixture(scope="module")
def short_baseline():
    return run_scenario(dataclasses.replace(
        reference_scenario(), mode="baseline", dt=0.05, cycles=1))


@pytest.fixture(scope="module")
def short_joint():
    return run_scenario(dataclasses.replace(
        reference_scenario(), mode="improved-joint", dt=0.1, cycles=1))


@pytest.fixture(scope="module")
def static_both():
    config = dataclasses.replace(
        reference_scenario(),
        trajectory=TrajectorySpec(kind="static-hold",
                                  center=[0.35, 0.0, 0.35]),
        beta_policy="uniform", cycles=1)
    return run_scenario(config)


def test_circle_state_at_start():
    spec = reference_scenario().trajectory
    state = evaluate_trajectory(spec, 0.0)
    np.testing.assert_allclose(state.position, [0.40, 0.0, 0.35], atol=1e-15)
    np.testing.assert_allclose(state.linear_velocity,
                               [0.0, 0.0, 0.05 * 0.4 * math.pi], atol=1e-15)
    np.testing.assert_allclose(state.linear_accel,
                               [-0.05 * (0.4 * math.pi) ** 2, 0.0, 0.0],
                               atol=1e-15)


def test_circle_state_quarter_period():
    spec = reference_scenario().trajectory
    state = evaluate_trajectory(spec, 1.25)  # quarter of the 5 s period
    np.testing.assert_allclose(state.position, [0.35, 0.0, 0.40], atol=1e-12)
    np.testing.assert_allclose(state.linear_velocity,
                               [-0.05 * 0.4 * math.pi, 0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("spec", [
    reference_scenario().trajectory,
    TrajectorySpec(kind="static-hold", center=[0.35, -0.0, 0.35])],
    ids=["circle", "static-hold"])
def test_batched_trajectory_rows_equal_evaluate_trajectory(spec):
    """Each row of the whole-grid trajectory is evaluate_trajectory at its
    time, bit for bit, sign bits included.

    The frozen per-call trajectory took math.cos and math.sin where the
    kernel takes numpy's, so it is held to 1e-15 instead.
    """
    times = time_grid(dataclasses.replace(reference_scenario(),
                                          trajectory=spec, dt=0.01))
    states = runner._trajectory(spec, times)
    assert len(times) > 100
    for s, t in enumerate(times):
        state = evaluate_trajectory(spec, t)
        frozen = reference_evaluate_trajectory(spec, t)
        for name, old in zip(states._fields, frozen):
            row, expected = getattr(states, name)[s], getattr(state, name)
            assert np.array_equal(row, expected)
            assert np.array_equal(np.signbit(row), np.signbit(expected))
            np.testing.assert_allclose(row, old, rtol=0, atol=1e-15)


def test_static_hold_state_is_constant():
    spec = TrajectorySpec(kind="static-hold", center=[1.0, 2.0, 3.0])
    for t in (0.0, 0.37, 12.0):
        state = evaluate_trajectory(spec, t)
        np.testing.assert_array_equal(state.position, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(state.linear_velocity, np.zeros(3))
        np.testing.assert_array_equal(state.linear_accel, np.zeros(3))


def test_time_grid_spans_cycles_inclusively():
    config = reference_scenario()
    times = time_grid(config)
    assert len(times) == 1001
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(10.0, abs=1e-12)
    coarse = time_grid(dataclasses.replace(config, dt=0.1))
    assert len(coarse) == 101
    single = time_grid(dataclasses.replace(config, cycles=1))
    assert len(single) == 501


def test_both_mode_produces_aligned_series(short_both):
    result = short_both
    times = time_grid(result.config)
    assert len(result.samples) == len(times) == 101
    for sample, t in zip(result.samples, times):
        assert sample.time == t
        assert sample.K0 is not None and sample.K1 is not None
        # in combined mode the per-arm scalars are the counterbalanced ones
        assert sample.K1 == float(np.sum(sample.k))
        assert abs(np.sum(sample.beta) - 1.0) <= 1e-12
        assert sample.alpha is not None
    assert result.summary["sample_count"] == 101
    assert result.summary["K0"] is not None
    assert result.summary["K1"] is not None
    # 'both' is an alias of 'improved-fixed-alpha': identical samples
    fixed = run_scenario(dataclasses.replace(
        result.config, mode="improved-fixed-alpha"))
    assert len(fixed.samples) == len(result.samples)
    for a, b in zip(fixed.samples, result.samples):
        assert a.time == b.time and a.K0 == b.K0 and a.K1 == b.K1
        for name in ("k", "beta", "alpha", "t_delta"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert a.flags == b.flags


def test_joint_mode_fills_alpha_and_dominates(short_joint):
    for sample in short_joint.samples:
        assert sample.K0 is not None and sample.K1 is not None
        assert sample.alpha is not None
        assert abs(np.sum(sample.alpha) - 1.0) <= 1e-9
        assert sample.K1 >= sample.K0 - 1e-9


def test_baseline_mode_has_no_improved_series(short_baseline):
    for sample in short_baseline.samples:
        assert sample.K0 is not None
        assert sample.K1 is None
        assert sample.alpha is None
    assert short_baseline.summary["K1"] is None
    assert short_baseline.summary["improvement_percent"] is None


def test_symmetric_static_hold_gains_nothing(static_both):
    # equal shares over a grasp set whose offsets cancel put the share
    # centroid exactly on the CoM: no induced moment, nothing to exploit,
    # and the two series coincide bit for bit
    for sample in static_both.samples:
        np.testing.assert_array_equal(sample.t_delta, np.zeros(3))
        assert sample.K1 == sample.K0


def test_per_step_load_balance_closes(short_both):
    # reassembling every manipulator's assigned wrench must reproduce the
    # desired object wrench exactly: shares sum to one and the compensation
    # cancels the induced moment
    config = short_both.config
    for sample in short_both.samples[::10]:
        state = evaluate_trajectory(config.trajectory, sample.time)
        h_d = object_desired_wrench(config.object, state, config.gravity)
        h_delta = np.concatenate([np.zeros(3), -sample.t_delta])
        grasp_map = GraspMap.from_object(config.object)
        parts = [beta_i * h_d + alpha_i * h_delta
                 for beta_i, alpha_i in zip(sample.beta, sample.alpha)]
        total = object_wrench_from_ee(grasp_map, parts)
        np.testing.assert_allclose(total, h_d, rtol=0, atol=1e-10)


def test_proportional_shares_follow_baseline_capability(short_both):
    weights = [AllocationWeights(s.beta) for s in short_both.samples]
    for sample, w in zip(short_both.samples, weights):
        if np.sum(sample.k) > 0.0:
            assert np.all(sample.beta >= 0.0)
            assert abs(np.sum(w.beta) - 1.0) <= 1e-12


def test_unreachable_trajectory_reports_step_and_arm():
    config = dataclasses.replace(
        reference_scenario(),
        trajectory=TrajectorySpec(kind="static-hold", center=[5.0, 0.0, 0.0]),
        cycles=1)
    with pytest.raises(TrajectoryError) as info:
        run_scenario(config)
    assert info.value.step == 0
    assert info.value.manipulator_id == 1
    assert "cannot reach" in str(info.value)


def test_unreachable_report_goes_by_arm_order_then_step():
    """Arm 3 fails from step 0 and arm 2 only from step 15: the report names
    arm 2, the first arm in order that fails, at its first failing step."""
    config = reference_scenario()
    arms = list(config.manipulators)
    arms[1] = dataclasses.replace(arms[1], base_position=[0.35, 0.0, -0.085])
    arms[2] = dataclasses.replace(arms[2], base_position=[-0.16, 0.0, 0.35])
    config = dataclasses.replace(config, manipulators=tuple(arms), dt=0.05,
                                 cycles=1)
    state = evaluate_trajectory(config.trajectory, 0.0)
    assert not ik_planar3r(arms[2], ee_pose_from_object(
        state, config.object.grasp_points[2]))
    with pytest.raises(TrajectoryError) as info:
        run_scenario(config)
    assert (info.value.step, info.value.manipulator_id) == (15, 2)
    assert info.value.target.tolist() == [0.37938926261462363, 0.0,
                                          0.3154508497187473]


def test_velocity_flag_marks_but_does_not_change_capability(short_both):
    slow = dataclasses.replace(
        reference_scenario(),
        manipulators=tuple(
            dataclasses.replace(arm, velocity_limits=[1e-9, 1e-9, 1e-9])
            for arm in reference_scenario().manipulators),
        dt=0.05, cycles=1)
    flagged = run_scenario(slow)
    assert any("velocity-limit" in s.flags for s in flagged.samples)
    for a, b in zip(flagged.samples, short_both.samples):
        np.testing.assert_array_equal(a.k, b.k)
        assert a.K1 == b.K1
    assert flagged.summary["flagged_steps"] > \
        short_both.summary["flagged_steps"]


def test_baseline_mode_solves_each_arm_once_per_step(monkeypatch):
    """The scalar kernel sees each (step, arm) row exactly once."""
    rows = []
    solve = capability._scalar

    def counted(jt_hd, *args):
        rows.append(jt_hd.size // jt_hd.shape[-1])
        return solve(jt_hd, *args)

    # capability_scalar reaches the kernel through the capability module
    monkeypatch.setattr(runner, "_scalar", counted)
    monkeypatch.setattr(capability, "_scalar", counted)
    result = run_scenario(dataclasses.replace(
        reference_scenario(), mode="baseline", dt=0.5, cycles=1))
    arms = len(result.config.manipulators)
    assert sum(rows) == arms * len(result.samples) == 4 * 11


@pytest.mark.parametrize("mode", ["improved-joint", "improved-fixed-alpha"])
def test_run_builds_no_value_object_per_step(monkeypatch, mode):
    """Problems, share vectors and poses stay rows of the run's arrays."""
    built = []

    def counted(self):
        built.append(type(self).__name__)

    for cls in (CapabilityProblem, AllocationWeights, Pose):
        monkeypatch.setattr(cls, "__post_init__", counted)
    result = run_scenario(dataclasses.replace(
        asymmetric_scenario(), mode=mode, dt=0.5, cycles=1,
        beta_iterations=2))
    assert len(result.samples) == 11
    assert built == []


def test_run_makes_one_arm_pass_per_arm(monkeypatch):
    """Motion and load come from one batched call per arm and run."""
    calls = {"_differential_ik": 0, "_inverse_dynamics": 0}

    def counting(name):
        kernel = getattr(runner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return counted

    def forbidden(*args, **kwargs):
        raise AssertionError("a per-call form ran inside run_scenario")

    for name in calls:
        monkeypatch.setattr(runner, name, counting(name))
    for module, name in ((kinematics, "differential_ik"),
                         (kinematics, "jacobian"),
                         (dynamics, "inverse_dynamics")):
        monkeypatch.setattr(module, name, forbidden)
    result = run_scenario(dataclasses.replace(
        asymmetric_scenario(), dt=0.5, cycles=1))
    arms = len(result.config.manipulators)
    assert len(result.samples) == 11
    assert calls == {"_differential_ik": arms, "_inverse_dynamics": arms}


def assert_close(actual, expected, tol=1e-9):
    assert abs(actual - expected) <= tol * max(1.0, abs(expected))


def asymmetric_uniform():
    """The asymmetric scenario with equal shares: the refinement settles
    at once, and the compensating moment never vanishes."""
    return dataclasses.replace(asymmetric_scenario(), beta_policy="uniform")


def reference_static():
    """The reference scenario holding the object where its circle starts,
    where the elbow-out choice of arms 1 and 3 is a tie."""
    config = reference_scenario()
    return dataclasses.replace(config, trajectory=TrajectorySpec(
        kind="static-hold", center=config.trajectory.center + [0.05, 0, 0]))


# with 8 passes, some steps of a proportional policy settle before others
@pytest.mark.parametrize("beta_iterations", [0, 2, 8])
@pytest.mark.parametrize("mode", ["baseline", "both", "improved-joint"])
@pytest.mark.parametrize("scenario", [reference_scenario, asymmetric_scenario,
                                      asymmetric_uniform, reference_static])
def test_run_matches_frozen_per_step_pipeline(scenario, mode,
                                              beta_iterations):
    """The whole-grid run reproduces the step-by-step pipeline.

    oracles.reference_run solves each arm's differential IK (with the
    frozen finite-difference J-dot) and inverse dynamics at every step on
    its own, picks IK branches by the frozen selection and makes one
    capability solve per step and pass; k, K0 and K1 agree to 1e-9
    relative, flags exactly.
    """
    config = dataclasses.replace(scenario(), mode=mode, dt=0.05, cycles=1,
                                 beta_iterations=beta_iterations)
    samples = run_scenario(config).samples
    frozen = reference_run(config)
    assert len(samples) == len(frozen) == config.step_count + 1
    for sample, expected in zip(samples, frozen):
        assert sample.time == expected.time
        assert sample.flags == expected.flags
        assert_close(sample.K0, expected.K0)
        assert (sample.K1 is None) == (expected.K1 is None)
        if expected.K1 is not None:
            assert_close(sample.K1, expected.K1)
        for k, k_expected in zip(sample.k, expected.k, strict=True):
            assert_close(k, k_expected)


def test_run_scenario_has_no_thread_option():
    with pytest.raises(TypeError):
        run_scenario(reference_scenario(), threads=2)


@pytest.mark.parametrize("setting", [{"mode": "baseline"}, {"dt": 0.5},
                                     {"cycles": 1}])
def test_run_scenario_takes_only_a_config(setting):
    # run settings live on the config alone; derive one with replace
    with pytest.raises(TypeError):
        run_scenario(reference_scenario(), **setting)


@pytest.mark.parametrize("scenario", [reference_scenario, asymmetric_scenario])
def test_object_inertia_and_dimensions_reach_no_output(tmp_path, scenario):
    # both trajectory kinds translate the object without rotating it, so its
    # inertia and dimensions are recorded but enter no result; a rotating
    # trajectory kind has to change this test on purpose
    config = dataclasses.replace(scenario(), dt=0.1, cycles=1)
    obj = config.object
    heavy = dataclasses.replace(config, object=dataclasses.replace(
        obj, inertia=37.0 * obj.inertia + np.diag([1.0, 2.0, 3.0]),
        dimensions=2.0 * obj.dimensions + 0.1))
    for mode in MODES:
        csv = []
        for name, variant in (("plain", config), ("heavy", heavy)):
            path = tmp_path / f"{name}-{mode}.csv"
            export(run_scenario(dataclasses.replace(variant, mode=mode)),
                   "csv", path)
            csv.append(path.read_bytes())
        assert csv[0] == csv[1], mode
    for t in time_grid(heavy):
        state = evaluate_trajectory(heavy.trajectory, t)
        wrench = object_desired_wrench(heavy.object, state, heavy.gravity)
        assert np.all(wrench[3:] == 0.0)


def test_csv_contract(tmp_path, short_both):
    path = tmp_path / "result.csv"
    export(short_both, "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("t,k_1,k_2,k_3,k_4,K0,K1,"
                        "beta_1,beta_2,beta_3,beta_4,"
                        "alpha_1,alpha_2,alpha_3,alpha_4,tdelta_y,flags")
    assert len(lines) == 1 + len(short_both.samples)
    first = lines[1].split(",")
    assert len(first) == 17
    assert float(first[0]) == 0.0
    assert float(first[5]) == short_both.samples[0].K0
    assert float(first[6]) == short_both.samples[0].K1
    # full-precision floats: parsing back is lossless
    np.testing.assert_array_equal([float(v) for v in first[1:5]],
                                  short_both.samples[0].k)


def test_csv_baseline_mode_leaves_improved_columns_empty(tmp_path,
                                                         short_baseline):
    path = tmp_path / "baseline.csv"
    export(short_baseline, "csv", path)
    first = path.read_text().splitlines()[1].split(",")
    assert first[6] == ""
    assert first[11:15] == ["", "", "", ""]


def test_csv_runs_are_byte_identical(tmp_path, short_both):
    again = run_scenario(dataclasses.replace(reference_scenario(), dt=0.05,
                                             cycles=1))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export(short_both, "csv", a)
    export(again, "csv", b)
    assert a.read_bytes() == b.read_bytes()


def test_json_round_trip(tmp_path, short_both):
    path = tmp_path / "result.json"
    export(short_both, "json", path)
    with open(path) as handle:
        loaded = json.load(handle)
    assert loaded == result_dict(short_both)
    assert loaded["summary"] == short_both.summary
    assert loaded["config"]["mode"] == "both"
    assert len(loaded["samples"]) == len(short_both.samples)
    from coopwrench import parse_scenario, scenario_dict, serialize_scenario
    reparsed = parse_scenario(
        serialize_scenario(short_both.config))
    assert scenario_dict(reparsed) == loaded["config"]


def test_empty_result_exports(tmp_path):
    empty = RunResult(config=reference_scenario(), samples=(),
                      summary=summarize(()))
    csv_path = tmp_path / "empty.csv"
    export(empty, "csv", csv_path)
    assert csv_path.read_text().splitlines() == [
        "t,k_1,k_2,k_3,k_4,K0,K1,beta_1,beta_2,beta_3,beta_4,"
        "alpha_1,alpha_2,alpha_3,alpha_4,tdelta_y,flags"]
    json_path = tmp_path / "empty.json"
    export(empty, "json", json_path)
    with open(json_path) as handle:
        loaded = json.load(handle)
    assert loaded["samples"] == []
    assert loaded["summary"]["sample_count"] == 0
    assert loaded["summary"]["K0"] is None


def test_plot_data_blocks(tmp_path, short_both, short_baseline):
    path = tmp_path / "plot.dat"
    emit_plot_data(short_both, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#") and lines[1].startswith("#")
    data = [line.split() for line in lines[2:2 + len(short_both.samples)]]
    assert all(len(row) == 3 for row in data)
    k0 = np.array([float(row[1]) for row in data])
    assert np.min(k0) == pytest.approx(short_both.summary["K0"]["min"],
                                       abs=0.0)
    split = lines.index("")
    assert lines[split + 1] == "# reference line K = 1"
    ref_rows = [line.split() for line in lines[split + 2:]]
    assert [row[1] for row in ref_rows] == ["1", "1"]
    assert float(ref_rows[0][0]) == short_both.samples[0].time
    assert float(ref_rows[1][0]) == short_both.samples[-1].time

    emit_plot_data(short_baseline, path)
    row = path.read_text().splitlines()[2].split()
    assert row[2] == "nan"


def test_export_failures(tmp_path, short_both):
    with pytest.raises(ExportError, match="cannot write"):
        export(short_both, "csv", tmp_path / "missing" / "out.csv")
    with pytest.raises(ExportError, match="cannot write"):
        emit_plot_data(short_both, tmp_path / "missing" / "plot.dat")
    with pytest.raises(ValueError, match="unsupported export format"):
        export(short_both, "pickle", tmp_path / "out.bin")


def test_summary_improvement_definition(short_both):
    summary = short_both.summary
    k0 = [s.K0 for s in short_both.samples]
    k1 = [s.K1 for s in short_both.samples]
    k0_mean, k1_mean = summary["K0"]["mean"], summary["K1"]["mean"]
    assert k0_mean == pytest.approx(sum(k0) / len(k0), rel=1e-15)
    expected = 100.0 * (k1_mean - k0_mean) / k0_mean
    assert summary["improvement_percent"] == pytest.approx(expected,
                                                           rel=1e-15)
    assert summary["K0"]["min"] == min(k0)
