"""Scenario schema, validation, and the built-in scenario texts."""
import dataclasses
import math

import numpy as np
import pytest
import yaml

from coopwrench import (ManipulatorModel, RigidObjectModel,
                        ScenarioConfig, ScenarioSyntaxError,
                        ScenarioValidationError, TrajectorySpec,
                        asymmetric_scenario, cuboid_inertia, parse_scenario,
                        reference_scenario, scenario_dict, serialize_scenario)
from coopwrench.config import REFERENCE_SCENARIO_TEXT, SCENARIO_TEXTS


def reparse(doc):
    return parse_scenario(yaml.safe_dump(doc))


def test_reference_scenario_published_values():
    config = reference_scenario()
    assert len(config.manipulators) == 4
    assert config.object.mass == 2.0
    assert config.gravity == 9.8067
    assert config.dt == 0.01
    assert config.cycles == 2
    assert config.mode == "both"
    np.testing.assert_array_equal(config.manipulators[0].base_position,
                                  [0.7, 0.0, 0.35])
    np.testing.assert_array_equal(config.manipulators[2].base_position,
                                  [0.0, 0.0, 0.35])
    np.testing.assert_array_equal(config.object.grasp_points[1],
                                  [0.0, 0.0, -0.075])
    # symmetric grasp set: offsets cancel exactly
    np.testing.assert_array_equal(config.object.grasp_points.sum(axis=0),
                                  np.zeros(3))
    for arm in config.manipulators:
        assert arm.approximate is True
        np.testing.assert_array_equal(arm.torque_limits, np.ones(3))
        np.testing.assert_array_equal(arm.link_lengths, [0.2, 0.2, 0.05])
    np.testing.assert_allclose(
        config.object.inertia,
        cuboid_inertia(2.0, config.object.dimensions), rtol=0, atol=0)
    assert config.trajectory.kind == "circle"
    assert config.trajectory.radius == 0.05
    assert config.trajectory.angular_rate == pytest.approx(0.4 * math.pi)


def test_asymmetric_variant_moves_one_grasp_point():
    config = asymmetric_scenario()
    np.testing.assert_array_equal(config.object.grasp_points[2],
                                  [-0.04, 0.0, 0.0])
    assert np.linalg.norm(config.object.grasp_points.sum(axis=0)) > 0.0
    reference = reference_scenario()
    for ours, theirs in zip(config.manipulators, reference.manipulators):
        np.testing.assert_array_equal(ours.base_position, theirs.base_position)
    assert set(SCENARIO_TEXTS) == {"reference", "asymmetric"}


def test_serialize_parse_round_trip():
    for config in (reference_scenario(), asymmetric_scenario()):
        again = parse_scenario(serialize_scenario(config))
        assert scenario_dict(again) == scenario_dict(config)


def test_reference_text_parses_to_itself_through_dict():
    config = parse_scenario(REFERENCE_SCENARIO_TEXT)
    assert reparse(scenario_dict(config)).mode == "both"


def test_cuboid_inertia_hand_values():
    np.testing.assert_allclose(cuboid_inertia(12.0, [1.0, 2.0, 3.0]),
                               np.diag([13.0, 10.0, 5.0]), rtol=0, atol=0)
    # thin plate: the axis through the two large faces dominates
    I = cuboid_inertia(2.0, [0.2, 0.02, 0.15])
    assert I[1, 1] > I[0, 0] and I[1, 1] > I[2, 2]


def test_trajectory_period():
    circle = reference_scenario().trajectory
    assert circle.period() == pytest.approx(5.0, rel=1e-15)
    hold = TrajectorySpec(kind="static-hold", center=[0.35, 0.0, 0.35])
    assert hold.period() == 1.0


def test_trajectory_validation():
    with pytest.raises(ScenarioValidationError, match="kind"):
        TrajectorySpec(kind="spline", center=[0.0, 0.0, 0.0])
    with pytest.raises(ScenarioValidationError, match="angular_rate"):
        TrajectorySpec(kind="circle", center=[0.0, 0.0, 0.0], radius=0.1)
    with pytest.raises(ScenarioValidationError, match="radius"):
        TrajectorySpec(kind="static-hold", center=[0.0, 0.0, 0.0],
                       radius=-0.1)


def test_syntax_error_carries_position():
    with pytest.raises(ScenarioSyntaxError) as info:
        parse_scenario("object: {mass: [unclosed\n")
    assert info.value.line is not None
    assert f"line {info.value.line}" in str(info.value)
    with pytest.raises(ScenarioValidationError, match="mapping"):
        parse_scenario("- 1\n- 2\n")


def test_schema_version_is_required_and_checked():
    doc = scenario_dict(reference_scenario())
    del doc["schema_version"]
    with pytest.raises(ScenarioValidationError, match="schema_version"):
        reparse(doc)
    doc = scenario_dict(reference_scenario())
    doc["schema_version"] = 2
    with pytest.raises(ScenarioValidationError, match="schema_version"):
        reparse(doc)


def test_unknown_keys_rejected_per_section():
    doc = scenario_dict(reference_scenario())
    doc["turbo"] = True
    with pytest.raises(ScenarioValidationError, match="turbo"):
        reparse(doc)
    doc = scenario_dict(reference_scenario())
    doc["object"]["color"] = "red"
    with pytest.raises(ScenarioValidationError, match="color"):
        reparse(doc)
    doc = scenario_dict(reference_scenario())
    doc["manipulators"][0]["payload"] = 1.0
    with pytest.raises(ScenarioValidationError, match="payload"):
        reparse(doc)


def test_nonpositive_mass_rejected():
    doc = scenario_dict(reference_scenario())
    doc["object"]["mass"] = -1.0
    with pytest.raises(ScenarioValidationError, match="mass must be positive"):
        reparse(doc)


def test_inertia_derived_from_dimensions_when_absent():
    doc = scenario_dict(reference_scenario())
    del doc["object"]["inertia"]
    config = reparse(doc)
    np.testing.assert_allclose(config.object.inertia,
                               cuboid_inertia(2.0, [0.2, 0.02, 0.15]),
                               rtol=0, atol=0)
    del doc["object"]["dimensions"]
    with pytest.raises(ScenarioValidationError, match="inertia"):
        reparse(doc)


def test_grasp_count_must_match_manipulator_count():
    doc = scenario_dict(reference_scenario())
    doc["object"]["grasp_points"] = doc["object"]["grasp_points"][:3]
    with pytest.raises(ScenarioValidationError, match="does not match"):
        reparse(doc)


def test_duplicate_manipulator_ids_rejected():
    doc = scenario_dict(reference_scenario())
    doc["manipulators"][1]["id"] = 1
    with pytest.raises(ScenarioValidationError, match="unique"):
        reparse(doc)


def test_solver_setting_invariants():
    base = scenario_dict(reference_scenario())
    for key, value, pattern in [
        ("dt", 0.0, "dt"),
        ("cycles", 0, "cycles"),
        ("mode", "fastest", "mode"),
        ("beta_policy", "greedy", "beta_policy"),
        ("unbounded_cap", -5.0, "unbounded_cap"),
        ("beta_iterations", -1, "beta_iterations"),
    ]:
        doc = dict(base)
        doc[key] = value
        with pytest.raises(ScenarioValidationError, match=pattern):
            reparse(doc)


def test_non_integer_manipulator_id_names_the_key():
    doc = scenario_dict(reference_scenario())
    doc["manipulators"][0]["id"] = "abc"
    with pytest.raises(ScenarioValidationError,
                       match=r"manipulators\[0\]: 'id' must be an integer"):
        reparse(doc)


def test_non_mapping_sections_name_the_key():
    doc = scenario_dict(reference_scenario())
    doc["manipulators"][1] = 5
    with pytest.raises(ScenarioValidationError,
                       match=r"manipulators\[1\] must be a mapping"):
        reparse(doc)
    for key in ("object", "trajectory"):
        doc = scenario_dict(reference_scenario())
        doc[key] = [1.0]
        with pytest.raises(ScenarioValidationError,
                           match=f"{key} must be a mapping"):
            reparse(doc)


def test_boolean_cycles_rejected():
    doc = scenario_dict(reference_scenario())
    doc["cycles"] = True
    with pytest.raises(ScenarioValidationError, match="'cycles'"):
        reparse(doc)


@pytest.mark.parametrize("change, pattern", [
    ({"id": "one"}, "manipulator id must be an integer, got 'one'"),
    ({"id": True}, "manipulator id must be an integer, got True"),
    ({"id": 1.5}, "manipulator id must be an integer, got 1.5"),
    ({"approximate": "no"},
     "manipulator 1: approximate must be a boolean, got 'no'"),
    ({"approximate": 1}, "manipulator 1: approximate must be a boolean"),
])
def test_arm_built_in_code_checks_id_and_approximate(change, pattern):
    # a config built in code must hold only what a scenario file can, so
    # that parse(serialize(c)) == c holds for it too
    arm = reference_scenario().manipulators[0]
    with pytest.raises(ScenarioValidationError, match=pattern):
        dataclasses.replace(arm, **change)


def test_config_built_in_code_round_trips():
    config = reference_scenario()
    arms = tuple(dataclasses.replace(arm, id=value, approximate=False)
                 for arm, value in zip(config.manipulators,
                                       (np.int64(7), 8.0, 9, 10)))
    built = dataclasses.replace(config, manipulators=arms, cycles=np.int64(1),
                                beta_iterations=2.0, mode="improved-joint",
                                dt=np.float64(0.05), gravity=np.float32(9.5))
    assert [type(arm.id) for arm in built.manipulators] == [int] * 4
    assert type(built.cycles) is int and type(built.beta_iterations) is int
    again = parse_scenario(serialize_scenario(built))
    assert scenario_dict(again) == scenario_dict(built)
    assert [arm.id for arm in again.manipulators] == [7, 8, 9, 10]
    assert (again.dt, again.gravity) == (0.05, 9.5)


@pytest.mark.parametrize("section,key,value", [
    (None, "dt", math.nan),
    (None, "gravity", math.nan),
    (None, "unbounded_cap", math.inf),
    ("object", "mass", math.nan),
    ("trajectory", "radius", math.nan),
    ("trajectory", "angular_rate", math.inf),
])
def test_non_finite_number_rejected_at_parse_time(section, key, value):
    doc = scenario_dict(reference_scenario())
    (doc if section is None else doc[section])[key] = value
    with pytest.raises(ScenarioValidationError,
                       match=f"'{key}' must be a finite number"):
        reparse(doc)


CIRCLE_FORCE = "mass * (|gravity| + radius * angular_rate^2) must be finite"
HOLD_FORCE = "mass * |gravity| must be finite"


@pytest.mark.parametrize("section,key,value,kind,message", [
    (None, "gravity", 1e308, "circle", CIRCLE_FORCE),
    (None, "gravity", -1e308, "circle", CIRCLE_FORCE),
    ("object", "mass", 1e308, "circle", CIRCLE_FORCE),
    ("trajectory", "radius", 1e308, "circle", CIRCLE_FORCE),
    ("trajectory", "angular_rate", 1e200, "circle", CIRCLE_FORCE),
    (None, "gravity", 1e308, "static-hold", HOLD_FORCE),
])
def test_overflowing_peak_object_force_rejected_at_parse_time(
        section, key, value, kind, message):
    doc = scenario_dict(reference_scenario())
    doc["trajectory"]["kind"] = kind
    (doc if section is None else doc[section])[key] = value
    with pytest.raises(ScenarioValidationError) as info:
        reparse(doc)
    assert str(info.value) == f"peak object force {message}"


def test_peak_object_force_checks_an_integer_rate_only_on_a_circle():
    config = reference_scenario()
    fast = dataclasses.replace(config.trajectory, angular_rate=10 ** 200)
    with pytest.raises(ScenarioValidationError, match="peak object force"):
        dataclasses.replace(config, trajectory=fast)
    # a static hold never reads the rate, only the weight
    hold = dataclasses.replace(fast, kind="static-hold")
    assert dataclasses.replace(config, trajectory=hold).trajectory is hold


CIRCLE_TARGET = ("peak grasp target |trajectory center| + radius + "
                 "|grasp_points| must be finite")
HOLD_TARGET = "peak grasp target |trajectory center| + |grasp_points| " \
    "must be finite"


def far_doc(kind, center, radius, grasp=None):
    """The reference scenario moved far out, on a grid of a few steps."""
    doc = scenario_dict(reference_scenario())
    doc["trajectory"].update(kind=kind, center=center, radius=radius,
                             angular_rate=1e-200)
    doc["dt"] = 1e300
    if grasp is not None:
        doc["object"]["grasp_points"][0] = grasp
    return doc


@pytest.mark.parametrize("kind,center,radius,grasp,message", [
    ("circle", [1.7e308, 0.0, 0.35], 1e308, None, CIRCLE_TARGET),
    ("circle", [0.35, 0.0, -1.7e308], 1e308, None, CIRCLE_TARGET),
    ("circle", [1e308, 0.0, 0.35], 0.05, [1e308, 0.0, 0.0], CIRCLE_TARGET),
    ("circle", [0.35, 1e308, 0.35], 0.05, [0.0, -1e308, 0.0], CIRCLE_TARGET),
    ("static-hold", [1e308, 0.0, 0.35], 0.0, [1e308, 0.0, 0.0],
     HOLD_TARGET),
])
def test_overflowing_grasp_target_rejected_at_parse_time(
        kind, center, radius, grasp, message):
    with pytest.raises(ScenarioValidationError) as info:
        reparse(far_doc(kind, center, radius, grasp))
    assert str(info.value) == message


@pytest.mark.parametrize("kind,center", [
    ("circle", [0.35, 1.7e308, 0.35]),  # the circle stays in its plane
    ("static-hold", [1.7e308, 0.0, 0.35]),  # a hold never reads the radius
])
def test_grasp_target_reach_follows_the_motion(kind, center):
    config = reparse(far_doc(kind, center, 1e308))
    assert config.trajectory.center.tolist() == center


@pytest.mark.parametrize("build,field", [
    (lambda: TrajectorySpec(kind="circle", radius=0.05,
                            angular_rate=math.nan), "angular_rate"),
    (lambda: TrajectorySpec(kind="circle", radius=0.05,
                            angular_rate=math.inf), "angular_rate"),
    (lambda: TrajectorySpec(kind="circle", radius=math.nan,
                            angular_rate=1.0), "radius"),
    (lambda: TrajectorySpec(kind="static-hold", radius=math.inf), "radius"),
    (lambda: RigidObjectModel(mass=math.nan, inertia=np.eye(3),
                              grasp_points=[[0.1, 0.0, 0.0]]), "mass"),
    (lambda: RigidObjectModel(mass=math.inf, inertia=np.eye(3),
                              grasp_points=[[0.1, 0.0, 0.0]]), "mass"),
    (lambda: dataclasses.replace(reference_scenario(), gravity=math.nan),
     "gravity"),
    (lambda: TrajectorySpec(kind="circle", radius="0.1",
                            angular_rate=1.0), "radius"),
    (lambda: TrajectorySpec(kind="circle", radius=0.1,
                            angular_rate="1.0"), "angular_rate"),
    (lambda: RigidObjectModel(mass="2", inertia=np.eye(3),
                              grasp_points=[[0.1, 0.0, 0.0]]), "mass"),
    (lambda: dataclasses.replace(reference_scenario(), dt="0.1"), "dt"),
    (lambda: dataclasses.replace(reference_scenario(), gravity="9.8"),
     "gravity"),
    (lambda: dataclasses.replace(reference_scenario(), unbounded_cap=None),
     "unbounded_cap"),
    # a bool is no number in code either, as it is not in a scenario file
    (lambda: TrajectorySpec(kind="circle", radius=True,
                            angular_rate=1.0), "radius"),
    (lambda: TrajectorySpec(kind="circle", radius=0.1,
                            angular_rate=True), "angular_rate"),
    (lambda: RigidObjectModel(mass=True, inertia=np.eye(3),
                              grasp_points=[[0.1, 0.0, 0.0]]), "mass"),
    (lambda: dataclasses.replace(reference_scenario(), dt=True), "dt"),
    (lambda: dataclasses.replace(reference_scenario(), gravity=False),
     "gravity"),
    (lambda: dataclasses.replace(reference_scenario(), unbounded_cap=True),
     "unbounded_cap"),
], ids=["rate-nan", "rate-inf", "radius-nan", "radius-inf", "mass-nan",
        "mass-inf", "gravity-nan", "radius-text", "rate-text", "mass-text",
        "dt-text", "gravity-text", "cap-none", "radius-bool", "rate-bool",
        "mass-bool", "dt-bool", "gravity-bool", "cap-bool"])
def test_non_finite_model_value_rejected_by_the_dataclass(build, field):
    with pytest.raises(ScenarioValidationError,
                       match=f"{field} must be .*finite"):
        build()


@pytest.mark.parametrize("field, value", [
    ("cycles", None), ("cycles", math.inf), ("cycles", math.nan),
    ("cycles", "2"), ("cycles", True), ("beta_iterations", None),
    ("beta_iterations", math.inf), ("beta_iterations", True),
])
def test_non_integer_count_rejected_by_the_dataclass(field, value):
    with pytest.raises(ScenarioValidationError, match=f"{field} must be"):
        dataclasses.replace(reference_scenario(), **{field: value})


def test_repeated_top_level_key_is_a_syntax_error():
    text = REFERENCE_SCENARIO_TEXT.replace("dt: 0.01\n",
                                           "dt: 0.01\ndt: 0.5\n")
    with pytest.raises(ScenarioSyntaxError,
                       match="duplicate key 'dt'") as info:
        parse_scenario(text)
    assert info.value.line == text.splitlines().index("dt: 0.5") + 1


def test_repeated_manipulator_key_is_a_syntax_error():
    text = REFERENCE_SCENARIO_TEXT.replace(
        "  - id: 2\n", "  - id: 2\n    id: 5\n")
    with pytest.raises(ScenarioSyntaxError,
                       match="duplicate key 'id'") as info:
        parse_scenario(text)
    assert info.value.line == text.splitlines().index("    id: 5") + 1


def test_merge_key_values_are_overridden_by_written_keys():
    # a key written beside a YAML merge key overrides the merged value
    text = REFERENCE_SCENARIO_TEXT.replace(
        "  - id: 1\n", "  - &arm\n    id: 1\n").replace(
        "  - id: 4\n", "  - <<: *arm\n    id: 4\n")
    config = parse_scenario(text)
    assert [arm.id for arm in config.manipulators] == [1, 2, 3, 4]


def test_manipulator_invariants():
    def arm(**overrides):
        fields = dict(
            id=1, base_position=[0.0, 0.0, 0.0],
            link_lengths=[0.2, 0.2], link_masses=[0.1, 0.1],
            link_com_offsets=[0.1, 0.1], link_inertias=[1e-4, 1e-4],
            torque_limits=[1.0, 1.0], velocity_limits=[4.0, 4.0])
        fields.update(overrides)
        return ManipulatorModel(**fields)

    assert arm().joint_count == 2
    with pytest.raises(ScenarioValidationError, match="at least 2"):
        arm(link_lengths=[0.2], link_masses=[0.1], link_com_offsets=[0.1],
            link_inertias=[1e-4], torque_limits=[1.0], velocity_limits=[4.0])
    with pytest.raises(ScenarioValidationError, match="lie on the link"):
        arm(link_com_offsets=[0.3, 0.1])
    with pytest.raises(ScenarioValidationError, match="strictly positive"):
        arm(torque_limits=[0.0, 1.0])
    with pytest.raises(ScenarioValidationError, match="link_masses"):
        arm(link_masses=[0.1, -0.1])
    with pytest.raises(ScenarioValidationError, match="shape"):
        arm(torque_limits=[1.0, 1.0, 1.0])


def test_object_model_invariants():
    good = RigidObjectModel(mass=1.0, inertia=np.eye(3),
                            grasp_points=[[0.1, 0.0, 0.0]])
    assert good.grasp_count == 1
    with pytest.raises(ScenarioValidationError, match="symmetric"):
        RigidObjectModel(mass=1.0, inertia=[[1, 0.5, 0], [0, 1, 0], [0, 0, 1]],
                         grasp_points=[[0.1, 0.0, 0.0]])
    with pytest.raises(ScenarioValidationError, match="positive definite"):
        RigidObjectModel(mass=1.0, inertia=np.diag([1.0, -1.0, 1.0]),
                         grasp_points=[[0.1, 0.0, 0.0]])
    with pytest.raises(ScenarioValidationError, match="N x 3"):
        RigidObjectModel(mass=1.0, inertia=np.eye(3),
                         grasp_points=[0.1, 0.0, 0.0])


def test_config_is_frozen_and_arrays_read_only():
    config = reference_scenario()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.dt = 0.5
    assert not config.object.grasp_points.flags.writeable
    assert not config.manipulators[0].link_lengths.flags.writeable
    with pytest.raises(ValueError):
        config.object.grasp_points[0, 0] = 9.9


ARM_ARRAYS = ("base_position", "link_lengths", "link_masses",
              "link_com_offsets", "link_inertias", "torque_limits",
              "velocity_limits")


@pytest.mark.parametrize("section,changes,pattern", [
    ("object", {"grasp_points": [["a", 0.0, 0.0]] * 4}, "grasp_points"),
    ("object", {"grasp_points": [[0.1, 0.0, 0.0], [0.0, 0.0]] * 2},
     "grasp_points"),
    ("object", {"inertia": "abc"}, "inertia"),
    ("object", {"dimensions": ["x", 0.02, 0.15]}, "dimensions"),
    ("object", {"inertia": None, "dimensions": [1.0, 2.0]}, "dimensions"),
    ("trajectory", {"center": ["a", "b", "c"]}, "center"),
    ("trajectory", {"center": [0.35, [0.0], 0.35]}, "center"),
    *[(1, {key: [0.1, "y", 0.1]}, f"manipulator 2: {key}")
      for key in ARM_ARRAYS],
    (2, {"link_masses": [[0.1], [0.1, 0.1]]}, "manipulator 3: link_masses"),
    (0, {"approximate": "no"},
     r"manipulators\[0\]: 'approximate' must be a boolean"),
    (0, {"approximate": 1}, "'approximate' must be a boolean"),
])
def test_malformed_value_names_its_key(section, changes, pattern):
    doc = scenario_dict(reference_scenario())
    target = doc["manipulators"][section] if isinstance(section, int) \
        else doc[section]
    for key, value in changes.items():
        if value is None:
            del target[key]
        else:
            target[key] = value
    with pytest.raises(ScenarioValidationError, match=pattern):
        reparse(doc)


def test_scenario_arms_need_exactly_three_joints():
    doc = scenario_dict(reference_scenario())
    arm = doc["manipulators"][2]
    for key in ARM_ARRAYS[1:]:
        arm[key] = arm[key][:2]
    with pytest.raises(ScenarioValidationError,
                       match="manipulator 3: joint count must be 3"):
        reparse(doc)


def test_grid_size_is_capped():
    config = reference_scenario()
    assert config.step_count == 1000
    with pytest.raises(ScenarioValidationError,
                       match=r"dt/cycles give 10000000000 time steps"):
        dataclasses.replace(config, dt=1e-9)
    doc = scenario_dict(config)
    doc["dt"] = 1e-9
    with pytest.raises(ScenarioValidationError, match="dt/cycles"):
        reparse(doc)
    doc = scenario_dict(config)
    doc["trajectory"]["angular_rate"] = 5e-324  # an infinite period
    with pytest.raises(ScenarioValidationError, match="inf time steps"):
        reparse(doc)


@pytest.mark.parametrize("key, message", [
    ("cycles", r"dt/cycles give inf time steps"),
    ("schema_version", r"unsupported schema_version 1000"),
])
def test_integer_beyond_float_range_fails_for_its_real_reason(key, message):
    doc = scenario_dict(reference_scenario())
    doc[key] = 10 ** 400
    with pytest.raises(ScenarioValidationError, match=message):
        reparse(doc)


def test_optional_keys_take_the_dataclass_defaults():
    doc = scenario_dict(reference_scenario())
    for key in ("mode", "gravity", "dt", "cycles", "unbounded_cap",
                "beta_policy", "beta_iterations"):
        del doc[key]
    del doc["trajectory"]["center"]
    del doc["manipulators"][0]["approximate"]
    config = reparse(doc)
    defaults = ScenarioConfig(config.manipulators, config.object,
                              config.trajectory)
    assert scenario_dict(config) == scenario_dict(defaults)
    np.testing.assert_array_equal(config.trajectory.center, np.zeros(3))
    assert config.manipulators[0].approximate is False
    for key in ("object", "trajectory", "manipulators"):
        doc = scenario_dict(reference_scenario())
        del doc[key]
        with pytest.raises(ScenarioValidationError,
                           match=f"missing required key '{key}'"):
            reparse(doc)
