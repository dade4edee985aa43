import pytest
import yaml

from coopwrench import (ee_pose_from_object, evaluate_trajectory, ik_planar3r,
                        parse_scenario, time_grid)
from workloads import (CENTER_JITTER_M, GRASP_JITTER_M, RADIUS_JITTER,
                       TORQUE_JITTER, WORKLOADS, _GRASPS, grid_steps,
                       scenario_doc, scenario_yaml)

SEEDS = range(100)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    workload = WORKLOADS[name]
    assert scenario_yaml(workload, 7) == scenario_yaml(workload, 7)
    assert scenario_yaml(workload, 7) != scenario_yaml(workload, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_jitter_stays_within_bounds(name):
    workload = WORKLOADS[name]
    for seed in SEEDS:
        doc = yaml.safe_load(scenario_yaml(workload, seed))
        for got, base in zip(doc["object"]["grasp_points"],
                             _GRASPS[workload.variant]):
            assert got[1] == 0.0
            assert max(abs(g - b) for g, b in zip(got, base)) <= GRASP_JITTER_M
        center = doc["trajectory"]["center"]
        assert center[1] == 0.0
        assert max(abs(c - 0.35) for c in center[::2]) <= CENTER_JITTER_M
        assert abs(doc["trajectory"]["radius"] / 0.05 - 1.0) <= RADIUS_JITTER
        for arm in doc["manipulators"]:
            assert all(abs(t - 1.0) <= TORQUE_JITTER
                       for t in arm["torque_limits"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_draw_is_reachable(name):
    workload = WORKLOADS[name]
    for seed in SEEDS:
        config = parse_scenario(scenario_yaml(workload, seed))
        times = time_grid(config)
        assert len(times) == grid_steps(workload)
        for t in times:
            state = evaluate_trajectory(config.trajectory, t)
            for model, grasp in zip(config.manipulators,
                                    config.object.grasp_points):
                target = ee_pose_from_object(state, grasp)
                assert ik_planar3r(model, target), (seed, t, model.id)


def test_generator_builds_the_documented_mode():
    for workload in WORKLOADS.values():
        doc = scenario_doc(workload, 0)
        expected = "both" if workload.entry == "cli" else workload.mode
        assert doc["mode"] == expected
        assert doc["beta_iterations"] == workload.beta_iterations
