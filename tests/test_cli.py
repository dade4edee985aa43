"""Command-line entry points, exit codes, and output files."""
import dataclasses
import json
import math
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from coopwrench import cli, runner
from coopwrench.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from coopwrench.config import (ASYMMETRIC_SCENARIO_TEXT,
                               REFERENCE_SCENARIO_TEXT, ScenarioError,
                               parse_scenario, reference_scenario,
                               scenario_dict)


def write_scenario(tmp_path, text=REFERENCE_SCENARIO_TEXT):
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    return path


def test_reference_prints_builtin_text(capsys):
    assert main(["reference"]) == EXIT_OK
    assert capsys.readouterr().out == REFERENCE_SCENARIO_TEXT


def test_reference_writes_variant_file(tmp_path, capsys):
    out = tmp_path / "asym.yaml"
    assert main(["reference", "--variant", "asymmetric",
                 "--out", str(out)]) == EXIT_OK
    assert out.read_text() == ASYMMETRIC_SCENARIO_TEXT
    assert "wrote asymmetric scenario" in capsys.readouterr().out


def test_validate_accepts_builtin(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert main(["validate", "--config", str(path)]) == EXIT_OK
    assert "valid scenario with 4 manipulators, mode both" \
        in capsys.readouterr().out


def test_validate_rejects_broken_scenario(tmp_path, capsys):
    path = write_scenario(
        tmp_path, REFERENCE_SCENARIO_TEXT.replace("mass: 2.0", "mass: -2.0"))
    assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
    assert "mass must be positive" in capsys.readouterr().err


def test_validate_non_integer_id_exits_validation(tmp_path, capsys):
    path = write_scenario(
        tmp_path, REFERENCE_SCENARIO_TEXT.replace("- id: 1", "- id: abc"))
    assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "'id' must be an integer" in err and "Traceback" not in err


def test_validate_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.yaml"
    assert main(["validate", "--config", str(missing)]) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [b"mode: caf\xe9", b"\x80\x81"])
def test_undecodable_scenario_exits_validation(tmp_path, capsys, payload):
    path = tmp_path / "scenario.yaml"
    path.write_bytes(payload)
    assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("invalid scenario syntax") == 2
    assert "Traceback" not in err


def test_deeply_nested_scenario_exits_validation(tmp_path, capsys):
    path = write_scenario(tmp_path, "[" * 500 + "]" * 500)
    assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("nesting too deep") == 2
    assert "Traceback" not in err


def test_run_writes_all_outputs(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out = tmp_path / "results"
    code = main(["run", "--config", str(path), "--dt", "0.1",
                 "--cycles", "1", "--out", str(out)])
    assert code == EXIT_OK
    for name in ("result.csv", "result.json", "plot.dat"):
        assert (out / name).exists()
    with open(out / "result.json") as handle:
        payload = json.load(handle)
    assert payload["summary"]["sample_count"] == 51
    assert payload["config"]["dt"] == 0.1
    stdout = capsys.readouterr().out
    assert "samples: 51" in stdout
    assert "K0 min/mean/max:" in stdout
    assert "K1 min/mean/max:" in stdout
    assert "mean improvement:" in stdout


def test_run_mode_override_baseline(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out = tmp_path / "results"
    code = main(["run", "--config", str(path), "--mode", "baseline",
                 "--dt", "0.1", "--cycles", "1", "--out", str(out)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "K0 min/mean/max:" in stdout
    assert "K1 min/mean/max:" not in stdout
    assert "mean improvement:" not in stdout
    with open(out / "result.json") as handle:
        payload = json.load(handle)
    assert payload["summary"]["K1"] is None


def test_run_rejects_unknown_mode(tmp_path, capsys):
    path = write_scenario(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["run", "--config", str(path), "--mode", "turbo",
              "--out", str(tmp_path / "x")])
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_run_bad_config_exits_validation(tmp_path, capsys):
    path = write_scenario(
        tmp_path, REFERENCE_SCENARIO_TEXT.replace("dt: 0.01", "dt: -1.0"))
    code = main(["run", "--config", str(path),
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_VALIDATION
    assert "dt must be positive" in capsys.readouterr().err


def test_run_non_finite_dt_override_exits_validation(tmp_path, capsys):
    path = write_scenario(tmp_path)
    code = main(["run", "--config", str(path), "--dt", "nan",
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_VALIDATION
    assert "dt must be positive and finite" in capsys.readouterr().err


def test_run_unreachable_trajectory_exits_runtime(tmp_path, capsys):
    text = REFERENCE_SCENARIO_TEXT.replace("center: [0.35, 0.0, 0.35]",
                                           "center: [9.0, 0.0, 0.35]")
    path = write_scenario(tmp_path, text)
    code = main(["run", "--config", str(path), "--dt", "0.1",
                 "--cycles", "1", "--out", str(tmp_path / "x")])
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "run aborted" in err and "cannot reach" in err


def test_run_then_validate_round_trip(tmp_path):
    # a file produced by the reference subcommand is immediately runnable
    scenario = tmp_path / "generated.yaml"
    assert main(["reference", "--variant", "reference",
                 "--out", str(scenario)]) == EXIT_OK
    assert main(["validate", "--config", str(scenario)]) == EXIT_OK


def test_validate_malformed_array_exits_validation(tmp_path, capsys):
    path = write_scenario(tmp_path, REFERENCE_SCENARIO_TEXT.replace(
        "center: [0.35, 0.0, 0.35]", "center: [a, b, c]"))
    assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "trajectory center must be an array of numbers" in err
    assert "Traceback" not in err


def test_two_joint_arm_is_rejected_by_validate_and_run(tmp_path, capsys):
    doc = scenario_dict(reference_scenario())
    for arm in doc["manipulators"]:
        for key in ("link_lengths", "link_masses", "link_com_offsets",
                    "link_inertias", "torque_limits", "velocity_limits"):
            arm[key] = arm[key][:2]
    path = write_scenario(tmp_path, yaml.safe_dump(doc))
    assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
    assert main(["run", "--config", str(path), "--dt", "0.5", "--cycles", "1",
                 "--out", str(tmp_path / "x")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("manipulator 1: joint count must be 3") == 2


@pytest.mark.parametrize("old, new", [
    ("gravity: 9.8067", "gravity: 1.0e+308"),
    ("angular_rate: 1.2566370614359172", "angular_rate: 1.0e+200"),
])
def test_overflowing_object_force_fails_validate_and_run_alike(
        tmp_path, capsys, old, new):
    path = write_scenario(tmp_path, REFERENCE_SCENARIO_TEXT.replace(old, new))
    assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "x")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("peak object force mass * (|gravity| + radius * "
                     "angular_rate^2) must be finite") == 2
    assert "Warning" not in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("edits", [
    [("center: [0.35, 0.0, 0.35]", "center: [1.7e+308, 0.0, 0.35]"),
     ("radius: 0.05", "radius: 1.0e+308"),
     ("angular_rate: 1.2566370614359172", "angular_rate: 1.0e-200"),
     ("dt: 0.01", "dt: 1.0e+300")],
    [("center: [0.35, 0.0, 0.35]", "center: [1.0e+308, 0.0, 0.35]"),
     ("- [0.1, 0.0, 0.0]", "- [1.0e+308, 0.0, 0.0]")],
])
def test_overflowing_grasp_target_fails_validate_and_run_alike(
        tmp_path, capsys, edits):
    text = REFERENCE_SCENARIO_TEXT
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    path = write_scenario(tmp_path, text)
    assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "x")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("peak grasp target |trajectory center| + radius + "
                     "|grasp_points| must be finite") == 2
    assert "Warning" not in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_run_oversized_grid_exits_before_allocating(tmp_path, capsys,
                                                    monkeypatch):
    def no_grid(config):
        raise AssertionError("the time grid must not be built")

    monkeypatch.setattr(runner, "time_grid", no_grid)
    path = write_scenario(tmp_path)
    code = main(["run", "--config", str(path), "--dt", "1e-9",
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "dt/cycles give 10000000000 time steps" in err
    assert not (tmp_path / "x").exists()


def test_run_overrides_touch_only_requested_fields(tmp_path, monkeypatch):
    seen = []

    def capture(config):
        seen.append(config)
        return runner.run_scenario(config)

    monkeypatch.setattr(cli, "run_scenario", capture)
    text = REFERENCE_SCENARIO_TEXT.replace("dt: 0.01", "dt: 0.5").replace(
        "cycles: 2", "cycles: 1")
    path = write_scenario(tmp_path, text)
    for flags in ([], ["--mode", "baseline"], ["--dt", "0.25"],
                  ["--cycles", "2"],
                  ["--mode", "improved-joint", "--dt", "1.0", "--cycles", "2"]):
        assert main(["run", "--config", str(path), *flags,
                     "--out", str(tmp_path / "out")]) == EXIT_OK
    assert [(c.mode, c.dt, c.cycles) for c in seen] == [
        ("both", 0.5, 1), ("baseline", 0.5, 1), ("both", 0.25, 1),
        ("both", 0.5, 2), ("improved-joint", 1.0, 2)]
    # every field no flag names keeps the scenario's value
    scenario = scenario_dict(parse_scenario(text))
    for config in seen:
        assert scenario_dict(dataclasses.replace(
            config, mode="both", dt=0.5, cycles=1)) == scenario


class Captured(Exception):
    """Stops a CLI run at run_scenario, once its config is recorded."""


@pytest.mark.parametrize("dt, steps", [("6e-5", 83333), ("1e-4", 50000)])
def test_run_overrides_are_checked_together(tmp_path, monkeypatch, dt,
                                            steps):
    # 2 cycles at this dt exceed the grid cap, the requested single cycle
    # does not: the flags must reach the config in one step
    seen = []

    def stop(config):
        seen.append(config)
        raise Captured

    monkeypatch.setattr(cli, "run_scenario", stop)
    path = write_scenario(tmp_path)
    with pytest.raises(Captured):
        main(["run", "--config", str(path), "--dt", dt, "--cycles", "1",
              "--out", str(tmp_path / "x")])
    assert [(c.dt, c.cycles, c.step_count) for c in seen] == [
        (float(dt), 1, steps)]


def test_run_oversized_grid_never_reaches_the_runner(tmp_path, capsys,
                                                     monkeypatch):
    def refuse(config):
        raise AssertionError("run_scenario must not be called")

    monkeypatch.setattr(cli, "run_scenario", refuse)
    path = write_scenario(tmp_path)
    for flags, steps in ((["--dt", "1e-9"], 10000000000),
                         (["--dt", "6e-5"], 166667)):
        assert main(["run", "--config", str(path), *flags,
                     "--out", str(tmp_path / "x")]) == EXIT_VALIDATION
        assert f"dt/cycles give {steps} time steps" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# Replacement values for the mutation test: wrong types, boundary numbers,
# non-finite numbers and wrongly shaped arrays.
MUTATION_POOL = ("text", None, True, 0, -1, 1e-9, math.nan, math.inf, [],
                 [1, 2], {"key": 1.0})


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(st.data())
def test_mutated_builtin_fails_only_with_documented_errors(data):
    doc = scenario_dict(reference_scenario())
    section = data.draw(st.sampled_from(
        [doc, doc["object"], doc["trajectory"], *doc["manipulators"]]))
    action = data.draw(st.sampled_from(("replace", "delete", "add")))
    key = "unknown" if action == "add" \
        else data.draw(st.sampled_from(sorted(section)))
    if action == "delete":
        del section[key]
    else:
        section[key] = data.draw(st.sampled_from(MUTATION_POOL))
    text = yaml.safe_dump(doc)
    try:
        parse_scenario(text)
    except ScenarioError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = write_scenario(Path(tmp), text)
        assert main(["validate", "--config", str(path)]) in (EXIT_OK,
                                                             EXIT_VALIDATION)
        assert main(["run", "--config", str(path), "--dt", "0.5",
                     "--cycles", "1", "--out", str(Path(tmp) / "out")]) in (
            EXIT_OK, EXIT_VALIDATION, EXIT_RUNTIME)
