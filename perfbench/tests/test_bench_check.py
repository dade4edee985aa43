import math

import pytest

from check import check_series, load_golden, series_from_csv
from workloads import WORKLOADS, grid_steps

JOINT = WORKLOADS["asymmetric-joint-refine"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_series_passes_its_own_check(name):
    golden = load_golden(name)
    workload = WORKLOADS[name]
    assert check_series(golden, grid_steps(workload), workload.mode,
                        golden) == []


def _with_k1(series, step, value):
    k, K0, _, flags = series[step]
    return series[:step] + [(k, K0, value, flags)] + series[step + 1:]


def test_corrupted_k1_fails_the_golden_comparison():
    golden = load_golden(JOINT.name)
    corrupted = _with_k1(golden, 5, golden[5][2] + 1e-6)
    problems = check_series(corrupted, grid_steps(JOINT), JOINT.mode, golden)
    assert len(problems) == 1 and problems[0].startswith("step 5:")


def test_k1_below_k0_fails_in_joint_mode_without_golden():
    golden = load_golden(JOINT.name)
    corrupted = _with_k1(golden, 3, golden[3][1] - 1e-6)
    problems = check_series(corrupted, grid_steps(JOINT), JOINT.mode)
    assert problems == [f"step 3: K1 {corrupted[3][2]!r} < "
                        f"K0 {corrupted[3][1]!r}"]


def test_non_finite_and_short_series_fail():
    golden = load_golden(JOINT.name)
    steps = grid_steps(JOINT)
    assert check_series(_with_k1(golden, 0, math.nan), steps, JOINT.mode)
    assert check_series(_with_k1(golden, 0, None), steps, JOINT.mode)
    assert check_series(golden[:-1], steps, JOINT.mode)


def test_flags_must_match_golden():
    golden = load_golden(JOINT.name)
    k, K0, K1, _ = golden[2]
    flagged = golden[:2] + [(k, K0, K1, ("infeasible",))] + golden[3:]
    assert check_series(flagged, grid_steps(JOINT), JOINT.mode, golden)


def test_baseline_series_must_not_carry_k1():
    series = [((0.25, 0.5), 0.75, 0.8, ())]
    assert check_series(series, 1, "baseline")
    assert check_series([((0.25, 0.5), 0.75, None, ())], 1, "baseline") == []


def test_series_from_csv_reads_exported_columns():
    text = ("t,k_1,k_2,K0,K1,beta_1,beta_2,alpha_1,alpha_2,tdelta_y,flags\n"
            "0,0.25,0.5,0.75,,0.3,0.7,,,0,\n"
            "0.1,0.125,0.5,0.625,0.7,0.2,0.8,0.5,0.5,0,"
            "infeasible;velocity-limit\n")
    assert series_from_csv(text) == [
        ((0.25, 0.5), 0.75, None, ()),
        ((0.125, 0.5), 0.625, 0.7, ("infeasible", "velocity-limit")),
    ]
