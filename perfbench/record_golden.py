"""Record the golden series of every workload for the default seed.

    PYTHONPATH=src python3 perfbench/record_golden.py

Run from the checkout root.  Rerun it only for a change that is meant to
change the program's numbers, and say so in that change.
"""
import os
import shutil
import tempfile

from check import check_series, save_golden
from child import Operation
from run import WORK_DIR
from workloads import DEFAULT_SEED, WORKLOADS, grid_steps, scenario_yaml


def main():
    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="golden-", dir=WORK_DIR)
    try:
        for workload in WORKLOADS.values():
            path = os.path.join(tmp, f"{workload.name}.yaml")
            with open(path, "w") as handle:
                handle.write(scenario_yaml(workload, DEFAULT_SEED))
            operation = Operation(workload, tmp)
            series, problems, _ = operation.outputs(
                operation(operation.prepare(path)))
            problems += check_series(series, grid_steps(workload),
                                     workload.mode)
            if problems:
                raise SystemExit(f"{workload.name}: {problems}")
            save_golden(workload.name, DEFAULT_SEED, series)
            print(f"recorded {workload.name}: {len(series)} steps")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
