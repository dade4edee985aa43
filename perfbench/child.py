"""Workload child process of the benchmark.

    python3 perfbench/child.py SPEC.json

Runs one workload as the spec written by run.py describes and writes its
raw result file.  Expects the checkout root as the working directory and
its ``src`` on PYTHONPATH.  The program is called through module attributes
(``runner.run_scenario``, ``cli.main``) so the tracer's wrappers apply.
"""
from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

import numpy
from check import (check_series, load_golden, series_from_csv,
                   series_from_result)
from coopwrench import cli, parse_scenario, runner
from setup_probe import import_coopwrench
from tracing import Tracer, layer_metrics
from workloads import ARM_COUNT, WORKLOADS, grid_steps


class Operation:
    """One operation of a workload and the reading of its outputs."""

    def __init__(self, workload, work_dir):
        self.workload = workload
        self.out_dir = os.path.join(work_dir, "out")
        self.recheck_csv = os.path.join(work_dir, "recheck.csv")
        if workload.entry == "cli":
            # keep the result the CLI exports, to export it a second time
            self.exported = []
            self._export = cli.export

            def capture(result, fmt, path):
                self.exported.append(result)
                return self._export(result, fmt, path)
            cli.export = capture

    def prepare(self, scenario_path):
        """What one call needs: the parsed scenario or the CLI arguments."""
        if self.workload.entry == "run":
            with open(scenario_path) as handle:
                return parse_scenario(handle.read())
        return ["run", "--config", scenario_path, "--mode", self.workload.mode,
                "--out", self.out_dir]

    def __call__(self, prepared):
        if self.workload.entry == "run":
            return runner.run_scenario(prepared)
        self.exported.clear()
        return cli.main(prepared)

    def outputs(self, returned):
        """(series, problems, bytes exported) of one call's return value."""
        if self.workload.entry == "run":
            return series_from_result(returned), [], 0
        if returned != 0:
            return [], [f"CLI exit code {returned}"], 0
        paths = [os.path.join(self.out_dir, name)
                 for name in ("result.csv", "result.json", "plot.dat")]
        with open(paths[0], "rb") as handle:
            csv_bytes = handle.read()
        self._export(self.exported[-1], "csv", self.recheck_csv)
        with open(self.recheck_csv, "rb") as handle:
            problems = [] if handle.read() == csv_bytes else [
                "two CSV exports of one result differ"]
        written = sum(os.path.getsize(path) for path in paths)
        return series_from_csv(csv_bytes.decode()), problems, written


def run(spec):
    import_coopwrench()
    workload = WORKLOADS[spec["workload"]]
    steps = grid_steps(workload)
    operation = Operation(workload, spec["work_dir"])
    tracer = Tracer() if spec["trace"] else None
    attempted = failed = 0
    errors = []
    times, traced_times, written = [], {}, []

    def attempt(prepared, golden=None, traced=False):
        nonlocal attempted, failed
        attempted += 1
        try:
            if traced:
                tracer.current_op = attempted
                tracer.install()
            try:
                start = time.perf_counter()
                returned = operation(prepared)
                elapsed = time.perf_counter() - start
            finally:
                if traced:
                    tracer.uninstall()
            series, problems, size = operation.outputs(returned)
            problems += check_series(series, steps, workload.mode, golden)
        except Exception as exc:  # a failed operation is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            errors.extend(problems[:10 - len(errors)])
            return
        written.append(size)
        if golden is not None:
            return
        if traced:
            traced_times[attempted] = elapsed
        else:
            times.append(elapsed)

    # untimed warm-up on the default seed, checked against the golden series
    attempt(operation.prepare(spec["golden_scenario"]),
            golden=load_golden(workload.name))
    prepared = operation.prepare(spec["scenario"])
    deadline = time.perf_counter() + spec["seconds"]
    while time.perf_counter() < deadline:
        attempt(prepared, traced=tracer is not None and attempted % 2 == 0)

    result = {"times": times, "attempted": attempted, "failed": failed,
              "errors": errors, "numpy": numpy.__version__,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        layers = layer_metrics(tracer, steps, ARM_COUNT, traced_times,
                               statistics.median(times))
        layers["runner.export.bytes"] = (statistics.median(written), "bytes")
        result["layers"] = layers
        result["absent"] = tracer.absent
        tracer.write(spec["spans"])
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    with open(sys.argv[1]) as spec_file:
        run(json.load(spec_file))
