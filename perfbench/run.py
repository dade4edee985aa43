"""coopwrench benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src``.
The scenario is generated from the seed (see workloads.py).  Set-up time is
the median of several fresh processes that import coopwrench and parse the
scenario.  The workload then runs in a child process of its own with
COOPWRENCH_THREADS=1 and single-threaded BLAS: one untimed warm-up
operation on the default seed, checked against the golden series, then
operations back to back for S seconds, each checked (see check.py).

Other tenants of a shared machine slow it down for seconds at a time, by
up to 2x, and the program's own time does not vary from one operation to
the next (every operation runs the same input).  So the timings are taken
per window of WINDOW_OPS consecutive operations and the run reports its
least disturbed window: the lowest window median (run_s_p50), and the
grid steps per second at that median (steps_per_s; a window's mean time
let single slow operations in).  The tail, the lowest window p80
with ten samples beyond it (run_s_tail), and the failed fraction are
printed but left out of the result line.  On the 2-core machine the
benchmark was defined on, the tail spread from run to run by up to 0.12 of
its median, nearly all of it the machine's.  failed_frac is 0 whenever
the program is correct.  The whole-run median and p90 are printed too.

With --trace 0 the last line holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced run, whose operations alternate
between traced and untraced so the tracing overhead is measured too.  The
spans of a traced run are written to .perfbench_work/spans-NAME.txt.gz.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import DEFAULT_SEED, WORKLOADS, grid_steps, scenario_yaml

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0  # an invocation must end within 180 s
WINDOW_OPS = 50
TAIL_PERCENTILE = 80  # the highest with ten of a window's samples beyond it
SINGLE_THREADED = {
    "COOPWRENCH_THREADS": "1", "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
}


def windows(times):
    """Consecutive WINDOW_OPS-operation windows; one short one if too few."""
    count = len(times) // WINDOW_OPS
    if count == 0:
        return [times]
    return [times[i * WINDOW_OPS:(i + 1) * WINDOW_OPS] for i in range(count)]


def percentile(times, p):
    """Nearest-rank percentile."""
    ordered = sorted(times)
    return ordered[math.ceil(p / 100.0 * len(ordered)) - 1]


def _child_env():
    env = dict(os.environ, **SINGLE_THREADED)
    paths = [os.path.abspath("src"), os.environ.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def _measure(args, tmp, started):
    workload = WORKLOADS[args.workload]
    scenario = os.path.join(tmp, "scenario.yaml")
    golden_scenario = os.path.join(tmp, "golden-scenario.yaml")
    for path, seed in ((scenario, args.seed), (golden_scenario, DEFAULT_SEED)):
        with open(path, "w") as handle:
            handle.write(scenario_yaml(workload, seed))
    env = _child_env()

    def remaining():
        return TIME_LIMIT_S - (time.monotonic() - started)

    setup_times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), scenario],
            env=env, stdout=subprocess.PIPE, text=True, check=True,
            timeout=remaining())
        setup_times.append(float(probe.stdout.split()[-1]))

    spec = {
        "workload": workload.name, "seconds": args.seconds,
        "trace": bool(args.trace), "scenario": scenario,
        "golden_scenario": golden_scenario, "work_dir": tmp,
        "result": os.path.join(tmp, "result.json"),
        "spans": os.path.join(WORK_DIR, f"spans-{workload.name}.txt.gz"),
    }
    spec_path = os.path.join(tmp, "spec.json")
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                   env=env, stdout=subprocess.DEVNULL, check=True,
                   timeout=remaining())
    with open(spec["result"]) as handle:
        raw = json.load(handle)
    return setup_times, raw


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join("src", "coopwrench", "__init__.py")):
        print("error: run from a checkout root holding src/coopwrench",
              file=sys.stderr)
        return 2

    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        setup_times, raw = _measure(args, tmp, started)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    times = raw["times"]
    if not times:
        print(f"error: no operation succeeded: {raw['errors']}",
              file=sys.stderr)
        return 1
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}")
    print(f"env nproc={nproc} python={platform.python_version()} "
          f"numpy={raw['numpy']}")
    for error in raw["errors"]:
        print(f"check failed: {error}")

    if args.trace:
        metrics = raw["layers"]
        if raw["absent"]:
            print(f"absent layer targets: {', '.join(raw['absent'])}")
    else:
        parts = windows(times)
        p50 = min(map(statistics.median, parts))
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s_p50": (p50, "s"),
            "steps_per_s": (grid_steps(WORKLOADS[args.workload]) / p50, "1/s"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        }
        print(f"operations timed: {len(times)} in {len(parts)} windows of "
              f"{len(parts[0])}; whole-run median {statistics.median(times):.6g}"
              f" s, p90 {percentile(times, 90):.6g} s; "
              f"set-up probes: {len(setup_times)}")
        tail = min(percentile(part, TAIL_PERCENTILE) for part in parts)
        print(f"{'run_s_tail':44s} {tail:.6g} s")
        print(f"{'failed_frac':44s} {raw['failed'] / raw['attempted']:.6g} "
              f"({raw['failed']}/{raw['attempted']})")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
