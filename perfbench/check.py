"""Output checks behind the benchmark's failure count.

A run's output is reduced to a series: one (k, K0, K1, flags) entry per
grid step.  Every operation's series must have one entry per grid step and
only finite values, and in joint mode K1 >= K0 - 1e-9 at every step.  For
the default seed the series must also match the golden series recorded in
``golden/`` to 1e-9, with identical flags.
"""
from __future__ import annotations

import json
import math
import os

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")
TOLERANCE = 1e-9


def series_from_result(result):
    """Series of a RunResult."""
    return [(tuple(float(v) for v in s.k), s.K0, s.K1, tuple(sorted(s.flags)))
            for s in result.samples]


def series_from_csv(text):
    """Series of an exported result.csv (its floats print losslessly)."""
    header, *rows = text.splitlines()
    columns = header.split(",")
    k_cols = [i for i, name in enumerate(columns) if name.startswith("k_")]
    k0_col, k1_col = columns.index("K0"), columns.index("K1")
    flags_col = columns.index("flags")
    series = []
    for row in rows:
        cells = row.split(",")
        series.append((
            tuple(float(cells[i]) for i in k_cols),
            float(cells[k0_col]) if cells[k0_col] else None,
            float(cells[k1_col]) if cells[k1_col] else None,
            tuple(cells[flags_col].split(";")) if cells[flags_col] else (),
        ))
    return series


def _close(a, b):
    return abs(a - b) <= TOLERANCE * max(1.0, abs(b))


def check_series(series, steps, mode, golden=None):
    """Problems found in a series; an empty list means it passed."""
    if len(series) != steps:
        return [f"{len(series)} samples, expected {steps}"]
    problems = []
    for step, (k, K0, K1, _) in enumerate(series):
        if mode == "baseline" and K1 is not None:
            problems.append(f"step {step}: K1 present in baseline mode")
        values = list(k) + [K0] + ([] if mode == "baseline" else [K1])
        if any(v is None or not math.isfinite(v) for v in values):
            problems.append(f"step {step}: missing or non-finite value")
        elif mode == "improved-joint" and K1 < K0 - TOLERANCE:
            problems.append(f"step {step}: K1 {K1!r} < K0 {K0!r}")
    if golden is not None and not problems:
        problems += _compare(series, golden)
    return problems[:10]


def _compare(series, golden):
    if len(series) != len(golden):
        return [f"{len(series)} samples, golden has {len(golden)}"]
    problems = []
    for step, (got, want) in enumerate(zip(series, golden)):
        k, K0, K1, flags = got
        gk, gK0, gK1, gflags = want
        same = (len(k) == len(gk) and all(map(_close, k, gk))
                and _close(K0, gK0)
                and (K1 is None) == (gK1 is None)
                and (K1 is None or _close(K1, gK1))
                and tuple(flags) == tuple(gflags))
        if not same:
            problems.append(f"step {step}: {got!r} differs from golden "
                            f"{want!r}")
    return problems


def golden_path(workload_name):
    return os.path.join(GOLDEN_DIR, f"{workload_name}.json")


def load_golden(workload_name):
    with open(golden_path(workload_name)) as handle:
        doc = json.load(handle)
    return [(tuple(s["k"]), s["K0"], s["K1"], tuple(s["flags"]))
            for s in doc["series"]]


def save_golden(workload_name, seed, series):
    doc = {"workload": workload_name, "seed": seed, "series": [
        {"k": list(k), "K0": K0, "K1": K1, "flags": list(flags)}
        for k, K0, K1, flags in series]}
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(golden_path(workload_name), "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
