"""Set-up probe: time importing coopwrench and parsing one scenario.

    python3 perfbench/setup_probe.py SCENARIO.yaml

Prints the seconds taken.  Runs in a fresh process per probe, so the time
includes every import the package pulls in; this module imports nothing
heavy before the clock starts.
"""
import os
import sys
import time


def import_coopwrench():
    """Import coopwrench, refusing any copy but the checkout's ``src``."""
    import coopwrench
    src = os.path.realpath("src") + os.sep
    if not os.path.realpath(coopwrench.__file__).startswith(src):
        raise SystemExit(f"coopwrench imported from {coopwrench.__file__}, "
                         f"not from {src}")
    return coopwrench


if __name__ == "__main__":
    start = time.perf_counter()
    coopwrench = import_coopwrench()
    with open(sys.argv[1]) as handle:
        coopwrench.parse_scenario(handle.read())
    print(repr(time.perf_counter() - start))
