"""SHA-256 over the exported files of a fixed sweep of runs.

    python3 tools/output_digest.py                  # this checkout
    python3 tools/output_digest.py PARENT CHANGE    # compare two checkouts

The sweep is both built-in scenarios x the 4 modes x the 2 share policies x
beta_iterations {0, 2}, at dt 0.05 s over one cycle: 32 runs, each writing
result.csv, result.json and plot.dat (96 files).  The digest covers each
file's run label, name and bytes in sweep order, so two checkouts print the
same digest exactly when every file is byte-identical.

Each checkout is digested in its own child process with only its own
``src`` on the import path.  With two or more checkouts the script prints
one line each and exits 1 if the digests differ.
"""
import dataclasses
import hashlib
import os
import subprocess
import sys
import tempfile

_HERE = "--here"
DT = 0.05
CYCLES = 1
BETA_ITERATIONS = (0, 2)


def sweep_digest():
    """Digest of the sweep, run with the coopwrench found on sys.path."""
    from coopwrench.config import (BETA_POLICIES, MODES, SCENARIO_TEXTS,
                                   parse_scenario)
    from coopwrench.runner import emit_plot_data, export, run_scenario

    digest = hashlib.sha256()
    runs = 0
    with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
        for variant in sorted(SCENARIO_TEXTS):
            base = parse_scenario(SCENARIO_TEXTS[variant])
            for mode in MODES:
                for policy in BETA_POLICIES:
                    for iterations in BETA_ITERATIONS:
                        config = dataclasses.replace(
                            base, mode=mode, beta_policy=policy,
                            beta_iterations=iterations, dt=DT, cycles=CYCLES)
                        result = run_scenario(config)
                        paths = {name: os.path.join(tmp, name) for name in
                                 ("result.csv", "result.json", "plot.dat")}
                        export(result, "csv", paths["result.csv"])
                        export(result, "json", paths["result.json"])
                        emit_plot_data(result, paths["plot.dat"])
                        label = f"{variant}/{mode}/{policy}/{iterations}"
                        for name, path in paths.items():
                            with open(path, "rb") as handle:
                                payload = handle.read()
                            digest.update(f"{label}/{name}\n".encode())
                            digest.update(len(payload).to_bytes(8, "little"))
                            digest.update(payload)
                        runs += 1
    return digest.hexdigest(), runs


def checkout_digest(checkout):
    """Digest line printed by a child importing only ``checkout``/src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    child = subprocess.run([sys.executable, os.path.abspath(__file__), _HERE],
                           env=env, cwd=checkout, capture_output=True,
                           text=True)
    if child.returncode != 0:
        raise SystemExit(f"{checkout}: digest failed\n{child.stderr}")
    return child.stdout.strip()


def main(argv):
    if argv == [_HERE]:
        digest, runs = sweep_digest()
        print(f"{digest}  {runs} runs, {3 * runs} files")
        return 0
    checkouts = argv or [os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))]
    lines = [checkout_digest(checkout) for checkout in checkouts]
    for checkout, line in zip(checkouts, lines):
        print(f"{line}  {checkout}")
    if len({line.split()[0] for line in lines}) > 1:
        print("digests differ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
