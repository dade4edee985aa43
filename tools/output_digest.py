"""SHA-256 over the outputs of two fixed sweeps of runs.

    python3 tools/output_digest.py                  # this checkout
    python3 tools/output_digest.py PARENT CHANGE    # compare two checkouts

The library sweep is both built-in scenarios x the 4 modes x the 2 share
policies x beta_iterations {0, 2}, at dt 0.05 s over one cycle: 32 runs of
``run_scenario``, each exported as result.csv, result.json and plot.dat
(96 files).  The CLI sweep is both built-ins x the 4 modes through
``coopwrench run --mode M --dt 0.05 --cycles 1``: 8 runs, each digested by
its exit code, its stdout (with the output directory replaced by a fixed
token) and the three files it writes.  A digest covers each item's run
label, name and bytes in sweep order, so two checkouts print the same
digests exactly when every item is byte-identical.

Each checkout is digested in its own child process with only its own
``src`` on the import path.  With two or more checkouts the script prints
each checkout's lines and exits 1 if any digest differs.  It exits 2, with
the child's error on stderr, when a checkout's sweep fails.
"""
import contextlib
import dataclasses
import hashlib
import io
import os
import subprocess
import sys
import tempfile

_HERE = "--here"
SWEEP_FAILED = 2
DT = 0.05
CYCLES = 1
BETA_ITERATIONS = (0, 2)
FILES = ("result.csv", "result.json", "plot.dat")
OUT_TOKEN = "<out>"


def _add(digest, label, payload):
    digest.update(f"{label}\n".encode())
    digest.update(len(payload).to_bytes(8, "little"))
    digest.update(payload)


def _add_files(digest, label, directory):
    for name in FILES:
        with open(os.path.join(directory, name), "rb") as handle:
            _add(digest, f"{label}/{name}", handle.read())


def library_digest():
    """Digest of the library sweep, run with the coopwrench on sys.path."""
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
                        export(result, "csv", os.path.join(tmp, FILES[0]))
                        export(result, "json", os.path.join(tmp, FILES[1]))
                        emit_plot_data(result, os.path.join(tmp, FILES[2]))
                        _add_files(digest,
                                   f"{variant}/{mode}/{policy}/{iterations}",
                                   tmp)
                        runs += 1
    return f"{digest.hexdigest()}  library: {runs} runs, {3 * runs} files"


def cli_digest():
    """Digest of the CLI sweep, run with the coopwrench on sys.path."""
    from coopwrench.cli import main
    from coopwrench.config import MODES, SCENARIO_TEXTS

    digest = hashlib.sha256()
    runs = 0
    with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
        for variant in sorted(SCENARIO_TEXTS):
            scenario = os.path.join(tmp, f"{variant}.yaml")
            with open(scenario, "w") as handle:
                handle.write(SCENARIO_TEXTS[variant])
            for mode in MODES:
                label = f"cli/{variant}/{mode}"
                out = os.path.join(tmp, f"{variant}-{mode}")
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = main(["run", "--config", scenario, "--mode", mode,
                                 "--dt", str(DT), "--cycles", str(CYCLES),
                                 "--out", out])
                _add(digest, f"{label}/exit", str(code).encode())
                _add(digest, f"{label}/stdout",
                     stdout.getvalue().replace(out, OUT_TOKEN).encode())
                _add_files(digest, label, out)
                runs += 1
    return (f"{digest.hexdigest()}  cli: {runs} runs, {3 * runs} files, "
            f"exit codes and stdout")


def checkout_digests(checkout):
    """Digest lines printed by a child importing only ``checkout``/src.

    Exits with SWEEP_FAILED when the child fails.
    """
    checkout = os.path.abspath(checkout)  # the child runs inside it
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    child = subprocess.run([sys.executable, os.path.abspath(__file__), _HERE],
                           env=env, cwd=checkout, capture_output=True,
                           text=True)
    if child.returncode != 0:
        print(f"{checkout}: digest failed\n{child.stderr}", file=sys.stderr)
        raise SystemExit(SWEEP_FAILED)
    return child.stdout.splitlines()


def main(argv):
    if argv == [_HERE]:
        print(library_digest())
        print(cli_digest())
        return 0
    checkouts = argv or [os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))]
    outputs = [checkout_digests(checkout) for checkout in checkouts]
    for checkout, lines in zip(checkouts, outputs):
        for line in lines:
            print(f"{line}  {checkout}")
    if len({tuple(line.split()[0] for line in lines)
            for lines in outputs}) > 1:
        print("digests differ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
