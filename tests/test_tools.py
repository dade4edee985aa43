"""The scripts under tools/."""
import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digest_exits_2_when_a_checkout_fails(tmp_path, capsys):
    digest = load_tool("output_digest")
    package = tmp_path / "src" / "coopwrench"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        'raise RuntimeError("broken checkout")\n')
    with pytest.raises(SystemExit) as failed:
        digest.checkout_digests(str(tmp_path))
    assert failed.value.code == 2
    assert "broken checkout" in capsys.readouterr().err
    # a failed sweep is not a difference: main stops with the same status
    with pytest.raises(SystemExit) as failed:
        digest.main([str(tmp_path), str(tmp_path)])
    assert failed.value.code == 2


def test_output_digest_takes_a_relative_checkout(tmp_path, monkeypatch):
    """The child runs inside the checkout, so a checkout path relative to
    the caller's directory must still put the checkout's src on its path."""
    digest = load_tool("output_digest")
    package = tmp_path / "checkout" / "src" / "coopwrench"
    package.mkdir(parents=True)
    # an empty sweep: no scenario, so no run
    for name, text in (("__init__", ""), ("cli", "main = None\n"),
                       ("config", "BETA_POLICIES = MODES = ()\n"
                                  "SCENARIO_TEXTS = {}\n"
                                  "parse_scenario = None\n"),
                       ("runner", "emit_plot_data = export = None\n"
                                  "run_scenario = None\n")):
        (package / f"{name}.py").write_text(text)
    monkeypatch.chdir(tmp_path)
    lines = digest.checkout_digests("checkout")
    assert [line.split("  ", 1)[1] for line in lines] == [
        "library: 0 runs, 0 files",
        "cli: 0 runs, 0 files, exit codes and stdout"]
