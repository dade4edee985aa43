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
