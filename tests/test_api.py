"""The public package surface and the README's Python examples."""
import re
from pathlib import Path

import pytest

import coopwrench

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                           flags=re.MULTILINE | re.DOTALL)


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from coopwrench import *", namespace)
    assert len(set(coopwrench.__all__)) == len(coopwrench.__all__)
    assert set(coopwrench.__all__) <= namespace.keys()


@pytest.mark.parametrize("module, name", [("config", "Wrench"),
                                          ("kinematics", "planar_rotation"),
                                          ("kinematics", "planar_angle")])
def test_removed_forms_are_gone(module, name):
    assert name not in coopwrench.__all__
    assert not hasattr(coopwrench, name)
    assert not hasattr(getattr(coopwrench, module), name)


def test_readme_has_python_examples():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_readme_python_example_runs(index, capsys):
    exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index + 1}",
                 "exec"), {})
    assert capsys.readouterr().out
