"""The public package surface and the README's Python examples."""
import importlib.util
import re
from pathlib import Path

import pytest

import coopwrench

README_TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README_TEXT,
                           flags=re.MULTILINE | re.DOTALL)


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from coopwrench import *", namespace)
    assert len(set(coopwrench.__all__)) == len(coopwrench.__all__)
    assert set(coopwrench.__all__) <= namespace.keys()


@pytest.mark.parametrize("module, name", [
    ("config", "Wrench"), ("kinematics", "planar_rotation"),
    ("kinematics", "planar_angle"),
    # cross-checks that moved to tests/oracles.py: a run cannot build a 6x6
    # grasp matrix when the package has none
    ("dynamics", "mass_matrix"), ("dynamics", "gravity_vector"),
    ("grasp", "skew"), ("grasp", "grasp_matrix"),
    ("grasp", "object_wrench_from_ee"),
    ("capability", "feasible_wrench_check")])
def test_removed_forms_are_gone(module, name):
    assert name not in coopwrench.__all__
    assert not hasattr(coopwrench, name)
    assert not hasattr(getattr(coopwrench, module), name)


@pytest.mark.parametrize("name", ["LinearProgram", "SimplexResult",
                                  "simplex_solve"])
def test_no_simplex_ships(name):
    # the joint mode is an exact sweep; the one simplex is the tests' oracle
    assert name not in coopwrench.__all__
    assert not hasattr(coopwrench, name)
    assert importlib.util.find_spec("coopwrench.simplex") is None


@pytest.mark.parametrize("name", coopwrench.__all__)
def test_readme_documents_every_exported_name(name):
    assert re.search(rf"\b{re.escape(name)}\b", README_TEXT)


def test_readme_has_python_examples():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_readme_python_example_runs(index, capsys):
    exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index + 1}",
                 "exec"), {})
    assert capsys.readouterr().out
