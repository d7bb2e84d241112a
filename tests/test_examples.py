"""Smoke tests for the example scripts.

Importing each example verifies its dependencies resolve; the
quickstart is additionally executed end-to-end.  CI's ``paper-claims``
job runs every example end to end (about 15 s in all on two CPUs).
"""

import importlib.util
import os
import pathlib
import sys
import tempfile

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def load_example(path):
    name = f"example_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_examples_exist():
    names = {path.stem for path in EXAMPLE_FILES}
    assert "quickstart" in names
    assert len(names) >= 3


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_example_imports_and_has_main(path):
    module = load_example(path)
    assert callable(getattr(module, "main", None)), f"{path.stem} lacks main()"
    assert module.__doc__, f"{path.stem} lacks a module docstring"


def test_quickstart_runs(capsys):
    module = load_example(EXAMPLES_DIR / "quickstart.py")
    module.main()
    out = capsys.readouterr().out
    assert "Both distinguishers agree" in out


@pytest.mark.parametrize("stem", ["noise_sweep", "rtl_export"])
def test_example_removes_its_temporary_directory(stem, tmp_path, monkeypatch):
    # Given no directory, the example works in a temporary one and
    # removes it when it ends.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(sys, "argv", [f"{stem}.py"])
    load_example(EXAMPLES_DIR / f"{stem}.py").main()
    assert os.listdir(tmp_path) == []
