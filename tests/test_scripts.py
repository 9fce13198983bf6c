"""Smoke tests for the study scripts, so they cannot rot unseen."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_diameter_study_runs(capsys):
    study = _load("diameter_study")
    assert study.main(["--sizes", "1000,4000", "--offset-grid", "101"]) == 0
    out = capsys.readouterr().out
    assert "kernel-min route (grid 101^2)" in out
    assert "kernel min / diagonal" in out
