"""Smoke tests for the runnable scripts: each main() runs to the end on
tiny arguments."""
import pathlib
import runpy
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name,args", [
    ("bound_profile.py", ["--p", "0.3", "--n", "6", "--count", "5"]),
    ("threshold_table.py", ["--lo", "0.1", "--hi", "0.4", "--count", "3"]),
    ("supermartingale_demo.py", ["--paths", "2000", "--seed", "1"]),
])
def test_script_main_runs(name, args, monkeypatch, capsys):
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    runpy.run_path(str(path))["main"]()
    assert capsys.readouterr().out
