"""The worked example scripts run end to end on the shipped configs."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, headline", [
    ("run_hopf.py", "stability threshold eps = 1/4"),
    ("run_circle_sphere.py", "branch point at t = 1, kernel dim 2, horizontal: True"),
])
def test_example_script_prints_its_headline(script, headline, capsys):
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert headline in capsys.readouterr().out.splitlines()
