"""The demos run to the end against the current API.

Each demo is run in-process as a script and must finish and print. Demo
03 is left out: it takes several seconds, and criterion c04 covers its
max_efficiency path.
"""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_parity_filtering", "02_work_capacity_sweep", "04_coherence_vs_work",
    "05_oscillator_readout", "06_down_conversion",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / (name + ".py")), run_name="__main__")
    assert capsys.readouterr().out.strip()
