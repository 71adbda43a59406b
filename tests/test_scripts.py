"""Smoke test: the example scripts run end to end and write their CSVs.

characterize.py is left out: its 30 s calibration takes minutes.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, outputs", [
    ("power_budget.py", ["power_trace.csv"]),
    ("swim_demo.py", ["speed_scan.csv", "trajectory.csv"]),
])
def test_script_writes_its_csvs(tmp_path, script, outputs):
    result = subprocess.run([sys.executable, str(SCRIPTS / script), "--out", str(tmp_path)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0, name
