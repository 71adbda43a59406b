"""Smoke test: the example scripts run end to end and write their CSVs.

characterize.py is left out: its 50-cell sweep of 30 s cells takes about 15-20 s.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from sma_bimorph.csvio import POWER_SCHEMA, SPEED_SCAN_SCHEMA, TRAJECTORY_SCHEMA

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, outputs", [
    ("power_budget.py", {"power_trace.csv": POWER_SCHEMA}),
    ("swim_demo.py", {"speed_scan.csv": SPEED_SCAN_SCHEMA, "trajectory.csv": TRAJECTORY_SCHEMA}),
])
def test_script_writes_its_csvs(tmp_path, script, outputs):
    result = subprocess.run([sys.executable, str(SCRIPTS / script), "--out", str(tmp_path)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    for name, schema in outputs.items():
        header, *rows = (tmp_path / name).read_text(encoding="utf-8").splitlines()
        assert header == schema.header, name
        assert rows, name
        assert all(len(row.split(",")) == len(schema.columns) for row in rows), name
