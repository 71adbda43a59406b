"""Smoke test: the example scripts run end to end and write their CSVs.

characterize.py runs with --skip-calibration: its 50-cell sweep of 30 s cells at
the nominal constants takes a few seconds, and its CSV pins the default grid's bytes.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from sma_bimorph import parse_config
from sma_bimorph.csvio import (POWER_SCHEMA, SPEED_SCAN_SCHEMA, SWEEP_SCHEMA,
                               TRAJECTORY_SCHEMA)

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
        if schema is TRAJECTORY_SCHEMA:
            # the trajectory of `bimorph swim`: the steady window at the sample rate
            cfg = parse_config("")
            assert len(rows) == round(cfg.steady_window * cfg.pwm.sample_rate) == 30000


def test_characterize_keeps_the_default_grid_bytes(tmp_path):
    # the default 50-cell 30 s sweep, the CSV of `bimorph sweep` with no config
    result = subprocess.run([sys.executable, str(SCRIPTS / "characterize.py"),
                             "--skip-calibration", "--out", str(tmp_path)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    path = tmp_path / "characterization_sweep.csv"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header == SWEEP_SCHEMA.header
    assert len(rows) == 50
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "a0a16ac01274fda547132f2d56fd1f9c69333e12388043f68a3ec3e68bb87ee7")
