"""The committed byte contract: sha256 digests of artifacts and coupled traces.

digests.json next to this file holds, for short runs of every CLI command,
the sha256 of each artifact it writes, and for five coupled traces the
sha256 of each of the nine trace arrays and of repr(final_state), plus
max_residual.  A change that alters any byte must regenerate the table in
the same diff and name the cause:

    PYTHONPATH=src python tests/test_digests.py > tests/digests.json
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from sma_bimorph import (ActuatorGeometry, CircuitParams, Environment, PwmConfig,
                         WireProperties, parse_config, run_mode_trace)
from sma_bimorph.cli import COMMANDS, run_scenario

TABLE = Path(__file__).with_name("digests.json")

# 4 s runs; the sweep grid holds cells that never leave martensite (5 Hz at
# 2-3%) and cells that transform
SHORT_CONFIG = """\
drive:
  duration_s: 4.0
metrology:
  run_s: 4.0
  steady_window_s: 3.0
  frequencies_hz: [1, 5]
  duty_cycles_pct: [2, 3, 10]
calibration:
  run_s: 4.0
  steady_window_s: 3.0
run:
  scenario: digest
"""

# name -> (frequency, duty cycle, mode) of a 4 s coupled trace
TRACES = {
    "zero-5hz-3pct": (5.0, 0.03, "bimorph"),
    "1hz-2pct": (1.0, 0.02, "bimorph"),
    "5hz-10pct": (5.0, 0.10, "bimorph"),
    "15hz-10pct": (15.0, 0.10, "bimorph"),
    "unimorph-up-2hz-40pct": (2.0, 0.40, "unimorph-up"),
}
TRACE_ARRAYS = ("t", "delta", "theta", "temp_top", "temp_bottom", "xi_top", "xi_bottom",
                "sigma_top", "sigma_bottom")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests(out_dir) -> dict:
    """command -> artifact file name -> sha256, for every command on SHORT_CONFIG."""
    cfg = parse_config(SHORT_CONFIG)
    table = {}
    for command in sorted(COMMANDS):
        paths = run_scenario(cfg, command, Path(out_dir) / command)
        table[command] = {path.name: _sha256(path.read_bytes()) for path in paths}
    return table


def trace_digests() -> dict:
    """trace name -> field -> sha256 (max_residual as its repr)."""
    table = {}
    for name, (frequency, duty, mode) in TRACES.items():
        trace = run_mode_trace(PwmConfig(frequency=frequency, duty_cycle=duty, mode=mode),
                               CircuitParams(), WireProperties(), Environment(),
                               ActuatorGeometry(), 4.0)
        entry = {key: _sha256(np.ascontiguousarray(getattr(trace, key),
                                                   dtype=np.float64).tobytes())
                 for key in TRACE_ARRAYS}
        entry["final_state"] = _sha256(repr(trace.final_state).encode())
        entry["max_residual"] = repr(trace.max_residual)
        table[name] = entry
    return table


def test_artifact_bytes_match_committed_table(tmp_path):
    expected = json.loads(TABLE.read_text(encoding="utf-8"))["artifacts"]
    assert artifact_digests(tmp_path) == expected


def test_coupled_traces_match_committed_table():
    expected = json.loads(TABLE.read_text(encoding="utf-8"))["traces"]
    assert trace_digests() == expected


if __name__ == "__main__":
    import contextlib
    import tempfile
    # the commands print their reports; keep stdout for the table alone
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(sys.stderr):
        table = {"artifacts": artifact_digests(scratch), "traces": trace_digests()}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
