"""The committed table of the model's current outputs.

digests.json next to this file holds every value a test pins because it is
what today's model computes, one section each:

- ``artifacts``: for short runs of every CLI command, the sha256 of each
  artifact it writes;
- ``traces``: for five coupled traces, the sha256 of each of the nine trace
  arrays and of repr(final_state), plus max_residual;
- ``sweeps``: the sha256 of the default 50-cell sweep CSV and of the same
  grid at the anchor fit (tests/test_characterization.py);
- ``calibration``: the outcome of a short search without the tip gain
  (tests/test_calibration.py);
- ``tiling``: (steady_index, cycle_length) of each coupled trace whose cycle
  tiling tests/test_mechanics.py checks bit for bit.

This module is the one place that computes them; the tests read the inputs
and the committed values from here.  A change that alters any of them
regenerates the whole table in the same diff and names the cause in
CHANGES.md:

    PYTHONPATH=src python tests/test_digests.py > tests/digests.json
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from sma_bimorph import (ActuatorGeometry, CalibrationProblem, CircuitParams, Environment,
                         PwmConfig, WireProperties, calibrate, parse_config, run_mode_trace,
                         run_sweep)
from sma_bimorph.cli import COMMANDS, main, run_scenario, sweep_columns
from sma_bimorph.csvio import SWEEP_SCHEMA, write_csv

TABLE = Path(__file__).with_name("digests.json")
# the sections compute_table writes, each read by the tests through pinned()
SECTIONS = ("artifacts", "calibration", "sweeps", "tiling", "traces")

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

# the characterization grid, and the anchor fit of criterion 3: {g_tip, h,
# k_beam} against AMADO(1 Hz, 10%) = 7.08 mm
FULL_FREQUENCIES = (1.0, 5.0, 10.0, 15.0, 20.0)
FULL_DUTY_CYCLES = tuple(d / 100.0 for d in range(1, 11))
ANCHOR_PROBLEM = CalibrationProblem(free=("g_tip", "h", "k_beam"),
                                    targets=((1.0, 0.10, 7.08),), budget=150)

# a search over a free set without g_tip, which runs its budget out
FREE_SET_PROBLEM = CalibrationProblem(free=("h", "k_beam"), budget=6,
                                      run_length=4.0, steady_window=3.0)

# id -> (frequency, duty cycle, mode, convection multiplier, duration s) of a
# coupled trace whose cycle tiling is checked against stepping every sample
TILING_CASES = {
    "5hz-zero": (5.0, 0.03, "bimorph", 1.0, 30.0),
    "1hz": (1.0, 0.10, "bimorph", 1.0, 30.0),
    "20hz": (20.0, 0.10, "bimorph", 1.0, 30.0),
    "2hz-unimorph-up": (2.0, 0.40, "unimorph-up", 1.0, 30.0),
    "3hz-water": (3.0, 0.12, "bimorph", 1.5, 30.0),
    "15hz-21-periods": (15.0, 0.10, "bimorph", 1.0, 40.0),
    "5hz-11-periods": (5.0, 0.10, "bimorph", 1.0, 30.0),
    "1hz-8pct-never": (1.0, 0.08, "bimorph", 1.0, 30.0),
    "1hz-30.3s": (1.0, 0.10, "bimorph", 1.0, 30.3),
    "10hz-4s": (10.0, 0.10, "bimorph", 1.0, 4.0),
    "2.5hz-12s": (2.5, 0.10, "bimorph", 1.0, 12.0),
    "0.5hz-30s": (0.5, 0.10, "bimorph", 1.0, 30.0),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pinned(section: str) -> dict:
    """The committed values of one section of the table."""
    return json.loads(TABLE.read_text(encoding="utf-8"))[section]


def anchor_fit(circuit, props, env, geom):
    """The CalibrationResult of ANCHOR_PROBLEM from these constants."""
    return calibrate(ANCHOR_PROBLEM, circuit, props, env, geom)


def fitted_sweep(circuit, fit):
    """The full characterization grid at the constants of a CalibrationResult."""
    return run_sweep(FULL_FREQUENCIES, FULL_DUTY_CYCLES, circuit, fit.props, fit.env, fit.geom)


def default_sweep_sha256(out_dir) -> str:
    """sha256 of the CSV that `bimorph sweep` writes on the default config."""
    assert main(["sweep", "--out", str(out_dir)]) == 0
    return _sha256((Path(out_dir) / "default_sweep.csv").read_bytes())


def sweep_sha256(table, out_dir) -> str:
    """sha256 of a sweep table written as the sweep CSV."""
    path = write_csv(Path(out_dir) / "fitted_sweep.csv", SWEEP_SCHEMA, sweep_columns(table))
    return _sha256(path.read_bytes())


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


def sweep_digests(out_dir) -> dict:
    """sha256 of the default sweep CSV and of the fitted one, by those names."""
    circuit = CircuitParams()
    fit = anchor_fit(circuit, WireProperties(), Environment(), ActuatorGeometry())
    return {"default": default_sweep_sha256(out_dir),
            "fitted": sweep_sha256(fitted_sweep(circuit, fit), out_dir)}


def calibration_outcomes() -> dict:
    """Evaluations, convergence, loss and parameters of FREE_SET_PROBLEM."""
    result = calibrate(FREE_SET_PROBLEM, CircuitParams(), WireProperties(), Environment(),
                       ActuatorGeometry())
    return {"free-set-without-gain": {"evaluations": result.evaluations,
                                      "converged": result.converged, "loss": result.loss,
                                      "parameters": result.parameters}}


def tiling_positions() -> dict:
    """case id -> [steady_index, cycle_length] of its coupled trace as run_mode_trace tiles it."""
    table = {}
    for name, (frequency, duty, mode, multiplier, duration) in TILING_CASES.items():
        trace = run_mode_trace(PwmConfig(frequency=frequency, duty_cycle=duty, mode=mode),
                               CircuitParams(), WireProperties(),
                               Environment(convection_multiplier=multiplier),
                               ActuatorGeometry(), duration)
        table[name] = [trace.steady_index, trace.cycle_length]
    return table


def compute_table(out_dir) -> dict:
    """Every section of the table, computed afresh; artifacts go under out_dir."""
    return {"artifacts": artifact_digests(out_dir), "traces": trace_digests(),
            "sweeps": sweep_digests(out_dir), "calibration": calibration_outcomes(),
            "tiling": tiling_positions()}


def test_table_holds_exactly_the_sections_the_tests_read():
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    assert sorted(table) == sorted(SECTIONS)


def test_tiling_entries_are_the_tiling_cases():
    assert sorted(pinned("tiling")) == sorted(TILING_CASES)


def test_artifact_bytes_match_committed_table(tmp_path):
    assert artifact_digests(tmp_path) == pinned("artifacts")


def test_coupled_traces_match_committed_table():
    assert trace_digests() == pinned("traces")


if __name__ == "__main__":
    import contextlib
    import tempfile
    # the commands print their reports; keep stdout for the table alone
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(sys.stderr):
        table = compute_table(scratch)
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
