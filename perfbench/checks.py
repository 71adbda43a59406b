"""Output checks on the artifacts one workload repeat wrote.

The first repeat of a run is checked against the model's contracts
(row counts, grids, closed forms, the calibration anchor); every later
repeat must reproduce the first one's bytes.  Each check returns a list of
problems, empty when the artifact is correct.
"""

import hashlib
from pathlib import Path

import numpy as np

ANCHOR_TOLERANCE = 0.05   # criterion 3: AMADO(1 Hz, 10%) within 5% of 7.08 mm


def digests(paths) -> dict:
    """artifact file name -> sha256 hex digest."""
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


def _table(path: Path, header: str):
    text = path.read_text(encoding="utf-8")
    first, _, body = text.partition("\n")
    if first != header:
        return None, [f"{path.name}: header {first!r}, expected {header!r}"]
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in body.splitlines()], dtype=np.float64)
    return rows.reshape(-1, header.count(",") + 1), []


def _rows(path, table, expected):
    if table.shape[0] != expected:
        return [f"{path.name}: {table.shape[0]} rows, expected {expected}"]
    return []


def check_sweep(cfg, paths):
    """Returns (problems, failed cells)."""
    from sma_bimorph.csvio import SWEEP_SCHEMA
    path = Path(paths[0])
    table, problems = _table(path, SWEEP_SCHEMA.header)
    if table is None:
        return problems, 0
    grid = sorted((f, dc * 100.0) for f in cfg.sweep_frequencies for dc in cfg.sweep_duty_cycles)
    problems += _rows(path, table, len(grid))
    if problems:
        return problems, 0
    if [tuple(r) for r in table[:, :2]] != grid:
        problems.append(f"{path.name}: (f, dc) grid differs from the configured one")
    failed = int(np.isnan(table[:, 2]).sum())
    ok = table[~np.isnan(table[:, 2])]
    if np.any(ok[:, 2] < 0.0) or np.any(ok[:, 3] < 0.0):
        problems.append(f"{path.name}: negative AMADO or AMADO std")
    for f in np.unique(ok[:, 0]):
        norm = ok[ok[:, 0] == f, 4]
        if ok[ok[:, 0] == f, 2].max() > 0.0 and norm.max() != 1.0:
            problems.append(f"{path.name}: amado_norm at {f:g} Hz peaks at {norm.max()!r}")
    return problems, failed


def read_calibration_report(path: Path) -> dict:
    report = {"parameters": {}, "residuals": []}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("evaluations: "):
            report["evaluations"] = int(line.split(": ", 1)[1])
        elif line.startswith("loss: "):
            report["loss"] = float(line.split(": ", 1)[1])
        elif line.startswith("  ") and " = " in line:
            name, value = line.strip().split(" = ")
            report["parameters"][name] = float(value)
        elif line.startswith("  f=") and "residual " in line:
            report["residuals"].append(float(line.rsplit("residual ", 1)[1]))
    return report


def check_calibration(cfg, paths):
    """Returns (problems, report)."""
    problem = cfg.calibration
    report = read_calibration_report(paths[0])
    problems = []
    if set(report["parameters"]) != set(problem.free):
        problems.append(f"fitted parameters {sorted(report['parameters'])}, "
                        f"expected {sorted(problem.free)}")
    for name, value in report["parameters"].items():
        lo, hi = problem.bound(name)
        if not lo <= value <= hi:
            problems.append(f"fitted {name} = {value!r} outside [{lo!r}, {hi!r}]")
    if not 1 <= report.get("evaluations", 0) <= problem.budget:
        problems.append(f"evaluations {report.get('evaluations')} outside [1, {problem.budget}]")
    if len(report["residuals"]) != len(problem.targets):
        problems.append(f"{len(report['residuals'])} residuals for "
                        f"{len(problem.targets)} targets")
    elif max(abs(r) for r in report["residuals"]) > ANCHOR_TOLERANCE:
        problems.append(f"anchor residuals {report['residuals']} exceed {ANCHOR_TOLERANCE}")
    return problems, report


def recheck_calibration(cfg, report):
    """Re-run the model at the reported fit; its AMADO must match the report."""
    from sma_bimorph.calibration import apply_parameters, evaluate_targets
    problem = cfg.calibration
    props, env, geom = apply_parameters(report["parameters"], cfg.props, cfg.env, cfg.geom)
    predictions = evaluate_targets(problem.targets, cfg.circuit, props, env, geom,
                                   problem.run_length, problem.steady_window,
                                   sample_rate=cfg.pwm.sample_rate)
    problems = []
    for (_, _, target), pred, residual in zip(problem.targets, predictions,
                                              report["residuals"]):
        if abs((pred - target) / target - residual) > 1e-6:
            problems.append(f"re-evaluated AMADO {pred!r} mm does not match the "
                            f"reported residual {residual!r}")
    return problems


def check_power(cfg, path: Path):
    from sma_bimorph.csvio import POWER_SCHEMA
    table, problems = _table(path, POWER_SCHEMA.header)
    if table is None:
        return problems
    n = int(round(cfg.duration * cfg.pwm.sample_rate))
    problems += _rows(path, table, n)
    if problems:
        return problems
    p_on = cfg.circuit.i_on ** 2 * cfg.circuit.r_a
    channels = 1 if cfg.pwm.mode.startswith("unimorph") else 2
    expected_mean = channels * cfg.pwm.duty_cycle * p_on
    if abs(table[:, 5].max() - p_on) > 1e-12 * p_on:
        problems.append(f"{path.name}: peak p_a {table[:, 5].max()!r} W, expected {p_on!r}")
    if abs(table[:, 5].mean() - expected_mean) > 1e-9 * expected_mean:
        problems.append(f"{path.name}: mean p_a {table[:, 5].mean()!r} W, "
                        f"expected {expected_mean!r}")
    return problems


def check_trace(cfg, path: Path):
    from sma_bimorph.csvio import TRACE_SCHEMA
    table, problems = _table(path, TRACE_SCHEMA.header)
    if table is None:
        return problems
    n = int(round(cfg.duration * cfg.pwm.sample_rate))
    problems += _rows(path, table, n)
    if problems:
        return problems
    if not np.all(np.isfinite(table)):
        problems.append(f"{path.name}: non-finite values")
    if np.any(np.diff(table[:, 0]) <= 0.0):
        problems.append(f"{path.name}: time column not increasing")
    if not np.ptp(table[:, 2]) > 0.0:
        problems.append(f"{path.name}: filtered displacement does not move")
    return problems


def check_swim(cfg, trajectory: Path, scan: Path):
    from sma_bimorph.csvio import SPEED_SCAN_SCHEMA, TRAJECTORY_SCHEMA
    problems = []
    table, bad = _table(trajectory, TRAJECTORY_SCHEMA.header)
    problems += bad
    if table is not None:
        problems += _rows(trajectory, table,
                          int(round(cfg.steady_window * cfg.pwm.sample_rate)))
        if not np.all(np.isfinite(table)):
            problems.append(f"{trajectory.name}: non-finite values")
    table, bad = _table(scan, SPEED_SCAN_SCHEMA.header)
    problems += bad
    if table is not None:
        problems += _rows(scan, table, len(cfg.swim_scan_frequencies))
        speeds = table[np.argsort(table[:, 0]), 1]
        if not (np.all(speeds > 0.0) and np.all(np.diff(speeds) > 0.0)):
            problems.append(f"{scan.name}: speeds {speeds.tolist()} do not rise "
                            "with frequency")
    return problems


def check_first_repeat(workload, cfg, paths):
    """Contract checks of a workload's artifacts.

    Returns (problems, failed sweep cells, calibration report or None).
    """
    by_suffix = {Path(p).name.rsplit("_", 1)[-1]: Path(p) for p in paths}
    if workload == "sweep":
        problems, failed = check_sweep(cfg, paths)
        return problems, failed, None
    if workload == "calibrate":
        problems, report = check_calibration(cfg, paths)
        return problems, 0, report
    problems = check_power(cfg, by_suffix["power.csv"])
    problems += check_trace(cfg, by_suffix["trace.csv"])
    problems += check_swim(cfg, by_suffix["trajectory.csv"], by_suffix["scan.csv"])
    return problems, 0, None

