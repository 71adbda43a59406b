"""Command-line front end: reproduce every figure-level artifact as CSV.

Commands
    simulate   tip-displacement trace of the configured drive
    sweep      AMADO over the frequency x duty-cycle grid
    power      instantaneous/average electrical power of the drive
    calibrate  fit free parameters to the configured AMADO targets
    swim       swimmer trajectory and speed-vs-frequency scan

Exit codes: 0 success, 2 configuration error, 3 simulation error (a non-finite
state or a failed run-time check).
All outputs are deterministic functions of the config text and command.
Every command runs serially in one thread.
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import swimmer as swim_mod
from .calibration import calibrate
from .config import ScenarioConfig, parse_config
from .csvio import (POWER_SCHEMA, SPEED_SCAN_SCHEMA, SWEEP_SCHEMA, TRACE_SCHEMA,
                    TRAJECTORY_SCHEMA, write_csv)
from .drive import average_power, make_pwm_pair
from .errors import ConfigError, SimulationError
from .mechanics import run_mode_trace
from .metrology import (SweepTable, design_fir, filter_zero_phase, measure_amado,
                        run_sweep)


def cmd_simulate(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    trace = run_mode_trace(cfg.pwm, cfg.circuit, cfg.props, cfg.env, cfg.geom,
                           cfg.duration)
    filtered = filter_zero_phase(design_fir(cfg.fir), trace.delta)
    columns = (trace.t, trace.delta * 1e3, filtered * 1e3)
    return [write_csv(out_dir / f"{cfg.scenario}_trace.csv", TRACE_SCHEMA, columns)]


def cmd_sweep(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    table = run_sweep(cfg.sweep_frequencies, cfg.sweep_duty_cycles, cfg.circuit,
                      cfg.props, cfg.env, cfg.geom, protocol=cfg.protocol)
    for (f, dc), message in sorted(table.errors.items()):
        print(f"sweep cell (f={f:g} Hz, DC={dc:g}) failed: {message}", file=sys.stderr)
    return [write_csv(out_dir / f"{cfg.scenario}_sweep.csv", SWEEP_SCHEMA,
                      sweep_columns(table))]


def sweep_columns(table: SweepTable) -> list:
    """SWEEP_SCHEMA columns of a sweep table in (f, DC) order, DC in percent;
    a failed cell is a row of NaN AMADO, std and normalized values."""
    rows = [(r.frequency, r.duty_cycle * 100.0, r.amado, r.std, r.normalized)
            for r in table.rows]
    rows += [(f, dc * 100.0, math.nan, math.nan, math.nan) for f, dc in table.errors]
    rows.sort(key=lambda row: (row[0], row[1]))
    return [[row[k] for row in rows] for k in range(len(SWEEP_SCHEMA.columns))]


def cmd_power(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    trace = make_pwm_pair(cfg.pwm, cfg.circuit, cfg.duration)
    power = average_power(trace, cfg.circuit)
    print(f"peak p_a = {power.p_a.max():.6f} W, average p_a = {power.p_bar:.6f} W")
    columns = (trace.t, trace.v_t, trace.v_b, trace.i_t, trace.i_b, power.p_a)
    return [write_csv(out_dir / f"{cfg.scenario}_power.csv", POWER_SCHEMA, columns)]


def cmd_calibrate(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    result = calibrate(cfg.calibration, cfg.circuit, cfg.props, cfg.env, cfg.geom,
                       pwm=cfg.pwm, fir=cfg.fir)
    lines = [f"scenario: {cfg.scenario}",
             f"converged: {'yes' if result.converged else 'no (budget exhausted)'}",
             f"evaluations: {result.evaluations}",
             f"loss: {result.loss!r}",
             "fitted parameters:"]
    for name in cfg.calibration.free:
        lines.append(f"  {name} = {result.parameters[name]!r}")
    lines.append("per-target relative residuals:")
    for (f, dc, target), residual in zip(cfg.calibration.targets, result.residuals):
        lines.append(f"  f={f:g} Hz, DC={dc * 100:g}%: target {target:g} mm, "
                     f"residual {residual:+.6f}")
    report = out_dir / f"{cfg.scenario}_calibration.txt"
    report.parent.mkdir(parents=True, exist_ok=True)
    report.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return [report]


def cmd_swim(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    water_env = replace(cfg.env, convection_multiplier=cfg.swim_convection_multiplier)
    stroke = measure_amado(cfg.protocol, cfg.swim_drive_frequency, cfg.swimmer.duty_cycle,
                           cfg.circuit, cfg.props, water_env, cfg.geom)
    amp = cfg.swimmer.tail_gain * (stroke.amado * 1e-3) / 2.0
    columns = swim_mod.trajectory_columns(cfg.swimmer, amp, cfg.swim_drive_frequency,
                                          cfg.pwm.sample_rate, cfg.steady_window)
    paths = [write_csv(out_dir / f"{cfg.scenario}_trajectory.csv", TRAJECTORY_SCHEMA, columns)]

    # scan at the fixed trajectory amplitude: the measured best operating
    # band (3 to 4 Hz) is compared at one tail stroke, and the quadratic
    # thrust law then gives speed rising with frequency
    frequencies = list(cfg.swim_scan_frequencies)
    speeds = [swim_mod.steady_speed(f, amp, cfg.swimmer) * 1e3 for f in frequencies]
    paths.append(write_csv(out_dir / f"{cfg.scenario}_speed_scan.csv",
                           SPEED_SCAN_SCHEMA, (frequencies, speeds)))
    return paths


COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "power": cmd_power,
    "calibrate": cmd_calibrate,
    "swim": cmd_swim,
}


def run_scenario(cfg: ScenarioConfig, command: str, out_dir=None, threads: int = 1):
    """Execute one subcommand; returns the list of written artifact paths.

    threads is accepted and ignored, since commands run serially; the
    benchmark worker and the acceptance suite still pass it.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {sorted(COMMANDS)}")
    target = Path(out_dir) if out_dir is not None else Path(cfg.out_dir)
    return COMMANDS[command](cfg, target)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bimorph",
        description="SMA bimorph actuator / microswimmer simulation toolkit")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=Path, default=None,
                        help="YAML scenario file (defaults reproduce the "
                             "characterization protocol)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (default: run.out_dir from the config)")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config.read_text(encoding="utf-8") if args.config else "")
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for warning in cfg.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    try:
        paths = run_scenario(cfg, args.command, out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for path in paths:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
