#!/usr/bin/env python3
"""Reproduce the actuator characterization: calibrate the model against the
measured 1 Hz AMADO anchor, run the full frequency x duty-cycle sweep, and
print the per-frequency maxima next to the published bench values."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sma_bimorph import calibrate, parse_config, run_sweep
from sma_bimorph.cli import sweep_columns
from sma_bimorph.csvio import SWEEP_SCHEMA, write_csv

MEASURED_AV_MAX = {1.0: 7.08, 5.0: 1.83, 10.0: 0.56, 15.0: 0.28, 20.0: 0.006}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out"))
    parser.add_argument("--skip-calibration", action="store_true",
                        help="sweep at the nominal constants instead")
    args = parser.parse_args()

    cfg = parse_config("")   # the characterization protocol's defaults
    circuit, props, env, geom = cfg.circuit, cfg.props, cfg.env, cfg.geom

    if not args.skip_calibration:
        fit = calibrate(cfg.calibration, circuit, props, env, geom)
        print(f"calibration: loss={fit.loss:.3e} evals={fit.evaluations} "
              f"converged={fit.converged}")
        for name, value in fit.parameters.items():
            print(f"  {name} = {value:.6g}")
        props, env, geom = fit.props, fit.env, fit.geom

    freqs = cfg.sweep_frequencies
    table = run_sweep(freqs, cfg.sweep_duty_cycles, circuit, props, env, geom,
                      protocol=cfg.protocol)

    print("\nf [Hz]   AV_max model [mm]   AV_max bench [mm]")
    for f in freqs:
        print(f"{f:5.0f}   {table.av_max[f]:17.3f}   {MEASURED_AV_MAX[f]:17.3f}")

    path = write_csv(args.out / "characterization_sweep.csv", SWEEP_SCHEMA,
                     sweep_columns(table))
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
