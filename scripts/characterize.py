#!/usr/bin/env python3
"""Reproduce the actuator characterization: calibrate the model against the
measured 1 Hz AMADO anchor, run the full frequency x duty-cycle sweep, and
print the per-frequency maxima next to the published bench values."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sma_bimorph import (CalibrationProblem, CircuitParams, Environment,
                         ActuatorGeometry, WireProperties, calibrate, run_sweep)
from sma_bimorph.csvio import SWEEP_SCHEMA, write_csv

MEASURED_AV_MAX = {1.0: 7.08, 5.0: 1.83, 10.0: 0.56, 15.0: 0.28, 20.0: 0.006}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out"))
    parser.add_argument("--skip-calibration", action="store_true",
                        help="sweep at the nominal constants instead")
    args = parser.parse_args()

    circuit = CircuitParams()
    props, env, geom = WireProperties(), Environment(), ActuatorGeometry()

    if not args.skip_calibration:
        problem = CalibrationProblem(free=("g_tip", "h", "k_beam"),
                                     targets=((1.0, 0.10, 7.08),), budget=150)
        fit = calibrate(problem, circuit, props, env, geom)
        print(f"calibration: loss={fit.loss:.3e} evals={fit.evaluations} "
              f"converged={fit.converged}")
        for name, value in fit.parameters.items():
            print(f"  {name} = {value:.6g}")
        props, env, geom = fit.props, fit.env, fit.geom

    freqs = (1.0, 5.0, 10.0, 15.0, 20.0)
    dcs = tuple(d / 100 for d in range(1, 11))
    table = run_sweep(freqs, dcs, circuit, props, env, geom)

    print("\nf [Hz]   AV_max model [mm]   AV_max bench [mm]")
    for f in freqs:
        print(f"{f:5.0f}   {table.av_max[f]:17.3f}   {MEASURED_AV_MAX[f]:17.3f}")

    rows = [(r.frequency, r.duty_cycle * 100, r.amado, r.std, r.normalized)
            for r in table.rows]
    path = write_csv(args.out / "characterization_sweep.csv", SWEEP_SCHEMA, rows)
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
