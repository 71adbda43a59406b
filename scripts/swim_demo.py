#!/usr/bin/env python3
"""Swimmer demo: drive the actuator at the over-water operating point
(DC 12%, raised convection), map tip displacement to tail angle, fit the
thrust coefficient to the measured 3 Hz speed, and report the 1-4 Hz
speed scan plus a straight-swimming trajectory."""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sma_bimorph import (CircuitParams, Environment, ActuatorGeometry, PwmConfig,
                         SwimmerParams, WireProperties, body_lengths_per_second,
                         fit_thrust_coefficient, measure_amado, reynolds,
                         run_swimmer, steady_speed)
from sma_bimorph.csvio import SPEED_SCAN_SCHEMA, TRAJECTORY_SCHEMA, write_csv
from sma_bimorph.metrology import RUN_LENGTH, STEADY_WINDOW


def tail_amplitude(frequency, circuit, props, env, geom, swimmer):
    amado = measure_amado(PwmConfig(), frequency, swimmer.duty_cycle, circuit, props, env,
                          geom, RUN_LENGTH, STEADY_WINDOW).amado
    return swimmer.tail_gain * (amado * 1e-3) / 2.0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out"))
    args = parser.parse_args()

    circuit = CircuitParams()
    props, geom = WireProperties(), ActuatorGeometry()
    water = Environment(convection_multiplier=1.5)
    swimmer = SwimmerParams()

    amp3 = tail_amplitude(3.0, circuit, props, water, geom, swimmer)
    swimmer = fit_thrust_coefficient(3.0, amp3, 2.39e-3, swimmer)
    print(f"tail amplitude at 3 Hz: {amp3:.3f} rad; "
          f"fitted thrust coeff: {swimmer.thrust_coeff:.3e}")

    print("\nf [Hz]   v [mm/s]   Bl/s     Re")
    scan_rows = []
    for f in (1.0, 2.0, 3.0, 4.0):
        v = steady_speed(f, amp3, swimmer)
        scan_rows.append((f, v * 1e3))
        print(f"{f:5.0f}   {v * 1e3:8.3f}   {body_lengths_per_second(v, swimmer.body_length):6.3f}"
              f"   {reynolds(v, swimmer.body_length, swimmer.nu):6.1f}")
    path = write_csv(args.out / "speed_scan.csv", SPEED_SCAN_SCHEMA, scan_rows)
    print(f"wrote {path}")

    # the soft tail passes only the fundamental of the actuator motion
    dt = 1.0 / 2000.0
    t = np.arange(int(30.0 / dt)) * dt
    tail = amp3 * np.sin(2 * math.pi * 3.0 * t)
    history = run_swimmer(tail, swimmer, dt)[1:]
    rows = ((tk, s.x * 1e3, s.y * 1e3, math.degrees(s.psi), s.v * 1e3)
            for tk, s in zip(t, history))
    path = write_csv(args.out / "trajectory.csv", TRAJECTORY_SCHEMA, rows)
    final = history[-1]
    print(f"30 s trajectory: x = {final.x * 1e3:.1f} mm, heading drift = "
          f"{math.degrees(final.psi):.2f} deg")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
