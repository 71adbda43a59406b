#!/usr/bin/env python3
"""Swimmer demo: drive the actuator at the over-water operating point
(the swim protocol's drive frequency, duty cycle and raised convection),
map tip displacement to tail angle, fit the thrust coefficient to the
measured 3 Hz speed, and report the speed scan plus a straight-swimming
trajectory."""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sma_bimorph import (body_lengths_per_second, fit_thrust_coefficient, measure_amado,
                         parse_config, reynolds, run_swimmer, steady_speed)
from sma_bimorph.csvio import SPEED_SCAN_SCHEMA, TRAJECTORY_SCHEMA, write_csv

MEASURED_SPEED = 2.39e-3   # m/s, the bench swimming speed at the 3 Hz drive


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out"))
    args = parser.parse_args()

    cfg = parse_config("")   # the swim protocol's defaults
    water = replace(cfg.env, convection_multiplier=cfg.swim_convection_multiplier)
    f_drive = cfg.swim_drive_frequency
    amado = measure_amado(cfg.protocol, f_drive, cfg.swimmer.duty_cycle, cfg.circuit,
                          cfg.props, water, cfg.geom).amado
    amp = cfg.swimmer.tail_gain * (amado * 1e-3) / 2.0
    swimmer = fit_thrust_coefficient(f_drive, amp, MEASURED_SPEED, cfg.swimmer)
    print(f"tail amplitude at {f_drive:g} Hz: {amp:.3f} rad; "
          f"fitted thrust coeff: {swimmer.thrust_coeff:.3e}")

    print("\nf [Hz]   v [mm/s]   Bl/s     Re")
    frequencies, speeds = list(cfg.swim_scan_frequencies), []
    for f in frequencies:
        v = steady_speed(f, amp, swimmer)
        speeds.append(v * 1e3)
        print(f"{f:5.0f}   {v * 1e3:8.3f}   {body_lengths_per_second(v, swimmer.body_length):6.3f}"
              f"   {reynolds(v, swimmer.body_length, swimmer.nu):6.1f}")
    path = write_csv(args.out / "speed_scan.csv", SPEED_SCAN_SCHEMA, (frequencies, speeds))
    print(f"wrote {path}")

    # the soft tail passes only the fundamental of the actuator motion
    dt = 1.0 / cfg.pwm.sample_rate
    t = np.arange(int(cfg.run_length / dt)) * dt
    tail = amp * np.sin(2 * math.pi * f_drive * t)
    track = run_swimmer(tail, swimmer, dt)
    columns = (t, track.x[1:] * 1e3, track.y[1:] * 1e3, np.degrees(track.psi[1:]),
               track.v[1:] * 1e3)
    path = write_csv(args.out / "trajectory.csv", TRAJECTORY_SCHEMA, columns)
    final = track[-1]
    print(f"{cfg.run_length:g} s trajectory: x = {final.x * 1e3:.1f} mm, heading drift = "
          f"{math.degrees(final.psi):.2f} deg")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
