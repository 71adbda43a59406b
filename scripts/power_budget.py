#!/usr/bin/env python3
"""Electrical power budget of the two-channel drive at the characterization
operating point (1 Hz, 10% duty, 250 mA on-state through 4.45 ohm per side):
peak and average consumption plus the closed-form check."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sma_bimorph import CircuitParams, PwmConfig, average_power, make_pwm_pair
from sma_bimorph.csvio import POWER_SCHEMA, write_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frequency", type=float, default=1.0)
    parser.add_argument("--duty-pct", type=float, default=10.0)
    parser.add_argument("--duration", type=float, default=30.0)
    parser.add_argument("--out", type=Path, default=Path("out"))
    args = parser.parse_args()

    circuit = CircuitParams()
    cfg = PwmConfig(frequency=args.frequency, duty_cycle=args.duty_pct / 100.0)
    trace = make_pwm_pair(cfg, circuit, args.duration)
    power = average_power(trace, circuit)

    duty = cfg.duty_cycle
    closed_form = 2 * duty * circuit.i_on ** 2 * circuit.r_a
    print(f"on-state: {circuit.i_on * 1e3:.0f} mA through {circuit.r_a} ohm "
          f"({circuit.on_voltage:.4f} V actuator side)")
    print(f"peak p_a    = {power.p_a.max() * 1e3:8.3f} mW")
    print(f"average p_a = {power.p_bar * 1e3:8.3f} mW")
    print(f"closed form = {closed_form * 1e3:8.3f} mW  ((DC_t + DC_b) i^2 r_a)")

    columns = (trace.t, trace.v_t, trace.v_b, trace.i_t, trace.i_b, power.p_a)
    path = write_csv(args.out / "power_trace.csv", POWER_SCHEMA, columns)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
