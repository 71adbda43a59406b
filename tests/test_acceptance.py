"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion.  The calibrated model (the anchor fit of criterion 3) is
shared by criteria 4-6 through session fixtures.
"""

import math
import time
from dataclasses import replace

import numpy as np

from sma_bimorph import (Environment, PwmConfig, SwimmerParams,
                         average_power, clearance_check, compute_amado,
                         design_fir, fit_thrust_coefficient, filter_zero_phase,
                         make_pwm_pair, body_lengths_per_second, reynolds,
                         relaxed_state, run_mode_trace, run_swimmer, simulate_wire,
                         solve_equilibrium, steady_speed, tip_envelope,
                         transformation_temperatures)
from sma_bimorph.cli import run_scenario
from sma_bimorph.config import parse_config
from sma_bimorph.errors import ClearanceError
from sma_bimorph.metrology import FirSpec

from test_digests import FULL_DUTY_CYCLES, FULL_FREQUENCIES
from test_mechanics import energy_minimum_delta


def _report(number, description, ok, detail=""):
    line = f"criterion {number:2d} {'PASS' if ok else 'FAIL'}  {description}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def heating_bound(temps, sigmas, props):
    t = temps - sigmas / props.c_a
    width = props.a_f - props.a_s
    mid = 0.5 * (np.cos(np.pi * (t - props.a_s) / width) + 1.0)
    return np.where(t <= props.a_s, 1.0, np.where(t >= props.a_f, 0.0, mid))


def cooling_bound(temps, sigmas, props):
    t = temps - sigmas / props.c_m
    width = props.m_s - props.m_f
    mid = 0.5 * (np.cos(np.pi * (t - props.m_f) / width) + 1.0)
    return np.where(t >= props.m_s, 0.0, np.where(t <= props.m_f, 1.0, mid))


def test_criterion_01_power_reproduction(circuit):
    start = time.perf_counter()
    cfg = PwmConfig(frequency=1.0, duty_cycle=0.10, mode="bimorph")
    trace = make_pwm_pair(cfg, circuit, 30.0)
    power = average_power(trace, circuit)
    elapsed = time.perf_counter() - start
    peak = power.p_a.max()
    ok = (abs(peak - 0.278) <= 1e-3 and abs(power.p_bar - 0.0556) <= 5e-4
          and elapsed < 1.0)
    _report(1, "power: peak 278 +/- 1 mW, mean 55.6 +/- 0.5 mW, < 1 s", ok,
            f"peak={peak:.6f} W mean={power.p_bar:.6f} W t={elapsed:.3f} s")


def test_criterion_02_dimensionless_bookkeeping():
    start = time.perf_counter()
    re_fast = reynolds(3.06e-3, 34e-3, 1.0e-6)
    re_slow = reynolds(2.39e-3, 34e-3, 1.0e-6)
    bl_fast = body_lengths_per_second(3.06e-3, 34e-3)
    bl_slow = body_lengths_per_second(2.39e-3, 34e-3)
    elapsed = time.perf_counter() - start
    ok = (95.0 <= re_fast <= 110.0 and 75.0 <= re_slow <= 90.0
          and abs(bl_fast - 0.090) <= 0.002 and abs(bl_slow - 0.070) <= 0.002
          and elapsed < 1.0)
    _report(2, "Reynolds in [95,110]/[75,90], Bl/s 0.090/0.070 +/- 0.002", ok,
            f"Re={re_fast:.1f}/{re_slow:.1f} Bl/s={bl_fast:.4f}/{bl_slow:.4f}")


def test_criterion_03_calibration_anchor(calibrated, calibrated_sweep):
    fitted = calibrated_sweep.row(1.0, 0.10).amado
    rel_err = abs(fitted - 7.08) / 7.08
    ok = rel_err < 0.05 and calibrated.seconds < 600.0
    _report(3, "anchor fit {g_tip, h, k_beam} -> AMADO(1 Hz, 10%) within 5%", ok,
            f"fitted={fitted:.4f} mm err={rel_err * 100:.3f}% "
            f"fit time={calibrated.seconds:.1f} s evals={calibrated.result.evaluations}")


def test_criterion_04_frequency_rolloff(calibrated_sweep):
    av_max = [calibrated_sweep.av_max[f] for f in FULL_FREQUENCIES]
    amado = {f: calibrated_sweep.row(f, 0.10).amado for f in FULL_FREQUENCIES}
    ratio = amado[10.0] / amado[1.0]
    strictly_decreasing = all(b < a for a, b in zip(av_max, av_max[1:]))
    ok = (strictly_decreasing and 0.02 <= ratio <= 0.20
          and amado[20.0] < amado[15.0] and amado[20.0] > 0.0)
    _report(4, "AV_max strictly decreasing; AMADO(10)/AMADO(1) in [0.02, 0.20]; "
               "AMADO(20) in (0, AMADO(15))", ok,
            f"AV_max={[round(v, 4) for v in av_max]} ratio={ratio:.4f}")


def test_criterion_05_duty_cycle_monotonicity(calibrated_sweep):
    failures = []
    for f in FULL_FREQUENCIES:
        values = [calibrated_sweep.row(f, dc).amado for dc in FULL_DUTY_CYCLES]
        if not all(b >= a for a, b in zip(values, values[1:])):
            failures.append(f)
    ok = not failures and not calibrated_sweep.errors
    _report(5, "AMADO non-decreasing across DC = 1..10% at every frequency "
               "(50/50 cells)", ok,
            f"non-monotone frequencies: {failures or 'none'}")


def test_criterion_06_unimorph_bimorph_ratio(circuit, calibrated, calibrated_sweep):
    fit = calibrated.result
    cfg = PwmConfig(frequency=1.0, duty_cycle=0.10, mode="unimorph-up")
    trace = run_mode_trace(cfg, circuit, fit.props, fit.env, fit.geom, 30.0)
    uni = compute_amado(trace.delta, 1.0, 30.0, 15.0).amado
    bi = calibrated_sweep.row(1.0, 0.10).amado
    ratio = uni / bi
    ok = 0.35 <= ratio <= 0.65
    _report(6, "unimorph/bimorph AMADO ratio at 1 Hz, 10% in [0.35, 0.65]", ok,
            f"uni={uni:.3f} mm bi={bi:.3f} mm ratio={ratio:.3f}")


def test_criterion_07_hysteresis_invariants(props, env):
    rng = np.random.default_rng(2024)
    dt = 5e-4
    n = int(2.0 / dt)
    t = np.arange(n) * dt
    bounds_ok = mono_ok = contain_ok = shift_ok = True
    for _ in range(1000):
        f = rng.uniform(0.5, 25.0)
        duty = rng.uniform(0.0, 0.5)
        i_on = rng.uniform(0.05, 0.25)
        sigma = rng.uniform(0.0, 400e6)
        currents = np.where((t * f) % 1.0 < duty, i_on, 0.0)
        sigmas = np.full(n, sigma)
        temps, xi, _ = simulate_wire(currents, sigmas, props, env, dt)
        bounds_ok &= bool((xi >= 0.0).all() and (xi <= 1.0).all())
        d_temp = np.diff(temps)
        d_xi = np.diff(xi)
        mono_ok &= bool((d_xi[d_temp > 0] <= 1e-12).all()
                        and (d_xi[d_temp < 0] >= -1e-12).all())
        contain_ok &= bool((xi <= heating_bound(temps, sigmas, props) + 1e-9).all()
                           and (xi >= cooling_bound(temps, sigmas, props) - 1e-9).all())
        s1, s2 = sorted(rng.uniform(0.0, 600e6, 2))
        if s2 > s1:
            shift_ok &= all(hi > lo for hi, lo in
                            zip(transformation_temperatures(props, s2),
                                transformation_temperatures(props, s1)))
    ok = bounds_ok and mono_ok and contain_ok and shift_ok
    _report(7, "1000 random drives: xi in [0,1], branch monotonicity, minor-loop "
               "containment, stress shift", ok,
            f"bounds={bounds_ok} monotone={mono_ok} containment={contain_ok} "
            f"shift={shift_ok}")


def test_criterion_08_thermal_oracle(props, env):
    coarse_dt, dense_dt = 5e-4, 1e-5
    stride = round(coarse_dt / dense_dt)
    n = int(1.0 / coarse_dt)
    worst = 0.0
    for current, t0 in ((0.25, env.t_amb), (0.0, env.t_amb + 100.0)):
        state0 = replace(relaxed_state(env), temperature=t0)
        cur_c = np.full(n, current)
        cur_d = np.full(n * stride, current)
        zeros_c, zeros_d = np.zeros(n), np.zeros(n * stride)
        temp_c, _, _ = simulate_wire(cur_c, zeros_c, props, env, coarse_dt, state=state0)
        temp_d, _, _ = simulate_wire(cur_d, zeros_d, props, env, dense_dt, state=state0)
        sampled = temp_d[stride - 1::stride]
        scale = np.abs(sampled - env.t_amb).max()
        worst = max(worst, np.abs(temp_c - sampled).max() / scale)

    # energy balance on the coarse heating trajectory
    state0 = relaxed_state(env)
    currents = np.full(n, 0.25)
    temps, _, _ = simulate_wire(currents, np.zeros(n), props, env, coarse_dt,
                                state=state0)
    h_area = props.h * env.convection_multiplier * props.lateral_area
    joule = float(np.sum(currents ** 2 * props.resistance) * coarse_dt)
    path = np.concatenate(([env.t_amb], temps))
    convected = float(np.sum(h_area * (0.5 * (path[1:] + path[:-1]) - env.t_amb))
                      * coarse_dt)
    stored = props.heat_capacity * (temps[-1] - env.t_amb)
    residual = abs(joule - convected - stored) / joule
    ok = worst < 1e-4 and residual < 1e-3
    _report(8, "RK4 at 0.5 ms within 1e-4 of dense 10 us reference; energy "
               "residual < 0.1%", ok,
            f"trajectory err={worst:.2e} energy residual={residual:.2e}")


def test_criterion_09_mechanics_oracle(props, env, geom):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        xi_t, xi_b = rng.uniform(0.0, 1.0, 2)
        top = replace(relaxed_state(env), xi=float(xi_t))
        bottom = replace(relaxed_state(env), xi=float(xi_b))
        eq = solve_equilibrium(top, bottom, geom, props)
        oracle = energy_minimum_delta(float(xi_t), float(xi_b), geom, props)
        worst = max(worst, abs(eq.delta - oracle))
    wire = relaxed_state(env)
    symmetric = solve_equilibrium(wire, wire, geom, props)
    hot = replace(wire, xi=0.0)
    fwd = solve_equilibrium(hot, wire, geom, props)
    rev = solve_equilibrium(wire, hot, geom, props)
    mirror_exact = (rev.theta == -fwd.theta and rev.delta == -fwd.delta
                    and rev.sigma_top == fwd.sigma_bottom)
    ok = worst < 1e-6 and abs(symmetric.delta) < 1e-6 and mirror_exact
    _report(9, "equilibrium matches energy-minimization oracle < 1 um on 100 "
               "random pairs; symmetry exact", ok,
            f"worst={worst * 1e6:.3f} um mirror_exact={mirror_exact}")


def test_criterion_10_metrology(tmp_path):
    kernel = design_fir(FirSpec())
    dc_gain_err = abs(kernel.sum() - 1.0)

    fs = 2000.0
    t = np.arange(8000) / fs
    signal = np.sin(2 * np.pi * 10.0 * t)
    out = filter_zero_phase(kernel, signal)
    lags = range(-25, 26)
    scores = [float(np.dot(signal[1000:6000], out[1000 + lag:6000 + lag]))
              for lag in lags]
    lag_at_peak = list(lags)[int(np.argmax(scores))]

    t30 = np.arange(int(30 * fs)) / fs
    a = 1.3e-3
    sine_amado = compute_amado(a * np.sin(2 * np.pi * 5.0 * t30), 5.0, 30.0, 15.0).amado
    amado_err = abs(sine_amado - 2 * a * 1e3) / (2 * a * 1e3)

    cfg = parse_config("metrology:\n  frequencies_hz: [1, 5]\n"
                       "  duty_cycles_pct: [5, 10]\n  run_s: 6\n  steady_window_s: 3\n")
    runs = [run_scenario(cfg, "sweep", out_dir=tmp_path / tag, threads=threads)[0]
            .read_bytes()
            for tag, threads in (("a", 1), ("b", 1), ("c", 4))]
    bytes_identical = runs[0] == runs[1] == runs[2]

    ok = (dc_gain_err < 1e-3 and lag_at_peak == 0 and amado_err < 0.01
          and bytes_identical)
    _report(10, "FIR DC gain, zero-phase lag, sinusoid AMADO within 1%, sweep CSV "
                "byte-stable across runs/threads", ok,
            f"dc_err={dc_gain_err:.1e} lag={lag_at_peak} amado_err={amado_err:.4f} "
            f"bytes_identical={bytes_identical}")


def test_criterion_11_swimmer(circuit, calibrated):
    fit = calibrated.result
    water = Environment(t_amb=fit.env.t_amb, convection_multiplier=1.5)
    cfg = PwmConfig(frequency=3.0, duty_cycle=0.12, mode="bimorph")
    trace = run_mode_trace(cfg, circuit, fit.props, water, fit.geom, 30.0)
    amado_mm = compute_amado(trace.delta, 3.0, 30.0, 15.0).amado
    params = SwimmerParams()
    amplitude = params.tail_gain * (amado_mm * 1e-3) / 2.0
    params = fit_thrust_coefficient(3.0, amplitude, 2.39e-3, params)
    v3 = steady_speed(3.0, amplitude, params)
    v4 = steady_speed(4.0, amplitude, params)

    dt = 5e-4
    tt = np.arange(int(30.0 / dt)) * dt
    tail = amplitude * np.sin(2 * np.pi * 3.0 * tt)
    drift = abs(math.degrees(run_swimmer(tail, params, dt)[-1].psi))

    ok = (abs(v3 - 2.39e-3) < 1e-9 and 2.6e-3 <= v4 <= 3.6e-3 and v4 > v3
          and drift < 1.0)
    _report(11, "fitted 3 Hz speed 2.39 mm/s; 4 Hz in [2.6, 3.6] mm/s and faster; "
                "straight swimming < 1 deg / 30 s", ok,
            f"v3={v3 * 1e3:.3f} v4={v4 * 1e3:.3f} mm/s amp={amplitude:.3f} rad "
            f"drift={drift:.3f} deg")


def test_criterion_12_clearance(geom):
    envelope = tip_envelope(geom, 7e-3)
    clearance = clearance_check(geom, envelope)
    flat = replace(geom, alpha=0.0)
    try:
        clearance_check(flat, envelope)
        violation_raised = False
    except ClearanceError:
        violation_raised = True
    ok = clearance > 0.0 and violation_raised
    _report(12, "alpha = 3 deg clears +/- 7 mm tip envelope; alpha = 0 is a design "
                "violation", ok,
            f"clearance={clearance * 1e3:.3f} mm violation_raised={violation_raised}")
