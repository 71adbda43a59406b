import math
from dataclasses import replace

import numpy as np
import pytest

from sma_bimorph import (PwmConfig, clearance_check, make_pwm_pair,
                         relaxed_actuator, run_mode_trace, simulate_wire,
                         solve_equilibrium, tip_envelope)
from sma_bimorph.errors import ClearanceError, ParameterError
from sma_bimorph.mechanics import simulate_drive
from sma_bimorph.metrology import spectral_energy_below
from sma_bimorph.sma import relaxed_state


def energy_minimum_delta(xi_top, xi_bottom, geom, props, span=0.7, coarse=4001, fine=4001):
    """Independent oracle: minimize total elastic energy over a dense theta grid."""
    gamma = geom.r_m / props.active_length
    eps_assembly = props.eps_l + props.pre_strain
    volume = props.cross_section * props.active_length

    def energy(theta):
        total = 0.5 * geom.k_beam * theta ** 2
        for xi, sign in ((xi_top, -1.0), (xi_bottom, +1.0)):
            e_mod = props.e_a + xi * (props.e_m - props.e_a)
            elastic = eps_assembly + sign * gamma * theta - props.eps_l * xi
            if elastic > 0.0:
                total += 0.5 * e_mod * elastic ** 2 * volume
        return total

    grid = np.linspace(-span, span, coarse)
    values = np.array([energy(th) for th in grid])
    best = grid[values.argmin()]
    step = grid[1] - grid[0]
    grid = np.linspace(best - 2 * step, best + 2 * step, fine)
    values = np.array([energy(th) for th in grid])
    return geom.g_tip * grid[values.argmin()]


class TestClearance:
    def test_static_pose_matches_exact_trigonometry(self, geom):
        # at theta = 0 the nearest approach is at the base anchor
        expected = math.sqrt((geom.mount_offset * math.tan(geom.alpha)) ** 2
                             + geom.anchor_standoff ** 2) - geom.beam_radius
        assert clearance_check(geom, [0.0]) == pytest.approx(expected, abs=1e-9)

    def test_angled_wires_clear_full_envelope(self, geom):
        clearance = clearance_check(geom, tip_envelope(geom, 7e-3))
        assert clearance > 0.0

    def test_parallel_wires_collide(self, geom):
        flat = replace(geom, alpha=0.0)
        with pytest.raises(ClearanceError):
            clearance_check(flat, tip_envelope(geom, 7e-3))
        with pytest.raises(ClearanceError):   # even a 1 mm deflection
            clearance_check(flat, [1e-3 / geom.g_tip])

    def test_empty_range_rejected(self, geom):
        with pytest.raises(ParameterError):
            clearance_check(geom, [])


class TestEquilibrium:
    def test_identical_relaxed_wires_balance_at_zero(self, props, env, geom):
        wire = relaxed_state(props, env)
        eq = solve_equilibrium(wire, wire, geom, props)
        assert eq.theta == 0.0
        assert eq.delta == 0.0
        assert eq.sigma_top == eq.sigma_bottom
        assert eq.sigma_top > 0.0   # pre-tension

    def test_swap_negates_exactly(self, props, env, geom):
        hot = replace(relaxed_state(props, env), xi=0.0, temperature=420.0)
        cold = relaxed_state(props, env)
        eq = solve_equilibrium(hot, cold, geom, props)
        swapped = solve_equilibrium(cold, hot, geom, props)
        assert swapped.theta == -eq.theta
        assert swapped.delta == -eq.delta
        assert swapped.sigma_top == eq.sigma_bottom
        assert swapped.sigma_bottom == eq.sigma_top

    def test_full_swing_matches_energy_oracle(self, props, env, geom):
        hot = replace(relaxed_state(props, env), xi=0.0, temperature=420.0)
        cold = relaxed_state(props, env)
        eq = solve_equilibrium(hot, cold, geom, props)
        oracle = energy_minimum_delta(0.0, 1.0, geom, props)
        assert abs(eq.delta - oracle) < 1e-6
        assert eq.delta > 1e-3   # a few mm of tip travel
        assert abs(eq.residual) < 1e-9

    def test_randomized_states_match_energy_oracle(self, props, env, geom):
        rng = np.random.default_rng(7)
        for _ in range(25):
            xi_t, xi_b = rng.uniform(0.0, 1.0, 2)
            top = replace(relaxed_state(props, env), xi=xi_t)
            bottom = replace(relaxed_state(props, env), xi=xi_b)
            eq = solve_equilibrium(top, bottom, geom, props)
            oracle = energy_minimum_delta(xi_t, xi_b, geom, props)
            assert abs(eq.delta - oracle) < 1e-6

    def test_tension_only(self, props, env, geom):
        hot = replace(relaxed_state(props, env), xi=0.0)
        cold = relaxed_state(props, env)
        eq = solve_equilibrium(hot, cold, geom, props)
        assert eq.sigma_top >= 0.0 and eq.sigma_bottom >= 0.0


class TestStepActuator:
    def test_zero_drive_stays_relaxed(self, props, env, geom, circuit):
        cfg = PwmConfig(frequency=1.0, duty_cycle=0.0)
        trace = run_mode_trace(cfg, circuit, props, env, geom, 10.0)
        assert np.abs(trace.delta).max() < 1e-6

    @pytest.mark.parametrize("frequency", [1.0, 5.0, 10.0])
    def test_wire_replay_reproduces_coupled_trace(self, props, env, geom, circuit,
                                                  frequency):
        # each wire of the coupled loop, replayed alone under the stresses the
        # trace recorded, follows the same path bit for bit
        cfg = PwmConfig(frequency=frequency, duty_cycle=0.10)
        drive = make_pwm_pair(cfg, circuit, 4.0)
        initial = relaxed_actuator(props, env, geom)
        trace = simulate_drive(drive.i_t, drive.i_b, props, env, geom, 1 / 2000.0,
                               initial=initial)
        for current, sigma, temp, xi, state in (
                (drive.i_t, trace.sigma_top, trace.temp_top, trace.xi_top, initial.top),
                (drive.i_b, trace.sigma_bottom, trace.temp_bottom, trace.xi_bottom,
                 initial.bottom)):
            replay_temp, replay_xi, _ = simulate_wire(current, sigma, props, env,
                                                      1 / 2000.0, state=state)
            assert np.array_equal(replay_temp[:-1], temp[1:])
            assert np.array_equal(replay_xi[:-1], xi[1:])

    def test_mirror_symmetry_bitwise(self, props, env, geom, circuit):
        cfg = PwmConfig(frequency=5.0, duty_cycle=0.10)
        drive = make_pwm_pair(cfg, circuit, 4.0)
        fwd = simulate_drive(drive.i_t, drive.i_b, props, env, geom, 1 / 2000.0)
        rev = simulate_drive(drive.i_b, drive.i_t, props, env, geom, 1 / 2000.0)
        assert np.array_equal(fwd.delta, -rev.delta)

    def test_unimorph_sign_correctness(self, props, env, geom, circuit):
        up = run_mode_trace(PwmConfig(frequency=1.0, duty_cycle=0.10, mode="unimorph-up"),
                            circuit, props, env, geom, 10.0)
        down = run_mode_trace(PwmConfig(frequency=1.0, duty_cycle=0.10, mode="unimorph-down"),
                              circuit, props, env, geom, 10.0)
        assert up.delta[4000:].mean() > 0.0
        assert down.delta[4000:].mean() < 0.0
        assert up.delta.min() > -1e-4   # essentially one-sided

    def test_quasi_static_residual_bound(self, props, env, geom, circuit):
        cfg = PwmConfig(frequency=5.0, duty_cycle=0.10)
        trace = run_mode_trace(cfg, circuit, props, env, geom, 4.0)
        assert trace.max_residual < 1e-9

    def test_wire_stresses_never_negative(self, props, env, geom, circuit):
        cfg = PwmConfig(frequency=10.0, duty_cycle=0.10)
        trace = run_mode_trace(cfg, circuit, props, env, geom, 6.0)
        assert trace.sigma_top.min() >= 0.0
        assert trace.sigma_bottom.min() >= 0.0

    def test_trajectory_respects_clearance(self, props, env, geom, circuit):
        cfg = PwmConfig(frequency=1.0, duty_cycle=0.10)
        trace = run_mode_trace(cfg, circuit, props, env, geom, 6.0)
        envelope = np.linspace(trace.theta.min(), trace.theta.max(), 41)
        assert clearance_check(geom, envelope) > 0.0


class TestModeTrace:
    def test_zero_duty_trace_identically_zero(self, props, env, geom, circuit):
        cfg = PwmConfig(frequency=1.0, duty_cycle=0.0)
        trace = run_mode_trace(cfg, circuit, props, env, geom, 4.0)
        assert np.array_equal(trace.delta, np.zeros_like(trace.delta))

    def test_duration_precondition(self, props, env, geom, circuit):
        cfg = PwmConfig(frequency=1.0, duty_cycle=0.10)
        with pytest.raises(ParameterError):
            run_mode_trace(cfg, circuit, props, env, geom, 1.5)

    def test_steady_state_reached_by_12s_at_5hz(self, props, env, geom, circuit):
        cfg = PwmConfig(frequency=5.0, duty_cycle=0.10)
        trace = run_mode_trace(cfg, circuit, props, env, geom, 30.0)

        def cycle_amplitude(t0):
            i0 = int(t0 * 2000)
            segment = trace.delta[i0:i0 + 400]
            return segment.max() - segment.min()

        final = cycle_amplitude(29.6)
        assert abs(cycle_amplitude(12.0) - final) / final < 0.10

    def test_bimorph_response_grows_then_settles(self, props, env, geom, circuit):
        cfg = PwmConfig(frequency=5.0, duty_cycle=0.10)
        trace = run_mode_trace(cfg, circuit, props, env, geom, 30.0)
        early = np.abs(trace.delta[:2000]).max()
        steady = np.abs(trace.delta[30000:]).max()
        assert steady > early

    @pytest.mark.xfail(reason="deterministic symmetric lumped model locks to a "
                              "period-1 orbit at 15 Hz; the slowly fluctuating "
                              "bias the hardware shows above 15 Hz needs device "
                              "asymmetry outside this model class", strict=False)
    def test_high_frequency_bias_fluctuation_exceeds_10hz_case(self, props, env,
                                                               geom, circuit):
        energies = {}
        for f in (10.0, 15.0):
            cfg = PwmConfig(frequency=f, duty_cycle=0.10)
            trace = run_mode_trace(cfg, circuit, props, env, geom, 30.0)
            energies[f] = spectral_energy_below(trace.delta[30000:], 2000.0, 1.0)
        assert energies[15.0] > energies[10.0]


def test_run_mode_trace_rejects_coarse_sampling(props, env, geom, circuit):
    # dt above 1 ms would break the thermal integrator contract
    cfg = PwmConfig(frequency=1.0, duty_cycle=0.10, sample_rate=500.0)
    with pytest.raises(ParameterError):
        run_mode_trace(cfg, circuit, props, env, geom, 4.0)
