import math
from dataclasses import replace

import numpy as np
import pytest

from sma_bimorph import (ActuatorState, PwmConfig, clearance_check, make_pwm_pair,
                         relaxed_actuator, run_mode_trace, simulate_wire,
                         solve_equilibrium, tip_envelope)
from sma_bimorph import mechanics
from sma_bimorph.errors import ClearanceError, NumericError, ParameterError
from sma_bimorph.mechanics import simulate_drive
from sma_bimorph.metrology import spectral_energy_below
from sma_bimorph.sma import relaxed_state, temperature_trace

TRACE_ARRAYS = ("t", "delta", "theta", "temp_top", "temp_bottom", "xi_top", "xi_bottom",
                "sigma_top", "sigma_bottom")


def spy_temperature_traces(monkeypatch):
    """(segments, memo entries added, memo) of every temperature trace simulate_drive steps."""
    calls = []

    def spy(currents, temperature, props, env, dt, memo=None):
        before = len(memo)
        temps = temperature_trace(currents, temperature, props, env, dt, memo)
        segments = np.count_nonzero(currents[1:] != currents[:-1]) + 1 if currents.size else 0
        calls.append((segments, len(memo) - before, memo))
        return temps

    monkeypatch.setattr(mechanics, "temperature_trace", spy)
    return calls


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
        wire = relaxed_state(env)
        eq = solve_equilibrium(wire, wire, geom, props)
        assert eq.theta == 0.0
        assert eq.delta == 0.0
        assert eq.sigma_top == eq.sigma_bottom
        assert eq.sigma_top > 0.0   # pre-tension

    def test_swap_negates_exactly(self, props, env, geom):
        hot = replace(relaxed_state(env), xi=0.0, temperature=420.0)
        cold = relaxed_state(env)
        eq = solve_equilibrium(hot, cold, geom, props)
        swapped = solve_equilibrium(cold, hot, geom, props)
        assert swapped.theta == -eq.theta
        assert swapped.delta == -eq.delta
        assert swapped.sigma_top == eq.sigma_bottom
        assert swapped.sigma_bottom == eq.sigma_top

    def test_full_swing_matches_energy_oracle(self, props, env, geom):
        hot = replace(relaxed_state(env), xi=0.0, temperature=420.0)
        cold = relaxed_state(env)
        eq = solve_equilibrium(hot, cold, geom, props)
        oracle = energy_minimum_delta(0.0, 1.0, geom, props)
        assert abs(eq.delta - oracle) < 1e-6
        assert eq.delta > 1e-3   # a few mm of tip travel
        assert abs(eq.residual) < 1e-15

    def test_randomized_states_match_energy_oracle(self, props, env, geom):
        # at pre_strain = 0 a fully martensitic wire sits exactly at its free
        # length, the edge of the both-wires-taut closed form
        for wire_props in (props, replace(props, pre_strain=0.0)):
            rng = np.random.default_rng(7)
            for _ in range(25):
                xi_t, xi_b = rng.uniform(0.0, 1.0, 2)
                top = replace(relaxed_state(env), xi=xi_t)
                bottom = replace(relaxed_state(env), xi=xi_b)
                eq = solve_equilibrium(top, bottom, geom, wire_props)
                oracle = energy_minimum_delta(xi_t, xi_b, geom, wire_props)
                assert abs(eq.delta - oracle) < 1e-6
                assert eq.sigma_top >= 0.0 and eq.sigma_bottom >= 0.0

    def test_tension_only(self, props, env, geom):
        hot = replace(relaxed_state(env), xi=0.0)
        cold = relaxed_state(env)
        eq = solve_equilibrium(hot, cold, geom, props)
        assert eq.sigma_top >= 0.0 and eq.sigma_bottom >= 0.0


class TestStepActuator:
    def test_zero_drive_stays_relaxed(self, props, env, geom, circuit):
        cfg = PwmConfig(frequency=1.0, duty_cycle=0.0)
        trace = run_mode_trace(cfg, circuit, props, env, geom, 10.0)
        assert np.abs(trace.delta).max() < 1e-6

    @pytest.mark.parametrize("frequency, duty", [
        (1.0, 0.10), (5.0, 0.10), (10.0, 0.10), (5.0, 0.03),
    ], ids=["1.0", "5.0", "10.0", "5.0-zero"])
    def test_wire_replay_reproduces_coupled_trace(self, props, env, geom, circuit,
                                                  frequency, duty):
        # each wire of the coupled loop, replayed alone under the stresses the
        # trace recorded, follows the same path bit for bit, also through the
        # skipped stretches of a cell that never leaves martensite; so does
        # the public equilibrium solved for each recorded xi pair
        cfg = PwmConfig(frequency=frequency, duty_cycle=duty)
        drive = make_pwm_pair(cfg, circuit, 4.0)
        initial = relaxed_actuator(env)
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
        wire = initial.top
        solved = [solve_equilibrium(replace(wire, xi=float(xi_t)), replace(wire, xi=float(xi_b)),
                                    geom, props)
                  for xi_t, xi_b in zip(trace.xi_top[1:], trace.xi_bottom[1:])]
        assert np.array_equal([eq.theta for eq in solved], trace.theta[1:])
        assert np.array_equal([eq.sigma_top for eq in solved], trace.sigma_top[1:])
        assert np.array_equal([eq.sigma_bottom for eq in solved], trace.sigma_bottom[1:])

    def test_final_state_holds_python_floats(self, props, env, geom, circuit):
        # the loop reads each drive sample as a float, so no NumPy scalar
        # reaches the state it carries from step to step
        drive = make_pwm_pair(PwmConfig(frequency=5.0, duty_cycle=0.10), circuit, 1.0)
        final = simulate_drive(drive.i_t, drive.i_b, props, env, geom, 1 / 2000.0).final_state
        for wire in (final.top, final.bottom):
            for name in ("temperature", "xi", "anchor_xi", "anchor_t"):
                assert type(getattr(wire, name)) is float, name

    @pytest.mark.parametrize("frequency, duty, mode, split", [
        (1.0, 0.10, "bimorph", 1234), (15.0, 0.10, "bimorph", 4000),
        (2.0, 0.40, "unimorph-up", 2200), (5.0, 0.03, "bimorph", 3000),
        (1.0, 0.02, "bimorph", 20), (10.0, 0.10, "bimorph", 800),
    ], ids=["1hz-bimorph-dry", "15hz-bimorph-dry", "2hz-unimorph-up-dry",
            "5hz-zero-dry", "1hz-2pct-cold-dry", "10hz-top-edge-dry"])
    def test_split_trace_continues_bit_for_bit(self, props, env, geom, circuit,
                                               frequency, duty, mode, split):
        # a drive cut at one sample and continued from the first part's
        # final_state joins into the unsplit trace, theta and delta included;
        # 5 Hz/3% never leaves martensite, and 1 Hz/2% is cut inside the
        # martensitic stretch (samples 1 to 34) before the first wire reaches
        # A_s, so both cuts fall inside skipped stretches
        # 10 Hz/10% is cut where the top current switches on, so the
        # continuation's first step leaves the cooling branch and anchors at
        # the stored temperature
        drive = make_pwm_pair(PwmConfig(frequency=frequency, duty_cycle=duty, mode=mode),
                              circuit, 4.0)
        initial = relaxed_actuator(env)
        whole = simulate_drive(drive.i_t, drive.i_b, props, env, geom, 1 / 2000.0,
                               initial=initial)
        head = simulate_drive(drive.i_t[:split], drive.i_b[:split], props, env, geom,
                              1 / 2000.0, initial=initial)
        tail = simulate_drive(drive.i_t[split:], drive.i_b[split:], props, env, geom,
                              1 / 2000.0, initial=head.final_state)
        for name in ("delta", "theta", "temp_top", "temp_bottom", "xi_top", "xi_bottom",
                     "sigma_top", "sigma_bottom"):
            joined = np.concatenate((getattr(head, name), getattr(tail, name)))
            assert np.array_equal(joined, getattr(whole, name)), name
        assert tail.final_state == whole.final_state
        assert max(head.max_residual, tail.max_residual) == whole.max_residual

    @pytest.mark.parametrize("multiplier", [1.0, 1.5], ids=["dry", "water"])
    @pytest.mark.parametrize("frequency, copied", [
        (1.0, True), (5.0, True), (10.0, True), (15.0, False), (20.0, True),
    ], ids=["1hz", "5hz", "10hz", "15hz-fallback", "20hz"])
    def test_bottom_wire_copy_is_its_own_trace(self, props, env, geom, circuit, monkeypatch,
                                               frequency, copied, multiplier):
        # channel B is channel A delayed by half a period, so the bottom wire
        # copies every segment from the top one's but its head and its cut
        # last segment; at 15 Hz the half period is no whole number of
        # samples and each bottom segment is stepped
        side = replace(env, convection_multiplier=multiplier)
        drive = make_pwm_pair(PwmConfig(frequency=frequency, duty_cycle=0.10), circuit, 4.0)
        calls = spy_temperature_traces(monkeypatch)
        trace = simulate_drive(drive.i_t, drive.i_b, props, side, geom, 1 / 2000.0)
        (_, _, memo), (segments, added, shared) = calls
        assert shared is memo
        assert added == (2 if copied else segments)
        direct = temperature_trace(drive.i_b, side.t_amb, props, side, 1 / 2000.0)
        assert np.array_equal(trace.temp_bottom, direct[:-1])
        assert trace.final_state.bottom.temperature == direct[-1]

    def test_bottom_wire_copy_continues_a_split_trace(self, props, env, geom, circuit,
                                                      monkeypatch):
        # cut where channel A switches on, the continuation's bottom current is
        # again the top one delayed, from wires that have been driven before
        drive = make_pwm_pair(PwmConfig(frequency=1.0, duty_cycle=0.10), circuit, 4.0)
        split = 2000
        head = simulate_drive(drive.i_t[:split], drive.i_b[:split], props, env, geom,
                              1 / 2000.0)
        start = head.final_state
        assert start.bottom.xi < 1.0 and start.top.anchor_xi < 1.0
        calls = spy_temperature_traces(monkeypatch)
        tail = simulate_drive(drive.i_t[split:], drive.i_b[split:], props, env, geom,
                              1 / 2000.0, initial=start)
        assert [(segments, added) for segments, added, _ in calls] == [(6, 6), (7, 2)]
        direct = temperature_trace(drive.i_b[split:], start.bottom.temperature, props, env,
                                   1 / 2000.0)
        assert np.array_equal(tail.temp_bottom, direct[:-1])

    def test_bottom_wire_from_another_temperature_is_stepped(self, props, env, geom, circuit,
                                                             monkeypatch):
        # a bottom wire that starts hotter ends its first half period away
        # from the top wire's start temperature, so each of its segments is
        # stepped
        drive = make_pwm_pair(PwmConfig(frequency=1.0, duty_cycle=0.10), circuit, 4.0)
        initial = relaxed_actuator(env)
        initial = replace(initial, bottom=replace(initial.bottom, temperature=330.0))
        calls = spy_temperature_traces(monkeypatch)
        trace = simulate_drive(drive.i_t, drive.i_b, props, env, geom, 1 / 2000.0,
                               initial=initial)
        assert [(segments, added) for segments, added, _ in calls] == [(8, 8), (9, 9)]
        direct = temperature_trace(drive.i_b, 330.0, props, env, 1 / 2000.0)
        assert np.array_equal(trace.temp_bottom, direct[:-1])

    @pytest.mark.parametrize(
        "frequency, duty, mode, multiplier, duration, steady_index, cycle_length", [
            (5.0, 0.03, "bimorph", 1.0, 30.0, 13801, 400),
            (1.0, 0.10, "bimorph", 1.0, 30.0, 15001, 2000),
            (20.0, 0.10, "bimorph", 1.0, 30.0, 13651, 100),
            (2.0, 0.40, "unimorph-up", 1.0, 30.0, 14401, 1000),
            (3.0, 0.12, "bimorph", 1.5, 30.0, 60000, 0),
            (15.0, 0.10, "bimorph", 1.0, 40.0, 48268, 8400),
            (5.0, 0.10, "bimorph", 1.0, 30.0, 24201, 4400),
            (1.0, 0.08, "bimorph", 1.0, 30.0, 60000, 0),
            (1.0, 0.10, "bimorph", 1.0, 30.3, 15001, 2000),
            (10.0, 0.10, "bimorph", 1.0, 4.0, 8000, 0),
        ], ids=["5hz-zero", "1hz", "20hz", "2hz-unimorph-up", "3hz-water", "15hz-21-periods",
                "5hz-11-periods", "1hz-8pct-never", "1hz-30.3s", "10hz-4s"])
    def test_tiled_temperatures_keep_every_bit(self, props, env, geom, circuit, monkeypatch,
                                               frequency, duty, mode, multiplier, duration,
                                               steady_index, cycle_length):
        # both temperature traces share one segment memo, which tiles them from
        # their fixed point, and run_mode_trace passes the drive's period, so
        # the coupled state is tiled from its exact cycle; stepping every
        # coupled sample gives the same bits.  5 Hz/3% never
        # leaves martensite, so its cycle is found only because each skip stops
        # at the next period boundary; at 5 Hz/10% the xi pairs at samples
        # 23801 and 28201 agree and their anchor xi do not; 30.3 s ends inside
        # a period; and within 4 s at 10 Hz the carried state repeats at
        # boundaries while the temperatures still rise
        cfg = PwmConfig(frequency=frequency, duty_cycle=duty, mode=mode)
        side = replace(env, convection_multiplier=multiplier)
        drive = make_pwm_pair(cfg, circuit, duration)
        size = drive.i_t.size
        calls = spy_temperature_traces(monkeypatch)
        tiled = run_mode_trace(cfg, circuit, props, side, geom, duration)
        assert calls[0][2] is calls[1][2]
        stepped = simulate_drive(drive.i_t, drive.i_b, props, side, geom, 1 / 2000.0)
        for name in TRACE_ARRAYS:
            assert np.array_equal(getattr(tiled, name), getattr(stepped, name)), name
        assert tiled.final_state == stepped.final_state
        assert tiled.max_residual == stepped.max_residual
        assert (tiled.steady_index, tiled.cycle_length) == (steady_index, cycle_length)
        assert (stepped.steady_index, stepped.cycle_length) == (size, 0)
        if cycle_length:
            # at least one whole cycle is copied, and the records repeat from steady_index
            assert steady_index + 2 * cycle_length <= size
            for name in ("theta", "xi_top", "xi_bottom"):
                values = getattr(tiled, name)[steady_index:]
                assert np.array_equal(values[cycle_length:], values[:-cycle_length]), name

    @pytest.mark.parametrize("frequency, split", [(1.0, 40123), (15.0, 59000)],
                             ids=["1hz-inside-a-copied-cycle", "15hz-after-its-cycle"])
    def test_split_past_the_cycle_continues_bit_for_bit(self, props, env, geom, circuit,
                                                        frequency, split):
        # both parts are tiled from their own cycle; the head's final_state is
        # the state at its last sample, not where its cycle closed
        drive = make_pwm_pair(PwmConfig(frequency=frequency, duty_cycle=0.10), circuit, 40.0)
        period = 2000 // math.gcd(2000, int(frequency))
        whole = simulate_drive(drive.i_t, drive.i_b, props, env, geom, 1 / 2000.0)
        head = simulate_drive(drive.i_t[:split], drive.i_b[:split], props, env, geom,
                              1 / 2000.0, period=period)
        assert head.cycle_length and head.steady_index + head.cycle_length < split
        tail = simulate_drive(drive.i_t[split:], drive.i_b[split:], props, env, geom,
                              1 / 2000.0, initial=head.final_state, period=period)
        for name in TRACE_ARRAYS[1:]:
            joined = np.concatenate((getattr(head, name), getattr(tail, name)))
            assert np.array_equal(joined, getattr(whole, name)), name
        assert tail.final_state == whole.final_state
        assert max(head.max_residual, tail.max_residual) == whole.max_residual

    def test_non_finite_initial_temperature_names_sample_0(self, props, env, geom):
        initial = relaxed_actuator(env)
        initial = replace(initial, top=replace(initial.top, temperature=math.nan))
        with pytest.raises(NumericError, match=r"non-finite at sample 0$"):
            simulate_drive(np.zeros(10), np.zeros(10), props, env, geom, 1 / 2000.0,
                           initial=initial)

    def test_overflowing_current_names_its_first_sample(self, props, env, geom):
        current = np.zeros(100)
        current[37:] = 1e200
        with pytest.raises(NumericError, match=r"non-finite at sample 37$"):
            simulate_drive(np.zeros(100), current, props, env, geom, 1 / 2000.0)

    def test_empty_drive_gives_empty_trace(self, props, env, geom):
        trace = simulate_drive(np.zeros(0), np.zeros(0), props, env, geom, 1 / 2000.0)
        for name in ("t", "delta", "theta", "temp_top", "temp_bottom", "xi_top",
                     "xi_bottom", "sigma_top", "sigma_bottom"):
            assert getattr(trace, name).shape == (0,), name
        assert trace.max_residual == 0.0
        # no step ran, so nothing moves, also in states built by hand
        initial = relaxed_actuator(env)
        wire = replace(initial.top, temperature=330.0)
        initial = replace(initial, top=wire, bottom=wire)
        trace = simulate_drive(np.zeros(0), np.zeros(0), props, env, geom, 1 / 2000.0,
                               initial=initial)
        assert trace.final_state == initial

    def test_sample_0_is_the_balance_of_the_initial_xi_pair(self, props, env, geom):
        # the state holds no theta or stress: sample 0 solves them from the xi pair
        wire = relaxed_state(env)
        initial = ActuatorState(top=replace(wire, xi=0.3), bottom=wire)
        trace = simulate_drive(np.zeros(10), np.zeros(10), props, env, geom, 1 / 2000.0,
                               initial=initial)
        eq = solve_equilibrium(initial.top, initial.bottom, geom, props)
        assert trace.theta[0] == eq.theta != 0.0
        assert trace.delta[0] == eq.delta
        assert trace.sigma_top[0] == eq.sigma_top
        assert trace.sigma_bottom[0] == eq.sigma_bottom

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
        assert trace.max_residual < 1e-15

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
