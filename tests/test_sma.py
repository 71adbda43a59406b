import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sma_bimorph import (Environment, WireProperties, WireState, relaxed_actuator,
                         relaxed_state, simulate_wire, transformation_temperatures,
                         wire_strain)
from sma_bimorph.errors import NumericError, ParameterError
from sma_bimorph.sma import (BRANCH_COOLING, BRANCH_HEATING, BRANCH_NONE, _branch_trace,
                             _phase_step)


def hold_current(state, current, n, props, env, dt):
    """Temperature after n steps at constant current and zero stress."""
    temps, _, _ = simulate_wire(np.full(n, current), np.zeros(n), props, env, dt,
                                state=state)
    return temps[-1]


def update_phase(state, temperature, props, sigma=0.0):
    """The phase kernel applied over one step from the state's temperature to temperature.

    sigma is the step's tensile stress, which shifts the transformation band.
    """
    branches, anchors = _branch_trace(np.array([state.temperature, temperature]),
                                      state.branch, state.anchor_t)
    branch, anchor_t = int(branches[1]), float(anchors[1])
    anchor_xi = state.xi if branch != state.branch else state.anchor_xi
    xi = _phase_step(state.xi, temperature, anchor_xi, anchor_t, branch,
                     *transformation_temperatures(props, sigma))
    return replace(state, temperature=temperature, xi=xi, anchor_xi=anchor_xi,
                   anchor_t=anchor_t, branch=branch)


def heating_envelope(temp, sigma, props):
    """Major heating branch at stress sigma, the upper xi bound."""
    t = temp - sigma / props.c_a
    if t <= props.a_s:
        return 1.0
    if t >= props.a_f:
        return 0.0
    return 0.5 * (math.cos(math.pi * (t - props.a_s) / (props.a_f - props.a_s)) + 1.0)


def cooling_envelope(temp, sigma, props):
    """Major cooling branch from xi = 0, the lower xi bound."""
    t = temp - sigma / props.c_m
    if t >= props.m_s:
        return 0.0
    if t <= props.m_f:
        return 1.0
    return 0.5 * (math.cos(math.pi * (t - props.m_f) / (props.m_s - props.m_f)) + 1.0)


class TestThermal:
    def test_equilibrium_is_fixed_point(self, props, env):
        state = relaxed_state(env)
        assert hold_current(state, 0.0, 1, props, env, 5e-4) == state.temperature

    def test_cooling_matches_exponential_oracle(self, props, env):
        # closed form: T_amb + dT0 * exp(-t/tau), tau = m c_p / (h A_lat)
        tau = props.time_constant(env)
        dt = 5e-4
        state = replace(relaxed_state(env), temperature=env.t_amb + 100.0)
        n = int(1.0 / dt)
        temp = hold_current(state, 0.0, n, props, env, dt)
        expected = env.t_amb + 100.0 * math.exp(-n * dt / tau)
        assert abs(temp - expected) / 100.0 < 1e-4

    def test_heating_matches_steady_state_oracle(self, props, env):
        # closed form: T_amb + (i^2 R / h A_lat) * (1 - exp(-t/tau))
        i = 0.25
        h_area = props.h * env.convection_multiplier * props.lateral_area
        dt_ss = i ** 2 * props.resistance / h_area
        tau = props.time_constant(env)
        dt = 5e-4
        state = relaxed_state(env)
        n = int(2.0 / dt)
        temp = hold_current(state, i, n, props, env, dt)
        expected = env.t_amb + dt_ss * (1.0 - math.exp(-n * dt / tau))
        assert abs(temp - expected) / dt_ss < 1e-4

    def test_step_size_guard(self, props, env):
        state = relaxed_state(env)
        with pytest.raises(ParameterError):
            hold_current(state, 0.0, 1, props, env, 2e-3)
        with pytest.raises(ParameterError):
            hold_current(state, 0.0, 1, props, env, 0.0)

    def test_non_finite_rejected(self, props, env):
        state = replace(relaxed_state(env), temperature=math.nan)
        with pytest.raises(NumericError, match=r"non-finite at sample 0$"):
            hold_current(state, 0.0, 1, props, env, 5e-4)

    def test_overflowing_current_names_its_first_sample(self, props, env):
        current = np.zeros(100)
        current[37:] = 1e200
        with pytest.raises(NumericError, match=r"non-finite at sample 37$"):
            simulate_wire(current, np.zeros(100), props, env, 5e-4)


class TestPhaseKinetics:
    def test_full_martensite_below_m_f(self, props, env):
        state = replace(relaxed_state(env), xi=0.3, temperature=310.0)
        assert update_phase(state, 300.0, props).xi == 1.0

    def test_full_austenite_above_a_f(self, props, env):
        state = replace(relaxed_state(env), temperature=300.0)
        assert update_phase(state, 380.0, props).xi == 0.0

    def test_half_cosine_midpoint(self, props, env):
        # heating from a full-martensite anchor below the band
        mid = (props.a_s + props.a_f) / 2.0
        state = WireState(temperature=mid - 1.0, xi=1.0, anchor_xi=1.0,
                          anchor_t=300.0, branch=BRANCH_HEATING)
        assert update_phase(state, mid, props).xi == pytest.approx(0.5, abs=1e-12)

    def test_stress_shift_delays_heating_transformation(self, props, env):
        mid = (props.a_s + props.a_f) / 2.0
        state = WireState(temperature=mid - 1.0, xi=1.0, anchor_xi=1.0, anchor_t=300.0,
                          branch=BRANCH_HEATING)
        assert update_phase(state, mid, props, 200e6).xi > update_phase(state, mid, props).xi

    def test_transformation_temperatures_increase_with_stress(self, props):
        lo = transformation_temperatures(props, 0.0)
        hi = transformation_temperatures(props, 150e6)
        assert all(h > l for h, l in zip(hi, lo))

    def test_minor_loop_reanchors_on_reversal(self, props, env):
        # heat into the band, reverse, cool: xi must not jump
        state = relaxed_state(env)
        temps_up = np.linspace(env.t_amb, 355.0, 400)
        for t in temps_up[1:]:
            state = update_phase(state, t, props)
        xi_at_reversal = state.xi
        assert 0.0 < xi_at_reversal < 1.0
        state = update_phase(state, 354.8, props)
        assert state.branch == BRANCH_COOLING
        assert state.xi == pytest.approx(xi_at_reversal, abs=1e-9)


def branch_rule(temps, branch, anchor_t):
    """Branch and anchor temperature after 0 ... n steps, one step at a time."""
    branches, anchors = [branch], [anchor_t]
    for t_prev, temp in zip(temps, temps[1:]):
        if temp > t_prev and branch != BRANCH_HEATING:
            branch, anchor_t = BRANCH_HEATING, t_prev
        elif temp < t_prev and branch != BRANCH_COOLING:
            branch, anchor_t = BRANCH_COOLING, t_prev
        branches.append(branch)
        anchors.append(anchor_t)
    return branches, anchors


class TestBranchTrace:
    @given(temps=st.lists(st.sampled_from([300.0, 310.0, 320.5, 330.0]),
                          min_size=1, max_size=40),
           branch=st.sampled_from([BRANCH_NONE, BRANCH_HEATING, BRANCH_COOLING]),
           anchor_t=st.floats(290.0, 380.0))
    @example(temps=[310.0], branch=BRANCH_HEATING, anchor_t=305.0)
    @example(temps=[310.0, 310.0, 320.5], branch=BRANCH_NONE, anchor_t=293.15)
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_rule(self, temps, branch, anchor_t):
        # repeated values give steps with no change
        branches, anchors = _branch_trace(np.array(temps), branch, anchor_t)
        assert branches.dtype == np.int8 and anchors.dtype == np.float64
        assert (branches.tolist(), anchors.tolist()) == branch_rule(temps, branch, anchor_t)


class TestWireStrain:
    def test_unloaded_austenite(self, props):
        assert wire_strain(0.0, 0.0, props) == 0.0

    def test_unloaded_detwinned_martensite(self, props):
        assert wire_strain(1.0, 0.0, props) == props.eps_l

    def test_mixed_state_formula(self, props):
        # independent evaluation: sigma/E(xi) + eps_l * xi at xi = 0.5, 50 MPa
        e_mixed = 0.5 * (props.e_a + props.e_m)
        expected = 50e6 / e_mixed + props.eps_l * 0.5
        assert wire_strain(0.5, 50e6, props) == pytest.approx(expected, rel=1e-12)
        assert wire_strain(0.5, 50e6, props) == pytest.approx(0.020970873786407767,
                                                              rel=1e-12)

    def test_preconditions(self, props):
        with pytest.raises(ParameterError):
            wire_strain(1.2, 0.0, props)
        with pytest.raises(ParameterError):
            wire_strain(0.5, -1.0, props)


class TestStepWire:
    def test_relaxed_fixed_point(self, props, env):
        state = relaxed_state(env)
        _, _, out = simulate_wire(np.zeros(1), np.zeros(1), props, env, 5e-4, state=state)
        assert out.temperature == state.temperature
        assert out.xi == state.xi == 1.0

    def test_empty_drive_keeps_state(self, props, env):
        state = replace(relaxed_actuator(env).top, temperature=330.0)
        temps, xi, final = simulate_wire(np.zeros(0), np.zeros(0), props, env, 5e-4,
                                         state=state)
        assert temps.shape == xi.shape == (0,)
        assert final == state

    def _square_wave(self, frequency, duty, duration, dt, i_on=0.25):
        n = int(round(duration / dt))
        t = np.arange(n) * dt
        phase = (t * frequency) % 1.0
        return np.where(phase < duty, i_on, 0.0)

    def test_slow_square_wave_traces_major_loop(self, props, env):
        # 1 Hz, DC 10%: the wire fully transforms and fully recovers each cycle
        dt = 1e-5   # dense oracle step
        currents = self._square_wave(1.0, 0.10, 3.0, dt)
        sigmas = np.zeros_like(currents)
        _, xi, _ = simulate_wire(currents, sigmas, props, env, dt)
        last = xi[int(2.0 / dt):]
        assert last.min() < 0.05
        assert last.max() > 0.95

    def test_fast_square_wave_traces_minor_loop(self, props, env):
        # 10 Hz, DC 10% at zero stress: cycles never span both extremes
        dt = 1e-5
        currents = self._square_wave(10.0, 0.10, 3.0, dt)
        sigmas = np.zeros_like(currents)
        _, xi, _ = simulate_wire(currents, sigmas, props, env, dt)
        last = xi[int(2.0 / dt):]
        assert not (last.min() < 0.05 and last.max() > 0.95)

    def test_coarse_step_matches_dense_oracle(self, props, env):
        # same drive at dt = 0.5 ms and dt = 10 us
        coarse_dt = 5e-4
        dense_dt = 1e-5
        stride = int(round(coarse_dt / dense_dt))
        currents_c = self._square_wave(1.0, 0.10, 2.0, coarse_dt)
        currents_d = self._square_wave(1.0, 0.10, 2.0, dense_dt)
        sig_c = np.zeros_like(currents_c)
        sig_d = np.zeros_like(currents_d)
        temp_c, xi_c, _ = simulate_wire(currents_c, sig_c, props, env, coarse_dt)
        temp_d, xi_d, _ = simulate_wire(currents_d, sig_d, props, env, dense_dt)
        temp_d_sampled = temp_d[stride - 1::stride]
        scale = np.abs(temp_d_sampled - 293.15).max()
        assert np.abs(temp_c - temp_d_sampled).max() / scale < 1e-3
        assert np.abs(xi_c - xi_d[stride - 1::stride]).max() < 0.02

    def test_thermal_energy_balance(self, props, env):
        dt = 5e-4
        currents = self._square_wave(2.0, 0.25, 2.0, dt)
        sigmas = np.zeros_like(currents)
        temps, _, _ = simulate_wire(currents, sigmas, props, env, dt)
        h_area = props.h * env.convection_multiplier * props.lateral_area
        joule = np.sum(currents ** 2 * props.resistance) * dt
        temps_full = np.concatenate(([env.t_amb], temps))
        mid = 0.5 * (temps_full[1:] + temps_full[:-1])
        convected = np.sum(h_area * (mid - env.t_amb)) * dt
        stored = props.heat_capacity * (temps[-1] - env.t_amb)
        residual = joule - convected - stored
        assert abs(residual) / joule < 1e-3


class TestInvariantSuite:
    """Randomized PWM-like drive profiles at constant applied stress."""

    def _random_profile(self, rng):
        dt = 5e-4
        n = int(2.0 / dt)
        t = np.arange(n) * dt
        f = rng.uniform(0.5, 25.0)
        duty = rng.uniform(0.0, 0.5)
        i_on = rng.uniform(0.05, 0.25)
        currents = np.where((t * f) % 1.0 < duty, i_on, 0.0)
        sigma = rng.uniform(0.0, 400e6)
        return currents, np.full(n, sigma), dt

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_fraction_bounds_and_branch_monotonicity(self, seed):
        props = WireProperties()
        env = Environment()
        rng = np.random.default_rng(seed)
        currents, sigmas, dt = self._random_profile(rng)
        temps, xi, _ = simulate_wire(currents, sigmas, props, env, dt)
        assert (xi >= 0.0).all() and (xi <= 1.0).all()
        d_temp = np.diff(temps)
        d_xi = np.diff(xi)
        assert (d_xi[d_temp > 0] <= 1e-12).all()   # heating never raises xi
        assert (d_xi[d_temp < 0] >= -1e-12).all()  # cooling never lowers xi

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_minor_loops_stay_inside_major_envelope(self, seed):
        props = WireProperties()
        env = Environment()
        rng = np.random.default_rng(seed)
        currents, sigmas, dt = self._random_profile(rng)
        temps, xi, _ = simulate_wire(currents, sigmas, props, env, dt)
        upper = np.array([heating_envelope(t, s, props) for t, s in zip(temps, sigmas)])
        lower = np.array([cooling_envelope(t, s, props) for t, s in zip(temps, sigmas)])
        assert (xi <= upper + 1e-9).all()
        assert (xi >= lower - 1e-9).all()


class TestVectorScalarConsistency:
    def test_simulate_wire_matches_chained_single_steps(self, props, env):
        # the final state carries everything the next step needs
        rng = np.random.default_rng(3)
        n = 200
        currents = rng.uniform(0.0, 0.25, n)
        sigmas = rng.uniform(0.0, 300e6, n)
        temps, xi, final = simulate_wire(currents, sigmas, props, env, 5e-4)
        state = relaxed_state(env)
        for k in range(n):
            _, _, state = simulate_wire(currents[k:k + 1], sigmas[k:k + 1],
                                        props, env, 5e-4, state=state)
            assert state.temperature == temps[k]
            assert state.xi == xi[k]
        assert final == state

    def test_final_state_holds_python_floats(self, props, env):
        rng = np.random.default_rng(5)
        currents = rng.uniform(0.0, 0.25, 400)
        sigmas = rng.uniform(0.0, 300e6, 400)
        final = simulate_wire(currents, sigmas, props, env, 5e-4)[2]
        for name in ("temperature", "xi", "anchor_xi", "anchor_t"):
            assert type(getattr(final, name)) is float, name


class TestConstitutiveRoundTrip:
    @given(xi=st.floats(0.0, 1.0), elastic=st.floats(1e-5, 0.02))
    @settings(max_examples=50)
    def test_tension_inverts_strain_law(self, xi, elastic):
        # a taut wire: stress from kinematic strain, then strain from stress
        from sma_bimorph.sma import _tension_from_kinematics
        props = WireProperties()
        eps_kin = props.eps_l * xi + elastic
        sigma = _tension_from_kinematics(eps_kin, xi, props.e_a, props.e_m, props.eps_l)
        assert sigma > 0.0
        assert wire_strain(xi, sigma, props) == pytest.approx(eps_kin, rel=1e-12)

    def test_slack_wire_carries_nothing(self):
        from sma_bimorph.sma import _tension_from_kinematics
        props = WireProperties()
        assert _tension_from_kinematics(0.01, 1.0, props.e_a, props.e_m,
                                        props.eps_l) == 0.0


def test_simulate_wire_rejects_negative_stress(props, env):
    with pytest.raises(ParameterError):
        simulate_wire(np.zeros(3), np.array([0.0, -1.0, 0.0]), props, env, 5e-4)


@pytest.mark.parametrize("field", ["xi", "anchor_xi"])
@pytest.mark.parametrize("value", [-0.1, 1.5, math.nan])
def test_wire_state_rejects_fraction_outside_unit_interval(field, value):
    # the phase step keeps xi in [0, 1] only from fractions that start there
    with pytest.raises(ParameterError, match=f"^{field} must be in"):
        WireState(temperature=300.0, **{"xi": 1.0, field: value})
