import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sma_bimorph import (SwimmerParams, body_lengths_per_second, fit_thrust_coefficient,
                         reynolds, run_swimmer, steady_speed)
from sma_bimorph.errors import NumericError, ParameterError
from sma_bimorph.swimmer import _drag


class TestSteadySpeed:
    def test_no_flapping_no_motion(self):
        params = SwimmerParams()
        assert steady_speed(0.0, 0.3, params) == 0.0
        assert steady_speed(3.0, 0.0, params) == 0.0

    def test_thrust_drag_residual_below_tolerance(self):
        for linear_drag in (0.0, 1e-7, 1e-5, 1e-3):
            params = SwimmerParams(linear_drag=linear_drag)
            for f in (0.5, 1.0, 2.0, 3.0, 4.0, 10.0, 20.0):
                for amp in (1e-4, 1e-3, 0.01, 0.1, 0.25, 0.4, 1.0):
                    v = steady_speed(f, amp, params)
                    thrust = params.thrust_coeff * (amp * 2 * math.pi * f) ** 2
                    assert abs(thrust - _drag(v, params)) / thrust < 1e-12

    def test_closed_form_quadratic_only(self):
        params = SwimmerParams(linear_drag=0.0)
        v = steady_speed(2.0, 0.2, params)
        thrust = params.thrust_coeff * (0.2 * 2 * math.pi * 2.0) ** 2
        assert v == pytest.approx(math.sqrt(thrust / (0.5 * params.rho *
                                                      params.longitudinal_cda)))

    def test_closed_form_linear_only(self):
        params = SwimmerParams(longitudinal_cda=1e-30, linear_drag=1e-4)
        # quadratic term negligible: v = thrust / b
        thrust = params.thrust_coeff * (0.2 * 2 * math.pi * 2.0) ** 2
        v = steady_speed(2.0, 0.2, params)
        assert v == pytest.approx(thrust / 1e-4, rel=1e-6)

    @given(f1=st.floats(0.5, 4.0), f2=st.floats(0.5, 4.0),
           a1=st.floats(0.05, 0.4), a2=st.floats(0.05, 0.4))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_frequency_and_amplitude(self, f1, f2, a1, a2):
        params = SwimmerParams()
        if f1 <= f2 and a1 <= a2:
            assert steady_speed(f1, a1, params) <= steady_speed(f2, a2, params) + 1e-15

    def test_fit_hits_target_exactly(self):
        params = SwimmerParams()
        fitted = fit_thrust_coefficient(3.0, 0.25, 2.39e-3, params)
        assert steady_speed(3.0, 0.25, fitted) == pytest.approx(2.39e-3, abs=1e-9)


class TestStepSwimmer:
    def test_zero_motion_is_fixed_point(self):
        params = SwimmerParams()
        state, out = run_swimmer([0.0], params, 5e-4)
        assert out == state

    def test_symmetric_flapping_swims_straight(self):
        params = SwimmerParams()
        dt = 5e-4
        t = np.arange(int(30.0 / dt)) * dt
        tail = 0.25 * np.sin(2 * math.pi * 3.0 * t)
        final = run_swimmer(tail, params, dt)[-1]
        assert abs(math.degrees(final.psi)) < 1.0
        assert final.x > 0.0

    def test_step_consistent_with_steady_speed(self):
        # long sinusoidal flapping settles at the mean-thrust balance speed
        params = SwimmerParams()
        dt = 5e-4
        t = np.arange(int(40.0 / dt)) * dt
        amp, f = 0.25, 3.0
        tail = amp * np.sin(2 * math.pi * f * t)
        history = run_swimmer(tail, params, dt)
        v_mean = np.mean([s.v for s in history[-10000:]])
        assert v_mean == pytest.approx(steady_speed(f, amp, params), rel=0.05)

    def test_mirror_antisymmetry_exact(self):
        params = SwimmerParams()
        dt = 5e-4
        t = np.arange(int(5.0 / dt)) * dt
        tail = 0.3 * np.sin(2 * math.pi * 3.0 * t) + 0.05 * np.sin(2 * math.pi * 0.5 * t)
        fwd = run_swimmer(tail, params, dt)
        mirrored = run_swimmer(-tail, params, dt)
        for a, b in zip(fwd, mirrored):
            assert a.y == -b.y and a.psi == -b.psi
            assert a.x == b.x and a.v == b.v

    def test_one_sided_flapping_turns_with_sign(self):
        # turning claims stop at sign correctness: a one-sided tail trace
        # must yaw clearly above the symmetric case's quadrature drift,
        # mirrored exactly when the active side flips
        params = SwimmerParams()
        dt = 5e-4
        t = np.arange(int(10.0 / dt)) * dt
        one_sided = 0.3 * 0.5 * (1.0 - np.cos(2 * math.pi * 3.0 * t))   # >= 0
        symmetric = 0.15 * np.sin(2 * math.pi * 3.0 * t)
        psi_pos = run_swimmer(one_sided, params, dt)[-1].psi
        psi_neg = run_swimmer(-one_sided, params, dt)[-1].psi
        psi_sym = run_swimmer(symmetric, params, dt)[-1].psi
        assert psi_pos != 0.0
        assert psi_pos == -psi_neg
        assert abs(psi_pos) > 5.0 * abs(psi_sym)

    def test_dt_guard(self):
        with pytest.raises(ParameterError):
            run_swimmer([0.0], SwimmerParams(), 2e-3)

    def test_head_must_dominate_tail_drag(self):
        with pytest.raises(ParameterError):
            SwimmerParams(head_lateral_cda=1e-5, tail_lateral_cda=2e-5)


class TestDimensionless:
    def test_reynolds_reported_values(self):
        # 4 Hz swim: order 100; 3 Hz swim: order 80
        assert reynolds(3.06e-3, 34e-3, 1.0e-6) == pytest.approx(104.0, abs=1.0)
        assert reynolds(2.39e-3, 34e-3, 1.0e-6) == pytest.approx(81.3, abs=1.0)
        assert reynolds(0.0, 34e-3, 1e-6) == 0.0

    def test_body_lengths_per_second_reported_values(self):
        assert body_lengths_per_second(3.06e-3, 34e-3) == pytest.approx(0.090, abs=2e-3)
        assert body_lengths_per_second(2.39e-3, 34e-3) == pytest.approx(0.070, abs=2e-3)
        assert body_lengths_per_second(0.0, 34e-3) == 0.0

    @given(v=st.floats(1e-4, 1e-1), length=st.floats(1e-3, 1e-1),
           nu=st.floats(1e-7, 1e-5))
    @settings(max_examples=50)
    def test_unit_consistent_rescaling(self, v, length, nu):
        # meters -> millimeters with nu rescaled accordingly
        base = reynolds(v, length, nu)
        scaled = reynolds(v * 1e3, length * 1e3, nu * 1e6)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_guards(self):
        with pytest.raises(ParameterError):
            reynolds(1.0, 1.0, 0.0)
        with pytest.raises(ParameterError):
            body_lengths_per_second(1.0, 0.0)


def test_steady_speed_rejects_negative_inputs():
    with pytest.raises(ParameterError):
        steady_speed(-1.0, 0.1, SwimmerParams())
    with pytest.raises(ParameterError):
        steady_speed(1.0, -0.1, SwimmerParams())


def test_step_swimmer_flags_non_finite_state():
    params = SwimmerParams()
    with pytest.raises(NumericError):
        # an absurd command drives thrust and speed to overflow
        run_swimmer([1e200], params, 1e-3)


def _reference_track(tail_commands, params, dt):
    """The swimmer law written out one step at a time on a state tuple."""
    x = y = psi = v = tail_angle = 0.0
    rows = [(x, y, psi, v, tail_angle)]
    for command in tail_commands:
        command = float(command)
        tail_rate = (command - tail_angle) / dt
        thrust = 2.0 * params.thrust_coeff * tail_rate * tail_rate
        accel = (thrust - _drag(v, params)) / params.mass
        v_next = v + dt * accel
        if v_next < 0.0:
            v_next = 0.0
        centroid = 0.5 * params.tail_lever
        m_flap = 0.5 * params.rho * params.tail_lateral_cda * centroid ** 2 \
            * params.tail_lever * tail_rate * abs(tail_rate)
        m_steer = -thrust * math.sin(command) * params.tail_lever
        psi_rate = (m_flap + m_steer) / params.yaw_damping
        x, y = x + dt * v_next * math.cos(psi), y + dt * v_next * math.sin(psi)
        psi, v, tail_angle = psi + dt * psi_rate, v_next, command
        rows.append((x, y, psi, v, tail_angle))
    return [np.array(column) for column in zip(*rows)]


class TestRunSwimmerTrack:
    FIELDS = ("x", "y", "psi", "v", "tail_angle")

    def test_record_array_contract(self):
        dt = 5e-4
        t = np.arange(400) * dt
        tail = 0.25 * np.sin(2 * math.pi * 3.0 * t)
        track = run_swimmer(tail, SwimmerParams(), dt)
        assert isinstance(track, np.recarray)
        assert track.dtype.names == self.FIELDS
        assert all(track.dtype[name] == np.float64 for name in self.FIELDS)
        assert len(track) - 1 == tail.size
        assert all(track[0][name] == 0.0 for name in self.FIELDS)
        assert track[-1].psi == track.psi[-1]
        assert track.tail_angle[1:].tolist() == tail.tolist()

    @pytest.mark.parametrize("linear_drag", [0.0, SwimmerParams().linear_drag])
    def test_columns_match_stepwise_law_bit_for_bit(self, linear_drag):
        params = SwimmerParams(linear_drag=linear_drag)
        dt = 5e-4
        t = np.arange(int(2.0 / dt)) * dt
        sinusoid = 0.3 * np.sin(2 * math.pi * 3.0 * t)
        one_sided = 0.3 * 0.5 * (1.0 - np.cos(2 * math.pi * 3.0 * t))
        tail = np.concatenate([sinusoid, one_sided])
        track = run_swimmer(tail, params, dt)
        for name, expected in zip(self.FIELDS, _reference_track(tail, params, dt)):
            assert track[name].tobytes() == expected.tobytes(), name
