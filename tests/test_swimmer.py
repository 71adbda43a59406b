import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sma_bimorph import (SwimmerParams, SwimmerState, body_lengths_per_second,
                         fit_thrust_coefficient, reynolds, run_swimmer, steady_speed,
                         step_swimmer)
from sma_bimorph.errors import ParameterError
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
        state = SwimmerState()
        out = step_swimmer(state, 0.0, params, 5e-4)
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
            step_swimmer(SwimmerState(), 0.0, SwimmerParams(), 2e-3)

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
    from sma_bimorph.errors import NumericError
    params = SwimmerParams()
    state = SwimmerState()
    with pytest.raises(NumericError):
        # an absurd command drives thrust and speed to overflow
        step_swimmer(state, 1e200, params, 1e-3)
