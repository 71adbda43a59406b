import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sma_bimorph import (CircuitParams, PwmConfig, average_power,
                         instantaneous_power, make_pwm_pair)
from sma_bimorph.errors import ParameterError, WindowError


def on_current(v_on, r_a):
    """Channel current while on, for a circuit with on voltage v_on across r_a."""
    circuit = CircuitParams(r_a=r_a, i_on=v_on / r_a, i_limit=max(v_on / r_a, 0.25))
    trace = make_pwm_pair(PwmConfig(frequency=1.0, duty_cycle=0.10), circuit, 1.0)
    assert trace.v_t.max() == pytest.approx(v_on, rel=1e-12)
    return trace.i_t.max()


class TestWireCurrent:
    def test_on_state_current(self):
        # 1.1125 V across 4.45 ohm is the 250 mA on-state
        assert on_current(1.1125, 4.45) == pytest.approx(0.250, rel=1e-12)

    def test_zero_voltage(self, circuit):
        trace = make_pwm_pair(PwmConfig(frequency=1.0, duty_cycle=0.10), circuit, 1.0)
        assert (trace.i_t[trace.v_t == 0.0] == 0.0).all()

    def test_hand_evaluated_ohms_law(self):
        assert on_current(2.225, 4.45) == pytest.approx(0.5, rel=1e-12)

    def test_invalid_resistance(self):
        with pytest.raises(ParameterError):
            CircuitParams(r_a=0.0)
        with pytest.raises(ParameterError):
            CircuitParams(r_a=-2.0)


class TestMakePwmPair:
    def test_window_placement_1hz(self, circuit):
        cfg = PwmConfig(frequency=1.0, duty_cycle=0.10)
        trace = make_pwm_pair(cfg, circuit, 1.0)
        on_a = trace.v_t > 0
        on_b = trace.v_b > 0
        # A occupies [0, 0.1): samples 0..199; B occupies [0.5, 0.6)
        assert on_a[:200].all() and not on_a[200:].any()
        assert on_b[1000:1200].all()
        assert not on_b[:1000].any() and not on_b[1200:].any()
        assert trace.v_t.max() == pytest.approx(circuit.i_on * circuit.r_a)
        np.testing.assert_allclose(trace.i_t, trace.v_t / circuit.r_a, rtol=0, atol=0)

    def test_zero_duty_cycle(self, circuit):
        cfg = PwmConfig(frequency=5.0, duty_cycle=0.0)
        trace = make_pwm_pair(cfg, circuit, 1.0)
        assert not trace.v_t.any() and not trace.v_b.any()
        assert not trace.i_t.any() and not trace.i_b.any()

    def test_unimorph_up_masks_channel_b(self, circuit):
        cfg = PwmConfig(frequency=20.0, duty_cycle=0.10, mode="unimorph-up")
        trace = make_pwm_pair(cfg, circuit, 2.0)
        assert not trace.v_b.any()
        on = (trace.i_t > 0).astype(int)
        windows = int(on[0]) + int((np.diff(on) == 1).sum())
        assert windows == 40

    def test_unimorph_down_masks_channel_a(self, circuit):
        cfg = PwmConfig(frequency=20.0, duty_cycle=0.10, mode="unimorph-down")
        trace = make_pwm_pair(cfg, circuit, 2.0)
        assert not trace.v_t.any()
        assert (trace.i_b > 0).any()

    def test_bimorph_overlap_rejected(self):
        with pytest.raises(ParameterError, match="^duty_cycle"):
            PwmConfig(frequency=1.0, duty_cycle=0.6)

    def test_large_duty_allowed_when_windows_fit(self, circuit):
        # DC > 0.5 is only an error when the shifted windows overlap
        cfg = PwmConfig(frequency=1.0, duty_cycle=0.3, phase_shift=0.4)
        trace = make_pwm_pair(cfg, circuit, 1.0)
        assert (trace.i_t * trace.i_b == 0).all()
        with pytest.raises(ParameterError, match="^duty_cycle"):
            PwmConfig(frequency=1.0, duty_cycle=0.45, phase_shift=0.4)

    def test_current_limit_enforced(self):
        with pytest.raises(ParameterError):
            CircuitParams(i_on=0.3)

    def test_sample_access(self, circuit):
        cfg = PwmConfig(frequency=1.0, duty_cycle=0.10)
        trace = make_pwm_pair(cfg, circuit, 1.0)
        assert trace.t[0] == 0.0 and trace.i_t[0] == pytest.approx(0.25)
        assert trace.t.size == 2000

    @given(dc=st.floats(0.0, 0.5), f=st.sampled_from([1.0, 2.0, 5.0, 10.0, 20.0]))
    @settings(max_examples=40, deadline=None)
    def test_bimorph_never_excites_both_sides(self, dc, f):
        cfg = PwmConfig(frequency=f, duty_cycle=dc)
        trace = make_pwm_pair(cfg, CircuitParams(), 2.0 / f)
        assert (trace.i_t * trace.i_b == 0.0).all()

    @given(f=st.sampled_from([1.0, 2.0, 4.0, 5.0, 10.0]))
    @settings(max_examples=10, deadline=None)
    def test_periodicity_on_sample_grid(self, f):
        cfg = PwmConfig(frequency=f, duty_cycle=0.10)
        trace = make_pwm_pair(cfg, CircuitParams(), 3.0 / f)
        period_samples = int(2000.0 / f)
        assert np.array_equal(trace.v_t[:period_samples],
                              trace.v_t[period_samples:2 * period_samples])


class TestPower:
    def test_single_side_peak_matches_reported_280mw(self, circuit):
        p = instantaneous_power(0.250, 0.0, circuit)
        assert p == pytest.approx(0.278125, abs=1e-12)   # rounds to 280 mW

    def test_no_excitation(self, circuit):
        assert instantaneous_power(0.0, 0.0, circuit) == 0.0

    def test_both_sides_hand_evaluated(self, circuit):
        # 2 * i^2 * r_a
        assert instantaneous_power(0.250, 0.250, circuit) == pytest.approx(0.55625, abs=1e-12)

    def test_average_power_reproduces_56mw(self, circuit):
        cfg = PwmConfig(frequency=1.0, duty_cycle=0.10)
        trace = make_pwm_pair(cfg, circuit, 30.0)
        power = average_power(trace, circuit)
        assert power.p_bar == pytest.approx(0.055625, rel=1e-9)
        assert power.p_a.max() == pytest.approx(0.278125, abs=1e-12)
        assert (power.p_a >= 0).all()

    def test_average_power_zero_trace(self, circuit):
        cfg = PwmConfig(frequency=1.0, duty_cycle=0.0)
        trace = make_pwm_pair(cfg, circuit, 2.0)
        assert average_power(trace, circuit).p_bar == 0.0

    def test_closed_form_vs_sample_mean(self, circuit):
        # (DC_t + DC_b) * i_on^2 * r_a for an exactly grid-aligned waveform
        cfg = PwmConfig(frequency=5.0, duty_cycle=0.05)
        trace = make_pwm_pair(cfg, circuit, 2.0)
        power = average_power(trace, circuit)
        closed_form = 0.10 * circuit.i_on ** 2 * circuit.r_a
        assert power.p_bar == pytest.approx(closed_form, rel=1e-12)

    def test_non_integer_period_window_rejected(self, circuit):
        cfg = PwmConfig(frequency=1.0, duty_cycle=0.10)
        trace = make_pwm_pair(cfg, circuit, 1.3)
        with pytest.raises(WindowError):
            average_power(trace, circuit)


class TestConfigValidation:
    def test_invariants(self):
        with pytest.raises(ParameterError):
            PwmConfig(frequency=0.0)
        with pytest.raises(ParameterError):
            PwmConfig(duty_cycle=1.2)
        with pytest.raises(ParameterError):
            PwmConfig(frequency=100.0, sample_rate=500.0)
        with pytest.raises(ParameterError):
            PwmConfig(phase_shift=1.0)
        with pytest.raises(ParameterError):
            PwmConfig(mode="tri-morph")
        with pytest.raises(ParameterError):
            CircuitParams(r_a=-1.0)


class TestPowerIdentity:
    @given(dc=st.floats(0.01, 0.45), f=st.sampled_from([1.0, 2.0, 4.0, 5.0, 10.0]))
    @settings(max_examples=40, deadline=None)
    def test_mean_power_within_edge_quantization(self, dc, f):
        # (DC_t + DC_b) i^2 r_a, off by at most one sample per window edge;
        # frequencies chosen so whole periods land on the sample grid
        circuit = CircuitParams()
        cfg = PwmConfig(frequency=f, duty_cycle=dc)
        trace = make_pwm_pair(cfg, circuit, 2.0 / f)
        power = average_power(trace, circuit)
        closed_form = 2.0 * dc * circuit.i_on ** 2 * circuit.r_a
        p_on = circuit.i_on ** 2 * circuit.r_a
        quantization = 2.0 * (f / cfg.sample_rate) * p_on
        assert abs(power.p_bar - closed_form) <= quantization

    @given(dc=st.floats(0.05, 0.45))
    @settings(max_examples=20, deadline=None)
    def test_peak_power_is_single_side_on_value(self, dc):
        circuit = CircuitParams()
        cfg = PwmConfig(frequency=2.0, duty_cycle=dc)
        trace = make_pwm_pair(cfg, circuit, 1.0)
        power = average_power(trace, circuit)
        assert power.p_a.max() == circuit.i_on ** 2 * circuit.r_a
