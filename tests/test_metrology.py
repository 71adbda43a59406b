import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sma_bimorph import (FirSpec, Protocol, PwmConfig, compute_amado, design_fir,
                         filter_zero_phase, measure_amado, run_sweep)
from sma_bimorph.drive import CircuitParams, make_pwm_pair
from sma_bimorph.errors import ParameterError, WindowError


def kernel_response(kernel, frequency, fs):
    """Independent oracle: direct discrete-frequency evaluation."""
    n = np.arange(kernel.size)
    return abs(np.sum(kernel * np.exp(-2j * np.pi * frequency / fs * n)))


class TestDesignFir:
    def test_unit_dc_gain(self):
        kernel = design_fir(FirSpec())
        assert abs(kernel.sum() - 1.0) < 1e-9

    def test_attenuation_at_cutoff(self):
        kernel = design_fir(FirSpec(order=1000, cutoff=100.0, fs=2000.0))
        level_db = 20.0 * math.log10(kernel_response(kernel, 100.0, 2000.0))
        assert -8.0 <= level_db <= -5.0   # windowed sinc sits near -6 dB

    def test_exact_symmetry(self):
        kernel = design_fir(FirSpec())
        assert np.array_equal(kernel, kernel[::-1])

    def test_passband_and_stopband(self):
        kernel = design_fir(FirSpec())
        assert kernel_response(kernel, 10.0, 2000.0) == pytest.approx(1.0, abs=1e-3)
        assert kernel_response(kernel, 400.0, 2000.0) < 1e-3

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            FirSpec(order=999)          # odd order
        with pytest.raises(ParameterError):
            FirSpec(cutoff=1000.0)      # at Nyquist
        with pytest.raises(ParameterError):
            FirSpec(order=0)


class TestFilterZeroPhase:
    def test_constant_preserved_including_edges(self):
        kernel = design_fir(FirSpec())
        signal = np.full(5000, 3.7)
        out = filter_zero_phase(kernel, signal)
        assert out.shape == signal.shape
        np.testing.assert_allclose(out, 3.7, rtol=1e-12)

    @pytest.mark.parametrize("frequency", [2.0, 10.0, 40.0, 80.0])
    def test_in_band_sinusoid_no_lag(self, frequency):
        fs = 2000.0
        t = np.arange(8000) / fs
        signal = np.sin(2 * np.pi * frequency * t)
        out = filter_zero_phase(design_fir(FirSpec()), signal)
        # cross-correlation peaks at zero lag; search within half a period
        # so the periodic correlation cannot alias to +/- one cycle
        half_period = int(fs / frequency / 2)
        window = min(25, half_period - 1)
        lags = range(-window, window + 1)
        scores = [np.dot(signal[1000:6000], out[1000 + lag:6000 + lag]) for lag in lags]
        assert lags[int(np.argmax(scores))] == 0
        if frequency <= 40.0:
            assert out[1000:7000].max() == pytest.approx(1.0, rel=1e-2)

    def test_cutoff_sinusoid_attenuated_to_half(self):
        fs = 2000.0
        t = np.arange(8000) / fs
        signal = np.sin(2 * np.pi * 100.0 * t)
        out = filter_zero_phase(design_fir(FirSpec()), signal)
        amplitude = out[2000:6000].max()
        assert 10 ** (-8 / 20) <= amplitude <= 10 ** (-5 / 20)

    def test_signal_too_short(self):
        kernel = design_fir(FirSpec())
        with pytest.raises(ParameterError):
            filter_zero_phase(kernel, np.zeros(500))

    @given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0), seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        kernel = design_fir(FirSpec(order=100))
        x = rng.normal(size=1500)
        y = rng.normal(size=1500)
        lhs = filter_zero_phase(kernel, a * x + b * y)
        rhs = a * filter_zero_phase(kernel, x) + b * filter_zero_phase(kernel, y)
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(lhs).max())


class TestComputeAmado:
    def test_constant_trace_zero(self):
        result = compute_amado(np.full(60000, 2e-3), 1.0, 30.0, 15.0)
        assert result.amado == 0.0

    def test_sinusoid_peak_to_peak(self):
        fs = 2000.0
        t = np.arange(int(30 * fs)) / fs
        a = 1.7e-3
        result = compute_amado(a * np.sin(2 * np.pi * 5.0 * t), 5.0, 30.0, 15.0)
        assert result.amado == pytest.approx(2 * a * 1e3, rel=1e-2)
        assert result.std < 0.05 * result.amado

    def test_saw_with_offset_matches_direct_scan(self):
        # brute-force oracle: per-period max - min on the filtered record
        fs = 2000.0
        f = 2.0
        t = np.arange(int(30 * fs)) / fs
        saw = 1e-3 * ((t * f) % 1.0) + 5e-4 + 2e-4 * np.sin(2 * np.pi * 0.2 * t)
        result = compute_amado(saw, f, 30.0, 15.0)
        filtered = filter_zero_phase(design_fir(FirSpec()), saw)
        expected = []
        k = int(15 * f)
        while k < int(30 * f):
            i0 = math.ceil(k * fs / f)
            i1 = math.ceil((k + 1) * fs / f)
            seg = filtered[i0:i1]
            expected.append((seg.max() - seg.min()) * 1e3)
            k += 1
        assert result.mado == pytest.approx(np.array(expected), rel=1e-12)
        assert result.amado == pytest.approx(np.mean(expected), rel=1e-12)

    def test_too_few_periods_rejected(self):
        with pytest.raises(WindowError):
            compute_amado(np.zeros(4000), 1.0, 2.0, 2.0)

    def test_window_longer_than_run_rejected(self):
        with pytest.raises(ParameterError):
            compute_amado(np.zeros(60000), 1.0, 30.0, 31.0)

    @given(power=st.integers(-6, 6))
    @settings(max_examples=13, deadline=None)
    def test_scale_equivariance_exact_for_binary_scales(self, power):
        fs = 2000.0
        t = np.arange(int(12 * fs)) / fs
        base = 1e-3 * np.sin(2 * np.pi * 3.0 * t) + 2e-4 * np.sin(2 * np.pi * 7.0 * t)
        c = 2.0 ** power
        r1 = compute_amado(base, 3.0, 12.0, 6.0)
        r2 = compute_amado(c * base, 3.0, 12.0, 6.0)
        assert r2.amado == c * r1.amado

    def test_scale_equivariance_general(self):
        fs = 2000.0
        t = np.arange(int(12 * fs)) / fs
        base = 1e-3 * np.sin(2 * np.pi * 3.0 * t)
        r1 = compute_amado(base, 3.0, 12.0, 6.0)
        r2 = compute_amado(0.3183 * base, 3.0, 12.0, 6.0)
        assert r2.amado == pytest.approx(0.3183 * r1.amado, rel=1e-12)


class TestProtocol:
    def test_fir_rate_must_match_the_drive(self):
        with pytest.raises(ParameterError, match="^fir"):
            Protocol(fir=FirSpec(fs=4000.0))
        Protocol(PwmConfig(sample_rate=4000.0), FirSpec(fs=4000.0))

    @pytest.mark.parametrize("run_length, steady_window, name", [
        (0.0, 0.0, "run_length"), (4.0, 0.0, "steady_window"), (4.0, 5.0, "steady_window"),
    ])
    def test_run_and_window_checked(self, run_length, steady_window, name):
        with pytest.raises(ParameterError, match=f"^{name}"):
            Protocol(run_length=run_length, steady_window=steady_window)

    def test_cell_is_the_bimorph_drive_of_the_template(self):
        template = PwmConfig(phase_shift=0.4, mode="unimorph-up", sample_rate=4000.0)
        cell = Protocol(template, FirSpec(fs=4000.0)).cell(5.0, 0.3)
        assert cell == PwmConfig(frequency=5.0, duty_cycle=0.3, phase_shift=0.4,
                                 mode="bimorph", sample_rate=4000.0)

    @pytest.mark.parametrize("frequency, duty_cycle, name", [
        (5.0, 0.6, "duty_cycle"),       # the bimorph on-windows overlap
        (250.0, 0.1, "sample_rate"),    # below 10 samples per period
    ], ids=["overlap", "rate"])
    def test_cell_the_drive_rejects_is_rejected(self, frequency, duty_cycle, name):
        with pytest.raises(ParameterError, match=f"^{name}"):
            Protocol().cell(frequency, duty_cycle)

    @pytest.mark.parametrize("frequency, run_length, steady_window, periods", [
        (1.0, 4.0, 2.0, 2), (5.0, 30.0, 0.5, 2), (1.0, 2.0, 1.0, 1), (0.3, 30.0, 5.0, 1),
    ])
    def test_cell_with_fewer_than_three_whole_periods_rejected(
            self, frequency, run_length, steady_window, periods):
        protocol = Protocol(run_length=run_length, steady_window=steady_window)
        with pytest.raises(WindowError, match=f"holds {periods} whole periods"):
            protocol.cell(frequency, 0.1)

    @pytest.mark.parametrize("fs", [2000.0, 3000.0, 4000.0])
    def test_periods_start_on_channel_a_rising_edges(self, fs):
        protocol = Protocol(PwmConfig(sample_rate=fs), FirSpec(fs=fs), 6.0, 4.0)
        for frequency in (1.0, 2.5, 3.0, 7.0, 13.0, 20.0):
            drive = make_pwm_pair(protocol.cell(frequency, 0.1), CircuitParams(), 6.0)
            edges = protocol.period_edges(frequency, drive.i_t.size)
            assert len(edges) - 1 == 4.0 * frequency   # every whole period of the 4 s window
            assert np.all(np.diff(edges) > 0) and edges[-1] == drive.i_t.size
            for e in edges[:-1]:
                assert drive.i_t[e] > 0 and (e == 0 or drive.i_t[e - 1] == 0), (frequency, e)


class TestRunSweep:
    def test_zero_duty_column(self, props, env, geom, circuit):
        table = run_sweep([1.0, 5.0], [0.0], circuit, props, env, geom,
                          protocol=Protocol(run_length=6.0, steady_window=4.0))
        assert all(r.amado == 0.0 for r in table.rows)
        assert all(r.normalized == 0.0 for r in table.rows)

    def test_row_ordering_and_normalization(self, props, env, geom, circuit):
        table = run_sweep([5.0, 1.0], [0.10, 0.05], circuit, props, env, geom,
                          protocol=Protocol(run_length=8.0, steady_window=4.0))
        keys = [(r.frequency, r.duty_cycle) for r in table.rows]
        assert keys == sorted(keys)
        for f in (1.0, 5.0):
            group = [r for r in table.rows if r.frequency == f]
            assert max(r.normalized for r in group) == 1.0
            top = max(group, key=lambda r: r.amado)
            assert top.normalized == 1.0

    def test_failed_cell_recorded_not_dropped(self, props, env, geom, circuit):
        # duty cycle above 0.5 overlaps in bimorph mode and must error per cell
        table = run_sweep([1.0], [0.10, 0.60], circuit, props, env, geom,
                          protocol=Protocol(run_length=6.0, steady_window=3.0))
        assert (1.0, 0.60) in table.errors
        assert len(table.rows) == 1
        assert table.rows[0].duty_cycle == 0.10


class TestCalibratedSweepTrends:
    def test_per_frequency_maximum_at_top_duty(self, calibrated_sweep):
        # the monotone duty-cycle trend puts every per-frequency maximum
        # in the 10% column
        for f in (1.0, 5.0, 10.0, 15.0, 20.0):
            assert calibrated_sweep.row(f, 0.10).amado == calibrated_sweep.av_max[f]
            assert calibrated_sweep.row(f, 0.10).normalized == 1.0

    def test_max_amado_strictly_decreasing_in_frequency(self, calibrated_sweep):
        values = [calibrated_sweep.av_max[f] for f in (1.0, 5.0, 10.0, 15.0, 20.0)]
        assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.xfail(strict=True, reason=(
    "the phase step reads the previous step's stress, and the loop stress -> xi -> "
    "stress has a gain far above 1; at t_amb - 1e-6 / t_amb / t_amb + 1e-6 K the "
    "AMADO reads 3.233 / 3.310 / 3.617 mm at 1 Hz/5% (an 11.6% spread) and "
    "0.380 / 0.349 / 0.348 mm at 10 Hz/10% (9.2%)"))
def test_amado_is_well_conditioned_in_ambient_temperature(props, env, geom, circuit):
    for frequency, duty_cycle in ((1.0, 0.05), (10.0, 0.10)):
        amado = [measure_amado(Protocol(), frequency, duty_cycle, circuit, props,
                               replace(env, t_amb=env.t_amb + dt), geom).amado
                 for dt in (-1e-6, 0.0, 1e-6)]
        assert max(amado) - min(amado) < 0.01 * amado[1], (frequency, duty_cycle, amado)
