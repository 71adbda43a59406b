"""Measurement pipeline: zero-phase FIR filtering, MADO/AMADO, sweeps.

Mirrors the characterization protocol: 30 s runs sampled at 2 kHz, a
zero-phase low-pass FIR (order 1000, 100 Hz cutoff, Hamming windowed
sinc) applied to the displacement record, and the peak-to-peak output per
actuation period (MADO) averaged over the final 15 s of steady-state data
(AMADO).  Period boundaries are anchored to the channel-A rising edges of
the drive, i.e. to integer multiples of 1/f.  One Protocol value holds
that protocol and decides which (f, DC) cells it can measure.

Zero phase is realized by exact group-delay compensation of the symmetric
kernel: the signal is padded by endpoint replication with order/2 samples
on each side and convolved in 'valid' mode, which for a linear-phase
kernel is mathematically identical to forward-backward filtering with the
same magnitude response.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .drive import CircuitParams, PwmConfig
from .errors import ParameterError, SimulationError, WindowError, require
from .mechanics import ActuatorGeometry, run_mode_trace
from .sma import Environment, WireProperties

RUN_LENGTH = 30.0      # s, one characterization run
STEADY_WINDOW = 15.0   # s, the final stretch of a run averaged into AMADO


@dataclass(frozen=True)
class FirSpec:
    """Hamming-windowed sinc low-pass design; order must be even for an
    integer group delay."""

    order: int = 1000      # taps minus one
    cutoff: float = 100.0  # Hz
    fs: float = PwmConfig.sample_rate  # Hz, the drive's default sampling

    def __post_init__(self):
        require("order", self.order, lambda v: v > 0 and v % 2 == 0, "a positive even integer")
        require("fs", self.fs, lambda v: v > 0, "> 0")
        require("cutoff", self.cutoff, lambda v: 0.0 < v < self.fs / 2.0,
                f"in (0, fs/2 = {self.fs / 2.0})")


@dataclass(frozen=True)
class Protocol:
    """The characterization protocol: the PWM template each cell is cut
    from, the FIR design, the run length and the steady window (s)."""

    pwm: PwmConfig = PwmConfig()
    fir: FirSpec = FirSpec()
    run_length: float = RUN_LENGTH
    steady_window: float = STEADY_WINDOW

    def __post_init__(self):
        require("run_length", self.run_length, lambda v: v > 0, "> 0 s")
        require("steady_window", self.steady_window, lambda v: 0 < v <= self.run_length,
                f"in (0, run_length = {self.run_length}] s")
        if self.fir.fs != self.pwm.sample_rate:
            raise ParameterError(f"fir fs {self.fir.fs} Hz differs from the drive's "
                                 f"sample_rate {self.pwm.sample_rate} Hz")

    def cell(self, frequency, duty_cycle) -> PwmConfig:
        """The bimorph drive of the (f, DC) cell; raises ParameterError or
        WindowError if the cell cannot be measured."""
        cell = replace(self.pwm, frequency=frequency, duty_cycle=duty_cycle, mode="bimorph")
        self.period_edges(frequency, int(round(self.run_length * cell.sample_rate)))
        return cell

    def period_edges(self, frequency, size) -> np.ndarray:
        """Start sample of each whole period k/f of the steady window that
        starts inside a record of size samples, then the end of the last
        one; WindowError below 3 periods."""
        fs = self.pwm.sample_rate
        first = math.ceil((self.run_length - self.steady_window) * frequency - 1e-9)
        stop = math.floor(self.run_length * frequency + 1e-9)
        while stop > first and math.ceil((stop - 1) * fs / frequency) >= size:
            stop -= 1
        if stop - first < 3:
            raise WindowError(f"steady window holds {max(stop - first, 0)} whole periods "
                              f"of {frequency} Hz; need >= 3")
        # in bulk, since every cell's edges are built when the config is read
        return np.minimum(np.ceil(np.arange(first, stop + 1) * fs / frequency), size).astype(int)


@dataclass(frozen=True)
class AmadoResult:
    """Per-cycle peak-to-peak displacements and their steady-state mean."""

    frequency: float            # Hz
    duty_cycle: float           # fraction
    mado: np.ndarray            # mm, one entry per whole period
    amado: float                # mm
    std: float                  # mm, sample standard deviation
    normalized: float = math.nan  # fraction of the per-frequency maximum


@dataclass(frozen=True)
class SweepTable:
    """AMADO results over a frequency x duty-cycle grid, ordered by (f, DC)."""

    rows: tuple                  # of AmadoResult
    av_max: dict                 # frequency -> max AMADO (mm)
    errors: dict = field(default_factory=dict)  # (f, DC) -> message for failed cells

    def row(self, frequency, duty_cycle):
        for r in self.rows:
            if r.frequency == frequency and r.duty_cycle == duty_cycle:
                return r
        raise KeyError((frequency, duty_cycle))


def design_fir(spec: FirSpec) -> np.ndarray:
    """Symmetric windowed-sinc kernel with unit DC gain."""
    half = spec.order // 2
    m = np.arange(half + 1, dtype=np.float64)           # offsets 0..half
    taps_half = np.sinc(2.0 * spec.cutoff / spec.fs * m)
    window = np.hamming(spec.order + 1)[half:]
    taps_half = taps_half * window
    kernel = np.concatenate((taps_half[:0:-1], taps_half))  # mirror for exact symmetry
    return kernel / kernel.sum()


def filter_zero_phase(kernel: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """Low-pass with zero phase lag; output length equals input length."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ParameterError("signal must be one-dimensional")
    if signal.size <= kernel.size:
        raise ParameterError(
            f"signal length {signal.size} must exceed kernel length {kernel.size}")
    pad = kernel.size // 2
    padded = np.concatenate((np.full(pad, signal[0]), signal, np.full(pad, signal[-1])))
    return np.convolve(padded, kernel, mode="valid")


def compute_amado(trace, frequency: float, run_length: float, steady_window: float,
                  fir: FirSpec = FirSpec()) -> AmadoResult:
    """Filter a displacement trace and average the per-period peak-to-peak.

    trace is the raw displacement record in meters sampled at fir.fs; the
    result is reported in millimeters like the published tables.
    """
    fs = fir.fs
    trace = np.asarray(trace, dtype=np.float64)
    protocol = Protocol(PwmConfig(sample_rate=fs), fir, run_length, steady_window)
    expected = int(round(run_length * fs))
    if abs(trace.size - expected) > 1:
        raise ParameterError(
            f"trace has {trace.size} samples, expected {expected} for {run_length} s at {fs} Hz")
    edges = protocol.period_edges(frequency, trace.size)
    filtered = filter_zero_phase(design_fir(fir), trace)
    mado = np.array([filtered[i0:i1].max() - filtered[i0:i1].min()
                     for i0, i1 in zip(edges, edges[1:])])
    mado_mm = mado * 1e3
    return AmadoResult(frequency=frequency, duty_cycle=math.nan, mado=mado_mm,
                       amado=float(mado_mm.mean()), std=float(mado_mm.std(ddof=1)))


def measure_amado(protocol: Protocol, frequency: float, duty_cycle: float,
                  params: CircuitParams, props: WireProperties, env: Environment,
                  geom: ActuatorGeometry) -> AmadoResult:
    """AMADO of one bimorph drive cell: PWM drive, coupled trace, filtered MADO.

    The cell's drive is protocol.cell(frequency, duty_cycle); the trace runs
    protocol.run_length and is filtered with protocol.fir.
    """
    cell = protocol.cell(frequency, duty_cycle)
    trace = run_mode_trace(cell, params, props, env, geom, protocol.run_length)
    result = compute_amado(trace.delta, frequency, protocol.run_length,
                           protocol.steady_window, protocol.fir)
    return replace(result, duty_cycle=duty_cycle)


def run_sweep(frequencies, duty_cycles, params: CircuitParams, props: WireProperties,
              env: Environment, geom: ActuatorGeometry,
              protocol: Protocol = Protocol()) -> SweepTable:
    """Measure every (f, DC) cell under protocol in (f, DC) order and tabulate AMADO.

    A cell that fails, including one the protocol cannot measure, is
    recorded under .errors with its exception message rather than dropped.
    """
    results = []
    errors = {}
    for f, dc in sorted((float(f), float(dc)) for f in frequencies for dc in duty_cycles):
        try:
            results.append(measure_amado(protocol, f, dc, params, props, env, geom))
        except SimulationError as exc:
            errors[(f, dc)] = f"{type(exc).__name__}: {exc}"
    av_max = {}
    for res in results:
        av_max[res.frequency] = max(av_max.get(res.frequency, 0.0), res.amado)
    rows = tuple(replace(res, normalized=res.amado / av_max[res.frequency]
                         if av_max[res.frequency] > 0.0 else 0.0) for res in results)
    return SweepTable(rows=rows, av_max=av_max, errors=errors)


def spectral_energy_below(trace, fs: float, f_limit: float) -> float:
    """Summed power of the mean-removed trace's bins in (0, f_limit).

    Used to quantify the slowly fluctuating displacement bias seen at
    high drive frequencies.
    """
    trace = np.asarray(trace, dtype=np.float64)
    spectrum = np.fft.rfft(trace - trace.mean())
    freqs = np.fft.rfftfreq(trace.size, d=1.0 / fs)
    mask = (freqs > 0.0) & (freqs < f_limit)
    return float(np.sum(np.abs(spectrum[mask]) ** 2)) / trace.size
