"""Measurement pipeline: zero-phase FIR filtering, MADO/AMADO, sweeps.

Mirrors the characterization protocol: 30 s runs sampled at 2 kHz, a
zero-phase low-pass FIR (order 1000, 100 Hz cutoff, Hamming windowed
sinc) applied to the displacement record, and the peak-to-peak output per
actuation period (MADO) averaged over the final 15 s of steady-state data
(AMADO).  Period boundaries are anchored to the channel-A rising edges of
the drive, i.e. to integer multiples of 1/f.

Zero phase is realized by exact group-delay compensation of the symmetric
kernel: the signal is padded by endpoint replication with order/2 samples
on each side and convolved in 'valid' mode, which for a linear-phase
kernel is mathematically identical to forward-backward filtering with the
same magnitude response.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .drive import CircuitParams, PwmConfig
from .errors import ParameterError, SimulationError, WindowError
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
        if self.order <= 0 or self.order % 2 != 0:
            raise ParameterError(f"order must be a positive even integer, got {self.order}")
        if not 0.0 < self.cutoff < self.fs / 2.0:
            raise ParameterError(
                f"cutoff must satisfy 0 < cutoff < fs/2 = {self.fs / 2.0}, got {self.cutoff}")


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


def _period_slices(frequency, fs, t_start, t_end):
    """Sample index ranges of the whole periods inside [t_start, t_end)."""
    k_first = math.ceil(t_start * frequency - 1e-9)
    k_last = math.floor(t_end * frequency + 1e-9)  # boundary count, periods = k_last - k_first
    slices = []
    for k in range(k_first, k_last):
        i0 = math.ceil(k * fs / frequency)
        i1 = math.ceil((k + 1) * fs / frequency)
        slices.append((i0, i1))
    return slices


def compute_amado(trace, frequency: float, run_length: float, steady_window: float,
                  fir: FirSpec = FirSpec()) -> AmadoResult:
    """Filter a displacement trace and average the per-period peak-to-peak.

    trace is the raw displacement record in meters sampled at fir.fs; the
    result is reported in millimeters like the published tables.
    """
    fs = fir.fs
    trace = np.asarray(trace, dtype=np.float64)
    if steady_window > run_length:
        raise ParameterError(
            f"steady_window {steady_window} s exceeds run_length {run_length} s")
    expected = int(round(run_length * fs))
    if abs(trace.size - expected) > 1:
        raise ParameterError(
            f"trace has {trace.size} samples, expected {expected} for {run_length} s at {fs} Hz")
    filtered = filter_zero_phase(design_fir(fir), trace)

    slices = _period_slices(frequency, fs, run_length - steady_window, run_length)
    slices = [(i0, min(i1, trace.size)) for i0, i1 in slices if i0 < trace.size]
    if len(slices) < 3:
        raise WindowError(
            f"steady window holds {len(slices)} whole periods of {frequency} Hz; need >= 3")
    mado = np.array([filtered[i0:i1].max() - filtered[i0:i1].min() for i0, i1 in slices])
    mado_mm = mado * 1e3
    return AmadoResult(frequency=frequency, duty_cycle=math.nan, mado=mado_mm,
                       amado=float(mado_mm.mean()), std=float(mado_mm.std(ddof=1)))


def measure_amado(pwm: PwmConfig, frequency: float, duty_cycle: float,
                  params: CircuitParams, props: WireProperties, env: Environment,
                  geom: ActuatorGeometry, run_length: float, steady_window: float,
                  fir: FirSpec | None = None) -> AmadoResult:
    """AMADO of one bimorph drive cell: PWM drive, coupled trace, filtered MADO.

    pwm is the drive template: the cell keeps its on height, phase shift
    and sample rate and replaces frequency and duty cycle.  fir defaults
    to the standard design at the template's sample rate.
    """
    cell = replace(pwm, frequency=frequency, duty_cycle=duty_cycle, mode="bimorph")
    if fir is None:
        fir = FirSpec(fs=cell.sample_rate)
    trace = run_mode_trace(cell, params, props, env, geom, run_length)
    result = compute_amado(trace.delta, frequency, run_length, steady_window, fir)
    return replace(result, duty_cycle=duty_cycle)


def run_sweep(frequencies, duty_cycles, params: CircuitParams, props: WireProperties,
              env: Environment, geom: ActuatorGeometry,
              run_length: float = RUN_LENGTH, steady_window: float = STEADY_WINDOW,
              fir: FirSpec | None = None, pwm: PwmConfig = PwmConfig(),
              threads: int = 1) -> SweepTable:
    """Simulate every (f, DC) cell and tabulate AMADO.

    Each cell is cut from the pwm template (see measure_amado).  Cells are
    independent; the thread count changes wall time only, never the table
    contents.  A failed cell is recorded under .errors with its exception
    message rather than dropped.
    """
    cells = sorted((float(f), float(dc)) for f in frequencies for dc in duty_cycles)

    def work(cell):
        f, dc = cell
        try:
            return cell, measure_amado(pwm, f, dc, params, props, env, geom,
                                       run_length, steady_window, fir), None
        except SimulationError as exc:
            return cell, None, f"{type(exc).__name__}: {exc}"

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(work, cells))
    else:
        outcomes = [work(c) for c in cells]

    results = [res for _, res, _ in outcomes if res is not None]
    errors = {cell: err for cell, res, err in outcomes if res is None}
    av_max = {}
    for res in results:
        av_max[res.frequency] = max(av_max.get(res.frequency, 0.0), res.amado)
    rows = tuple(replace(res, normalized=res.amado / av_max[res.frequency]
                         if av_max[res.frequency] > 0.0 else 0.0) for res in results)
    return SweepTable(rows=rows, av_max=av_max, errors=errors)


def spectral_energy_below(trace, fs: float, f_limit: float,
                          exclude_dc: bool = True) -> float:
    """Summed power of spectral bins strictly below f_limit.

    Used to quantify the slowly fluctuating displacement bias seen at
    high drive frequencies.
    """
    trace = np.asarray(trace, dtype=np.float64)
    spectrum = np.fft.rfft(trace - trace.mean() if exclude_dc else trace)
    freqs = np.fft.rfftfreq(trace.size, d=1.0 / fs)
    mask = freqs < f_limit
    if exclude_dc:
        mask &= freqs > 0.0
    return float(np.sum(np.abs(spectrum[mask]) ** 2)) / trace.size
