"""Two-channel PWM excitation and electrical power bookkeeping.

The actuator is driven by two PWM voltages with identical frequency and
duty cycle and a fixed phase shift (180 deg by default), so the two wire
groups are never Joule heated at the same time.  The electrical model is
a constant-current on state: while a channel is high its wire group
behaves as a resistor r_a carrying i_on.  Sample voltages are therefore
actuator-side (i * r_a, about 1.11 V at the defaults), not the 15 V
supply rail; losses in the tether wires and switching board are out of
scope and excluded from the power estimate.

Instantaneous power is p_a = (i_t^2 + i_b^2) * r_a, both sub-circuits
having the same resistance by design.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DriveError, ParameterError, WindowError

MODES = ("bimorph", "unimorph-up", "unimorph-down")


@dataclass(frozen=True)
class PwmConfig:
    """Excitation waveform parameters.

    duty_cycle and phase_shift are fractions of the PWM period.
    on_height is the supply-side on voltage (15 V in the characterization
    setup); generated samples carry the actuator-side voltage instead.
    """

    frequency: float = 1.0          # Hz
    duty_cycle: float = 0.10
    on_height: float = 15.0         # V, supply side
    phase_shift: float = 0.5        # fraction of period, 0.5 = 180 deg
    mode: str = "bimorph"
    sample_rate: float = 2000.0     # Hz

    def __post_init__(self):
        if self.frequency <= 0:
            raise ParameterError(f"frequency must be > 0, got {self.frequency}")
        if not 0.0 <= self.duty_cycle <= 1.0:
            raise ParameterError(f"duty_cycle must be in [0, 1], got {self.duty_cycle}")
        if self.sample_rate < 10.0 * self.frequency:
            raise ParameterError(
                f"sample_rate {self.sample_rate} Hz must be >= 10x frequency {self.frequency} Hz")
        if not 0.0 <= self.phase_shift < 1.0:
            raise ParameterError(f"phase_shift must be in [0, 1), got {self.phase_shift}")
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.on_height <= 0:
            raise ParameterError(f"on_height must be > 0, got {self.on_height}")

    @property
    def period(self):
        return 1.0 / self.frequency


@dataclass(frozen=True)
class CircuitParams:
    """Per-side SMA sub-circuit abstraction: resistance and current limit."""

    r_a: float = 4.45       # ohm, each sub-circuit
    i_limit: float = 0.250  # A, above this the 52-AWG tethers overheat
    i_on: float = 0.250     # A, constant current while a channel is on

    def __post_init__(self):
        if self.r_a <= 0:
            raise ParameterError(f"r_a must be > 0, got {self.r_a}")
        if not 0.0 < self.i_on <= self.i_limit:
            raise ParameterError(
                f"i_on must satisfy 0 < i_on <= i_limit ({self.i_limit} A), got {self.i_on}; "
                "higher currents thermally damage the tether wires")

    @property
    def on_voltage(self):
        """Actuator-side on voltage, i_on * r_a."""
        return self.i_on * self.r_a


@dataclass(frozen=True)
class DriveTrace:
    """Sampled two-channel excitation."""

    t: np.ndarray
    v_t: np.ndarray
    v_b: np.ndarray
    i_t: np.ndarray
    i_b: np.ndarray
    config: PwmConfig


@dataclass(frozen=True)
class PowerTrace:
    """Instantaneous power samples and their mean over whole periods."""

    t: np.ndarray
    p_a: np.ndarray   # W
    p_bar: float      # W


def _windows_overlap(duty_cycle, phase_shift):
    """True if the two on-windows [0, DC) and [ps, ps+DC) intersect on the circle."""
    if duty_cycle == 0.0:
        return False
    if duty_cycle > phase_shift:
        return True
    return phase_shift + duty_cycle > 1.0


def _on_mask(k, frequency, sample_rate, offset_frac, duty_cycle):
    # Work in the per-period sample coordinate (k*f mod fs) so integer-valued
    # frequencies place window edges exactly on the sample grid.
    pos = np.mod(k * frequency - offset_frac * sample_rate, sample_rate)
    thr = duty_cycle * sample_rate
    snapped = np.round(thr)
    if abs(thr - snapped) < 1e-6:
        thr = snapped
    return pos < thr


def make_pwm_pair(cfg: PwmConfig, params: CircuitParams, duration: float) -> DriveTrace:
    """Generate the phase-shifted channel pair sampled at cfg.sample_rate.

    Channel A (top) occupies [0, DC*T) of each period, channel B the same
    window shifted by phase_shift*T.  Unimorph modes silence the opposite
    channel.  Raises DriveError if the bimorph windows would overlap or
    the commanded current exceeds the tether limit.
    """
    if duration <= 0:
        raise ParameterError(f"duration must be > 0, got {duration}")
    if params.i_on > params.i_limit:
        raise DriveError(f"i_on {params.i_on} A exceeds tether limit {params.i_limit} A")
    if cfg.mode == "bimorph" and _windows_overlap(cfg.duty_cycle, cfg.phase_shift):
        raise DriveError(
            f"on-windows overlap: DC={cfg.duty_cycle}, phase_shift={cfg.phase_shift}")

    n = int(round(duration * cfg.sample_rate))
    k = np.arange(n, dtype=np.float64)
    t = k / cfg.sample_rate

    on_a = _on_mask(k, cfg.frequency, cfg.sample_rate, 0.0, cfg.duty_cycle)
    on_b = _on_mask(k, cfg.frequency, cfg.sample_rate, cfg.phase_shift, cfg.duty_cycle)
    if cfg.mode == "unimorph-up":
        on_b = np.zeros_like(on_b)
    elif cfg.mode == "unimorph-down":
        on_a = np.zeros_like(on_a)

    v_on = params.on_voltage
    v_t = np.where(on_a, v_on, 0.0)
    v_b = np.where(on_b, v_on, 0.0)
    i_t = v_t / params.r_a
    i_b = v_b / params.r_a
    return DriveTrace(t=t, v_t=v_t, v_b=v_b, i_t=i_t, i_b=i_b, config=cfg)


def instantaneous_power(i_t, i_b, params: CircuitParams):
    """p_a = (i_t^2 + i_b^2) * r_a; accepts scalars or arrays."""
    return (np.asarray(i_t) ** 2 + np.asarray(i_b) ** 2) * params.r_a


def average_power(trace: DriveTrace, params: CircuitParams) -> PowerTrace:
    """Instantaneous power over the trace and its mean.

    The trace must span an integer number of PWM periods so the mean is
    well defined; for ideal PWM it equals (DC_t + DC_b) * i_on^2 * r_a.
    """
    periods = trace.t.size * trace.config.frequency / trace.config.sample_rate
    if abs(periods - round(periods)) > 1e-9 or round(periods) < 1:
        raise WindowError(
            f"trace spans {periods:.6f} periods; an integer number is required")
    p_a = instantaneous_power(trace.i_t, trace.i_b, params)
    return PowerTrace(t=trace.t, p_a=p_a, p_bar=float(np.mean(p_a)))
