"""Quasi-static mechanics of the antagonistic bimorph.

The central beam-spring is lumped into a single rotational stiffness
k_beam about the neutral pose; the tip moves by delta = g_tip * theta
(up positive).  Each wire group attaches at a moment arm r_m from the
neutral axis, so beam rotation theta changes the kinematic wire strain by
-/+ gamma * theta (gamma = r_m / active_length) for the top/bottom group.
At assembly both groups are detwinned martensite stretched by eps_l plus an
elastic pre-strain, which defines the relaxed pose theta = 0.

Equilibrium solves the torque balance
    r_m * A * (sigma_top - sigma_bottom) - k_beam * theta = 0
in closed form.  With G = r_m * A, E = e_a + xi (e_m - e_a) and
free = eps_l + pre_strain - eps_l xi >= pre_strain >= 0 (each wire's strain
beyond its free length at theta = 0), sigma = E (free -/+ gamma theta) while
taut, so
    theta = G (E_t free_t - E_b free_b) / D,  D = G gamma (E_t + E_b) + k_beam.
Both wires are taut there: free_t - gamma theta
= [free_t (G gamma E_b + k_beam) + G gamma E_b free_b] / D >= 0, and the
bottom wire likewise, so the balance is linear and no slack regime occurs.

Clearance: the wires are installed at a small angle alpha to the device
axis, the wire line crossing the axis a mount_offset behind the base
anchor.  With alpha = 0 the wire chords lie in the bending plane and the
deflected beam sweeps through them; the angled layout carries the chords
past the beam laterally.  clearance_check measures the minimum distance
between the slack-side straight wire chord and the bent beam (a
constant-curvature arc, body envelope radius beam_radius) over a rotation
envelope and raises if the wires would touch the beam, the failure mode
that rules out parallel wire placement.

At 10 mg device mass and drive below ~20 Hz, inertial torques are far
below the elastic ones, so the beam is always in quasi-static balance.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .drive import PwmConfig, CircuitParams, make_pwm_pair
from .errors import ClearanceError, ParameterError
from .sma import (BRANCH_HEATING, Environment, WireProperties, WireState, _band,
                  _branch_trace, _final_wire, _phase_step, _require_finite, _sample_arrays,
                  _tension_from_kinematics, relaxed_state, temperature_trace)


@dataclass(frozen=True)
class ActuatorGeometry:
    """Bimorph geometry and lumped structural constants."""

    length: float = 14e-3            # m, device length
    alpha: float = math.radians(3.0)  # rad, wire mounting angle
    r_m: float = 1.6e-3              # m, wire moment arm about the neutral axis
    k_beam: float = 8e-3             # N m / rad, beam-spring rotational stiffness
    g_tip: float = 17e-3             # m of tip travel per rad of rotation
    mount_offset: float = 5e-3       # m, wire line crosses the axis this far behind the base
    beam_radius: float = 7.5e-5      # m, envelope radius of the central beam
    anchor_standoff: float = 1e-4    # m, wire anchor height above/below the beam plane

    def __post_init__(self):
        for name in ("length", "r_m", "k_beam", "g_tip", "mount_offset", "beam_radius",
                     "anchor_standoff"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0.0 <= self.alpha < math.pi / 2:
            raise ParameterError(f"alpha must be in [0, pi/2), got {self.alpha}")


@dataclass(frozen=True)
class EquilibriumResult:
    theta: float         # rad
    delta: float         # m, tip displacement, up positive
    sigma_top: float     # Pa
    sigma_bottom: float  # Pa
    residual: float      # N m
    iterations: int      # always 1 (closed form); kept for callers that report it


@dataclass(frozen=True)
class ActuatorState:
    """The two wire groups; theta and the stresses are the balance of their xi pair."""

    top: WireState
    bottom: WireState


@dataclass(frozen=True)
class DisplacementTrace:
    """Simulated laser-sensor record plus wire diagnostics."""

    t: np.ndarray
    delta: np.ndarray          # m
    theta: np.ndarray
    temp_top: np.ndarray
    temp_bottom: np.ndarray
    xi_top: np.ndarray
    xi_bottom: np.ndarray
    sigma_top: np.ndarray
    sigma_bottom: np.ndarray
    max_residual: float
    final_state: ActuatorState
    steady_index: int          # first sample of the cycle the records repeat, size if none
    cycle_length: int          # samples per repeat of the coupled state, 0 if none


# ---------------------------------------------------------------------------
# equilibrium

def _balance(geom: ActuatorGeometry, props: WireProperties):
    """The closed-form torque balance of wires props in geometry geom.

    Returns balance(xi_t, xi_b) -> (theta, sigma_top, sigma_bottom,
    residual), solved for the martensite fractions of the top and bottom
    wire (see the module docstring).  The clamp in _tension_from_kinematics
    only guards rounding: both wires are taut.
    """
    eps_assembly = props.eps_l + props.pre_strain
    gamma = geom.r_m / props.active_length
    torque_gain = geom.r_m * props.cross_section
    k_beam, e_a, e_m, eps_l = geom.k_beam, props.e_a, props.e_m, props.eps_l

    def balance(xi_t, xi_b):
        e_top = e_a + xi_t * (e_m - e_a)
        e_bot = e_a + xi_b * (e_m - e_a)
        theta = (torque_gain * (e_top * (eps_assembly - eps_l * xi_t)
                                - e_bot * (eps_assembly - eps_l * xi_b))
                 / (torque_gain * gamma * (e_top + e_bot) + k_beam))
        s_top = _tension_from_kinematics(eps_assembly - gamma * theta, xi_t, e_a, e_m, eps_l)
        s_bot = _tension_from_kinematics(eps_assembly + gamma * theta, xi_b, e_a, e_m, eps_l)
        return theta, s_top, s_bot, torque_gain * (s_top - s_bot) - k_beam * theta

    return balance


def solve_equilibrium(top: WireState, bottom: WireState, geom: ActuatorGeometry,
                      props: WireProperties) -> EquilibriumResult:
    """Beam rotation, tip displacement and wire stresses in torque balance."""
    theta, s_t, s_b, resid = _balance(geom, props)(top.xi, bottom.xi)
    return EquilibriumResult(theta=theta, delta=geom.g_tip * theta,
                             sigma_top=s_t, sigma_bottom=s_b,
                             residual=resid, iterations=1)


def relaxed_actuator(env: Environment) -> ActuatorState:
    """Both wire groups martensitic at ambient (the beam balances at theta = 0)."""
    wire = relaxed_state(env)
    return ActuatorState(top=wire, bottom=wire)


# ---------------------------------------------------------------------------
# clearance geometry

def _chord_to_beam_distance(delta, sign, geom: ActuatorGeometry, n_beam=1024):
    """Min distance from the slack-side wire chord to the beam centerline.

    sign = +1 checks the top-side chord, -1 the bottom-side one. The beam
    bends as the constant-curvature arc z = delta * (x/L)^2; the chord is a
    straight segment between anchors riding the beam ends, offset laterally
    by the angled mounting and vertically by the anchor standoff.
    """
    length = geom.length
    tan_a = math.tan(geom.alpha)
    x = np.linspace(0.0, length, n_beam)
    beam = np.column_stack((x, np.zeros_like(x), delta * (x / length) ** 2))

    z_off = sign * geom.anchor_standoff
    p0 = np.array([0.0, geom.mount_offset * tan_a, z_off])
    p1 = np.array([length, (geom.mount_offset + length) * tan_a, delta + z_off])

    seg = p1 - p0
    seg_len2 = float(seg @ seg)
    rel = beam - p0
    s = np.clip(rel @ seg / seg_len2, 0.0, 1.0)
    closest = p0 + s[:, None] * seg
    d = np.linalg.norm(beam - closest, axis=1)
    return float(d.min())


def clearance_check(geom: ActuatorGeometry, theta_range) -> float:
    """Minimum wire-to-beam clearance over a rotation envelope, meters.

    theta_range is an iterable of beam rotations covering the operating
    envelope.  The slack-side wire is the one the beam deflects away from;
    both sides are checked at every pose.  Raises ClearanceError if the
    clearance is not positive anywhere in the envelope (the collision that
    parallel wire mounting produces by construction).
    """
    thetas = np.atleast_1d(np.asarray(theta_range, dtype=np.float64))
    if thetas.size == 0:
        raise ParameterError("theta_range must contain at least one rotation")
    best = math.inf
    for theta in thetas:
        delta = geom.g_tip * float(theta)
        for sign in (+1.0, -1.0):
            dist = _chord_to_beam_distance(delta, sign, geom)
            best = min(best, dist - geom.beam_radius)
    if best <= 0.0:
        raise ClearanceError(best)
    return best


def tip_envelope(geom: ActuatorGeometry, tip_travel: float, n=81):
    """Rotation samples spanning +/- tip_travel of tip displacement."""
    theta_max = tip_travel / geom.g_tip
    return np.linspace(-theta_max, theta_max, n)


# ---------------------------------------------------------------------------
# coupled time stepping

_STATE = struct.Struct("6d")    # the carried state as bits, so 0.0 and -0.0 differ


def simulate_drive(i_t, i_b, props: WireProperties, env: Environment,
                   geom: ActuatorGeometry, dt: float,
                   initial: ActuatorState | None = None, period: int = 0) -> DisplacementTrace:
    """Run the coupled model over per-sample current arrays from initial.

    Sample n records the state at t_n, then the drive of [t_n, t_n + dt)
    is applied: each wire's phase steps (sma._phase_step) to its new
    temperature in the band that the stress of the previous balance
    shifts, then _balance solves the torque balance for the new xi pair.
    The heat balance reads neither stress nor xi, so both temperature
    traces are computed first (sma.temperature_trace), and with them each
    wire's branch and anchor temperature after every step
    (sma._branch_trace); a step that switches branch anchors at the xi it
    starts from.  Sample 0 holds the initial wires and the balance of
    their xi pair, so a drive split at any sample and continued from the
    first part's final_state gives the unsplit trace bit for bit; an empty
    drive returns initial unchanged, also a hand-built one.  Raises
    NumericError at the first sample whose temperature is non-finite.

    Four shortcuts leave every bit as the step-by-step loop gives it:

    * Both temperature traces share one memo of PWM segments
      (sma.temperature_trace), so a segment that starts at an equal
      temperature with an equal current and length is copied: from the
      other wire, whose channel repeats this one half a period later, or
      from an earlier period once the drive reaches its fixed point.
    * _balance is a pure function of the xi pair, so it is solved only at
      the first step and when the pair differs from the last pair solved.
    * Dormant stretches are skipped.  Once a step n leaves
      xi = anchor_xi = 1 on both wires (so the balance was last solved for
      (1, 1)), and each wire's temps[n] and, on the heating branch,
      anchors[n] are at or below its stress-shifted A_s, every later step
      whose two temperatures stay at or below A_s keeps xi = 1 exactly
      (sma._phase_step).  Such steps change only the branch and anchor
      temperature, which the arrays already hold, so the records are
      filled by slice up to the first step that exceeds A_s, and the
      branch is read there.
    * With period P > 0, the coupled state is tiled from its exact cycle.
      The six step inputs (both temperature, branch and anchor traces)
      repeat every P samples after the last sample at which one of them
      differs from its value P samples later.  From there the carried
      state (xi, anchor xi and branch of each wire) is kept at every
      period boundary, and a dormant skip stops at the next one; theta,
      the stresses and the band are the balance of the xi pair.  The
      first boundary whose state equals, bit for bit, that of an earlier
      boundary closes a cycle: every later sample repeats it, so the
      records of each whole cycle that still fits are copied from the
      last one and the rest is stepped, ending on the true final_state.
      Every residual of a copied cycle was already seen.  steady_index
      and cycle_length report the cycle (size and 0 if none closes).
    """
    i_t, i_b = _sample_arrays(dt, i_t, i_b, "channel current arrays")
    if initial is None:
        initial = relaxed_actuator(env)
    top, bottom = initial.top, initial.bottom
    size = i_t.size
    memo = {}
    temps_t = temperature_trace(i_t, top.temperature, props, env, dt, memo)
    temps_b = temperature_trace(i_b, bottom.temperature, props, env, dt, memo)
    _require_finite(temps_t, temps_b)
    branches_t, anchors_t = _branch_trace(temps_t, top.branch, top.anchor_t)
    branches_b, anchors_b = _branch_trace(temps_b, bottom.branch, bottom.anchor_t)
    outs = [np.empty(size) for _ in range(5)]
    out_theta, out_xi_t, out_xi_b, out_sig_t, out_sig_b = outs
    # read and written as Python floats and ints
    trace_t, trace_b = memoryview(temps_t), memoryview(temps_b)
    br_trace_t, br_trace_b = memoryview(branches_t), memoryview(branches_b)
    anc_trace_t, anc_trace_b = memoryview(anchors_t), memoryview(anchors_b)
    rec_theta, rec_xi_t, rec_xi_b, rec_sig_t, rec_sig_b = map(memoryview, outs)

    balance, band, phase_step = _balance(geom, props), _band(props), _phase_step
    xi_t, anc_xi_t, br_t = top.xi, top.anchor_xi, top.branch
    xi_b, anc_xi_b, br_b = bottom.xi, bottom.anchor_xi, bottom.branch
    theta, sigma_t, sigma_b, _ = balance(top.xi, bottom.xi)
    m_f_t, m_s_t, a_s_t, a_f_t = band(sigma_t)
    m_f_b, m_s_b, a_s_b, a_f_b = band(sigma_b)
    solved_t = solved_b = None     # the xi pair of the last balance solved
    exceeding = None               # the steps after which a wire is above A_s at (1, 1)
    steady_index, cycle_length = size, 0
    boundary = size                # the next sample at which the carried state is kept
    if 0 < period < size:
        boundary = 0
        for inputs in (temps_t, temps_b, branches_t, anchors_t, branches_b, anchors_b):
            changed = np.flatnonzero(inputs[period:] != inputs[:-period])
            if changed.size:
                boundary = max(boundary, int(changed[-1]) + 1)
        kept = {}                  # carried state, bit for bit -> the boundary it was kept at

    max_resid = 0.0
    n = 0
    while n < size:
        if n == boundary:
            start = kept.setdefault(
                _STATE.pack(xi_t, anc_xi_t, br_t, xi_b, anc_xi_b, br_b), n)
            if start == n:
                boundary += period
            else:
                steady_index, cycle_length = start, n - start
                end = n + (size - n) // cycle_length * cycle_length
                for out in outs:
                    out[n:end].reshape(-1, cycle_length)[:] = out[start:n]
                n, boundary = end, size
                continue
        rec_theta[n] = theta
        rec_xi_t[n] = xi_t
        rec_xi_b[n] = xi_b
        rec_sig_t[n] = sigma_t
        rec_sig_b[n] = sigma_b

        n += 1
        temp_t = trace_t[n]
        temp_b = trace_b[n]
        anc_t_t = anc_trace_t[n]
        anc_t_b = anc_trace_b[n]
        if br_trace_t[n] != br_t:
            br_t, anc_xi_t = br_trace_t[n], xi_t
        if br_trace_b[n] != br_b:
            br_b, anc_xi_b = br_trace_b[n], xi_b
        xi_t = phase_step(xi_t, temp_t, anc_xi_t, anc_t_t, br_t, m_f_t, m_s_t, a_s_t, a_f_t)
        xi_b = phase_step(xi_b, temp_b, anc_xi_b, anc_t_b, br_b, m_f_b, m_s_b, a_s_b, a_f_b)

        if xi_t != solved_t or xi_b != solved_b:
            solved_t, solved_b = xi_t, xi_b
            theta, sigma_t, sigma_b, resid = balance(xi_t, xi_b)
            if abs(resid) > max_resid:
                max_resid = abs(resid)
            m_f_t, m_s_t, a_s_t, a_f_t = band(sigma_t)
            m_f_b, m_s_b, a_s_b, a_f_b = band(sigma_b)

        if (xi_t == 1.0 and xi_b == 1.0 and anc_xi_t == 1.0 and anc_xi_b == 1.0
                and temp_t <= a_s_t and temp_b <= a_s_b
                and (br_t != BRANCH_HEATING or anc_t_t <= a_s_t)
                and (br_b != BRANCH_HEATING or anc_t_b <= a_s_b)):
            if exceeding is None:
                exceeding = np.flatnonzero((temps_t[1:] > a_s_t) | (temps_b[1:] > a_s_b))
            k = exceeding.searchsorted(n)
            end = int(exceeding[k]) if k < exceeding.size else size
            if end > boundary:
                end = boundary
            out_theta[n:end] = theta
            out_xi_t[n:end] = 1.0
            out_xi_b[n:end] = 1.0
            out_sig_t[n:end] = sigma_t
            out_sig_b[n:end] = sigma_b
            br_t = br_trace_t[end]
            br_b = br_trace_b[end]
            n = end

    final = ActuatorState(
        top=_final_wire(top, temps_t, branches_t, anchors_t, xi_t, anc_xi_t),
        bottom=_final_wire(bottom, temps_b, branches_b, anchors_b, xi_b, anc_xi_b))
    return DisplacementTrace(
        t=np.arange(size, dtype=np.float64) * dt, delta=geom.g_tip * out_theta,
        theta=out_theta, temp_top=temps_t[:-1], temp_bottom=temps_b[:-1],
        xi_top=out_xi_t, xi_bottom=out_xi_b, sigma_top=out_sig_t, sigma_bottom=out_sig_b,
        max_residual=max_resid, final_state=final, steady_index=steady_index,
        cycle_length=cycle_length)


def run_mode_trace(cfg: PwmConfig, params: CircuitParams, props: WireProperties,
                   env: Environment, geom: ActuatorGeometry,
                   duration: float) -> DisplacementTrace:
    """PWM drive to tip-displacement trace, the simulated laser measurement.

    With whole f and fs the drive repeats every fs / gcd(fs, f) samples,
    and simulate_drive tiles the coupled state from its exact cycle at
    those period boundaries, over the whole duration.
    """
    if duration < 2.0 * cfg.period:
        raise ParameterError(
            f"duration {duration} s must cover at least two periods of {cfg.frequency} Hz")
    drive = make_pwm_pair(cfg, params, duration)
    fs, f = float(cfg.sample_rate), float(cfg.frequency)
    period = int(fs) // math.gcd(int(fs), int(f)) if fs.is_integer() and f.is_integer() else 0
    return simulate_drive(drive.i_t, drive.i_b, props, env, geom, 1.0 / fs,
                          initial=relaxed_actuator(env), period=period)
