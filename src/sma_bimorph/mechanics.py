"""Quasi-static mechanics of the antagonistic bimorph.

The central beam-spring is lumped into a single rotational stiffness
k_beam about the neutral pose; the tip moves by delta = g_tip * theta
(up positive).  Each wire group attaches at a moment arm r_m from the
neutral axis, so beam rotation theta changes the kinematic wire strain by
-/+ (r_m / active_length) * theta for the top/bottom group.  At assembly
both groups are detwinned martensite stretched by eps_l plus an elastic
pre-strain, which defines the relaxed pose theta = 0.

Equilibrium solves the torque balance
    r_m * A * (sigma_top - sigma_bottom) - k_beam * theta = 0
by bisection; the residual is strictly decreasing in theta (a taut wire
loses tension as the beam rotates toward it), so the root is unique.
Wires are tension-only: a slack group carries zero force.

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
from dataclasses import dataclass

import numpy as np

from ._accel import njit
from .drive import PwmConfig, CircuitParams, make_pwm_pair
from .errors import BracketError, ClearanceError, NumericError, ParameterError, SolverError
from .sma import (Environment, WireProperties, WireState, _sample_arrays, _scalar_state,
                  _tension_from_kinematics, _wire_constants, _wire_state, _wire_step,
                  relaxed_state)

RESIDUAL_TOL = 1e-9      # N m
MAX_SOLVER_ITERATIONS = 200

_STATUS_OK = 0
_STATUS_NO_BRACKET = 1
_STATUS_NO_CONVERGENCE = 2
_STATUS_NONFINITE = 3


@dataclass(frozen=True)
class ActuatorGeometry:
    """Bimorph geometry and lumped structural constants."""

    length: float = 14e-3            # m, device length
    alpha: float = math.radians(3.0)  # rad, wire mounting angle
    r_m: float = 1.6e-3              # m, wire moment arm about the neutral axis
    k_beam: float = 8e-3             # N m / rad, beam-spring rotational stiffness
    g_tip: float = 17e-3             # m of tip travel per rad of rotation
    mass: float = 10e-6              # kg, bookkeeping
    volume: float = 4.8e-9           # m^3, bookkeeping
    mount_offset: float = 5e-3       # m, wire line crosses the axis this far behind the base
    beam_radius: float = 7.5e-5      # m, envelope radius of the central beam
    anchor_standoff: float = 1e-4    # m, wire anchor height above/below the beam plane

    def __post_init__(self):
        for name in ("length", "r_m", "k_beam", "g_tip", "mass", "volume",
                     "mount_offset", "beam_radius", "anchor_standoff"):
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
    iterations: int


@dataclass(frozen=True)
class ActuatorState:
    top: WireState
    bottom: WireState
    theta: float = 0.0
    delta: float = 0.0
    mode: str = "bimorph"


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


# ---------------------------------------------------------------------------
# equilibrium

@njit
def _equilibrium(xi_t, xi_b, eps_assembly, gamma, torque_gain, k_beam,
                 e_a, e_m, eps_l, tol, max_iter):
    """Bisect the torque balance for theta.

    torque_gain = r_m * cross_section. Returns
    (theta, sigma_top, sigma_bottom, residual, iterations, status).
    """
    bracket = 2.0 * eps_assembly / gamma

    lo = -bracket
    hi = bracket
    e_top = eps_assembly - gamma * lo
    e_bot = eps_assembly + gamma * lo
    s_t = _tension_from_kinematics(e_top, xi_t, e_a, e_m, eps_l)
    s_b = _tension_from_kinematics(e_bot, xi_b, e_a, e_m, eps_l)
    f_lo = torque_gain * (s_t - s_b) - k_beam * lo
    e_top = eps_assembly - gamma * hi
    e_bot = eps_assembly + gamma * hi
    s_t = _tension_from_kinematics(e_top, xi_t, e_a, e_m, eps_l)
    s_b = _tension_from_kinematics(e_bot, xi_b, e_a, e_m, eps_l)
    f_hi = torque_gain * (s_t - s_b) - k_beam * hi
    if not (f_lo > 0.0 and f_hi < 0.0):
        return 0.0, 0.0, 0.0, 0.0, 0, _STATUS_NO_BRACKET

    theta = 0.0
    s_top = 0.0
    s_bot = 0.0
    resid = 0.0
    for it in range(1, max_iter + 1):
        theta = 0.5 * (lo + hi)
        e_top = eps_assembly - gamma * theta
        e_bot = eps_assembly + gamma * theta
        s_top = _tension_from_kinematics(e_top, xi_t, e_a, e_m, eps_l)
        s_bot = _tension_from_kinematics(e_bot, xi_b, e_a, e_m, eps_l)
        resid = torque_gain * (s_top - s_bot) - k_beam * theta
        if abs(resid) < tol:
            return theta, s_top, s_bot, resid, it, _STATUS_OK
        if resid > 0.0:
            lo = theta
        else:
            hi = theta
    return theta, s_top, s_bot, resid, max_iter, _STATUS_NO_CONVERGENCE


def _balance_constants(geom: ActuatorGeometry, props: WireProperties):
    """The torque-balance constants _equilibrium takes after the two xi."""
    return (props.eps_l + props.pre_strain, geom.r_m / props.active_length,
            geom.r_m * props.cross_section, geom.k_beam, props.e_a, props.e_m, props.eps_l)


def solve_equilibrium(top: WireState, bottom: WireState, geom: ActuatorGeometry,
                      props: WireProperties) -> EquilibriumResult:
    """Beam rotation, tip displacement and wire stresses in torque balance."""
    theta, s_t, s_b, resid, iters, status = _equilibrium(
        top.xi, bottom.xi, *_balance_constants(geom, props),
        RESIDUAL_TOL, MAX_SOLVER_ITERATIONS)
    if status == _STATUS_NO_BRACKET:
        raise BracketError("torque residual does not change sign over the bracket")
    if status == _STATUS_NO_CONVERGENCE:
        raise SolverError(
            f"equilibrium not converged after {MAX_SOLVER_ITERATIONS} iterations, "
            f"|residual| = {abs(resid):.3e} N m")
    return EquilibriumResult(theta=theta, delta=geom.g_tip * theta,
                             sigma_top=s_t, sigma_bottom=s_b,
                             residual=resid, iterations=iters)


def relaxed_actuator(props: WireProperties, env: Environment,
                     geom: ActuatorGeometry, mode: str = "bimorph") -> ActuatorState:
    """Both wire groups martensitic at ambient, beam in torque balance."""
    wire = relaxed_state(props, env)
    eq = solve_equilibrium(wire, wire, geom, props)
    top, bottom = (_wire_state(wire.temperature, wire.xi, wire.anchor_xi, wire.anchor_t,
                               wire.branch, sigma, props)
                   for sigma in (eq.sigma_top, eq.sigma_bottom))
    return ActuatorState(top=top, bottom=bottom, theta=eq.theta, delta=eq.delta, mode=mode)


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

@njit
def _trace_loop(i_t, i_b, dt,
                temp_t, xi_t, anc_xi_t, anc_t_t, br_t, prev_t, sigma_t,
                temp_b, xi_b, anc_xi_b, anc_t_b, br_b, prev_b, sigma_b,
                resistance, h_area, heat_cap, latent_cap, t_amb,
                m_f, m_s, a_s, a_f, c_m, c_a,
                eps_assembly, gamma, torque_gain, k_beam, e_a, e_m, eps_l, g_tip,
                out_delta, out_theta, out_temp_t, out_temp_b,
                out_xi_t, out_xi_b, out_sig_t, out_sig_b):
    """March the two wires and the torque balance over a drive trace.

    Sample n records the state at t_n, then the drive of [t_n, t_n + dt)
    is applied.  Wire stresses seen by the kinetics lag one step (they
    come from the previous equilibrium).  Returns (status, bad_index,
    max_residual, theta, then each wire's temperature, xi, anchor_xi,
    anchor_t, branch and sigma).
    """
    theta = 0.0
    max_resid = 0.0
    status = _STATUS_OK
    bad_index = -1
    for n in range(i_t.size):
        out_delta[n] = g_tip * theta
        out_theta[n] = theta
        out_temp_t[n] = temp_t
        out_temp_b[n] = temp_b
        out_xi_t[n] = xi_t
        out_xi_b[n] = xi_b
        out_sig_t[n] = sigma_t
        out_sig_b[n] = sigma_b

        temp_t, xi_t, anc_xi_t, anc_t_t, br_t = _wire_step(
            temp_t, prev_t, xi_t, anc_xi_t, anc_t_t, br_t, sigma_t, i_t[n], sigma_t,
            dt, resistance, h_area, heat_cap, latent_cap, t_amb,
            m_f, m_s, a_s, a_f, c_m, c_a)
        temp_b, xi_b, anc_xi_b, anc_t_b, br_b = _wire_step(
            temp_b, prev_b, xi_b, anc_xi_b, anc_t_b, br_b, sigma_b, i_b[n], sigma_b,
            dt, resistance, h_area, heat_cap, latent_cap, t_amb,
            m_f, m_s, a_s, a_f, c_m, c_a)
        if not (math.isfinite(temp_t) and math.isfinite(temp_b)):
            status = _STATUS_NONFINITE
            bad_index = n
            break
        prev_t = temp_t
        prev_b = temp_b

        theta, sigma_t, sigma_b, resid, iters, status = _equilibrium(
            xi_t, xi_b, eps_assembly, gamma, torque_gain, k_beam,
            e_a, e_m, eps_l, RESIDUAL_TOL, MAX_SOLVER_ITERATIONS)
        if status != _STATUS_OK:
            bad_index = n
            break
        if abs(resid) > max_resid:
            max_resid = abs(resid)
    return (status, bad_index, max_resid, theta,
            temp_t, xi_t, anc_xi_t, anc_t_t, br_t, sigma_t,
            temp_b, xi_b, anc_xi_b, anc_t_b, br_b, sigma_b)


def simulate_drive(i_t, i_b, props: WireProperties, env: Environment,
                   geom: ActuatorGeometry, dt: float,
                   initial: ActuatorState | None = None) -> DisplacementTrace:
    """Run the coupled model over per-sample current arrays."""
    i_t, i_b = _sample_arrays(dt, i_t, i_b, "channel current arrays")
    if initial is None:
        initial = relaxed_actuator(props, env, geom)

    n = i_t.size
    out = {name: np.empty(n) for name in
           ("delta", "theta", "temp_t", "temp_b", "xi_t", "xi_b", "sig_t", "sig_b")}

    status, bad_index, max_resid, theta, *wires = _trace_loop(
        i_t, i_b, dt, *_scalar_state(initial.top), *_scalar_state(initial.bottom),
        *_wire_constants(props, env), *_balance_constants(geom, props), geom.g_tip,
        out["delta"], out["theta"], out["temp_t"], out["temp_b"],
        out["xi_t"], out["xi_b"], out["sig_t"], out["sig_b"])

    if status == _STATUS_NONFINITE:
        raise NumericError(f"state became non-finite at sample {bad_index}")
    if status == _STATUS_NO_BRACKET:
        raise BracketError(f"equilibrium bracketing failed at sample {bad_index}")
    if status == _STATUS_NO_CONVERGENCE:
        raise SolverError(f"equilibrium did not converge at sample {bad_index}")

    final = ActuatorState(
        top=_wire_state(*wires[:6], props), bottom=_wire_state(*wires[6:], props),
        theta=theta, delta=geom.g_tip * theta, mode=initial.mode)
    t = np.arange(n, dtype=np.float64) * dt
    return DisplacementTrace(
        t=t, delta=out["delta"], theta=out["theta"],
        temp_top=out["temp_t"], temp_bottom=out["temp_b"],
        xi_top=out["xi_t"], xi_bottom=out["xi_b"],
        sigma_top=out["sig_t"], sigma_bottom=out["sig_b"],
        max_residual=max_resid, final_state=final)


def run_mode_trace(cfg: PwmConfig, params: CircuitParams, props: WireProperties,
                   env: Environment, geom: ActuatorGeometry,
                   duration: float) -> DisplacementTrace:
    """PWM drive to tip-displacement trace, the simulated laser measurement."""
    if duration < 2.0 * cfg.period:
        raise ParameterError(
            f"duration {duration} s must cover at least two periods of {cfg.frequency} Hz")
    drive = make_pwm_pair(cfg, params, duration)
    return simulate_drive(drive.i_t, drive.i_b, props, env, geom, 1.0 / cfg.sample_rate,
                          initial=relaxed_actuator(props, env, geom, mode=cfg.mode))
