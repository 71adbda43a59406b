"""Planar quasi-steady locomotion model of the tail-flapping swimmer.

The swimmer rides the water surface on support pads; motion is restricted
to the plane.  Thrust scales with the square of tail angular speed,
opposed by a quadratic-plus-linear longitudinal drag.  The rigid head
carries a much larger lateral drag product than the tail, modeled as a
yaw damping that anchors the heading while the tail flaps: symmetric
flapping produces no net turn, one-sided (unimorph) flapping does.

No attempt is made to resolve the fluid: vortex shedding and added-mass
memory are out of scope, the model only reproduces the force-balance
arithmetic and the monotone speed trends.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, ParameterError, require
from .sma import MAX_STEP


@dataclass(frozen=True)
class SwimmerParams:
    """Body constants and lumped hydrodynamic products.

    The *_cda products are drag-coefficient times reference-area, m^2;
    water density is folded in at use.  thrust_coeff maps squared tail
    angular speed to mean thrust, N s^2/rad^2.
    """

    body_length: float = 34e-3          # m
    mass: float = 30e-6                 # kg
    head_lateral_cda: float = 2e-4      # m^2, must dominate the tail product
    tail_lateral_cda: float = 2e-5      # m^2
    thrust_coeff: float = 1.4e-8        # N s^2 / rad^2
    longitudinal_cda: float = 1e-4      # m^2
    linear_drag: float = 1e-5           # N s / m
    rho: float = 998.0                  # kg / m^3
    nu: float = 1.0e-6                  # m^2 / s
    duty_cycle: float = 0.12            # drive DC used over water
    tail_gain: float = 200.0            # rad of tail angle per m of tip travel
    tail_lever: float = 13e-3           # m, tail hydrodynamic lever
    head_lever: float = 12e-3           # m, head hydrodynamic lever
    yaw_ref_speed: float = 0.1          # m/s, linearization speed for yaw damping

    def __post_init__(self):
        for name in ("body_length", "mass", "head_lateral_cda", "tail_lateral_cda",
                     "thrust_coeff", "longitudinal_cda", "rho", "nu",
                     "tail_gain", "tail_lever", "head_lever", "yaw_ref_speed"):
            require(name, getattr(self, name), lambda v: v > 0, "> 0")
        require("linear_drag", self.linear_drag, lambda v: v >= 0, ">= 0")
        require("duty_cycle", self.duty_cycle, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
        if self.head_lateral_cda <= self.tail_lateral_cda:
            raise ParameterError(
                "head lateral drag product must exceed the tail product "
                f"({self.head_lateral_cda} <= {self.tail_lateral_cda})")

    @property
    def yaw_damping(self):
        """N m s / rad, proportional to the head lateral drag product."""
        return 0.5 * self.rho * self.head_lateral_cda * self.head_lever ** 2 \
            * self.yaw_ref_speed


def _drag(v, params):
    return 0.5 * params.rho * params.longitudinal_cda * v * v + params.linear_drag * v


def steady_speed(frequency: float, amplitude: float, params: SwimmerParams) -> float:
    """Forward speed where mean thrust T = k (a 2 pi f)^2 balances drag.

    The positive root of q v^2 + b v = T (q = rho cda / 2, b the linear
    drag), written as 2T / (b + sqrt(b^2 + 4 q T)) so that it holds at
    b = 0 and loses no digits when b^2 dominates 4 q T.
    """
    if frequency < 0 or amplitude < 0:
        raise ParameterError("frequency and amplitude must be >= 0")
    thrust = params.thrust_coeff * (amplitude * 2.0 * math.pi * frequency) ** 2
    if thrust == 0.0:
        return 0.0
    quad = 0.5 * params.rho * params.longitudinal_cda
    lin = params.linear_drag
    return 2.0 * thrust / (lin + math.sqrt(lin * lin + 4.0 * quad * thrust))


def fit_thrust_coefficient(frequency: float, amplitude: float, target_speed: float,
                           params: SwimmerParams) -> SwimmerParams:
    """Thrust coefficient that makes steady_speed hit target_speed exactly."""
    if frequency <= 0 or amplitude <= 0 or target_speed <= 0:
        raise ParameterError("frequency, amplitude and target_speed must be > 0")
    k = _drag(target_speed, params) / (amplitude * 2.0 * math.pi * frequency) ** 2
    return replace(params, thrust_coeff=k)


def run_swimmer(tail_commands, params: SwimmerParams, dt: float) -> np.recarray:
    """Step the planar pose through a tail-angle command trace from rest.

    Returns a record array with fields x, y, psi, v, tail_angle (m, m,
    rad, m/s, rad): row 0 is the resting start and row n the state after
    command n - 1.  Thrust uses the instantaneous squared tail rate
    (factor 2 so its mean over a sinusoid matches the steady_speed form);
    yaw reacts to the tail's lateral drag moment and to thrust-vector
    deflection, both odd in the tail motion, damped by the head's lateral
    drag.  Raises NumericError at the first non-finite state.
    """
    if not 0.0 < dt <= MAX_STEP:
        raise ParameterError(f"dt must be in (0, {MAX_STEP * 1e3:g} ms], got {dt}")
    commands = np.asarray(tail_commands, np.float64)
    thrust_gain = 2.0 * params.thrust_coeff
    # lateral tail speed taken at the area centroid, half the tip lever
    flap_gain = 0.5 * params.rho * params.tail_lateral_cda \
        * (0.5 * params.tail_lever) ** 2 * params.tail_lever
    tail_lever, mass, yaw_damping = params.tail_lever, params.mass, params.yaw_damping
    # _drag's factors bound once, multiplied in its order
    quad_drag, linear_drag = 0.5 * params.rho * params.longitudinal_cda, params.linear_drag

    outs = [np.zeros(len(commands) + 1) for _ in range(5)]
    # written as Python floats without NumPy scalar overhead
    out_x, out_y, out_psi, out_v, out_tail = map(memoryview, outs)
    x = y = psi = v = tail = 0.0
    # a float per step: tolist() would hold the whole trace as Python floats at once
    for n, command in enumerate(map(float, commands), 1):
        tail_rate = (command - tail) / dt
        thrust = thrust_gain * tail_rate * tail_rate
        v = v + dt * ((thrust - (quad_drag * v * v + linear_drag * v)) / mass)
        if v < 0.0:
            v = 0.0
        m_flap = flap_gain * tail_rate * abs(tail_rate)
        m_steer = -thrust * math.sin(command) * tail_lever
        x = x + dt * v * math.cos(psi)
        y = y + dt * v * math.sin(psi)
        psi = psi + dt * ((m_flap + m_steer) / yaw_damping)
        tail = command
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(psi) and math.isfinite(v)):
            raise NumericError(f"swimmer state became non-finite at step {n}")
        out_x[n] = x
        out_y[n] = y
        out_psi[n] = psi
        out_v[n] = v
        out_tail[n] = tail
    return np.rec.fromarrays(outs, names="x,y,psi,v,tail_angle")


def trajectory_columns(params: SwimmerParams, amplitude: float, frequency: float,
                       sample_rate: float, duration: float) -> tuple:
    """Time (s), x, y (mm), heading (deg) and speed (mm/s) of a straight swim.

    The soft tail transmits only the fundamental of the actuator motion, so
    the tail is driven sinusoidally at frequency with amplitude (rad) for
    duration seconds at sample_rate; the columns of csvio.TRAJECTORY_SCHEMA.
    """
    dt = 1.0 / sample_rate
    t = np.arange(int(round(duration * sample_rate))) * dt
    tail = amplitude * np.sin(2.0 * np.pi * frequency * t)
    track = run_swimmer(tail, params, dt)
    return (t, track.x[1:] * 1e3, track.y[1:] * 1e3, np.degrees(track.psi[1:]),
            track.v[1:] * 1e3)


def reynolds(v: float, length: float, nu: float) -> float:
    """Reynolds number v L / nu."""
    if nu <= 0:
        raise ParameterError(f"nu must be > 0, got {nu}")
    return v * length / nu


def body_lengths_per_second(v: float, body_length: float) -> float:
    """Speed normalized by body length."""
    if body_length <= 0:
        raise ParameterError(f"body_length must be > 0, got {body_length}")
    return v / body_length
