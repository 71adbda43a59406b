"""Lumped electro-thermo-mechanical model of one SMA wire group.

One "wire group" is the set of parallel nitinol strands on one side of
the actuator, treated as a single lumped thermal mass with a single
martensite fraction xi.  Three laws compose:

* Joule heating / convective cooling ODE,
      m c_p dT/dt = i^2 R - h A_lat (T - T_amb),
  advanced with fixed-step classical RK4.  R follows from resistivity
  and strand geometry; A_lat is the total lateral surface.

* Cosine transformation kinetics with linear stress shift.  The
  transformation bands move up with tensile stress,
      A_s(s) = A_s + s/C_A   (and likewise A_f, M_s, M_f with C_M),
  which is what lets the antagonist side force a hot wire back into
  martensite: the classic strain-temperature loops shift to the
  upper right as stress rises.  Partial cycles re-anchor at each
  heating/cooling reversal and follow a proportionally rescaled
  half-cosine, so every minor loop stays inside the major loop.

* A phase-dependent constitutive law,
      eps = sigma/E(xi) + eps_L * xi,   E(xi) = E_A + xi (E_M - E_A),
  with the detwinned fraction identified with xi (the antagonistic
  layout keeps both groups under tension at all times).

Temperatures are kelvin, stresses Pa, strains dimensionless.  Defaults
are nominal nitinol values for a 38.1 um wire with a 90 C austenite
finish; they are deliberately exposed for calibration.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._accel import njit
from .errors import NumericError, ParameterError

# branch codes for the hysteresis state machine
BRANCH_NONE = 0
BRANCH_HEATING = 1
BRANCH_COOLING = 2


@dataclass(frozen=True)
class WireProperties:
    """Geometric, thermal and transformation constants of one wire group."""

    diameter: float = 38.1e-6          # m
    active_length: float = 12.4e-3     # m per strand, between anchor knots
    parallel_strands: int = 2          # strands tied per side
    density: float = 6450.0            # kg/m^3
    specific_heat: float = 500.0       # J/(kg K)
    h: float = 150.0                   # W/(m^2 K), free convection in dry air
    m_f: float = 313.15                # K (40 C)
    m_s: float = 333.15                # K (60 C)
    a_s: float = 343.15                # K (70 C)
    a_f: float = 363.15                # K (90 C), nominal transition temperature
    c_m: float = 7.0e6                 # Pa/K, martensite stress coefficient
    c_a: float = 7.0e6                 # Pa/K, austenite stress coefficient
    e_a: float = 75.0e9                # Pa, austenite modulus
    e_m: float = 28.0e9                # Pa, martensite modulus
    eps_l: float = 0.04                # max recoverable strain
    resistivity: float = 8.2e-7        # ohm m
    pre_strain: float = 4.0e-4         # elastic strain tied in at assembly
    latent_heat: float = 0.0           # J/kg, 0 disables the latent term

    def __post_init__(self):
        if not (self.m_f < self.m_s <= self.a_s < self.a_f):
            raise ParameterError(
                f"transformation temperatures must satisfy M_f < M_s <= A_s < A_f, "
                f"got {self.m_f}, {self.m_s}, {self.a_s}, {self.a_f}")
        if not 0.0 < self.eps_l <= 0.08:
            raise ParameterError(f"eps_l must be in (0, 0.08], got {self.eps_l}")
        for name in ("diameter", "active_length", "density", "specific_heat", "h",
                     "c_m", "c_a", "e_a", "e_m", "resistivity"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.parallel_strands < 1:
            raise ParameterError(f"parallel_strands must be >= 1, got {self.parallel_strands}")
        if self.pre_strain < 0:
            raise ParameterError(f"pre_strain must be >= 0, got {self.pre_strain}")
        if self.latent_heat < 0:
            raise ParameterError(f"latent_heat must be >= 0, got {self.latent_heat}")

    @property
    def strand_area(self):
        """Cross-section of a single strand, m^2."""
        return math.pi * self.diameter ** 2 / 4.0

    @property
    def cross_section(self):
        """Load-bearing cross-section of the group, m^2."""
        return self.strand_area * self.parallel_strands

    @property
    def lateral_area(self):
        """Total convective surface of the group, m^2."""
        return math.pi * self.diameter * self.active_length * self.parallel_strands

    @property
    def mass(self):
        return self.density * self.cross_section * self.active_length

    @property
    def heat_capacity(self):
        """m c_p of the group, J/K."""
        return self.mass * self.specific_heat

    @property
    def resistance(self):
        """Electrical resistance of the group (strands in parallel), ohm."""
        return self.resistivity * self.active_length / self.cross_section

    def time_constant(self, env):
        """Convective cooling time constant m c_p / (h A_lat), s."""
        return self.heat_capacity / (self.h * env.convection_multiplier * self.lateral_area)


@dataclass(frozen=True)
class Environment:
    """Ambient conditions; the multiplier raises h near the water surface."""

    t_amb: float = 293.15              # K
    convection_multiplier: float = 1.0

    def __post_init__(self):
        if self.t_amb <= 0:
            raise ParameterError(f"t_amb must be > 0 K, got {self.t_amb}")
        if self.convection_multiplier < 1.0:
            raise ParameterError(
                f"convection_multiplier must be >= 1, got {self.convection_multiplier}")


@dataclass(frozen=True)
class WireState:
    """Instantaneous state of one wire group.

    anchor_xi / anchor_t record the martensite fraction and temperature at
    the most recent heating/cooling reversal; together with the branch flag
    they carry the minor-loop history.  t_prev is the temperature at the
    previous phase evaluation and defines the heating/cooling direction.
    """

    temperature: float     # K
    xi: float              # martensite fraction
    sigma: float = 0.0     # Pa, tensile
    strain: float = 0.0
    anchor_xi: float = 1.0
    anchor_t: float = 293.15
    branch: int = BRANCH_NONE
    t_prev: float = 293.15

    def __post_init__(self):
        if not 0.0 <= self.xi <= 1.0:
            raise ParameterError(f"xi must be in [0, 1], got {self.xi}")
        if self.sigma < 0.0:
            raise ParameterError(f"sigma must be >= 0 (wires cannot push), got {self.sigma}")
        if self.strain < 0.0:
            raise ParameterError(f"strain must be >= 0, got {self.strain}")


def relaxed_state(props: WireProperties, env: Environment) -> WireState:
    """Fully martensitic wire at ambient temperature, no stress history."""
    return WireState(temperature=env.t_amb, xi=1.0, sigma=0.0,
                     strain=props.eps_l, anchor_xi=1.0, anchor_t=env.t_amb,
                     branch=BRANCH_NONE, t_prev=env.t_amb)


# ---------------------------------------------------------------------------
# scalar kernels (numba-compiled when available)

@njit
def _heating_shape(temp, a_s_eff, a_f_eff):
    # major heating branch from xi=1: holds 1 below A_s, half-cosine to 0 at A_f
    if temp <= a_s_eff:
        return 1.0
    if temp >= a_f_eff:
        return 0.0
    return 0.5 * (math.cos(math.pi * (temp - a_s_eff) / (a_f_eff - a_s_eff)) + 1.0)


@njit
def _cooling_shape(temp, m_f_eff, m_s_eff):
    # martensite formed on the major cooling branch started from xi=0
    if temp >= m_s_eff:
        return 0.0
    if temp <= m_f_eff:
        return 1.0
    return 0.5 * (math.cos(math.pi * (temp - m_f_eff) / (m_s_eff - m_f_eff)) + 1.0)


@njit
def _phase_step(xi, temp, t_prev, sigma, anchor_xi, anchor_t, branch,
                m_f, m_s, a_s, a_f, c_m, c_a):
    """Advance the hysteresis state machine to temperature `temp`.

    Minor loops are proportionally rescaled copies of the major branch
    through the reversal anchor, which keeps any partial cycle inside the
    major loop envelope. Returns (xi, anchor_xi, anchor_t, branch).
    """
    d_t = temp - t_prev
    if d_t > 0.0:
        direction = BRANCH_HEATING
    elif d_t < 0.0:
        direction = BRANCH_COOLING
    else:
        direction = branch

    a_s_eff = a_s + sigma / c_a
    a_f_eff = a_f + sigma / c_a
    m_s_eff = m_s + sigma / c_m
    m_f_eff = m_f + sigma / c_m

    new_xi = xi
    if direction == BRANCH_HEATING:
        if branch != BRANCH_HEATING:
            anchor_xi = xi
            anchor_t = t_prev
            branch = BRANCH_HEATING
        denom = _heating_shape(anchor_t, a_s_eff, a_f_eff)
        if denom > 1e-12:
            cand = anchor_xi * _heating_shape(temp, a_s_eff, a_f_eff) / denom
        else:
            cand = 0.0
        if cand < new_xi:   # heating never raises xi
            new_xi = cand
    elif direction == BRANCH_COOLING:
        if branch != BRANCH_COOLING:
            anchor_xi = xi
            anchor_t = t_prev
            branch = BRANCH_COOLING
        denom = 1.0 - _cooling_shape(anchor_t, m_f_eff, m_s_eff)
        if denom > 1e-12:
            cand = 1.0 - (1.0 - anchor_xi) * (1.0 - _cooling_shape(temp, m_f_eff, m_s_eff)) / denom
        else:
            cand = 1.0
        if cand > new_xi:   # cooling never lowers xi
            new_xi = cand

    # outside the hysteresis envelope only one phase exists
    if temp >= a_f_eff:
        new_xi = 0.0
    if temp <= m_f_eff:
        new_xi = 1.0
    if new_xi < 0.0:
        new_xi = 0.0
    elif new_xi > 1.0:
        new_xi = 1.0
    return new_xi, anchor_xi, anchor_t, branch


@njit
def _phase_slope(xi, temp, sigma, anchor_xi, anchor_t, branch,
                 m_f, m_s, a_s, a_f, c_m, c_a):
    """|dxi/dT| of the active branch, for the latent-heat correction."""
    a_s_eff = a_s + sigma / c_a
    a_f_eff = a_f + sigma / c_a
    m_s_eff = m_s + sigma / c_m
    m_f_eff = m_f + sigma / c_m
    if branch == BRANCH_HEATING and a_s_eff < temp < a_f_eff:
        denom = _heating_shape(anchor_t, a_s_eff, a_f_eff)
        if denom > 1e-12:
            width = a_f_eff - a_s_eff
            return (anchor_xi / denom) * 0.5 * math.pi / width \
                * abs(math.sin(math.pi * (temp - a_s_eff) / width))
    elif branch == BRANCH_COOLING and m_f_eff < temp < m_s_eff:
        denom = 1.0 - _cooling_shape(anchor_t, m_f_eff, m_s_eff)
        if denom > 1e-12:
            width = m_s_eff - m_f_eff
            return ((1.0 - anchor_xi) / denom) * 0.5 * math.pi / width \
                * abs(math.sin(math.pi * (temp - m_f_eff) / width))
    return 0.0


@njit
def _tension_from_kinematics(eps_kin, xi, e_a, e_m, eps_l):
    # invert the constitutive law at fixed xi; slack wires carry nothing
    e_mod = e_a + xi * (e_m - e_a)
    s = e_mod * (eps_kin - eps_l * xi)
    return s if s > 0.0 else 0.0


@njit
def _wire_step(temp, t_prev, xi, anchor_xi, anchor_t, branch, sigma_held, current, sigma,
               dt, resistance, h_area, heat_cap, latent_cap, t_amb,
               m_f, m_s, a_s, a_f, c_m, c_a):
    """Advance one wire group by dt: RK4 heat balance, then the phase step.

    latent_cap is mass * latent_heat (J per unit xi); the transformation
    slope at the step start augments the heat capacity.  The thermal step
    precedes the stress assignment, so that slope sees sigma_held, the
    stress carried into the step, while the kinetics see sigma.  Returns
    (temperature, xi, anchor_xi, anchor_t, branch).
    """
    cap = heat_cap
    if latent_cap > 0.0:
        cap = heat_cap + latent_cap * _phase_slope(xi, temp, sigma_held, anchor_xi,
                                                   anchor_t, branch,
                                                   m_f, m_s, a_s, a_f, c_m, c_a)
    q = current * current * resistance
    k1 = (q - h_area * (temp - t_amb)) / cap
    t2 = temp + 0.5 * dt * k1
    k2 = (q - h_area * (t2 - t_amb)) / cap
    t3 = temp + 0.5 * dt * k2
    k3 = (q - h_area * (t3 - t_amb)) / cap
    t4 = temp + dt * k3
    k4 = (q - h_area * (t4 - t_amb)) / cap
    new_temp = temp + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    xi, anchor_xi, anchor_t, branch = _phase_step(
        xi, new_temp, t_prev, sigma, anchor_xi, anchor_t, branch,
        m_f, m_s, a_s, a_f, c_m, c_a)
    return new_temp, xi, anchor_xi, anchor_t, branch


@njit
def _simulate_wire(currents, sigmas, dt, temp, xi, anchor_xi, anchor_t, branch,
                   t_prev, held, resistance, h_area, heat_cap, latent_cap, t_amb,
                   m_f, m_s, a_s, a_f, c_m, c_a,
                   out_temp, out_xi):
    """Drive one wire group with per-sample current and applied stress.

    The scalar arguments temp .. held are the initial state.  Records the
    state after each step and returns the final scalar state tuple
    (temperature, xi, anchor_xi, anchor_t, branch).
    """
    for n in range(currents.size):
        temp, xi, anchor_xi, anchor_t, branch = _wire_step(
            temp, t_prev, xi, anchor_xi, anchor_t, branch, held, currents[n], sigmas[n],
            dt, resistance, h_area, heat_cap, latent_cap, t_amb,
            m_f, m_s, a_s, a_f, c_m, c_a)
        t_prev = temp
        held = sigmas[n]
        out_temp[n] = temp
        out_xi[n] = xi
    return temp, xi, anchor_xi, anchor_t, branch


# ---------------------------------------------------------------------------
# public operations on WireState values

def wire_strain(xi: float, sigma: float, props: WireProperties) -> float:
    """Total strain, elastic part plus recoverable transformation strain."""
    if not 0.0 <= xi <= 1.0:
        raise ParameterError(f"xi must be in [0, 1], got {xi}")
    if sigma < 0.0:
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    return sigma / (props.e_a + xi * (props.e_m - props.e_a)) + props.eps_l * xi


def _sample_arrays(dt, a, b, names):
    """a and b as contiguous float arrays of one shape, stepped at dt <= 1 ms."""
    if not 0.0 < dt <= 1e-3:
        raise ParameterError(f"dt must be in (0, 1 ms], got {dt}")
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ParameterError(f"{names} must have the same shape")
    return a, b


def _scalar_state(state: WireState):
    """The state scalars the stepping kernels take, in their argument order."""
    return (state.temperature, state.xi, state.anchor_xi, state.anchor_t, state.branch,
            state.t_prev, state.sigma)


def _wire_constants(props: WireProperties, env: Environment):
    """The wire constants the stepping kernels take, in their argument order."""
    return (props.resistance, props.h * env.convection_multiplier * props.lateral_area,
            props.heat_capacity, props.mass * props.latent_heat, env.t_amb,
            props.m_f, props.m_s, props.a_s, props.a_f, props.c_m, props.c_a)


def _wire_state(temp, xi, anchor_xi, anchor_t, branch, sigma, props) -> WireState:
    """WireState of the kernels' scalar state under tension sigma."""
    return WireState(temperature=temp, xi=xi, sigma=sigma,
                     strain=wire_strain(xi, sigma, props), anchor_xi=anchor_xi,
                     anchor_t=anchor_t, branch=int(branch), t_prev=temp)


def transformation_temperatures(props: WireProperties, sigma: float):
    """Stress-shifted (M_f, M_s, A_s, A_f), kelvin."""
    return (props.m_f + sigma / props.c_m, props.m_s + sigma / props.c_m,
            props.a_s + sigma / props.c_a, props.a_f + sigma / props.c_a)


def simulate_wire(currents, sigmas, props: WireProperties, env: Environment,
                  dt: float, state: WireState | None = None):
    """Vector convenience wrapper around the compiled wire loop.

    currents and sigmas are same-length sample arrays (zero-order hold over
    each dt). Returns (temperature trace, xi trace, final WireState).
    """
    currents, sigmas = _sample_arrays(dt, currents, sigmas, "currents and sigmas")
    if sigmas.size and sigmas.min() < 0.0:
        raise ParameterError(f"sigmas must be >= 0 (wires cannot push), got {sigmas.min()}")
    if state is None:
        state = relaxed_state(props, env)
    out_temp = np.empty_like(currents)
    out_xi = np.empty_like(currents)
    temp, xi, anchor_xi, anchor_t, branch = _simulate_wire(
        currents, sigmas, dt, *_scalar_state(state), *_wire_constants(props, env),
        out_temp, out_xi)
    if not math.isfinite(temp):
        raise NumericError(f"temperature became non-finite: {temp}")
    final_sigma = float(sigmas[-1]) if sigmas.size else state.sigma
    return out_temp, out_xi, _wire_state(temp, xi, anchor_xi, anchor_t, branch,
                                         final_sigma, props)
