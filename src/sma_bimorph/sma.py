"""Lumped electro-thermo-mechanical model of one SMA wire group.

One "wire group" is the set of parallel nitinol strands on one side of
the actuator, treated as a single lumped thermal mass with a single
martensite fraction xi.  Three laws compose:

* Joule heating / convective cooling ODE,
      m c_p dT/dt = i^2 R - h A_lat (T - T_amb),
  advanced with fixed-step classical RK4.  R follows from resistivity
  and strand geometry; A_lat is the total lateral surface.  The balance
  holds no latent-heat term, so it reads neither the stress nor xi: a
  wire's whole temperature trace is computed first (temperature_trace),
  and the phase is then stepped over it (_phase_step).  Each RK4 step is
  a pure function of (temperature, current), so temperature_trace copies
  each repeat of a PWM segment, also across the two wires of
  mechanics.simulate_drive.

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

The branch a wire is on depends on the temperatures only through the
sign of each step's temperature change, so the branch, and the
temperature at which it last switched, follow from the temperature trace
alone (_branch_trace), and both stepping loops read them from there.
mechanics.simulate_drive uses this to skip stretches in which both wires
stay fully martensitic; its docstring gives the conditions under which
that skip is exact.

Temperatures are kelvin, stresses Pa, strains dimensionless.  Defaults
are nominal nitinol values for a 38.1 um wire with a 90 C austenite
finish; they are deliberately exposed for calibration.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, require

# branch codes for the hysteresis state machine
BRANCH_NONE = 0
BRANCH_HEATING = 1
BRANCH_COOLING = 2

MAX_STEP = 1e-3  # s, the longest time step the explicit wire update is run at


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

    def __post_init__(self):
        for name in ("diameter", "active_length", "density", "specific_heat", "h",
                     "m_f", "m_s", "a_s", "a_f", "c_m", "c_a", "e_a", "e_m", "resistivity"):
            require(name, getattr(self, name), lambda v: v > 0, "> 0")
        if not (self.m_f < self.m_s <= self.a_s < self.a_f):
            raise ParameterError(
                f"transformation temperatures must satisfy M_f < M_s <= A_s < A_f, "
                f"got {self.m_f}, {self.m_s}, {self.a_s}, {self.a_f}")
        require("eps_l", self.eps_l, lambda v: 0.0 < v <= 0.08, "in (0, 0.08]")
        require("parallel_strands", self.parallel_strands, lambda v: v >= 1, ">= 1")
        require("pre_strain", self.pre_strain, lambda v: v >= 0, ">= 0")

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
        require("t_amb", self.t_amb, lambda v: v > 0, "> 0 K")
        require("convection_multiplier", self.convection_multiplier, lambda v: v >= 1.0, ">= 1")


@dataclass(frozen=True)
class WireState:
    """Instantaneous state of one wire group.

    anchor_xi / anchor_t record the martensite fraction and temperature at
    the most recent heating/cooling reversal; together with the branch flag
    they carry the minor-loop history.  Stress is not state: simulate_wire
    takes it per sample, and mechanics.simulate_drive derives it from the
    torque balance of the xi pair.
    """

    temperature: float     # K
    xi: float              # martensite fraction
    anchor_xi: float = 1.0
    anchor_t: float = 293.15
    branch: int = BRANCH_NONE

    def __post_init__(self):
        for name in ("xi", "anchor_xi"):
            require(name, getattr(self, name), lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


def relaxed_state(env: Environment) -> WireState:
    """Fully martensitic wire at ambient temperature, no stress history."""
    return WireState(temperature=env.t_amb, xi=1.0, anchor_xi=1.0,
                     anchor_t=env.t_amb, branch=BRANCH_NONE)


# ---------------------------------------------------------------------------
# scalar kernels

def _phase_step(xi, temp, anchor_xi, anchor_t, branch, m_f_eff, m_s_eff, a_s_eff, a_f_eff):
    """xi after a step to temperature `temp` on branch, anchored at (anchor_t, anchor_xi).

    branch and anchor_t are the wire's after the step (_branch_trace);
    anchor_xi is xi before the step whenever the step switched branch.
    m_f_eff ... a_f_eff is the stress-shifted band, in the order of
    transformation_temperatures.  Outside the hysteresis envelope only one
    phase exists, so at or below m_f_eff the result is 1.0 and otherwise at
    or above a_f_eff 0.0, whatever the branch; these clamps are tested
    first.  Minor loops are proportionally rescaled copies of the major
    branch through the reversal anchor, which keeps any partial cycle
    inside the major loop envelope.  From xi and anchor_xi in [0, 1]
    (WireState checks both) the result stays there: the heating candidate
    is >= 0 and only lowers xi, the cooling one is <= 1 and only raises
    it.  And xi = anchor_xi = 1 stays 1 exactly while temp and, on the
    heating branch, anchor_t are at or below a_s_eff: the M_f clamp gives
    1.0, heating 1 * 1.0 / 1.0 and cooling 1 - 0 * x / d.
    """
    if temp <= m_f_eff:
        return 1.0
    if temp >= a_f_eff:
        return 0.0
    new_xi = xi
    if branch == BRANCH_HEATING:
        # major heating branch from xi = 1: 1 below A_s, half-cosine to 0 at A_f
        denom = (1.0 if anchor_t <= a_s_eff else 0.0 if anchor_t >= a_f_eff else
                 0.5 * (math.cos(math.pi * (anchor_t - a_s_eff) / (a_f_eff - a_s_eff)) + 1.0))
        if denom > 1e-12:
            shape = (1.0 if temp <= a_s_eff else
                     0.5 * (math.cos(math.pi * (temp - a_s_eff) / (a_f_eff - a_s_eff)) + 1.0))
            cand = anchor_xi * shape / denom
        else:
            cand = 0.0
        if cand < new_xi:   # heating never raises xi
            new_xi = cand
    elif branch == BRANCH_COOLING:
        # martensite formed on the major cooling branch started from xi = 0
        denom = 1.0 - (0.0 if anchor_t >= m_s_eff else 1.0 if anchor_t <= m_f_eff else 0.5 * (
            math.cos(math.pi * (anchor_t - m_f_eff) / (m_s_eff - m_f_eff)) + 1.0))
        if denom > 1e-12:
            formed = (0.0 if temp >= m_s_eff else
                      0.5 * (math.cos(math.pi * (temp - m_f_eff) / (m_s_eff - m_f_eff)) + 1.0))
            cand = 1.0 - (1.0 - anchor_xi) * (1.0 - formed) / denom
        else:
            cand = 1.0
        if cand > new_xi:   # cooling never lowers xi
            new_xi = cand
    return new_xi


def _tension_from_kinematics(eps_kin, xi, e_a, e_m, eps_l):
    # invert the constitutive law at fixed xi; slack wires carry nothing
    e_mod = e_a + xi * (e_m - e_a)
    s = e_mod * (eps_kin - eps_l * xi)
    return s if s > 0.0 else 0.0


def temperature_trace(currents, temperature, props: WireProperties, env: Environment,
                      dt: float, memo: dict | None = None) -> np.ndarray:
    """Temperatures of a wire at t_0 ... t_n, starting from temperature.

    currents is a float array of n samples, read as Python floats and each
    held over its step of dt; entry k of the result is the temperature
    after k classical RK4 steps of the heat balance (module docstring).

    The steps run one PWM segment (a run of equal currents) at a time.  Each
    step is a pure function of (temperature, current), so a segment whose
    start temperature, current and length key an entry of memo repeats it
    bit for bit and is copied; any other is stepped and stored there, as a
    view of the result.  A memo shared by two wires reuses either's
    segments, and a periodic drive tiles itself from its fixed point (the
    periodic steady state of Aprille & Trick 1972, Proc. IEEE 60:108).
    Keys match 0.0 with -0.0, which step alike (each slope at 0 K is >= 0);
    a NaN never matches.
    """
    resistance = props.resistance
    h_area = props.h * env.convection_multiplier * props.lateral_area
    cap = props.heat_capacity
    t_amb = env.t_amb
    memo = {} if memo is None else memo
    size = currents.size
    temps = np.empty(size + 1)
    out = memoryview(temps)    # stores Python floats without NumPy scalar overhead
    temp = out[0] = temperature
    edges = [0, *(np.flatnonzero(currents[1:] != currents[:-1]) + 1).tolist(), size]
    for start, end in zip(edges, edges[1:] if size else ()):    # none in an empty drive
        current = float(currents[start])
        key = (temp, current, end - start)
        segment = memo.get(key)
        if segment is not None:
            temps[start + 1:end + 1] = segment
            temp = out[end]
            continue
        q = current * current * resistance
        for k in range(start + 1, end + 1):
            k1 = (q - h_area * (temp - t_amb)) / cap
            t2 = temp + 0.5 * dt * k1
            k2 = (q - h_area * (t2 - t_amb)) / cap
            t3 = temp + 0.5 * dt * k2
            k3 = (q - h_area * (t3 - t_amb)) / cap
            t4 = temp + dt * k3
            k4 = (q - h_area * (t4 - t_amb)) / cap
            temp = temp + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            out[k] = temp
        memo[key] = temps[start + 1:end + 1]
    return temps


def _branch_trace(temps, branch, anchor_t):
    """Branch (int8) and anchor temperature (float64) of a wire after 0 ... n steps.

    temps is a temperature_trace of n steps, starting at the wire's
    temperature, and branch and anchor_t are the wire's before its first
    step; both results align with temps.  A step whose temperature change
    has a sign that differs from the branch switches to that sign's branch
    and anchors at the temperature the step starts from; a step with no
    change keeps the branch.  So the branch follows the temperatures alone,
    whatever xi does.
    """
    change = np.diff(temps)
    heating = change > 0.0
    steps = np.flatnonzero(heating | (change < 0.0))
    branches = np.where(heating[steps], BRANCH_HEATING, BRANCH_COOLING)
    switched = branches != np.concatenate(([branch], branches[:-1]))
    steps = steps[switched]
    counts = np.diff(steps + 1, prepend=0, append=temps.size)
    return (np.repeat(np.append(branch, branches[switched]).astype(np.int8), counts),
            np.repeat(np.append(anchor_t, temps[steps]), counts))


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
    """a and b as contiguous float arrays of one shape, stepped at dt <= MAX_STEP."""
    if not 0.0 < dt <= MAX_STEP:
        raise ParameterError(f"dt must be in (0, {MAX_STEP * 1e3:g} ms], got {dt}")
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ParameterError(f"{names} must have the same shape")
    return a, b


def _require_finite(*traces):
    """Raise NumericError at the first step after which any temperature trace is non-finite."""
    bad = np.flatnonzero(~np.all([np.isfinite(temps[1:]) for temps in traces], axis=0))
    if bad.size:
        raise NumericError(f"state became non-finite at sample {bad[0]}")


def _final_wire(state, temps, branches, anchors, xi, anchor_xi) -> WireState:
    """WireState after the steps over temps (and their _branch_trace) from state."""
    if temps.size == 1:
        return state
    return WireState(temperature=float(temps[-1]), xi=xi, anchor_xi=anchor_xi,
                     anchor_t=float(anchors[-1]), branch=int(branches[-1]))


def _band(props: WireProperties):
    """band(sigma) -> the stress-shifted (M_f, M_s, A_s, A_f) of wires props, kelvin."""
    m_f, m_s, a_s, a_f, c_m, c_a = props.m_f, props.m_s, props.a_s, props.a_f, props.c_m, props.c_a
    return lambda sigma: (m_f + sigma / c_m, m_s + sigma / c_m,
                          a_s + sigma / c_a, a_f + sigma / c_a)


def transformation_temperatures(props: WireProperties, sigma: float):
    """Stress-shifted (M_f, M_s, A_s, A_f), kelvin."""
    return _band(props)(sigma)


def simulate_wire(currents, sigmas, props: WireProperties, env: Environment,
                  dt: float, state: WireState | None = None):
    """Drive one wire group with per-sample current and applied stress.

    currents and sigmas are same-length sample arrays, each sample held
    over its step.  The temperatures come first (temperature_trace); then
    _phase_step advances xi to each new temperature in the band that the
    step's stress shifts, on the branch and anchor temperature that
    _branch_trace gives, as each wire of mechanics.simulate_drive is
    stepped; so xi stays 1 wherever that loop skips a stretch (temps and,
    on the heating branch, anchors at or below the shifted A_s, from
    xi = anchor_xi = 1).  Returns (temperature trace, xi trace, final
    WireState), the traces holding the state after each step.  Raises
    NumericError at the first sample whose temperature is non-finite.
    """
    currents, sigmas = _sample_arrays(dt, currents, sigmas, "currents and sigmas")
    if sigmas.size and sigmas.min() < 0.0:
        raise ParameterError(f"sigmas must be >= 0 (wires cannot push), got {sigmas.min()}")
    if state is None:
        state = relaxed_state(env)
    temps = temperature_trace(currents, state.temperature, props, env, dt)
    _require_finite(temps)
    branches, anchors = _branch_trace(temps, state.branch, state.anchor_t)
    xi, anchor_xi, branch = state.xi, state.anchor_xi, state.branch
    band = _band(props)
    out_xi = np.empty_like(currents)
    for n, (temp, new_branch, anchor_t, sigma) in enumerate(zip(
            memoryview(temps)[1:], memoryview(branches)[1:], memoryview(anchors)[1:],
            sigmas.tolist())):
        if new_branch != branch:
            branch, anchor_xi = new_branch, xi
        xi = _phase_step(xi, temp, anchor_xi, anchor_t, branch, *band(sigma))
        out_xi[n] = xi
    return temps[1:], out_xi, _final_wire(state, temps, branches, anchors, xi, anchor_xi)
