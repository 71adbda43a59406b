"""Least-squares fit of model parameters to measured AMADO targets.

Each evaluation runs the full drive protocol for every target cell and
accumulates squared relative AMADO errors.  The tip gain g_tip only scales
the tip trace (delta = g_tip * theta), and the FIR filter, the per-period
peak-to-peak and the mean are linear, so every AMADO is proportional to
g_tip.  When g_tip is free it is therefore profiled out in closed form
from each evaluation (variable projection, Golub & Pereyra 1973) instead
of being searched.  The other free parameters act on the non-smooth
hysteresis dynamics, so the minimizer over them is derivative-free: a
cyclic bounded coordinate search with a shrinking step, deterministic for
a given problem.  The fit stops early once the loss reaches LOSS_FLOOR.
"""

from dataclasses import dataclass, field, replace

from .drive import CircuitParams, PwmConfig
from .errors import require
from .mechanics import ActuatorGeometry
from .metrology import RUN_LENGTH, STEADY_WINDOW, FirSpec, Protocol, measure_amado
# unused here, but perfbench's tracing tests look run_mode_trace up in this module
from .metrology import run_mode_trace  # noqa: F401
from .sma import Environment, WireProperties

# name -> (which object it lives on, attribute)
FREE_PARAMETERS = {
    "h": ("props", "h"),
    "convection_multiplier": ("env", "convection_multiplier"),
    "k_beam": ("geom", "k_beam"),
    "g_tip": ("geom", "g_tip"),
    "c_a": ("props", "c_a"),
    "c_m": ("props", "c_m"),
    "eps_l": ("props", "eps_l"),
    "pre_strain": ("props", "pre_strain"),
}

# Bounds keep the fit inside the physically plausible neighborhood of the
# nominal constants.  The single-anchor problem is underdetermined in
# {g_tip, h, k_beam}; a much wider box lets the search drift into the
# stuck-state regime (no re-martensite at high drive frequency) that the
# hardware only reaches above 10% duty in dry air.
DEFAULT_BOUNDS = {
    "h": (140.0, 170.0),
    "convection_multiplier": (1.0, 3.0),
    "k_beam": (7e-3, 1.2e-2),
    "g_tip": (8e-3, 30e-3),
    "c_a": (4e6, 12e6),
    "c_m": (4e6, 12e6),
    "eps_l": (0.02, 0.06),
    "pre_strain": (0.0, 4e-3),
}

# A loss this small is zero to rounding: a relative AMADO residual of 1e-12
# per target.  The fit stops when it gets there; with g_tip free and a single
# target reachable inside its bounds, the first evaluation already does.
LOSS_FLOOR = 1e-24
INITIAL_STEP = 0.25   # first coordinate step, as a fraction of each bound range
STEP_FLOOR = 1e-3     # the search has converged once the step halves below this


@dataclass(frozen=True)
class CalibrationProblem:
    """Free parameters, AMADO targets and the evaluation budget.

    targets are (frequency Hz, duty cycle fraction, AMADO mm) triples;
    bounds default to DEFAULT_BOUNDS for any free parameter not listed.
    """

    free: tuple = ("g_tip", "h", "k_beam")   # parameter names
    targets: tuple = ((1.0, 0.10, 7.08),)    # of (f, dc, amado_mm)
    bounds: dict = field(default_factory=dict)
    budget: int = 150                        # max model evaluations
    run_length: float = RUN_LENGTH           # s per evaluation cell
    steady_window: float = STEADY_WINDOW     # s

    def __post_init__(self):
        require("free", self.free,
                lambda names: names and all(n in FREE_PARAMETERS for n in names),
                f"a non-empty tuple of names from {sorted(FREE_PARAMETERS)}")
        require("targets", self.targets,
                lambda ts: ts and all(len(t) == 3 and t[0] > 0 and 0 <= t[1] <= 1 and t[2] > 0
                                      for t in ts),
                "a non-empty tuple of (f > 0, 0 <= dc <= 1, amado_mm > 0)")
        require("budget", self.budget, lambda v: v >= 1, ">= 1")
        Protocol(run_length=self.run_length, steady_window=self.steady_window)
        require("bounds", self.bounds, lambda b: all(lo < hi for lo, hi in b.values()),
                "a mapping of name -> (lo, hi) with lo < hi")

    def bound(self, name):
        return self.bounds.get(name, DEFAULT_BOUNDS[name])


@dataclass(frozen=True)
class CalibrationResult:
    parameters: dict          # fitted values
    residuals: tuple          # per-target relative errors
    loss: float
    evaluations: int
    converged: bool
    props: WireProperties
    env: Environment
    geom: ActuatorGeometry


def apply_parameters(values: dict, props: WireProperties, env: Environment,
                     geom: ActuatorGeometry):
    """New (props, env, geom) with the named parameters replaced."""
    objs = {"props": props, "env": env, "geom": geom}
    for name, value in values.items():
        owner, attr = FREE_PARAMETERS[name]
        objs[owner] = replace(objs[owner], **{attr: value})
    return objs["props"], objs["env"], objs["geom"]


def evaluate_targets(targets, params: CircuitParams, props: WireProperties,
                     env: Environment, geom: ActuatorGeometry,
                     run_length, steady_window, sample_rate=None,
                     pwm: PwmConfig = PwmConfig(), fir: FirSpec | None = None):
    """Model AMADO (mm) for every target cell.

    The cells are measured under Protocol(pwm, fir, run_length,
    steady_window); sample_rate, when given, replaces the template's sample
    rate, and fir defaults to the standard design at that rate.
    """
    if sample_rate is not None:
        pwm = replace(pwm, sample_rate=sample_rate)
    protocol = Protocol(pwm, fir or FirSpec(fs=pwm.sample_rate), run_length, steady_window)
    return [measure_amado(protocol, frequency, duty_cycle, params, props, env, geom).amado
            for frequency, duty_cycle, _ in targets]


def calibrate(problem: CalibrationProblem, params: CircuitParams,
              props: WireProperties, env: Environment, geom: ActuatorGeometry,
              pwm: PwmConfig = PwmConfig(), fir: FirSpec | None = None) -> CalibrationResult:
    """Minimize the summed squared relative AMADO error over the free set.

    Every evaluation measures the targets under Protocol(pwm, fir,
    problem.run_length, problem.steady_window) (see evaluate_targets).  A
    free g_tip is set in closed form at every evaluation, clamped to its
    bounds; the coordinate search covers the other free parameters.
    Returns the best parameters found; converged is False when the budget
    ran out before the loss reached LOSS_FLOOR or the step shrank to the floor.
    """
    names = list(problem.free)
    lo = {n: problem.bound(n)[0] for n in names}
    hi = {n: problem.bound(n)[1] for n in names}
    objs = {"props": props, "env": env, "geom": geom}
    start = {}
    for n in names:
        owner, attr = FREE_PARAMETERS[n]
        start[n] = min(max(getattr(objs[owner], attr), lo[n]), hi[n])
    searched = [n for n in names if n != "g_tip"]

    evaluations = 0

    def loss_of(values):
        """(loss, residuals, values), with a free g_tip replaced by its best fit."""
        nonlocal evaluations
        evaluations += 1
        p, e, g = apply_parameters(values, props, env, geom)
        predictions = evaluate_targets(problem.targets, params, p, e, g,
                                       problem.run_length, problem.steady_window,
                                       pwm=pwm, fir=fir)
        if "g_tip" in values:
            # minimizer over s of sum(((s * a_i - t_i) / t_i)^2), s = g / g0
            ratios = [pred / tgt[2] for pred, tgt in zip(predictions, problem.targets)]
            norm = sum(r * r for r in ratios)
            if norm > 0.0:
                g0 = values["g_tip"]
                gain = min(max(g0 * sum(ratios) / norm, lo["g_tip"]), hi["g_tip"])
                predictions = [pred * (gain / g0) for pred in predictions]
                values = dict(values, g_tip=gain)
        residuals = [(pred - tgt[2]) / tgt[2]
                     for pred, tgt in zip(predictions, problem.targets)]
        return sum(r * r for r in residuals), tuple(residuals), values

    best_loss, best_residuals, current = loss_of(start)
    step = INITIAL_STEP
    converged = best_loss <= LOSS_FLOOR
    while not converged and evaluations < problem.budget:
        improved = False
        for n in searched:
            span = hi[n] - lo[n]
            for direction in (+1.0, -1.0):
                if evaluations >= problem.budget or best_loss <= LOSS_FLOOR:
                    break
                trial_value = min(max(current[n] + direction * step * span, lo[n]), hi[n])
                if trial_value == current[n]:
                    continue
                trial_loss, trial_residuals, trial = loss_of(dict(current, **{n: trial_value}))
                if trial_loss < best_loss:
                    current = trial
                    best_loss = trial_loss
                    best_residuals = trial_residuals
                    improved = True
                    break   # keep working this coordinate next cycle
        if best_loss <= LOSS_FLOOR:
            converged = True
        elif not improved:
            step *= 0.5
            converged = step < STEP_FLOOR

    fitted_props, fitted_env, fitted_geom = apply_parameters(current, props, env, geom)
    return CalibrationResult(parameters=dict(current), residuals=best_residuals,
                             loss=best_loss, evaluations=evaluations,
                             converged=converged, props=fitted_props,
                             env=fitted_env, geom=fitted_geom)
