"""Least-squares fit of model parameters to measured AMADO targets.

The loss surface is non-smooth at hysteresis branch reversals, so the
minimizer is derivative-free: a cyclic bounded coordinate search with a
shrinking step, deterministic for a given problem.  Each evaluation runs
the full drive protocol for every target cell and accumulates squared
relative AMADO errors.
"""

from dataclasses import dataclass, field, replace

from .drive import CircuitParams, PwmConfig
from .errors import ParameterError
from .mechanics import ActuatorGeometry
from .metrology import RUN_LENGTH, STEADY_WINDOW, FirSpec, measure_amado
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
    initial_step: float = 0.25       # fraction of each bound range
    step_floor: float = 1e-3

    def __post_init__(self):
        if not self.free:
            raise ParameterError("at least one free parameter is required")
        for name in self.free:
            if name not in FREE_PARAMETERS:
                raise ParameterError(
                    f"unknown free parameter {name!r}; choose from {sorted(FREE_PARAMETERS)}")
        if not self.targets:
            raise ParameterError("at least one target is required")
        for tgt in self.targets:
            if len(tgt) != 3 or tgt[2] <= 0:
                raise ParameterError(f"target must be (f, dc, amado_mm > 0), got {tgt}")
        if self.budget < 1:
            raise ParameterError(f"budget must be >= 1, got {self.budget}")
        if self.steady_window > self.run_length:
            raise ParameterError(f"steady_window {self.steady_window} s exceeds "
                                 f"run_length {self.run_length} s")
        for name, (lo, hi) in self.bounds.items():
            if hi <= lo:
                raise ParameterError(f"bounds for {name!r} must satisfy lo < hi")

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

    Each cell is cut from the pwm template (see measure_amado); sample_rate,
    when given, replaces the template's sample rate.
    """
    if sample_rate is not None:
        pwm = replace(pwm, sample_rate=sample_rate)
    return [measure_amado(pwm, frequency, duty_cycle, params, props, env, geom,
                          run_length, steady_window, fir).amado
            for frequency, duty_cycle, _ in targets]


def calibrate(problem: CalibrationProblem, params: CircuitParams,
              props: WireProperties, env: Environment, geom: ActuatorGeometry,
              pwm: PwmConfig = PwmConfig(), fir: FirSpec | None = None) -> CalibrationResult:
    """Minimize the summed squared relative AMADO error over the free set.

    Every evaluation measures the targets with the pwm drive template and
    the fir design (see measure_amado).  Returns the best parameters found;
    converged is False when the budget ran out before the coordinate step
    shrank to the floor.
    """
    names = list(problem.free)
    lo = {n: problem.bound(n)[0] for n in names}
    hi = {n: problem.bound(n)[1] for n in names}
    objs = {"props": props, "env": env, "geom": geom}
    start = {}
    for n in names:
        owner, attr = FREE_PARAMETERS[n]
        start[n] = min(max(getattr(objs[owner], attr), lo[n]), hi[n])

    evaluations = 0

    def loss_of(values):
        nonlocal evaluations
        evaluations += 1
        p, e, g = apply_parameters(values, props, env, geom)
        predictions = evaluate_targets(problem.targets, params, p, e, g,
                                       problem.run_length, problem.steady_window,
                                       pwm=pwm, fir=fir)
        residuals = [(pred - tgt[2]) / tgt[2]
                     for pred, tgt in zip(predictions, problem.targets)]
        return sum(r * r for r in residuals), tuple(residuals)

    current = dict(start)
    best_loss, best_residuals = loss_of(current)
    step = problem.initial_step
    converged = False
    while evaluations < problem.budget:
        improved = False
        for n in names:
            span = hi[n] - lo[n]
            for direction in (+1.0, -1.0):
                if evaluations >= problem.budget:
                    break
                trial_value = min(max(current[n] + direction * step * span, lo[n]), hi[n])
                if trial_value == current[n]:
                    continue
                trial = dict(current)
                trial[n] = trial_value
                trial_loss, trial_residuals = loss_of(trial)
                if trial_loss < best_loss:
                    current = trial
                    best_loss = trial_loss
                    best_residuals = trial_residuals
                    improved = True
                    break   # keep working this coordinate next cycle
        if not improved:
            step *= 0.5
            if step < problem.step_floor:
                converged = True
                break

    fitted_props, fitted_env, fitted_geom = apply_parameters(current, props, env, geom)
    return CalibrationResult(parameters=dict(current), residuals=best_residuals,
                             loss=best_loss, evaluations=evaluations,
                             converged=converged, props=fitted_props,
                             env=fitted_env, geom=fitted_geom)
