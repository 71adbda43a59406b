"""Scenario configuration: strict YAML ingestion with full defaults.

The file is a two-level mapping, section -> key -> value.  Unknown
sections or keys are rejected with the offending key path; every value is
type-checked and the module invariants run before any simulation starts.
An empty file (or empty string) yields the characterization protocol the
hardware used: 2 kHz sampling, a 250 mA on-state, 30 s runs
with a 15 s steady window, the published frequency and duty-cycle grid.
Each default is the default of the dataclass field its key maps to.
"""

import math
from dataclasses import dataclass, field

import yaml

from .calibration import FREE_PARAMETERS, CalibrationProblem
from .drive import CircuitParams, PwmConfig
from .errors import ConfigError, ParameterError, WindowError
from .mechanics import ActuatorGeometry
from .metrology import RUN_LENGTH, STEADY_WINDOW, FirSpec, Protocol
from .sma import MAX_STEP, Environment, WireProperties
from .swimmer import SwimmerParams

_NUMBER = (int, float)


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated configuration for every subcommand."""

    pwm: PwmConfig
    circuit: CircuitParams
    props: WireProperties
    env: Environment
    geom: ActuatorGeometry
    fir: FirSpec
    swimmer: SwimmerParams
    calibration: CalibrationProblem
    duration: float = RUN_LENGTH          # s, simulate and power
    run_length: float = RUN_LENGTH        # s per sweep and swim cell
    steady_window: float = STEADY_WINDOW  # s
    sweep_frequencies: tuple = (1.0, 5.0, 10.0, 15.0, 20.0)
    sweep_duty_cycles: tuple = tuple(d / 100.0 for d in range(1, 11))   # fractions
    swim_drive_frequency: float = 3.0     # Hz
    swim_convection_multiplier: float = 1.5
    swim_scan_frequencies: tuple = (1.0, 2.0, 3.0, 4.0)
    scenario: str = "default"
    out_dir: str = "out"
    warnings: tuple = field(default_factory=tuple)

    @property
    def protocol(self) -> Protocol:
        """The protocol every sweep and swim cell is measured under."""
        return Protocol(self.pwm, self.fir, self.run_length, self.steady_window)


def _percent(value):
    return value / 100.0


def _percents(values):
    return tuple(v / 100.0 for v in values)


def _targets(values):
    return tuple((f, dc / 100.0, amado) for f, dc, amado in values)


# section -> key -> (type tag, owning dataclass, field, conversion from the
# file's unit to the field's, None when they agree)
_KEYS = {
    "drive": {
        "frequency_hz": ("number", PwmConfig, "frequency", None),
        "duty_cycle_pct": ("number", PwmConfig, "duty_cycle", _percent),
        "phase_shift": ("number", PwmConfig, "phase_shift", None),
        "mode": ("string", PwmConfig, "mode", None),
        "sample_rate_hz": ("number", PwmConfig, "sample_rate", None),
        "duration_s": ("number", ScenarioConfig, "duration", None),
        "r_a_ohm": ("number", CircuitParams, "r_a", None),
        "i_limit_a": ("number", CircuitParams, "i_limit", None),
        "i_on_a": ("number", CircuitParams, "i_on", None),
    },
    "sma": {
        "diameter_m": ("number", WireProperties, "diameter", None),
        "active_length_m": ("number", WireProperties, "active_length", None),
        "parallel_strands": ("integer", WireProperties, "parallel_strands", None),
        "density_kg_m3": ("number", WireProperties, "density", None),
        "specific_heat_j_kg_k": ("number", WireProperties, "specific_heat", None),
        "convection_w_m2_k": ("number", WireProperties, "h", None),
        "m_f_k": ("number", WireProperties, "m_f", None),
        "m_s_k": ("number", WireProperties, "m_s", None),
        "a_s_k": ("number", WireProperties, "a_s", None),
        "a_f_k": ("number", WireProperties, "a_f", None),
        "stress_coeff_m_pa_k": ("number", WireProperties, "c_m", None),
        "stress_coeff_a_pa_k": ("number", WireProperties, "c_a", None),
        "modulus_austenite_pa": ("number", WireProperties, "e_a", None),
        "modulus_martensite_pa": ("number", WireProperties, "e_m", None),
        "max_recoverable_strain": ("number", WireProperties, "eps_l", None),
        "resistivity_ohm_m": ("number", WireProperties, "resistivity", None),
        "pre_strain": ("number", WireProperties, "pre_strain", None),
    },
    "environment": {
        "ambient_k": ("number", Environment, "t_amb", None),
        "convection_multiplier": ("number", Environment, "convection_multiplier", None),
    },
    "geometry": {
        "length_m": ("number", ActuatorGeometry, "length", None),
        "wire_angle_deg": ("number", ActuatorGeometry, "alpha", math.radians),
        "moment_arm_m": ("number", ActuatorGeometry, "r_m", None),
        "beam_stiffness_nm_rad": ("number", ActuatorGeometry, "k_beam", None),
        "tip_gain_m_rad": ("number", ActuatorGeometry, "g_tip", None),
        "mount_offset_m": ("number", ActuatorGeometry, "mount_offset", None),
        "beam_radius_m": ("number", ActuatorGeometry, "beam_radius", None),
        "anchor_standoff_m": ("number", ActuatorGeometry, "anchor_standoff", None),
    },
    "metrology": {
        "fir_order": ("integer", FirSpec, "order", None),
        "fir_cutoff_hz": ("number", FirSpec, "cutoff", None),
        "run_s": ("number", ScenarioConfig, "run_length", None),
        "steady_window_s": ("number", ScenarioConfig, "steady_window", None),
        "frequencies_hz": ("number_list", ScenarioConfig, "sweep_frequencies", None),
        "duty_cycles_pct": ("number_list", ScenarioConfig, "sweep_duty_cycles", _percents),
    },
    "swimmer": {
        "body_length_m": ("number", SwimmerParams, "body_length", None),
        "mass_kg": ("number", SwimmerParams, "mass", None),
        "head_lateral_cda_m2": ("number", SwimmerParams, "head_lateral_cda", None),
        "tail_lateral_cda_m2": ("number", SwimmerParams, "tail_lateral_cda", None),
        "thrust_coeff": ("number", SwimmerParams, "thrust_coeff", None),
        "longitudinal_cda_m2": ("number", SwimmerParams, "longitudinal_cda", None),
        "linear_drag_n_s_m": ("number", SwimmerParams, "linear_drag", None),
        "water_density_kg_m3": ("number", SwimmerParams, "rho", None),
        "kinematic_viscosity_m2_s": ("number", SwimmerParams, "nu", None),
        "duty_cycle": ("number", SwimmerParams, "duty_cycle", None),
        "tail_gain_rad_m": ("number", SwimmerParams, "tail_gain", None),
        "tail_lever_m": ("number", SwimmerParams, "tail_lever", None),
        "head_lever_m": ("number", SwimmerParams, "head_lever", None),
        "yaw_ref_speed_m_s": ("number", SwimmerParams, "yaw_ref_speed", None),
        "drive_frequency_hz": ("number", ScenarioConfig, "swim_drive_frequency", None),
        "water_convection_multiplier": ("number", ScenarioConfig,
                                        "swim_convection_multiplier", None),
        "scan_frequencies_hz": ("number_list", ScenarioConfig, "swim_scan_frequencies", None),
    },
    "calibration": {
        "free_parameters": ("string_list", CalibrationProblem, "free", None),
        "targets": ("target_list", CalibrationProblem, "targets", _targets),
        "budget": ("integer", CalibrationProblem, "budget", None),
        "bounds": ("bounds_map", CalibrationProblem, "bounds", None),
        "run_s": ("number", CalibrationProblem, "run_length", None),
        "steady_window_s": ("number", CalibrationProblem, "steady_window", None),
    },
    "run": {
        "scenario": ("string", ScenarioConfig, "scenario", None),
        "out_dir": ("string", ScenarioConfig, "out_dir", None),
    },
}


def _is_number(value):
    return isinstance(value, _NUMBER) and not isinstance(value, bool)


def _numbers(path, value, expected, length=None):
    if not (isinstance(value, list) and value and all(map(_is_number, value))
            and length in (None, len(value))):
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")
    return tuple(float(v) for v in value)


def _check_type(path, tag, value):
    if tag == "number":
        if not _is_number(value):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        return float(value)
    if tag == "integer":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if tag == "string":
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    if tag == "number_list":
        return _numbers(path, value, "a non-empty list of numbers")
    if tag == "string_list":
        if not (isinstance(value, list) and value and all(isinstance(v, str) for v in value)):
            raise ConfigError(f"{path}: expected a non-empty list of strings, got {value!r}")
        return tuple(value)
    if tag == "target_list":
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected a non-empty list of targets, got {value!r}")
        return tuple(_numbers(f"{path}[{i}]", item, "[frequency_hz, dc_pct, amado_mm]", 3)
                     for i, item in enumerate(value))
    if tag == "bounds_map":
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected a mapping of parameter -> [lo, hi]")
        for name in value:
            if name not in FREE_PARAMETERS:
                raise ConfigError(
                    f"{path}.{name}: unknown parameter; choose from {sorted(FREE_PARAMETERS)}")
        return {name: _numbers(f"{path}.{name}", pair, "[lo, hi]", 2)
                for name, pair in value.items()}
    raise AssertionError(f"unhandled schema tag {tag}")


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate YAML config text; empty text gives all defaults."""
    try:
        raw = yaml.safe_load(text) if text.strip() else {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"top level must be a mapping of sections, got {type(raw).__name__}")

    fields = {}   # owning dataclass -> field -> value given in the file
    for section, content in raw.items():
        if section not in _KEYS:
            raise ConfigError(f"{section}: unknown section")
        if content is None:
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"{section}: expected a mapping of keys")
        for key, value in content.items():
            if key not in _KEYS[section]:
                raise ConfigError(f"{section}.{key}: unknown key")
            tag, owner, name, convert = _KEYS[section][key]
            value = _check_type(f"{section}.{key}", tag, value)
            value = convert(value) if convert else value
            if tag == "number_list" and len(set(value)) < len(value):
                raise ConfigError(f"{section}.{key}: entries must be distinct")
            fields.setdefault(owner, {})[name] = value

    def build(section, owner, **derived):
        given = fields.get(owner, {})
        try:
            return owner(**given, **derived)
        except ParameterError as exc:
            # an error that opens with the name of a field set in the file is
            # reported under that field's key, any other under the section
            name = str(exc).split(" ", 1)[0]
            path = next((f"{section}.{key}" for key, (_, cls, field_name, _)
                         in _KEYS[section].items()
                         if cls is owner and field_name == name and name in given),
                        section)
            raise ConfigError(f"{path}: {exc}") from exc

    pwm = build("drive", PwmConfig)
    if 1.0 / pwm.sample_rate > MAX_STEP:
        raise ConfigError(f"drive.sample_rate_hz: must be >= {1.0 / MAX_STEP:g} Hz, "
                          f"a time step of at most {MAX_STEP * 1e3:g} ms, got {pwm.sample_rate}")
    circuit = build("drive", CircuitParams)
    props = build("sma", WireProperties)
    env = build("environment", Environment)
    geom = build("geometry", ActuatorGeometry)
    fir = build("metrology", FirSpec, fs=pwm.sample_rate)
    swimmer = build("swimmer", SwimmerParams)
    calibration = build("calibration", CalibrationProblem)

    warnings = []
    # characterization above 10% duty cycle in dry air risks a stuck actuation state
    if pwm.duty_cycle > 0.10 and env.convection_multiplier == 1.0:
        warnings.append(
            f"drive.duty_cycle_pct = {pwm.duty_cycle * 100.0:g} exceeds 10% in dry air; "
            "the physical actuator can get stuck in one actuation state")

    cfg = ScenarioConfig(pwm=pwm, circuit=circuit, props=props, env=env, geom=geom,
                         fir=fir, swimmer=swimmer, calibration=calibration,
                         warnings=tuple(warnings), **fields.get(ScenarioConfig, {}))
    if cfg.duration <= 0:
        raise ConfigError(f"drive.duration_s: must be > 0, got {cfg.duration}")
    try:
        protocol = cfg.protocol
    except ParameterError as exc:
        key = "run_s" if str(exc).startswith("run_length") else "steady_window_s"
        raise ConfigError(f"metrology.{key}: {exc}") from exc
    if not all(f > 0 for f in cfg.sweep_frequencies):
        raise ConfigError("metrology.frequencies_hz: entries must be > 0")
    if not all(0 <= dc <= 1 for dc in cfg.sweep_duty_cycles):
        raise ConfigError("metrology.duty_cycles_pct: entries must be in [0, 100]")
    if cfg.swim_convection_multiplier < 1.0:
        raise ConfigError("swimmer.water_convection_multiplier: must be >= 1")
    if cfg.swim_drive_frequency <= 0:
        raise ConfigError("swimmer.drive_frequency_hz: must be > 0")
    if min(cfg.swim_scan_frequencies) < 0:
        raise ConfigError("swimmer.scan_frequencies_hz: entries must be >= 0")
    # every cell a command will measure, under the protocol it is measured with
    fit = Protocol(pwm, fir, calibration.run_length, calibration.steady_window)
    cells = [("metrology", protocol, f, dc)
             for f in cfg.sweep_frequencies for dc in cfg.sweep_duty_cycles]
    cells.append(("swimmer", protocol, cfg.swim_drive_frequency, swimmer.duty_cycle))
    cells += [("calibration.targets", fit, f, dc) for f, dc, _ in calibration.targets]
    for path, cell_protocol, f, dc in cells:
        try:
            cell_protocol.cell(f, dc)
        except (ParameterError, WindowError) as exc:
            raise ConfigError(f"{path}: cell (f={f:g} Hz, DC={dc * 100:g}%) cannot be "
                              f"measured: {exc}") from exc
    return cfg
