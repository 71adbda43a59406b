"""Simulation and characterization toolkit for a mm-scale antagonistic
SMA bimorph actuator and the surface-swimming microrobot it drives."""

from .calibration import (CalibrationProblem, CalibrationResult, apply_parameters,
                          calibrate)
from .config import ScenarioConfig, parse_config
from .drive import (CircuitParams, DriveTrace, PowerTrace, PwmConfig, average_power,
                    instantaneous_power, make_pwm_pair)
from .mechanics import (ActuatorGeometry, ActuatorState, DisplacementTrace,
                        EquilibriumResult, clearance_check, relaxed_actuator,
                        run_mode_trace, solve_equilibrium, tip_envelope)
from .metrology import (AmadoResult, FirSpec, Protocol, SweepTable, compute_amado,
                        design_fir, filter_zero_phase, measure_amado, run_sweep)
from .sma import (Environment, WireProperties, WireState, relaxed_state, simulate_wire,
                  transformation_temperatures, wire_strain)
from .swimmer import (SwimmerParams, body_lengths_per_second, fit_thrust_coefficient,
                      reynolds, run_swimmer, steady_speed)

__version__ = "0.1.0"

__all__ = [
    "ActuatorGeometry", "ActuatorState", "AmadoResult", "CalibrationProblem",
    "CalibrationResult", "CircuitParams", "DisplacementTrace", "DriveTrace",
    "Environment", "EquilibriumResult", "FirSpec", "PowerTrace", "Protocol", "PwmConfig",
    "ScenarioConfig", "SweepTable", "SwimmerParams", "WireProperties",
    "WireState", "apply_parameters", "average_power", "body_lengths_per_second",
    "calibrate", "clearance_check", "compute_amado", "design_fir", "filter_zero_phase",
    "fit_thrust_coefficient", "instantaneous_power", "make_pwm_pair", "measure_amado",
    "parse_config", "relaxed_actuator", "relaxed_state", "reynolds", "run_mode_trace",
    "run_swimmer", "run_sweep", "simulate_wire", "solve_equilibrium", "steady_speed",
    "tip_envelope", "transformation_temperatures", "wire_strain",
]
