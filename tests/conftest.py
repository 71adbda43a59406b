import time
from typing import NamedTuple

import pytest

from sma_bimorph import (CalibrationProblem, CalibrationResult, CircuitParams,
                         Environment, ActuatorGeometry, WireProperties, calibrate,
                         run_sweep)

FULL_FREQUENCIES = (1.0, 5.0, 10.0, 15.0, 20.0)
FULL_DUTY_CYCLES = tuple(d / 100.0 for d in range(1, 11))


class TimedCalibration(NamedTuple):
    result: CalibrationResult
    seconds: float


@pytest.fixture(scope="session")
def props():
    return WireProperties()


@pytest.fixture(scope="session")
def env():
    return Environment()


@pytest.fixture(scope="session")
def geom():
    return ActuatorGeometry()


@pytest.fixture(scope="session")
def circuit():
    return CircuitParams()


@pytest.fixture(scope="session")
def calibrated(circuit, props, env, geom):
    """The anchor fit: {g_tip, h, k_beam} against AMADO(1 Hz, 10%) = 7.08 mm."""
    problem = CalibrationProblem(free=("g_tip", "h", "k_beam"),
                                 targets=((1.0, 0.10, 7.08),), budget=150)
    start = time.perf_counter()
    result = calibrate(problem, circuit, props, env, geom)
    return TimedCalibration(result, time.perf_counter() - start)


@pytest.fixture(scope="session")
def calibrated_sweep(circuit, calibrated):
    """Full characterization grid evaluated at the calibrated parameters."""
    fit = calibrated.result
    return run_sweep(FULL_FREQUENCIES, FULL_DUTY_CYCLES, circuit,
                     fit.props, fit.env, fit.geom)
