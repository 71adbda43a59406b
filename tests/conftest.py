import time
from typing import NamedTuple

import pytest

from sma_bimorph import (CalibrationResult, CircuitParams, Environment, ActuatorGeometry,
                         WireProperties)
from test_digests import anchor_fit, fitted_sweep


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
    start = time.perf_counter()
    result = anchor_fit(circuit, props, env, geom)
    return TimedCalibration(result, time.perf_counter() - start)


@pytest.fixture(scope="session")
def calibrated_sweep(circuit, calibrated):
    """Full characterization grid evaluated at the calibrated parameters."""
    return fitted_sweep(circuit, calibrated.result)
