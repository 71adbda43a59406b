"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """Base class for everything this package raises deliberately."""


class ParameterError(SimulationError, ValueError):
    """A configuration value violates a declared invariant; field names the
    dataclass field at fault, None when no single field is."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def require(field, value, test, requirement):
    """Raise ParameterError("<field> must be <requirement>, got <value>")
    unless test(value); NaN fails every comparison, so no rule lets it pass."""
    if not test(value):
        raise ParameterError(f"{field} must be {requirement}, got {value}", field)


class ConfigError(SimulationError):
    """Config file cannot be parsed or validated; message carries the key path."""


class WindowError(SimulationError):
    """Analysis window does not cover the required whole periods."""


class ClearanceError(SimulationError):
    """Wire/beam clearance is non-positive somewhere in the operating envelope."""

    def __init__(self, clearance):
        self.clearance = clearance
        super().__init__(f"design violation: clearance {clearance:.3e} m <= 0")


class NumericError(SimulationError):
    """State became non-finite."""
