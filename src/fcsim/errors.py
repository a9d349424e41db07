"""Exception types shared across the package."""


class FcsimError(Exception):
    """Base class for all package errors."""


class ConfigError(FcsimError):
    """Base class for configuration problems (bad file, bad values)."""


class NonPhysicalParameter(ConfigError):
    """A parameter is outside its physical range (negative energy, R > 1, ...)."""


class EnergyConservationViolated(ConfigError):
    """A wavelength set violates one of the four-wave-mixing energy relations.

    The message names the offending relation and the relative error.
    """


class UnknownConfigKey(ConfigError):
    """A config document contains a key that is not part of the schema."""


class MissingConfigKey(ConfigError):
    """A required config key is absent."""


class GridTooCoarse(FcsimError):
    """The time grid cannot resolve the signal envelope."""


class DivisionByZeroRate(FcsimError):
    """A correlation denominator is zero (vacuum input or zero efficiency)."""


class NoConvergence(FcsimError):
    """An iterative solver failed to converge; carries the best point found."""

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class Underdetermined(FcsimError):
    """Calibration was given a target that pins no config parameter."""


class CurveRangeExceeded(FcsimError):
    """A multiplexing plan needs the readout curve beyond its tabulated range."""


class SingularFit(FcsimError):
    """The data cannot constrain the requested fit (degenerate input)."""


class EmptyInput(FcsimError):
    """An estimator was called with no records."""


class CorruptRecords(FcsimError):
    """A record file disagrees with its manifest or with the record format."""
