"""Exception hierarchy for straingrid."""


class StrainGridError(Exception):
    """Base class for all domain errors raised by this package."""


class ConfigError(StrainGridError):
    """Invalid configuration document or parameter set."""


class ConfigParseError(ConfigError):
    """The configuration file is not valid JSON."""


class InvalidConnectivity(ConfigError):
    """A coupling matrix fails a structural property; `report` says which."""

    def __init__(self, report):
        super().__init__(f"invalid connectivity matrix: {report}")
        self.report = report


class SubcriticalPatch(StrainGridError):
    """A patch with beta <= r + gamma: the disease dies out locally and
    the endemic equilibrium (hence the whole reduction) is undefined."""


class ExtinctPatch(StrainGridError):
    """All strain mass vanished in some patch; frequencies are undefined."""


class StiffnessFailure(StrainGridError):
    """The adaptive integrator's step size underflowed."""


class NumericalBlowup(StrainGridError):
    """The right-hand side returned non-finite values."""
