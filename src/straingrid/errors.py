"""Exception hierarchy for straingrid."""


class StrainGridError(Exception):
    """Base class for all domain errors raised by this package."""


class ConfigError(StrainGridError):
    """Invalid configuration document or parameter set."""


class ConfigParseError(ConfigError):
    """The configuration file is not valid JSON."""


class InvalidConnectivity(ConfigError):
    """A coupling matrix fails structural properties; `failures` holds the
    message of each, as connectivity.validate_connectivity lists them."""

    def __init__(self, failures):
        super().__init__(f"invalid connectivity matrix: {'; '.join(failures)}")
        self.failures = failures


class SubcriticalPatch(StrainGridError):
    """A patch with beta <= r + gamma: the disease dies out locally and
    the endemic equilibrium (hence the whole reduction) is undefined."""


class ExtinctPatch(StrainGridError):
    """All strain mass vanished in some patch; frequencies are undefined."""


class StiffnessFailure(StrainGridError):
    """The adaptive integrator's step size underflowed, its step budget
    ran out or its error estimate overflowed."""


class NumericalBlowup(StrainGridError):
    """The right-hand side returned non-finite values."""
