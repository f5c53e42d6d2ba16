"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid run configuration (unknown key, unit conflict, bad range)."""


class DimensionError(ConfigError):
    """Operator or truncation dimensions are invalid or incompatible."""


class SolverError(RuntimeError):
    """Base class for failures inside a numerical solve."""


class SingularSystemError(SolverError):
    """A linear block of the amplitude equations is singular (gamma = 0)."""


class UndefinedCorrelationError(SolverError):
    """Photon population vanishes; normalized correlations are undefined."""


class NonUniqueSteadyStateError(SolverError):
    """The Liouvillian admits more than one steady state (or none resolvable)."""


class LiouvillianSizeError(SolverError):
    """Requested superoperator dimension (dim^2) exceeds the size guard, 10^4."""
