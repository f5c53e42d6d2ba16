"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid run configuration (unknown key, unit conflict, bad range)."""


class DimensionError(ConfigError):
    """Operator or truncation dimensions are invalid or incompatible."""


class SolverError(RuntimeError):
    """Base class for failures inside a numerical solve.

    The one failure contract of the engines: ``analytic`` and ``lindblad``
    return finite numbers or raise a ``SolverError``, overflow included.
    The run layer catches nothing else: a sweep records each failed point
    as a NaN row plus one manifest record, and the CLI exits 3.
    """


class SingularSystemError(SolverError):
    """A linear block of the amplitude equations is singular.

    ``SystemParams`` rejects gamma <= 0, so this happens only when a
    subnormal gamma underflows to zero in the decay terms and nothing else
    keeps the block regular (e.g. gamma = 5e-324 at zero detuning).
    """


class UndefinedCorrelationError(SolverError):
    """Photon population vanishes; normalized correlations are undefined."""


class NonUniqueSteadyStateError(SolverError):
    """The Liouvillian admits more than one steady state (or none resolvable)."""


class LiouvillianSizeError(SolverError):
    """Requested superoperator dimension (dim^2) exceeds the size guard, 10^4."""
