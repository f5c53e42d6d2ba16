"""Exception types shared across the package."""

import numpy as np


class ConfigError(ValueError):
    """Invalid run configuration (unknown key, unit conflict, bad range)."""


class DimensionError(ConfigError):
    """Operator or truncation dimensions are invalid or incompatible."""


class SolverError(RuntimeError):
    """Base class for failures inside a numerical solve.

    The one failure contract of the engines: ``analytic`` and ``lindblad``
    return finite numbers or raise a ``SolverError``, overflow included.  An
    array-valued call raises its first failing point's own error (row-major),
    whose ``failed`` maps each failing flat index to that point's error and
    whose ``values`` is the result with NaN there; any other error keeps
    the defaults below and fails the whole call.  The run layer catches
    nothing else: a sweep records each failed point as a NaN row plus one
    manifest record, and the CLI exits 3.
    """

    failed: dict = {}
    values = np.nan


def _raise_failures(values, checks):
    """``values``, or the error of the first point that fails a check.

    ``values`` is NaN exactly at failing points; ``checks`` are (mask, error)
    pairs in the order a point meets them: a point fails at its first mask.
    """
    if not np.isnan(values).any():   # the clean case costs one test
        return values
    failed = {i: error for mask, error in reversed(checks)   # first check wins
              for i in np.flatnonzero(mask).tolist()}
    error = failed[min(failed)]
    error.failed, error.values = failed, values
    raise error


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
