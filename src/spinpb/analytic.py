"""Steady-state two-excitation amplitudes and interference optima.

In the weak-drive limit the system state stays inside the subspace spanned
by |m, n> with m + n <= 2.  The six amplitudes obey a closed linear ODE
system; with c00 = 1 and the feedback of two excitations onto one dropped,
the steady state is one block lower-triangular solve, and yields the
equal-time photon correlation g2(0) = 2 |c02|^2 / |c01|^4.  Destructive
interference between the drive pathway and the pair-source pathway makes
c02 vanish on a discrete set of (delta, Lambda) points, located by
``find_optimal_pairs``.

The solve is array-valued.  ``SystemParams`` fields may hold broadcastable
arrays; then the weights, the 6x6 matrices and the 5x5 systems are stacked,
all points are one LAPACK call, and ``g2_analytic`` returns an array.  A
scalar point is the 0-d case, and every array element is bit-identical to
its scalar evaluation: the map sweeps and the pair search's delta scan use
the array form, brentq and ``steady_amplitudes`` the scalar one.

scipy is imported inside the functions that use it, so importing the package
(and the CLI's parse-only commands) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    SingularSystemError,
    SolverError,
    UndefinedCorrelationError,
)
from .model import SystemParams, _coefficients, _terms
from .operators import HilbertConfig

# the Hamiltonian's terms on the amplitudes' states |m, n>, in amplitude order
_BLOCK = [HilbertConfig(3, 3).basis_index(m, n)
          for m, n in ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (2, 0))]
_BLOCK_TERMS = (_terms(HilbertConfig(3, 3)).reshape(7, 9, 9)[:, _BLOCK][:, :, _BLOCK]
                .reshape(7, 36))

# optimal-pair search
_DELTA_RANGE = (-1.0, 1.0)      # default search box, in units of omega_b
_LAMBDA_RANGE = (0.0, 1.0e-5)
_SCAN_POINTS = 401              # delta samples bracketing the roots
_RESIDUAL_TOL = 1e-10           # accepted |c02| at a root, relative to |a|


@dataclass(frozen=True)
class AmplitudeVector:
    """Amplitudes of the m + n <= 2 subspace, basis |m magnons, n photons>."""

    c00: complex
    c10: complex
    c01: complex
    c11: complex
    c02: complex
    c20: complex


@dataclass(frozen=True)
class OptimalPair:
    """A (delta, Lambda) point where the two-photon amplitude vanishes."""

    delta_opt: float      # rad/s
    lambda_opt: float     # rad/s
    residual: float       # |c02| at the root


def steady_amplitudes(params: SystemParams) -> AmplitudeVector:
    """Solve the steady amplitude hierarchy of one point with c00 = 1."""
    return AmplitudeVector(1.0 + 0.0j, *_amplitudes(params))


def _amplitudes(params: SystemParams) -> np.ndarray:
    """(c10, c01, c11, c02, c20) with c00 = 1, on a last axis: (..., 5).

    The hierarchy drops the drive feedback of two excitations onto one, so
    ``_coefficient_matrix`` past c00 is a block lower-triangular system; an
    array of parameter points is one stacked solve.  Amplitudes beyond the
    float range raise ``SolverError`` rather than return inf or NaN.
    """
    M = _coefficient_matrix(params)
    M[..., 1:3, 3:6] = 0.0
    try:
        c = np.linalg.solve(M[..., 1:, 1:], -M[..., 1:, :1])
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("amplitude hierarchy is singular") from exc
    if not np.isfinite(c).all():
        raise SolverError("amplitudes overflow the float range")
    return c[..., 0]


def g2_analytic(params: SystemParams) -> float | np.ndarray:
    """Equal-time second-order correlation 2 |c02|^2 / |c01|^4.

    A float for scalar parameters, an array of their broadcast shape for
    array-valued ones.  The squared moduli are written as products and sums
    only, so an array element is bit-identical to its scalar evaluation.
    A |c01|^4 or g2 beyond the float range raises ``SolverError``: the
    quotient would be a silent 0, inf or NaN.
    """
    c = _amplitudes(params)
    c01, c02 = c[..., 1], c[..., 3]
    n01 = c01.real * c01.real + c01.imag * c01.imag
    n02 = c02.real * c02.real + c02.imag * c02.imag
    denominator = n01 * n01          # |c01|^4, zero also once it underflows
    if np.any(denominator == 0):
        raise UndefinedCorrelationError("c01 vanishes; g2(0) is undefined")
    g2 = 2.0 * n02 / denominator
    if not (np.isfinite(denominator).all() and np.isfinite(g2).all()):
        raise SolverError("|c01|^4 or g2(0) overflows the float range")
    return float(g2) if np.ndim(g2) == 0 else g2


def find_optimal_pairs(params: SystemParams,
                       delta_range: tuple[float, float] = _DELTA_RANGE,
                       lambda_range: tuple[float, float] = _LAMBDA_RANGE
                       ) -> list[OptimalPair]:
    """Locate all real roots of c02(delta, Lambda) = 0 inside a box.

    Ranges are given in units of omega_b.  Lambda enters the hierarchy only
    through the pair source, so c02 = a(delta) + b(delta) Lambda, with a the
    drive pathway (Lambda = 0) and b the pair pathway per unit Lambda
    (E = 0).  A real root needs Im(a conj(b)) = 0, which is bracketed on a
    delta scan and solved with brentq; its Lambda is -Re(a / b).  Roots are
    returned sorted by delta; an empty list means no root inside the box.
    Amplitudes beyond the float range or a root that brentq does not
    converge on raise ``SolverError``.
    """
    from scipy.optimize import brentq

    wb = params.omega_b
    d_lo, d_hi = (r * wb for r in delta_range)
    l_lo, l_hi = (r * wb for r in lambda_range)
    if not (d_lo < d_hi and 0.0 <= l_lo < l_hi):
        raise ConfigError("search box must have min < max on both axes "
                          "and Lambda >= 0")

    def pathways(delta):
        point = params.replace(delta=delta)
        a = _amplitudes(point.replace(Lambda=0.0))[..., 3]
        b = _amplitudes(point.replace(E=0.0, Lambda=1.0))[..., 3]
        return a, b

    def phase_mismatch(delta):
        # Im(a conj(b)) from real products: numpy's complex multiply can round
        # an array element differently from the same scalar
        a, b = pathways(delta)
        return a.imag * b.real - a.real * b.imag

    deltas = np.linspace(d_lo, d_hi, _SCAN_POINTS)
    values = phase_mismatch(deltas)
    # brackets skip exact zeros, which then lie inside a neighbouring
    # bracket; without drive the function vanishes everywhere: no root
    signed = np.flatnonzero(values)
    roots: list[OptimalPair] = []
    for i, j in zip(signed[:-1], signed[1:]):
        if (values[i] > 0) == (values[j] > 0):   # a product of two can underflow
            continue
        d_root, info = brentq(phase_mismatch, deltas[i], deltas[j],
                              full_output=True, disp=False)
        if not info.converged:
            raise SolverError("pair search: brentq did not converge near "
                              f"delta = {d_root:.6g} rad/s")
        a, b = pathways(d_root)
        l_root = -(a / b).real
        if not l_lo <= l_root <= l_hi:
            continue
        residual = abs(steady_amplitudes(
            params.replace(delta=d_root, Lambda=l_root)).c02)
        if residual <= _RESIDUAL_TOL * abs(a):
            roots.append(OptimalPair(d_root, l_root, residual))
    return roots


def _coefficient_matrix(params: SystemParams) -> np.ndarray:
    """Full 6x6 matrix M of i dC/dt = M C, order (c00, c10, c01, c11, c02, c20).

    M is the m + n <= 2 block of the non-Hermitian Hamiltonian; array-valued
    parameters give a stack of matrices, (..., 6, 6).
    """
    weights = _coefficients(params, hermitian=False)
    return (weights @ _BLOCK_TERMS).reshape(*weights.shape[:-1], 6, 6)
