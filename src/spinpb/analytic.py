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
its scalar evaluation or fails with its scalar error, which the array call's
error names (``SolverError``): map sweeps, the pair search's delta scan and
brentq steps use the array form, and each root's check the scalar one.

scipy is imported inside the functions that use it, so importing the package
(and the CLI's parse-only commands) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (SingularSystemError, SolverError, UndefinedCorrelationError,
                     _raise_failures)
from .model import SystemParams, _coefficients, _one_point, _terms
from .operators import HilbertConfig

# the Hamiltonian's terms on the amplitudes' states |m, n>, in amplitude order
_BLOCK = [HilbertConfig(3, 3).basis_index(m, n)
          for m, n in ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (2, 0))]
_BLOCK_TERMS = (_terms(HilbertConfig(3, 3)).reshape(7, 9, 9)[:, _BLOCK][:, :, _BLOCK]
                .reshape(7, 36))

# optimal-pair search
_DELTA_RANGE = (-1.0, 1.0)      # the one search box, in units of omega_b
_LAMBDA_RANGE = (0.0, 1.0e-5)
_SCAN_POINTS = 401              # delta samples bracketing the roots
_RESIDUAL_TOL = 1e-10           # accepted |c02| at a root, relative to |a|


@dataclass(frozen=True)
class AmplitudeVector:
    """Amplitudes of the m + n <= 2 subspace, basis |m magnons, n photons>.

    For array-valued parameters c10 ... c20 are arrays of the points'
    broadcast shape; c00 is 1 throughout.
    """

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
    """Solve the steady amplitude hierarchy with c00 = 1, at one point or many."""
    c = _raise_failures(*_amplitudes(params))
    return AmplitudeVector(1.0 + 0.0j, *np.moveaxis(c, -1, 0))


def _amplitudes(params: SystemParams) -> tuple[np.ndarray, list]:
    """(c10, c01, c11, c02, c20) with c00 = 1, on a last axis: (..., 5), NaN
    at failing points, and the checks for ``_raise_failures``.

    The hierarchy drops the drive feedback of two excitations onto one, so
    ``_coefficient_matrix`` past c00 is a block lower-triangular system; an
    array of parameter points is one stacked solve.  A point fails if its
    system is singular or else its amplitudes overflow the float range.
    LAPACK fails the whole stack for one singular system, so only then are
    the singular ones found, by determinant sign, and solved as identities.
    """
    M = _coefficient_matrix(params)
    M[..., 1:3, 3:6] = 0.0
    A, singular = M[..., 1:, 1:], False
    try:
        c = np.linalg.solve(A, -M[..., 1:, :1])[..., 0]
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(A)[0] == 0
        A[singular] = np.eye(5)
        c = np.linalg.solve(A, -M[..., 1:, :1])[..., 0]
    overflow = ~np.isfinite(c).all(axis=-1)
    c[singular | overflow] = np.nan
    return c, [(singular, SingularSystemError("amplitude hierarchy is singular")),
               (overflow, SolverError("amplitudes overflow the float range"))]


def g2_analytic(params: SystemParams) -> float | np.ndarray:
    """Equal-time second-order correlation 2 |c02|^2 / |c01|^4.

    A float for scalar parameters, an array of their broadcast shape for
    array-valued ones.  The squared moduli are written as products and sums
    only, so an array element is bit-identical to its scalar evaluation.
    Past ``_amplitudes``'s checks, a point fails if |c01|^4 vanishes or else
    if |c01|^4 or g2 overflows: the quotient would be a silent 0, inf or
    NaN.  An array call fails as ``SolverError`` says, per point.
    """
    c, checks = _amplitudes(params)
    c01, c02 = c[..., 1], c[..., 3]
    n01 = c01.real * c01.real + c01.imag * c01.imag
    n02 = c02.real * c02.real + c02.imag * c02.imag
    denominator = n01 * n01          # |c01|^4, zero also once it underflows
    vanishes = denominator == 0
    g2 = 2.0 * n02 / np.where(vanishes, np.nan, denominator)
    overflow = ~(np.isfinite(denominator) & np.isfinite(g2))   # NaN g2 too
    g2 = _raise_failures(np.where(overflow, np.nan, g2), checks + [
        (vanishes, UndefinedCorrelationError("c01 vanishes; g2(0) is undefined")),
        (overflow, SolverError("|c01|^4 or g2(0) overflows the float range"))])
    return float(g2) if np.ndim(g2) == 0 else g2


def find_optimal_pairs(params: SystemParams) -> list[OptimalPair]:
    """Locate all real roots of c02(delta, Lambda) = 0 inside the search box.

    The box is |delta| <= omega_b, 0 <= Lambda <= 1e-5 omega_b
    (``_DELTA_RANGE``, ``_LAMBDA_RANGE``).  Lambda enters the hierarchy only
    through the pair source, so c02 = a(delta) + b(delta) Lambda, with a the
    drive pathway (Lambda = 0) and b the pair pathway per unit Lambda
    (E = 0).  A real root needs Im(a conj(b)) = 0, which is bracketed on a
    delta scan and solved with brentq; its Lambda is -Re(a / b).  Roots are
    returned sorted by delta; an empty list means no root inside the box.
    Amplitudes beyond the float range or a root that brentq does not
    converge on raise ``SolverError``; array-valued ``params``, ``ConfigError``.
    """
    from scipy.optimize import brentq

    _one_point(params, "find_optimal_pairs")
    wb = params.omega_b
    d_lo, d_hi = (r * wb for r in _DELTA_RANGE)
    l_lo, l_hi = (r * wb for r in _LAMBDA_RANGE)

    def pathways(delta):   # a and b as one solve, on a first axis of two
        pair = (2,) + (1,) * np.ndim(delta)
        return _raise_failures(*_amplitudes(params.replace(
            delta=delta, E=np.reshape([params.E, 0.0], pair),
            Lambda=np.reshape([0.0, 1.0], pair))))[..., 3]

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
