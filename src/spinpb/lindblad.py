"""Open-system numerics: Liouvillian, steady state and correlations.

The master equation drives the density matrix on the truncated composite
space under the Hermitian reduced Hamiltonian plus Lindblad dissipators:
zero-temperature photon decay, thermal magnon decay/excitation, and
optional cavity pure dephasing,

    d rho/dt = -i [H, rho] + (gamma/2) L_a(rho)
               + (gamma/2)(m_th + 1) L_m(rho) + (gamma/2) m_th L_m+(rho)
               + (gamma_p/2) [2 n_a rho n_a - n_a^2 rho - rho n_a^2]

with L_c(rho) = 2 c rho c+ - {c+c, rho}, so a mode's total energy decay
rate is gamma.  Superoperators act on column-stacked density matrices.  L is
sparse (CSC) from assembly to solve: the weighted sum of 11 fixed
superoperators (7 Hamiltonian terms, 4 jumps) whose union pattern and values
are built once per truncation, so a build is one (nnz, 11) x 11 product.
The dense dim^2 x dim^2 matrix is formed only on request
(``Liouvillian.matrix``), as an oracle view for checks.

The steady state solves the trace-constrained system S by splitting it.
Only the drive and the pair term change N = n_a + n_m, so the entries of S
within one sector k = N_left - N_right form the drive-free system M: block
diagonal, and with its zeros dropped a small sparse LU (fill 1.0e5-1.9e5 at
8x8, against 3.1e6 for S).  S and M are masks of L, whose pattern holds the
trace row.  Sweeps x += M^-1 (b - S x) bring the drive in until every entry
has settled to 1e-10 of itself; where they diverge or stall, S is factored
directly as a fallback.

Two-time correlations use the regression property: the conditional operator
a rho_ss a+ is propagated by the same generator as rho itself.  The generator
is constant, so propagation is the exact matrix exponential exp(L t) applied
to a vector, by the truncated Taylor method of Al-Mohy and Higham (2011)
written here as one loop (``_propagate``).  L maps Hermitian matrices to
Hermitian matrices, and every propagated state is one, so the loop runs in
the Hermitian frame: on the dim^2 real coordinates of the orthonormal basis
E_ii, (E_ij + E_ji)/sqrt2, i(E_ij - E_ji)/sqrt2 (i < j), where L is the
real matrix Re(Q L P) (``_hermitian_frame``).  That matrix is shifted by
its trace over n to A and A's 1-norm taken once per call; a step h is
ceil(|A h|_1 / 9.9) substeps of at most 55 real sparse matrix-vector
products, stopped early at the unit roundoff, and each state is mapped back
by P.  The loop yields each state as it reaches it and keeps none, so a
delay grid of any length costs the memory of one step.

scipy is imported inside the functions that use it, so importing the package
(and the CLI's parse-only commands) does not load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ConfigError,
    LiouvillianSizeError,
    NonUniqueSteadyStateError,
    SolverError,
    UndefinedCorrelationError,
)
# build_hamiltonian is unused here; perfbench/spans.py traces it by this name
from .model import SystemParams, _coefficients, _terms, build_hamiltonian  # noqa: F401
from .operators import HilbertConfig, embed_ops

if TYPE_CHECKING:
    from collections.abc import Iterator

    from scipy.sparse import csc_array, csr_array

_MAX_SUPER_DIM = 10_000       # refuse Liouvillians larger than this (dim^2)
_HERMITICITY_TOL = 1e-10
_TRACE_TOL = 1e-10
_EIGENVALUE_FLOOR = -1e-8
_STEADY_RESIDUAL_TOL = 1e-10  # relative to the Liouvillian norm
_POPULATION_FLOOR = 1e-300
_MAX_SWEEPS = 100             # sector sweeps before the direct solve takes over
_STALL_SWEEPS = 10            # sweeps without halving the largest unsettled step
_SWEEP_RTOL = 1e-10           # entrywise stopping rule of the sweeps:
_SWEEP_ATOL = 1e-30           # |dx_i| <= RTOL |x_i| + ATOL max|x|
_UNIT_ROUNDOFF = 2.0**-53     # tolerance of the Taylor propagator
_TAYLOR_TERMS = 55            # most Taylor terms per substep
_THETA_55 = 9.9               # largest |A h / s|_1 for 55 terms at 2^-53
_MAX_SUBSTEPS = 2.0**63       # longest propagation step, in substeps


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(rho).reshape(-1, order="F")


def unvectorize(vec: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of ``vectorize``."""
    return np.asarray(vec).reshape((dim, dim), order="F")


@dataclass(frozen=True)
class DensityMatrix:
    """Trace-one Hermitian PSD matrix on the composite magnon-photon space."""

    data: np.ndarray

    def validate(self) -> None:
        """Raise if Hermiticity, unit trace, or numerical PSD is violated.

        Each comparison fails on NaN, and any inf or NaN entry makes the
        Hermiticity deviation inf or NaN, so a non-finite matrix fails before
        ``eigvalsh`` sees it.
        """
        herm_dev = np.max(np.abs(self.data - self.data.conj().T))
        if not herm_dev <= _HERMITICITY_TOL:
            raise SolverError(f"density matrix not Hermitian: dev {herm_dev:.2e}")
        trace_dev = abs(np.trace(self.data) - 1.0)
        if not trace_dev <= _TRACE_TOL:
            raise SolverError(f"density matrix trace off by {trace_dev:.2e}")
        min_eig = float(np.min(np.linalg.eigvalsh(self.data)))
        if not min_eig >= _EIGENVALUE_FLOOR:
            raise SolverError(f"density matrix not PSD: min eigenvalue {min_eig:.2e}")


@dataclass(frozen=True)
class Liouvillian:
    """Sparse (CSC) generator acting on column-stacked density matrices."""

    generator: csc_array
    cfg: HilbertConfig

    @property
    def dim(self) -> int:
        return self.cfg.dim

    @property
    def matrix(self) -> np.ndarray:
        """Dense copy of the generator, dim^2 x dim^2; an oracle view only."""
        return self.generator.toarray()


@functools.lru_cache
def _generators(cfg: HilbertConfig):
    """L's fixed CSC pattern and its value table, one column per weight.

    Returns ``(table, indices, indptr)``: ``table`` is (nnz, 11), the values
    of the 11 fixed superoperators on the union of their patterns and the
    trace row, so L is ``table @ weights`` on ``(indices, indptr)``.  The
    superoperators are -i(I x T - T^T x I) for the rows T of ``model._terms``,
    then c x c - (I x c^T c + c^T c x I)/2 for the jumps c = a, m, m+, n_a.
    """
    from scipy import sparse

    dim = cfg.dim
    n = dim**2
    eye = sparse.identity(dim)
    ops = embed_ops(cfg)
    supers = [-1j * (sparse.kron(eye, T) - sparse.kron(T.T, eye))
              for T in _terms(cfg).reshape(7, dim, dim)]
    supers += [sparse.kron(c, c) - 0.5 * (sparse.kron(eye, c.T @ c)
                                          + sparse.kron(c.T @ c, eye))
               for c in (ops.a.real, ops.m.real, ops.m_dag.real, ops.n_a.real)]
    supers = [sparse.coo_array(s) for s in supers]
    # column-major positions of the entries and the trace row: sorted is CSC
    keys = [s.col.astype(np.int64) * n + s.row for s in supers]
    union = np.unique(np.concatenate(keys + [np.arange(0, n, dim + 1) * n]))
    table = np.zeros((union.size, len(supers)), dtype=complex)
    for column, (s, key) in enumerate(zip(supers, keys)):
        np.add.at(table, (np.searchsorted(union, key), column), s.data)
    indptr = np.searchsorted(union, np.arange(n + 1, dtype=np.int64) * n)
    return table, (union % n).astype(np.int32), indptr.astype(np.int32)


@functools.lru_cache
def _hermitian_frame(dim: int) -> tuple[csr_array, csr_array]:
    """``(P, Q)``: real coordinates to column-stacked Hermitian matrices and back.

    The columns of P are the orthonormal Hermitian basis E_ii,
    (E_ab + E_ba)/sqrt2 and i(E_ab - E_ba)/sqrt2 (a < b), the coordinate of
    each at the column-stacked position of (i, i), (a, b) and (b, a); Q = P+
    is its inverse.  Q vec(X) is real exactly when X is Hermitian, and a
    GKSL generator keeps X Hermitian, so Q L P is a real matrix.  Being
    orthonormal, the basis keeps the 1-norm that sets the Taylor cost: at
    the fig2a pair (5x5) |A|_1 is 6.75e8 here against 6.69e8 for the complex
    A, and 8.4e8 without the 1/sqrt2.
    """
    from scipy.sparse import coo_array

    n = dim**2
    position = np.arange(n)
    columns, rows = np.divmod(position, dim)     # position i + j dim is (i, j)
    upper, lower = rows < columns, rows > columns
    off = upper | lower
    half = math.sqrt(0.5)
    # column p = (i, j) has an entry at p and, for i != j, one at (j, i)
    values = np.concatenate([np.where(upper, half, np.where(lower, -1j * half, 1.0)),
                             np.where(upper, half, 1j * half)[off]])
    matrix_rows = np.concatenate([position, (columns + rows * dim)[off]])
    frame_columns = np.concatenate([position, position[off]])
    to_matrix = coo_array((values, (matrix_rows, frame_columns)), shape=(n, n)).tocsr()
    return to_matrix, to_matrix.conj().T.tocsr()


def build_liouvillian(params: SystemParams, cfg: HilbertConfig) -> Liouvillian:
    """Assemble the sparse master-equation generator.

    L is the sum of the superoperators of ``_generators`` weighted by the
    seven Hamiltonian weights and the jump rates gamma, gamma (m_th + 1),
    gamma m_th and gamma_p, written straight into L's fixed CSC pattern; no
    dense dim^2 x dim^2 array is formed.  Refuses superoperator dimensions
    above 10^4.
    """
    from scipy.sparse import csc_array

    if cfg.dim**2 > _MAX_SUPER_DIM:
        raise LiouvillianSizeError(
            f"superoperator dimension {cfg.dim**2} exceeds guard {_MAX_SUPER_DIM}")
    gamma = params.gamma
    weights = [*_coefficients(params, hermitian=True), gamma,
               gamma * (params.m_th + 1.0), gamma * params.m_th, params.gamma_p]
    table, indices, indptr = _generators(cfg)
    generator = csc_array((table @ np.array(weights), indices, indptr),
                          shape=(cfg.dim**2, cfg.dim**2))
    return Liouvillian(generator=generator, cfg=cfg)


def steady_state(liouvillian: Liouvillian) -> DensityMatrix:
    """Solve L rho = 0 with tr(rho) = 1 by trace-row replacement.

    The vectorized trace functional replaces row 0 of L; call that system S.
    S and its drive-free part M (E = Lambda = 0, block diagonal in the sector
    k = N_left - N_right) are masks of L (``_split_systems``); SuperLU
    factors M, and sweeps x += M^-1 (b - S x) from x = 0 bring in E and Lambda.
    They stop when every entry's step satisfies
    |dx_i| <= 1e-10 |x_i| + 1e-30 max|x|, so the ~(E/gamma)^4 two-photon
    populations settle too; a rule on the step's max norm would stop before
    they do.  If M is singular, the sweeps diverge (max|dx| > max|x| or NaN),
    stall (the largest step of an entry that has not settled fails to halve
    in 10 sweeps) or 100 sweeps do not meet the rule, S is solved directly
    (``_direct_solve``).
    The result is Hermitized, checked against the residual bound
    |L vec(rho)|_inf < 1e-10 |L|_inf, and validated as a density matrix
    (``SolverError`` if it is not one).
    """
    L = liouvillian.generator
    system, block = _split_systems(liouvillian)
    rhs = np.zeros(system.shape[0], dtype=complex)
    rhs[0] = 1.0
    vec = _sector_sweeps(system, rhs, block)
    if vec is None:
        vec = _direct_solve(system, rhs)
    rho = unvectorize(vec, liouvillian.dim)
    rho = 0.5 * (rho + rho.conj().T)
    residual = np.max(np.abs(L @ vectorize(rho)))
    norm = np.max(np.abs(L.data), initial=0.0)
    if not residual <= _STEADY_RESIDUAL_TOL * norm:   # a NaN residual fails
        raise NonUniqueSteadyStateError(
            f"steady-state residual {residual:.2e} exceeds {_STEADY_RESIDUAL_TOL:.0e}"
            f" x |L| = {_STEADY_RESIDUAL_TOL * norm:.2e}")
    state = DensityMatrix(rho)
    state.validate()
    return state


def _split_systems(liouvillian: Liouvillian) -> tuple[csc_array, csc_array]:
    """The trace-row system S and its drive-free block M, as masks of L.

    S keeps L's entries in rows >= 1 and at the trace positions
    (0, j(dim + 1)), set to 1, which ``_generators`` puts in L's pattern; a
    generator that lacks one fails a check of ``steady_state``.  M keeps the
    nonzero entries of S whose row and column share a sector
    k = N_left - N_right (N = m + n of basis state m * n_photon + n), and
    stores no zeros: SuperLU orders and factors whatever pattern it gets.
    """
    from scipy.sparse import csc_array

    L = liouvillian.generator
    dim = liouvillian.dim
    rows = L.indices
    columns = np.repeat(np.arange(dim**2), np.diff(L.indptr))
    trace = (rows == 0) & (columns % (dim + 1) == 0)
    data = np.where(trace, 1.0, L.data)
    number = np.add(*np.divmod(np.arange(dim), liouvillian.cfg.n_photon))
    sector = vectorize(np.subtract.outer(number, number))

    def mask(keep: np.ndarray) -> csc_array:
        indptr = np.concatenate(([0], np.cumsum(keep)))[L.indptr]
        return csc_array((data[keep], rows[keep], indptr), shape=L.shape)

    keep = (rows != 0) | trace
    return mask(keep), mask(keep & (sector[rows] == sector[columns]) & (data != 0))


def _sector_sweeps(system: csc_array, rhs: np.ndarray,
                   block: csc_array) -> np.ndarray | None:
    """Solve ``system`` by sweeps x += block^-1 (rhs - system x) from x = 0.

    Returns None when ``block`` is singular, a step outgrows the solution or
    is NaN, the largest step among the unsettled entries has not fallen
    below half its best value for ``_STALL_SWEEPS`` sweeps (entries stuck at
    a rounding floor), or ``_MAX_SWEEPS`` sweeps do not meet the entrywise
    rule of ``steady_state``.
    """
    from scipy.sparse.linalg import splu

    try:
        lu = splu(block)
    except RuntimeError:           # SuperLU: "Factor is exactly singular"
        return None
    vec = np.zeros_like(rhs)
    best, stalled = np.inf, 0
    for _ in range(_MAX_SWEEPS):
        step = lu.solve(rhs - system @ vec)
        vec += step
        size = np.abs(vec)
        scale = size.max()
        change = np.abs(step)
        if not change.max() <= scale:   # a NaN step falls back at once
            return None
        unsettled = change > _SWEEP_RTOL * size + _SWEEP_ATOL * scale
        if not unsettled.any():
            return vec
        largest = change[unsettled].max()
        if largest < 0.5 * best:
            best, stalled = largest, 0
        else:
            stalled += 1
            if stalled == _STALL_SWEEPS:
                return None
    return None


def _direct_solve(system: csc_array, rhs: np.ndarray) -> np.ndarray:
    """Sparse LU of the whole system plus one step of iterative refinement.

    SuperLU (``splu``: COLAMD column ordering, partial pivoting by row); a
    singular factor raises ``NonUniqueSteadyStateError``.
    """
    from scipy.sparse.linalg import splu

    try:
        lu = splu(system)
    except RuntimeError as err:    # SuperLU: "Factor is exactly singular"
        raise NonUniqueSteadyStateError(
            "steady state is not unique (trace-constrained system singular)") from err
    vec = lu.solve(rhs)
    # the two-photon populations are ~(E/gamma)^4; SuperLU's pivot order can
    # leave them with few correct digits (g2 off by up to 5e-6) while the
    # residual bound still holds.  One refinement step restores them.
    vec += lu.solve(rhs - system @ vec)
    return vec


def _photon_moments(rho: np.ndarray, cfg: HilbertConfig) -> tuple[float, float]:
    """<a+a> and <a+a+aa>; raises when the photon population vanishes."""
    ops = embed_ops(cfg)
    n = float(np.real(np.trace(ops.n_a @ rho)))
    if n <= _POPULATION_FLOOR:
        raise UndefinedCorrelationError("photon population is zero")
    nn = float(np.real(np.trace(ops.a_dag @ ops.a_dag @ ops.a @ ops.a @ rho)))
    return n, nn


def g2_zero(rho: DensityMatrix, cfg: HilbertConfig) -> float:
    """Equal-time correlation Tr[a+a+aa rho] / Tr[a+a rho]^2."""
    n, nn = _photon_moments(rho.data, cfg)
    return nn / n**2


def mandel_q(rho: DensityMatrix, cfg: HilbertConfig) -> float:
    """Mandel parameter (Tr[rho a+^2 a^2] - Tr[rho a+a]^2) / Tr[rho a+a]."""
    n, nn = _photon_moments(rho.data, cfg)
    return (nn - n**2) / n


def _propagate(liouvillian: Liouvillian, vec: np.ndarray,
               times) -> Iterator[np.ndarray]:
    """Yield exp(L t) vec at each of the ascending times ``times`` in turn.

    ``vec`` is a column-stacked Hermitian matrix.  L maps those to Hermitian
    matrices, so the propagation runs on the real coordinates x = Q vec of
    ``_hermitian_frame`` under the real generator Re(Q L P); each state is
    mapped back as P x.  An anti-Hermitian part of ``vec`` is dropped.

    The truncated Taylor method of Al-Mohy and Higham, SIAM J. Sci. Comput.
    33, 488 (2011), at the unit roundoff 2^-53.  The real generator is
    shifted once per call to A = Re(Q L P) - mu I, mu = tr(L)/n, stored as
    CSR, and A's exact 1-norm is taken once.  A step h from one time to the
    next is s = ceil(|A h|_1 / 9.9) substeps of at most 55 terms
    x <- (h / (s (j + 1))) A x, so |A h / s|_1 <= theta_55 = 9.9 (the
    paper's Table 3.1) bounds the backward error; a substep stops once the
    last two terms together fall below 2^-53 of the sum, then multiplies the
    sum by exp(h mu / s).  The max norms are BLAS ``idamax`` lookups, which
    pick the same entry as max(abs(x)).

    A zero step yields the vector it was given (or the state last yielded).
    A step of more than 2^63 substeps, or a NaN one, raises ``SolverError``
    before its work: the loop cannot overflow, it would only run for ever.
    Each state is yielded as it is reached and none is kept.
    """
    from scipy.linalg.blas import dscal, idamax
    from scipy.sparse import eye_array

    to_matrix, to_frame = _hermitian_frame(liouvillian.dim)
    generator = (to_frame @ liouvillian.generator @ to_matrix).real
    n = generator.shape[0]
    mu = generator.trace() / n
    shifted = (generator - mu * eye_array(n, format="csr")).tocsr()
    norm = float(abs(shifted).sum(axis=0).max())
    x = (to_frame @ vec).real.copy()
    now = 0.0
    for t in times:
        h, now = t - now, t
        if h == 0:
            yield vec
            continue
        substeps = norm * h / _THETA_55
        if not substeps <= _MAX_SUBSTEPS:   # inf and NaN fail
            raise SolverError(
                f"propagation by {h:.3g} s needs more than 2^63 substeps"
                f" (|L - mu I|_1 h = {norm * h:.3g})")
        s = max(1, math.ceil(substeps))
        eta = math.exp(h * mu / s)
        for _ in range(s):
            term = x
            previous = bound = abs(term[idamax(term)])
            for j in range(_TAYLOR_TERMS):
                term = dscal(h / (s * (j + 1)), shifted @ term)
                current = abs(term[idamax(term)])
                x += term
                # bound >= max|x|, so that norm is taken only near the stop
                bound += current
                if (previous + current <= _UNIT_ROUNDOFF * bound
                        and previous + current <= _UNIT_ROUNDOFF * abs(x[idamax(x)])):
                    break
                previous = current
            x = dscal(eta, x)
        vec = to_matrix @ x
        yield vec


def g2_tau(params: SystemParams, cfg: HilbertConfig,
           tau_grid) -> list[tuple[float, float]]:
    """Delayed coincidence g2(tau) on a grid of delays (seconds).

    Computes the steady state, forms the conditional operator a rho_ss a+,
    propagates it exactly with the master-equation generator, and normalizes
    by the squared steady photon number.  The grid is sorted ascending;
    delays must be non-negative and finite.  A ``SolverError`` raised while
    propagating carries the (tau, g2) pairs of the delays before the failing
    one as its ``trace``, so a caller keeps them without a second solve.
    """
    taus = np.asarray(sorted(float(t) for t in tau_grid))
    if not np.all((taus >= 0) & (taus < np.inf)):   # NaN fails both
        raise ConfigError(f"delays must be non-negative and finite, got {taus}")
    if taus.size == 0:
        return []
    liouvillian = build_liouvillian(params, cfg)
    rho_ss = steady_state(liouvillian)
    n_ss, _ = _photon_moments(rho_ss.data, cfg)
    ops = embed_ops(cfg)
    sigma = ops.a @ rho_ss.data @ ops.a_dag
    trace = []
    try:
        for t, vec in zip(taus, _propagate(liouvillian, vectorize(sigma), taus)):
            n_t = float(np.real(np.trace(ops.n_a @ unvectorize(vec, cfg.dim))))
            trace.append((float(t), n_t / n_ss**2))
    except SolverError as exc:
        exc.trace = trace
        raise
    return trace
