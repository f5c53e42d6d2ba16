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
diagonal, and with its zeros dropped a small sparse LU.  The adjoint
X -> X+ maps sector k to -k, and a GKSL generator commutes with it, so M's
sector -k block is the conjugate of its sector k block at the mirrored
positions (i, j) -> (j, i), and the steady state's k < 0 entries are the
conjugates of its k > 0 ones.  Only sectors k >= 0 are factored and swept:
355 of 625 unknowns at 5x5, 2,220 of 4,096 at 8x8, LU fill 4.7e3 and 5.8e4
at the fig2a pair (7.8e3 and 1.0e5 for the whole M, 3.0e6 for S at 8x8).
S's k >= 0 rows and M's k >= 0 block are masks of L, whose pattern holds
the trace row.  Sweeps x += M^-1 (b - S x) bring the drive in until every
entry has settled to 1e-10 of itself, the k < 0 entries filled in by the
mirror before each product.  Where they first stall, at the rounding floor
of the double-precision residual b - S x, the later residuals are taken in
extended precision (``np.clongdouble``; mixed-precision iterative
refinement, Higham, Accuracy and Stability of Numerical Algorithms, ch. 12)
with the same factor.  Where they diverge or stall again, the whole S is
built and factored directly as a fallback; a platform whose long double is
only double gains nothing from the second stage and falls back as before.

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
products, stopped early at the unit roundoff.  The loop yields each state's
real coordinates as it reaches them and keeps none, so a delay grid of any
length costs the memory of one step.

scipy is imported inside the functions that use it, so importing the package
(and the CLI's parse-only commands) does not load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    LiouvillianSizeError,
    NonUniqueSteadyStateError,
    SolverError,
    UndefinedCorrelationError,
)
# build_hamiltonian is unused here; perfbench/spans.py traces it by this name
from .model import SystemParams, _coefficients, _one_point, _terms, build_hamiltonian  # noqa: F401
from .operators import HilbertConfig, embed_ops

if TYPE_CHECKING:
    from collections.abc import Iterator

    from scipy.sparse import csc_array, csr_array

_MAX_SUPER_DIM = 10_000       # refuse Liouvillians larger than this (dim^2)
_HERMITICITY_TOL = 1e-10
_TRACE_TOL = 1e-10
_EIGENVALUE_FLOOR = -1e-8
_STEADY_RESIDUAL_TOL = 1e-10  # relative to the largest entry max|L_ij|
_POPULATION_FLOOR = 1e-300
_MAX_SWEEPS = 100             # sector sweeps before the direct solve takes over
_STALL_SWEEPS = 10            # sweeps without halving the largest unsettled step
_SWEEP_RTOL = 1e-10           # entrywise stopping rule of the sweeps:
_SWEEP_ATOL = 1e-30           # |dx_i| <= RTOL |x_i| + ATOL max|x|
_WIDE = np.clongdouble        # residuals after a stall; 80-bit on x86-64 Linux
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
    above 10^4 and an array-valued ``params`` (``ConfigError``).
    """
    from scipy.sparse import csc_array

    _one_point(params, "build_liouvillian")
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
    Its drive-free part M (E = Lambda = 0) is block diagonal in the sector
    k = N_left - N_right, and the adjoint X -> X+ maps sector k to -k, so
    only the k >= 0 half is solved (``_split_systems``): SuperLU factors M's
    k >= 0 block, and sweeps x += M^-1 (b - S x) over S's k >= 0 rows, from
    x = 0, bring in E and Lambda (``_sector_sweeps``).  They stop when every
    entry's step satisfies |dx_i| <= 1e-10 |x_i| + 1e-30 max|x|, so the
    ~(E/gamma)^4 two-photon populations settle too; a rule on the step's max
    norm would stop before they do.  When they first stall (the largest
    step of an entry that has not settled fails to halve in 10 sweeps), the
    residual b - S x is taken in extended precision from then on.  If M is
    singular, the sweeps diverge (max|dx| > max|x| or NaN), stall a second
    time or 100 sweeps do not meet the rule, ``_direct_solve`` builds the
    whole S and solves it directly.  Where long double is only double (as
    with MSVC or on Apple silicon), the second stage stalls like the first,
    so such a point still falls back.
    The result is Hermitized, checked against the residual bound
    |L vec(rho)|_inf <= 1e-10 max|L_ij|, and validated as a density matrix
    (``SolverError`` if it is not one).
    """
    L = liouvillian.generator
    vec = _sector_sweeps(_split_systems(liouvillian))
    if vec is None:
        vec = _direct_solve(liouvillian)
    rho = unvectorize(vec, liouvillian.dim)
    rho = 0.5 * (rho + rho.conj().T)
    residual = np.max(np.abs(L @ vectorize(rho)))
    norm = np.max(np.abs(L.data), initial=0.0)
    if not residual <= _STEADY_RESIDUAL_TOL * norm:   # a NaN residual fails
        raise NonUniqueSteadyStateError(
            f"steady-state residual {residual:.2e} exceeds {_STEADY_RESIDUAL_TOL:.0e}"
            f" x max|L_ij| = {_STEADY_RESIDUAL_TOL * norm:.2e}")
    state = DensityMatrix(rho)
    state.validate()
    return state


class _Half(NamedTuple):
    """The k >= 0 half of the steady-state problem; see ``_split_systems``."""

    rows: csc_array      # S's rows with k >= 0, over every column
    block: csc_array     # M's k >= 0 block, half index by half index
    source: np.ndarray   # each position's entry in [x, conj(x)] of a half x
    zero: np.ndarray     # half indices of sector 0 ...
    twin: np.ndarray     # ... and of their mirrors, also in sector 0


def _trace_entries(liouvillian: Liouvillian) -> tuple[np.ndarray, np.ndarray]:
    """L's values with row 0 turned into the trace row, and the mask of S.

    The trace positions (0, j(dim + 1)) are set to 1; ``_generators`` puts
    them in L's pattern, and a generator that lacks one fails a check of
    ``steady_state``.  S keeps the entries in rows >= 1 and at those
    positions.
    """
    L = liouvillian.generator
    rows = L.indices
    top = np.flatnonzero(rows == 0)
    columns = np.searchsorted(L.indptr, top, side="right") - 1
    trace = top[columns % (liouvillian.dim + 1) == 0]
    data = L.data.copy()
    data[trace] = 1.0
    keep = rows != 0
    keep[trace] = True
    return data, keep


def _split_systems(liouvillian: Liouvillian) -> _Half:
    """S's rows and M's block of sectors k >= 0, as masks of L, and the mirror.

    The sector of position p = (i, j) is k = N_i - N_j (N = m + n of basis
    state m * n_photon + n).  A GKSL generator commutes with X -> X+, which
    maps (i, j) to its mirror (j, i) and k to -k, so M's sector -k block is
    the conjugate of its sector k block at the mirrored positions, and the
    steady state's k < 0 entries are the conjugates of its k > 0 entries.
    The half keeps the positions with k >= 0 (355 of 625 at 5x5, 2,220 of
    4,096 at 8x8) in ascending order.  ``rows`` keeps S's entries in those
    rows, renumbered by half index, over all columns: the drive reaches
    sectors -1 and -2 from sectors 0 and 1, read through ``source``.
    ``block`` keeps the nonzero entries of those rows whose column shares
    the row's sector, and stores no zeros: SuperLU orders and factors
    whatever pattern it gets.  ``zero`` and ``twin`` pair each half index of
    sector 0, which maps to itself, with the half index of its mirror.
    """
    from scipy.sparse import csc_array

    L = liouvillian.generator
    dim = liouvillian.dim
    n = dim**2
    data, keep = _trace_entries(liouvillian)
    number = np.add(*np.divmod(np.arange(dim), liouvillian.cfg.n_photon))
    sector = vectorize(np.subtract.outer(number, number))
    mirror = np.arange(n).reshape(dim, dim).T.ravel()
    half = sector >= 0
    index = np.cumsum(half) - 1            # the half index of a k >= 0 position
    size = index[-1] + 1
    row_sector = sector.take(L.indices)
    keep &= row_sector >= 0
    kept = np.flatnonzero(keep)
    same = np.flatnonzero(keep & (row_sector == np.repeat(sector, np.diff(L.indptr))))
    in_block = same[data.take(same) != 0]
    zero = sector == 0

    def mask(entries: np.ndarray, starts: np.ndarray, columns: int) -> csc_array:
        return csc_array((data.take(entries), index.take(L.indices.take(entries)),
                          np.searchsorted(entries, starts)), shape=(size, columns))

    return _Half(rows=mask(kept, L.indptr, n),
                 block=mask(in_block, L.indptr[np.append(np.flatnonzero(half), n)], size),
                 source=np.where(half, index, index[mirror] + size),
                 zero=index[zero], twin=index[mirror[zero]])


def _fill(x: np.ndarray, source: np.ndarray) -> np.ndarray:
    """The full vector of the half ``x``: k < 0 entries conjugate their mirrors."""
    return np.concatenate((x, x.conj())).take(source)


@np.errstate(over="ignore", invalid="ignore")   # a NaN or inf step falls back
def _sector_sweeps(half: _Half) -> np.ndarray | None:
    """Solve S x = e_0 by sweeps x += M^-1 (e_0 - S x) over the k >= 0 half.

    Only the half is factored and swept: before each product the k < 0
    entries are filled in as the conjugates of their mirrors, a real-linear
    step that no complex matrix holds.  Sector 0 is its own mirror, and
    each step is made exactly Hermitian there, (dx_p + conj dx_mirror)/2,
    so that the rounding of the factor does not keep its entries moving.

    Entries of 1e-13 can get stuck at the rounding floor of the residual
    e_0 - S x: at the exact fig2c pair four coherences jitter at about 5e-10
    of themselves.  So the first time the largest step among the unsettled
    entries has not fallen below half its best value for ``_STALL_SWEEPS``
    sweeps, the sweeps go on from the same x with the same factor, but form
    each residual with a ``_WIDE`` copy of S's rows and cast only the
    residual back to complex128 for the solve.  Sweeps that do not stall
    never make that copy or cast.  Returns the full vector, filled once, or
    None when the block is singular, a step outgrows the solution or is
    NaN, the sweeps stall a second time, or ``_MAX_SWEEPS`` sweeps do not
    meet the entrywise rule of ``steady_state``.
    """
    from scipy.sparse.linalg import splu

    try:
        lu = splu(half.block)
    except RuntimeError:           # SuperLU: "Factor is exactly singular"
        return None
    rhs = np.zeros(half.block.shape[0], dtype=complex)
    rhs[0] = 1.0                   # the trace row, position 0, is half index 0
    vec = np.zeros_like(rhs)
    rows = half.rows
    best, stalled = np.inf, 0
    for _ in range(_MAX_SWEEPS):
        residual = rhs - rows @ _fill(vec, half.source)
        step = lu.solve(residual.astype(complex, copy=False))   # no-op until widened
        step[half.zero] = 0.5 * (step[half.zero] + step[half.twin].conj())
        vec += step
        size = np.abs(vec)
        scale = size.max()
        change = np.abs(step)
        if not change.max() <= scale:   # a NaN step falls back at once
            return None
        unsettled = change > _SWEEP_RTOL * size + _SWEEP_ATOL * scale
        if not unsettled.any():
            return _fill(vec, half.source)
        largest = change[unsettled].max()
        if largest < 0.5 * best:
            best, stalled = largest, 0
        else:
            stalled += 1
            if stalled == _STALL_SWEEPS:
                if rows is not half.rows:
                    return None
                rows = half.rows.astype(_WIDE)
                best, stalled = np.inf, 0
    return None


def _direct_solve(liouvillian: Liouvillian) -> np.ndarray:
    """Solve the whole S x = e_0 by sparse LU plus one step of refinement.

    S is built here, as a mask of L (``_trace_entries``), since only the
    fallback needs it.  SuperLU (``splu``: COLAMD column ordering, partial
    pivoting by row); a singular factor raises ``NonUniqueSteadyStateError``.
    """
    from scipy.sparse import csc_array
    from scipy.sparse.linalg import splu

    L = liouvillian.generator
    data, keep = _trace_entries(liouvillian)
    kept = np.flatnonzero(keep)
    system = csc_array((data[kept], L.indices[kept], np.searchsorted(kept, L.indptr)),
                       shape=L.shape)
    rhs = np.zeros(L.shape[0], dtype=complex)
    rhs[0] = 1.0
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
    """<a+a> and <a+a+aa>; raises when the photon population vanishes.

    Both are diagonal in the Fock basis, n and n(n - 1) for the photon
    number n of basis state m * n_photon + n, so each moment is one dot
    product with rho's real diagonal.
    """
    diagonal = np.real(np.diagonal(rho))
    photons = np.arange(cfg.dim) % cfg.n_photon
    n = float(diagonal @ photons)
    if n <= _POPULATION_FLOOR:
        raise UndefinedCorrelationError("photon population is zero")
    return n, float(diagonal @ (photons * (photons - 1)))


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
    """Yield Q exp(L t) vec at each time of the ascending sequence ``times`` in turn.

    ``vec`` is a column-stacked Hermitian matrix.  L maps those to Hermitian
    matrices, so the propagation runs on the real coordinates x = Q vec of
    ``_hermitian_frame`` under the real generator Re(Q L P), and yields a
    float64 copy of x (the matrix is P x).  An anti-Hermitian part is dropped.

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

    A zero step leaves x as it is: every term is 0 and exp(0) = 1.  A grid
    whose last time needs more than 2^63 substeps, or a NaN count, raises
    ``SolverError`` before any propagation (the loop would not overflow,
    only run for ever); no step is longer than the last time, and tr L <= 0
    keeps exp(h mu / s) finite, so the loop raises nothing.  Each state is
    yielded as it is reached and none is kept.
    """
    from scipy.linalg.blas import dscal, idamax
    from scipy.sparse import eye_array

    to_matrix, to_frame = _hermitian_frame(liouvillian.dim)
    generator = (to_frame @ liouvillian.generator @ to_matrix).real
    n = generator.shape[0]
    mu = generator.trace() / n
    shifted = (generator - mu * eye_array(n, format="csr")).tocsr()
    norm = float(abs(shifted).sum(axis=0).max())
    last = float(max(times, default=0.0))
    if not norm * last / _THETA_55 <= _MAX_SUBSTEPS:   # inf and NaN fail
        raise SolverError(
            f"propagation by {last:.3g} s needs more than 2^63 substeps"
            f" (|L - mu I|_1 t = {norm * last:.3g})")
    x = (to_frame @ vec).real.copy()
    now = 0.0
    for t in times:
        h, now = t - now, t
        s = max(1, math.ceil(norm * h / _THETA_55))
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
        yield x.copy()


def g2_tau(params: SystemParams, cfg: HilbertConfig,
           tau_grid) -> list[tuple[float, float]]:
    """Delayed coincidence g2(tau) on a grid of delays (seconds).

    Computes the steady state, forms the conditional operator a rho_ss a+,
    propagates it exactly with the master-equation generator, and normalizes
    by the squared steady photon number.  The grid is sorted ascending;
    delays must be non-negative and finite.  A grid that cannot be
    propagated raises ``SolverError`` after the steady state, before any delay.
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
    photons = np.arange(cfg.dim) % cfg.n_photon        # a+a = diag(photons)
    trace = []
    # Q has a lone 1.0 at each diagonal position: x there is the diagonal
    for t, x in zip(taus, _propagate(liouvillian, vectorize(sigma), taus)):
        n_t = float(x[::cfg.dim + 1] @ photons)
        trace.append((float(t), n_t / n_ss**2))
    return trace
