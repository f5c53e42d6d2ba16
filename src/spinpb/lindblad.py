"""Open-system numerics: Liouvillian, steady state, correlations, dynamics.

The master equation evolves the density matrix on the truncated composite
space under the Hermitian reduced Hamiltonian plus Lindblad dissipators:
zero-temperature photon decay, thermal magnon decay/excitation, and
optional cavity pure dephasing,

    d rho/dt = -i [H, rho] + (gamma/2) L_a(rho)
               + (gamma/2)(m_th + 1) L_m(rho) + (gamma/2) m_th L_m+(rho)
               + (gamma_p/2) [2 n_a rho n_a - n_a^2 rho - rho n_a^2]

with L_c(rho) = 2 c rho c+ - {c+c, rho}, so a mode's total energy decay
rate is gamma.  Superoperators act on column-stacked density matrices.  L is
the weighted sum of 11 fixed superoperators (7 Hamiltonian terms, 4 jumps),
built once per truncation; the steady state LU-factors one copy of L in place.

Two-time correlations use the regression property: the conditional operator
a rho_ss a+ is propagated by the same generator as rho itself.  The generator
is constant, so propagation is the exact matrix exponential exp(L t) applied
to a vector (``expm_multiply``).

scipy is imported inside the functions that use it, so importing the package
(and the CLI's parse-only commands) does not load it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    LiouvillianSizeError,
    NonUniqueSteadyStateError,
    SolverError,
    UndefinedCorrelationError,
)
# build_hamiltonian is unused here; perfbench/spans.py traces it by this name
from .model import SystemParams, _coefficients, _terms, build_hamiltonian  # noqa: F401
from .operators import HilbertConfig, embed_ops

_MAX_SUPER_DIM = 10_000       # refuse Liouvillians larger than this (dim^2)
_HERMITICITY_TOL = 1e-10
_TRACE_TOL = 1e-10
_EIGENVALUE_FLOOR = -1e-8
_STEADY_RESIDUAL_TOL = 1e-10  # relative to the Liouvillian norm
_POPULATION_FLOOR = 1e-300


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

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def validate(self) -> None:
        """Raise if Hermiticity, unit trace, or numerical PSD is violated."""
        herm_dev = np.max(np.abs(self.data - self.data.conj().T))
        if herm_dev > _HERMITICITY_TOL:
            raise SolverError(f"density matrix not Hermitian: dev {herm_dev:.2e}")
        trace_dev = abs(np.trace(self.data) - 1.0)
        if trace_dev > _TRACE_TOL:
            raise SolverError(f"density matrix trace off by {trace_dev:.2e}")
        min_eig = float(np.min(np.linalg.eigvalsh(self.data)))
        if min_eig < _EIGENVALUE_FLOOR:
            raise SolverError(f"density matrix not PSD: min eigenvalue {min_eig:.2e}")


@dataclass(frozen=True)
class Liouvillian:
    """Dense generator acting on column-stacked density matrices."""

    matrix: np.ndarray
    cfg: HilbertConfig

    @property
    def dim(self) -> int:
        return self.cfg.dim


@functools.lru_cache
def _generators(cfg: HilbertConfig):
    """The 11 fixed superoperators of L, each flattened to a column (dim^4, 11).

    -i(I x T - T^T x I) for the rows T of ``model._terms``, then
    c x c - (I x c^T c + c^T c x I)/2 for the real jumps c = a, m, m+, n_a.
    """
    from scipy import sparse

    dim = cfg.dim
    eye = sparse.identity(dim)
    ops = embed_ops(cfg)
    supers = [-1j * (sparse.kron(eye, T) - sparse.kron(T.T, eye))
              for T in _terms(cfg).reshape(7, dim, dim)]
    supers += [sparse.kron(c, c) - 0.5 * (sparse.kron(eye, c.T @ c)
                                          + sparse.kron(c.T @ c, eye))
               for c in (ops.a.real, ops.m.real, ops.m_dag.real, ops.n_a.real)]
    return sparse.hstack([s.reshape((dim**4, 1)) for s in supers], format="csc")


def build_liouvillian(params: SystemParams, cfg: HilbertConfig) -> Liouvillian:
    """Assemble the dense master-equation generator.

    L is the sum of the superoperators of ``_generators`` weighted by the
    seven Hamiltonian weights and the jump rates gamma, gamma (m_th + 1),
    gamma m_th and gamma_p.  Refuses superoperator dimensions above 10^4.
    """
    if cfg.dim**2 > _MAX_SUPER_DIM:
        raise LiouvillianSizeError(
            f"superoperator dimension {cfg.dim**2} exceeds guard {_MAX_SUPER_DIM}")
    gamma = params.gamma
    weights = [*_coefficients(params, hermitian=True), gamma,
               gamma * (params.m_th + 1.0), gamma * params.m_th, params.gamma_p]
    L = (_generators(cfg) @ np.array(weights)).reshape(cfg.dim**2, cfg.dim**2)
    return Liouvillian(matrix=L, cfg=cfg)


def steady_state(liouvillian: Liouvillian) -> DensityMatrix:
    """Solve L rho = 0 with tr(rho) = 1 by trace-row replacement.

    The first row of a Fortran-ordered copy of L is replaced by the
    vectorized trace functional; the copy is LU-factored in place with row
    pivoting (LAPACK getrf).  The result is Hermitized, checked against the
    residual bound |L vec(rho)|_inf < 1e-10 |L|_inf, and validated as a
    density matrix (``SolverError`` if it is not one).
    """
    from scipy.linalg.lapack import zgetrf, zgetrs

    L = liouvillian.matrix
    dim = liouvillian.dim
    system = np.array(L, dtype=complex, order="F")
    system[0, :] = 0.0
    system[0, ::dim + 1] = 1.0    # trace functional on column-stacked input
    rhs = np.zeros(L.shape[0], dtype=complex)
    rhs[0] = 1.0
    lu, pivots, info = zgetrf(system, overwrite_a=True)
    if info > 0:
        raise NonUniqueSteadyStateError(
            "steady state is not unique (trace-constrained system singular)")
    vec, _ = zgetrs(lu, pivots, rhs)
    del system, lu    # free the factor before np.abs(L) below allocates
    rho = unvectorize(vec, dim)
    rho = 0.5 * (rho + rho.conj().T)
    residual = np.max(np.abs(L @ vectorize(rho)))
    norm = np.max(np.abs(L))
    if residual > _STEADY_RESIDUAL_TOL * norm:
        raise NonUniqueSteadyStateError(
            f"steady-state residual {residual:.2e} exceeds {_STEADY_RESIDUAL_TOL:.0e}"
            f" x |L| = {_STEADY_RESIDUAL_TOL * norm:.2e}")
    state = DensityMatrix(rho)
    state.validate()
    return state


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
               times) -> list[np.ndarray]:
    """exp(L t) vec at each of the ascending times ``times``.

    Steps from one time to the next with ``expm_multiply`` (Al-Mohy and
    Higham, SIAM J. Sci. Comput. 33, 488 (2011)) on the sparse generator; a
    zero step returns the vector unchanged.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.linalg import expm_multiply

    generator = csr_array(liouvillian.matrix)
    out: list[np.ndarray] = []
    now = 0.0
    for t in times:
        vec = expm_multiply((t - now) * generator, vec)
        out.append(vec)
        now = t
    return out


def evolve(liouvillian: Liouvillian, rho0: DensityMatrix,
           t_final: float) -> DensityMatrix:
    """Propagate rho0 for t_final seconds by the exact exp(L t_final).

    The result is validated as a density matrix (``SolverError`` if it is
    not one, e.g. when rho0 was not positive semidefinite).
    """
    if t_final < 0:
        raise ValueError("t_final must be non-negative")
    if t_final == 0:
        return rho0
    (vec,) = _propagate(liouvillian, vectorize(rho0.data), [t_final])
    state = DensityMatrix(unvectorize(vec, liouvillian.dim))
    state.validate()
    return state


def g2_tau(params: SystemParams, cfg: HilbertConfig,
           tau_grid) -> list[tuple[float, float]]:
    """Delayed coincidence g2(tau) on a grid of delays (seconds).

    Computes the steady state, forms the conditional operator a rho_ss a+,
    propagates it exactly with the master-equation generator, and normalizes
    by the squared steady photon number.  The grid is sorted ascending;
    delays must be non-negative.
    """
    taus = np.asarray(sorted(float(t) for t in tau_grid))
    if taus.size == 0:
        return []
    if taus[0] < 0:
        raise ValueError("delays must be non-negative")
    liouvillian = build_liouvillian(params, cfg)
    rho_ss = steady_state(liouvillian)
    n_ss, _ = _photon_moments(rho_ss.data, cfg)
    ops = embed_ops(cfg)
    sigma = ops.a @ rho_ss.data @ ops.a_dag
    vecs = _propagate(liouvillian, vectorize(sigma), taus)
    return [(float(t),
             float(np.real(np.trace(ops.n_a @ unvectorize(vec, cfg.dim)))) / n_ss**2)
            for t, vec in zip(taus, vecs)]
