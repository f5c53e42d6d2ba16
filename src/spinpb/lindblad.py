"""Open-system numerics: Liouvillian, steady state, correlations, dynamics.

The master equation evolves the density matrix on the truncated composite
space under the Hermitian reduced Hamiltonian plus Lindblad dissipators:
zero-temperature photon decay, thermal magnon decay/excitation, and
optional cavity pure dephasing,

    d rho/dt = -i [H, rho] + (gamma/2) L_a(rho)
               + (gamma/2)(m_th + 1) L_m(rho) + (gamma/2) m_th L_m+(rho)
               + (gamma_p/2) [2 n_a rho n_a - n_a^2 rho - rho n_a^2]

with L_c(rho) = 2 c rho c+ - {c+c, rho}, so a mode's total energy decay
rate is gamma.  Superoperators act on column-stacked density matrices.

Two-time correlations use the regression property: the conditional operator
a rho_ss a+ is propagated by the same generator as rho itself.  The generator
is constant, so propagation is the exact matrix exponential exp(L t) applied
to a vector (``expm_multiply``).

scipy is imported inside the functions that use it, so importing the package
(and the CLI's parse-only commands) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    LiouvillianSizeError,
    NonUniqueSteadyStateError,
    SolverError,
    UndefinedCorrelationError,
)
from .model import SystemParams, build_hamiltonian
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


def build_liouvillian(params: SystemParams, cfg: HilbertConfig) -> Liouvillian:
    """Assemble the dense master-equation generator.

    Written as an effective Hamiltonian plus one jump term per dissipator
    (Dalibard, Castin and Molmer, PRL 68, 580 (1992)): with jumps c at rates
    r, H_eff = H - (i/2) sum r c+c and

        L rho = -i (H_eff rho - rho H_eff+) + sum r c rho c+.

    Refuses superoperator dimensions above 10^4.
    """
    if cfg.dim**2 > _MAX_SUPER_DIM:
        raise LiouvillianSizeError(
            f"superoperator dimension {cfg.dim**2} exceeds guard {_MAX_SUPER_DIM}")
    ops = embed_ops(cfg)
    gamma = params.gamma
    jumps = [(rate, c) for rate, c in ((gamma, ops.a),
                                       (gamma * (params.m_th + 1.0), ops.m),
                                       (gamma * params.m_th, ops.m_dag),
                                       (params.gamma_p, ops.n_a))
             if rate > 0]
    H_eff = build_hamiltonian(params, cfg) - 0.5j * sum(
        rate * (c.conj().T @ c) for rate, c in jumps)
    eye = np.eye(cfg.dim)
    # accumulated in place: at dim 64 each term is a 268 MB matrix
    L = np.kron(eye, -1j * H_eff)
    L += np.kron(1j * H_eff.conj(), eye)
    for rate, c in jumps:
        L += np.kron(rate * c.conj(), c)
    return Liouvillian(matrix=L, cfg=cfg)


def steady_state(liouvillian: Liouvillian) -> DensityMatrix:
    """Solve L rho = 0 with tr(rho) = 1 by trace-row replacement.

    The first row of L is replaced by the vectorized trace functional and
    the resulting dense system solved by LU.  The result is Hermitized,
    checked against the residual bound |L vec(rho)|_inf < 1e-10 |L|_inf, and
    validated as a density matrix (``SolverError`` if it is not one).
    """
    L = liouvillian.matrix
    dim = liouvillian.dim
    system = L.copy()
    system[0, :] = 0.0
    system[0, ::dim + 1] = 1.0    # trace functional on column-stacked input
    rhs = np.zeros(L.shape[0], dtype=complex)
    rhs[0] = 1.0
    try:
        vec = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NonUniqueSteadyStateError(
            "steady state is not unique (trace-constrained system singular)"
        ) from exc
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
