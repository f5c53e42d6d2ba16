"""Dense Fock-space operator constructors on the composite magnon-photon space.

Basis ordering convention: product states |m, n> (m magnon quanta, n photon
quanta) map to the flat index ``m * n_photon + n``, i.e. the magnon is the
slow index.  Every module downstream relies on this ordering.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionError


@dataclass(frozen=True)
class HilbertConfig:
    """Truncation dimensions of the two-mode Fock space.

    Two-excitation physics needs at least levels 0, 1, 2 in each mode, so
    both dimensions must be integers >= 3; numpy integers are stored as
    Python ints, so no product of them wraps.
    """

    n_magnon: int = 5
    n_photon: int = 5

    def __post_init__(self):
        for name, size in asdict(self).items():
            if not isinstance(size, (int, np.integer)):
                raise DimensionError(f"truncation must be integers, got {size!r}")
            object.__setattr__(self, name, int(size))
        if self.n_magnon < 3 or self.n_photon < 3:
            raise DimensionError(
                f"truncation must keep Fock levels 0..2 in each mode, got "
                f"({self.n_magnon}, {self.n_photon})"
            )

    @property
    def dim(self) -> int:
        return self.n_magnon * self.n_photon

    def basis_index(self, m: int, n: int) -> int:
        """Flat index of |m, n> in the composite basis."""
        if not (0 <= m < self.n_magnon and 0 <= n < self.n_photon):
            raise DimensionError(f"state |{m},{n}> outside truncation {self}")
        return m * self.n_photon + n


@dataclass(frozen=True)
class ModeOperators:
    """The six composite-space operators every observable is built from."""

    a: np.ndarray
    a_dag: np.ndarray
    m: np.ndarray
    m_dag: np.ndarray
    n_a: np.ndarray
    n_m: np.ndarray


def annihilation(n: int) -> np.ndarray:
    """n x n bosonic annihilation operator: entry (k-1, k) = sqrt(k)."""
    if n < 2:
        raise DimensionError(f"annihilation needs dimension >= 2, got {n}")
    return np.diag(np.sqrt(np.arange(1, n, dtype=float)), k=1).astype(complex)


def embed_ops(cfg: HilbertConfig) -> ModeOperators:
    """Build a, a+, m, m+ and the number operators on the composite space."""
    id_m = np.eye(cfg.n_magnon, dtype=complex)
    id_p = np.eye(cfg.n_photon, dtype=complex)
    a = np.kron(id_m, annihilation(cfg.n_photon))   # magnon is the slow index
    m = np.kron(annihilation(cfg.n_magnon), id_p)
    a_dag = a.conj().T
    m_dag = m.conj().T
    return ModeOperators(a=a, a_dag=a_dag, m=m, m_dag=m_dag,
                         n_a=a_dag @ a, n_m=m_dag @ m)
