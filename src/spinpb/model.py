"""Physical parameters and Hamiltonians of the reduced two-mode model.

The model is a spinning microwave cavity (mode a, shifted by the rotation-
induced Sagnac-Fizeau detuning) coupled to a magnon mode m that carries an
effective Kerr self-interaction, with an intracavity parametric-amplifier
pair source and a coherent drive on the cavity.  The phonon mode never
appears explicitly; its magnetostrictive effect is folded into the Kerr
strength via ``effective_kerr``.

All rates and detunings are angular frequencies (rad/s).
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .operators import HilbertConfig, embed_ops


class DriveDirection(enum.Enum):
    """Input direction of the drive; fixes the sign of the Sagnac shift."""

    CW = "cw"
    CCW = "ccw"


@dataclass(frozen=True)
class SpinGeometry:
    """Geometry of the spinning resonator for the Sagnac-Fizeau shift.

    Attributes
    ----------
    n_index : float
        Refractive index.
    radius : float
        Resonator radius (m).
    wavelength : float
        Vacuum wavelength (m).
    omega_a : float
        Resonance of the non-spinning cavity (rad/s).
    c : float
        Vacuum speed of light (m/s).
    dn_dlambda : float
        Dispersion dn/d(lambda) (1/m); may be negative.
    """

    n_index: float
    radius: float
    wavelength: float
    omega_a: float
    c: float = 3.0e8
    dn_dlambda: float = 0.0

    def __post_init__(self):
        for name in ("n_index", "radius", "wavelength", "omega_a", "c"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"SpinGeometry.{name} must be positive")


@dataclass(frozen=True)
class SystemParams:
    """All physical rates of the reduced model, in rad/s.

    Attributes
    ----------
    gamma : float
        Common decay rate of the photon and magnon modes.
    omega_b : float
        Phonon frequency; only used as the reduced-unit scale and in
        ``effective_kerr``.
    delta : float
        Common detuning of cavity and magnon from the drive.
    J : float
        Magnon-photon coupling.
    K : float
        Effective Kerr-magnon strength.
    Lambda : float
        Parametric-amplifier squeezing amplitude (>= 0).
    beta : float
        Squeezing phase (radians).
    E : float
        Coherent drive amplitude on the cavity.
    delta_F : float
        Signed Sagnac-Fizeau shift; positive for CW drive, negative for CCW.
    m_th : float
        Thermal occupation of the magnon bath.
    gamma_p : float
        Pure-dephasing rate of the cavity mode.
    """

    gamma: float
    omega_b: float
    delta: float = 0.0
    J: float = 0.0
    K: float = 0.0
    Lambda: float = 0.0
    beta: float = 0.0
    E: float = 0.0
    delta_F: float = 0.0
    m_th: float = 0.0
    gamma_p: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
            if value <= 0 and name in ("gamma", "omega_b"):
                raise ConfigError(f"{name} must be positive")
            if value < 0 and name in ("m_th", "gamma_p", "Lambda"):
                raise ConfigError(f"{name} must be non-negative")

    @property
    def weak_drive_warning(self) -> bool:
        """True when the drive is too strong for the weak-drive hierarchy."""
        return self.E > 0.1 * self.gamma

    def replace(self, **changes) -> "SystemParams":
        return replace(self, **changes)


def sagnac_shift(geom: SpinGeometry, omega_rot: float,
                 direction: DriveDirection) -> float:
    """Rotation-induced frequency shift of the driven counter-propagating mode.

    Returns +/- Omega * (n r omega_a / c) * (1 - 1/n^2 - (lambda/n) dn/dlambda),
    positive for CW drive, negative for CCW.
    """
    magnitude = omega_rot * geom.n_index * geom.radius * geom.omega_a / geom.c
    magnitude *= (1.0 - 1.0 / geom.n_index**2
                  - (geom.wavelength / geom.n_index) * geom.dn_dlambda)
    return magnitude if direction is DriveDirection.CW else -magnitude


def effective_kerr(K0: float, g: float, omega_b: float) -> float:
    """Effective Kerr strength: bare Kerr minus the magnetostrictive shift g^2/omega_b."""
    if omega_b == 0:
        raise ZeroDivisionError("omega_b must be nonzero")
    if omega_b < 0:
        raise ConfigError("omega_b must be positive")
    return K0 - g**2 / omega_b


def _coefficients(params: SystemParams, hermitian: bool) -> np.ndarray:
    """Weights of the rows of ``_terms``: the H of ``build_hamiltonian``."""
    decay = 0.0 if hermitian else -0.5j * params.gamma
    pair = 1j * params.Lambda * cmath.exp(1j * params.beta)
    return np.array([params.delta + params.delta_F + decay, params.delta + decay,
                     params.K, params.J, pair, pair.conjugate(), params.E])


@functools.lru_cache
def _terms(cfg: HilbertConfig) -> np.ndarray:
    """The seven fixed operators of H, each flattened to one row (read-only)."""
    ops = embed_ops(cfg)
    terms = np.array([ops.n_a, ops.n_m, ops.n_m @ ops.n_m,
                      ops.a_dag @ ops.m + ops.a @ ops.m_dag,
                      ops.a_dag @ ops.a_dag, ops.a @ ops.a,
                      ops.a_dag + ops.a]).reshape(7, cfg.dim**2)
    terms.flags.writeable = False
    return terms


def build_hamiltonian(params: SystemParams, cfg: HilbertConfig,
                      hermitian: bool = True) -> np.ndarray:
    """Reduced two-mode Hamiltonian on the truncated composite space.

    H = (delta + delta_F) a+a + delta m+m + K (m+m)^2 + J (a+m + a m+)
        + i Lambda (a+^2 e^{i beta} - a^2 e^{-i beta}) + E (a+ + a)

    With ``hermitian=False`` the decay enters as -i(gamma/2)(a+a + m+m),
    which is the generator used by the amplitude equations.  The drive acts
    on the cavity mode in both variants.
    """
    return (_coefficients(params, hermitian) @ _terms(cfg)).reshape(cfg.dim, cfg.dim)
