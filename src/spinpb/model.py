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

import enum
import math
from dataclasses import dataclass

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
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ConfigError(f"SpinGeometry.{name} must be finite, got {value!r}")
            if not value > 0 and name != "dn_dlambda":
                raise ConfigError(f"SpinGeometry.{name} must be positive")


@dataclass(frozen=True)
class SystemParams:
    """All physical rates of the reduced model, in rad/s.

    Any field may instead hold a float array; arrays broadcast against each
    other, and the amplitude engine then solves one point per element.

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
            lo = hi = value
            if not isinstance(value, float):   # an array (or int): its extremes
                lo, hi = np.min(value), np.max(value)   # NaN propagates
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ConfigError(f"{name} must be finite, got {value!r}")
            if lo <= 0 and name in ("gamma", "omega_b"):
                raise ConfigError(f"{name} must be positive")
            if lo < 0 and name in ("m_th", "gamma_p", "Lambda"):
                raise ConfigError(f"{name} must be non-negative")

    @property
    def weak_drive_warning(self) -> bool:
        """True when the drive is too strong for the weak-drive hierarchy."""
        return self.E > 0.1 * self.gamma

    def replace(self, **changes) -> "SystemParams":
        return SystemParams(**{**vars(self), **changes})


def sagnac_shift(geom: SpinGeometry, omega_rot: float,
                 direction: DriveDirection) -> float:
    """Rotation-induced frequency shift of the driven counter-propagating mode.

    Returns +/- Omega * (n r omega_a / c) * (1 - 1/n^2 - (lambda/n) dn/dlambda),
    positive for CW drive, negative for CCW.  A shift that is not finite (a
    non-finite omega_rot, or an overflow) raises ``ConfigError``.
    """
    try:
        magnitude = omega_rot * geom.n_index * geom.radius * geom.omega_a / geom.c
        magnitude *= (1.0 - 1.0 / geom.n_index**2
                      - (geom.wavelength / geom.n_index) * geom.dn_dlambda)
    except (OverflowError, ZeroDivisionError):   # n_index**2 out of float range
        magnitude = math.inf
    if not math.isfinite(magnitude):
        raise ConfigError(f"Sagnac shift at omega_rot = {omega_rot!r} is not finite")
    return magnitude if direction is DriveDirection.CW else -magnitude


def effective_kerr(K0: float, g: float, omega_b: float) -> float:
    """Effective Kerr strength: bare Kerr minus the magnetostrictive shift g^2/omega_b.

    ``ConfigError`` unless omega_b is positive and the result finite.
    """
    if not 0 < omega_b < math.inf:       # NaN fails too
        raise ConfigError(f"omega_b must be positive and finite, got {omega_b!r}")
    kerr = K0 - g * g / omega_b
    if not math.isfinite(kerr):
        raise ConfigError(f"effective Kerr strength {kerr!r} is not finite")
    return kerr


def _coefficients(params: SystemParams, hermitian: bool) -> np.ndarray:
    """Weights of the rows of ``_terms``: the H of ``build_hamiltonian``.

    Array-valued parameters broadcast; the weights are the last axis, (..., 7).
    """
    decay = 0.0 if hermitian else -0.5j * params.gamma
    pair = 1j * params.Lambda * np.exp(1j * params.beta)
    weights = (params.delta + params.delta_F + decay, params.delta + decay,
               params.K, params.J, pair, np.conj(pair), params.E)
    out = np.empty(np.broadcast(*weights).shape + (7,), dtype=complex)
    for k, weight in enumerate(weights):
        out[..., k] = weight
    return out


def _terms(cfg: HilbertConfig) -> np.ndarray:
    """The seven fixed operators of H, each flattened to one row."""
    ops = embed_ops(cfg)
    return np.array([ops.n_a, ops.n_m, ops.n_m @ ops.n_m,
                     ops.a_dag @ ops.m + ops.a @ ops.m_dag,
                     ops.a_dag @ ops.a_dag, ops.a @ ops.a,
                     ops.a_dag + ops.a]).reshape(7, cfg.dim**2)


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
