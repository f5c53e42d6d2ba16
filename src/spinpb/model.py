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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, _number
from .operators import HilbertConfig, embed_ops


# Sign of the Sagnac shift per drive direction: clockwise +, counter-clockwise -
DIRECTION_SIGN = {"cw": 1.0, "ccw": -1.0}
# SystemParams fields with a lower bound: positive (True) or non-negative
_LOWER_BOUNDS = dict(gamma=True, omega_b=True, m_th=False, gamma_p=False, Lambda=False)


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
            if not _number(value, f"SpinGeometry.{name}") > 0 and name != "dn_dlambda":
                raise ConfigError(f"SpinGeometry.{name} must be positive")


@dataclass(frozen=True)
class SystemParams:
    """All physical rates of the reduced model, in rad/s.

    Each field is stored as a float, or as a float array given a real array
    (arrays broadcast; the amplitude engine solves one point per element).

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
        stored = vars(self)   # frozen: written around __setattr__
        for name, value in stored.items():
            if type(value) is float and math.isfinite(value):   # _number's fast path
                lo = value
            elif isinstance(value, np.ndarray) and value.ndim:
                if value.dtype.kind not in "iuf" or not np.isfinite(value).all():
                    raise ConfigError(f"{name} must be a finite real array, got {value!r}")
                stored[name] = value = value.astype(float, copy=False)
                lo = value.min(initial=math.inf) if name in _LOWER_BOUNDS else None
            else:
                stored[name] = lo = _number(value, name)
            if name in _LOWER_BOUNDS and (lo < 0 or lo == 0 and _LOWER_BOUNDS[name]):
                raise ConfigError(f"{name} must be " + (
                    "positive" if _LOWER_BOUNDS[name] else "non-negative"))

    @property
    def weak_drive_warning(self) -> bool:
        """True when the drive is too strong for the weak-drive hierarchy."""
        return self.E > 0.1 * self.gamma

    def replace(self, **changes) -> "SystemParams":
        return SystemParams(**{**vars(self), **changes})


def _one_point(params: SystemParams, what: str) -> None:
    """ConfigError if a field of ``params`` holds an array: ``what`` solves one point."""
    if not all(type(value) is float for value in vars(params).values()):
        raise ConfigError(f"{what} takes one parameter point, got arrays: {params}")


def sagnac_shift(geom: SpinGeometry, omega_rot: float, direction: str) -> float:
    """Rotation-induced frequency shift of the driven counter-propagating mode.

    Returns +/- Omega * (n r omega_a / c) * (1 - 1/n^2 - (lambda/n) dn/dlambda),
    positive for direction "cw", negative for "ccw".  Any other direction, or a
    shift that is not finite (non-finite omega_rot, overflow), is a ``ConfigError``.
    """
    if not isinstance(direction, str) or direction not in DIRECTION_SIGN:
        raise ConfigError(f"direction must be cw or ccw, got {direction!r}")
    try:
        magnitude = omega_rot * geom.n_index * geom.radius * geom.omega_a / geom.c
        magnitude *= (1.0 - 1.0 / geom.n_index**2
                      - (geom.wavelength / geom.n_index) * geom.dn_dlambda)
    except (OverflowError, ZeroDivisionError):   # n_index**2 out of float range
        magnitude = math.inf
    if not math.isfinite(magnitude):
        raise ConfigError(f"Sagnac shift at omega_rot = {omega_rot!r} is not finite")
    return DIRECTION_SIGN[direction] * magnitude


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
