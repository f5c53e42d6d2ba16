"""JSON configuration parsing, unit resolution, and config hashing.

System parameters are a flat JSON object with keys gamma, delta, omega_b,
J, K, Lambda, beta, E, delta_F, m_th, gamma_p.  Every rate key may instead
be given in reduced units through a companion key suffixed ``_over_gamma``
or ``_over_omega_b``; supplying more than one spelling of the same quantity
is a config error, as is any unrecognized key (anti-typo policy).  A
``comment`` key is allowed anywhere and ignored.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

from .errors import ConfigError
from .model import SystemParams
from .operators import HilbertConfig

PARAM_KEYS = ("gamma", "delta", "omega_b", "J", "K", "Lambda", "beta", "E",
              "delta_F", "m_th", "gamma_p")
# keys that carry rad/s units and accept reduced-unit companions
RATE_KEYS = ("delta", "J", "K", "Lambda", "E", "delta_F", "gamma_p")
_SUFFIXES = ("_over_gamma", "_over_omega_b")
# every key a parameter may be spelled by: absolute or reduced units
SPELLINGS = frozenset(PARAM_KEYS) | {k + s for k in RATE_KEYS for s in _SUFFIXES}
REQUIRED_KEYS = ("gamma", "omega_b")

HILBERT_KEYS = {"n_magnon", "n_photon", "comment"}


def _require_number(value: Any, key: str) -> float:
    try:   # isfinite raises for a non-number and for an int beyond float range
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):
        pass
    raise ConfigError(f"key '{key}' must be a finite number, got {value!r}")


def params_from_dict(raw: dict) -> SystemParams:
    """Build SystemParams from a flat JSON object, resolving reduced units."""
    if not isinstance(raw, dict):
        raise ConfigError("system parameters must be a JSON object")
    unknown = set(raw) - SPELLINGS - {"comment"}
    if unknown:
        raise ConfigError(f"unknown parameter key(s): {sorted(unknown)}")

    for key in REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required key '{key}'")
    gamma = _require_number(raw["gamma"], "gamma")
    omega_b = _require_number(raw["omega_b"], "omega_b")

    values: dict[str, float] = {"gamma": gamma, "omega_b": omega_b}
    for key in PARAM_KEYS:
        if key in REQUIRED_KEYS:
            continue
        spellings = [key] + ([key + s for s in _SUFFIXES] if key in RATE_KEYS else [])
        present = [s for s in spellings if s in raw]
        if len(present) > 1:
            raise ConfigError(
                f"key '{key}' given in multiple unit spellings: {present}")
        if not present:
            continue
        spelling = present[0]
        value = _require_number(raw[spelling], spelling)
        values[key] = resolve_unit(spelling, value, gamma, omega_b)[1]
    return SystemParams(**values)


def resolve_unit(spelling: str, value: float, gamma: float,
                 omega_b: float) -> tuple[str, float]:
    """Parameter name and absolute value (rad/s) of one key spelling."""
    for suffix, scale in zip(_SUFFIXES, (gamma, omega_b)):
        if spelling.endswith(suffix):
            return spelling[:-len(suffix)], value * scale
    return spelling, value


def params_to_dict(params: SystemParams) -> dict:
    """Flat absolute-unit JSON object for a SystemParams."""
    return {key: getattr(params, key) for key in PARAM_KEYS}


def params_reduced_dict(params: SystemParams) -> dict:
    """Rates echoed in both reduced-unit systems (for manifests)."""
    out = {}
    for key in RATE_KEYS:
        value = getattr(params, key)
        out[key + "_over_gamma"] = value / params.gamma
        out[key + "_over_omega_b"] = value / params.omega_b
    return out


def hilbert_from_dict(raw: dict | None) -> HilbertConfig:
    if raw is None:
        return HilbertConfig()
    if not isinstance(raw, dict):
        raise ConfigError("'cfg' must be a JSON object")
    unknown = set(raw) - HILBERT_KEYS
    if unknown:
        raise ConfigError(f"unknown truncation key(s): {sorted(unknown)}")
    kwargs = {}
    for key in ("n_magnon", "n_photon"):
        if key in raw:
            value = raw[key]
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"'{key}' must be an integer")
            kwargs[key] = value
    return HilbertConfig(**kwargs)


def canonical_json(obj: Any) -> str:
    """Deterministic serialization used for config hashing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
