"""JSON configuration parsing, unit resolution, and config hashing.

Every JSON object is parsed by ``_parse_object`` against a dataclass: its
keys are the dataclass's fields, a field without a default is required, a
``comment`` key is allowed anywhere and ignored, and any other key is a
config error (anti-typo policy).  Each key has one converter that checks its
JSON type: a finite number, an integer, a string, or a nested object.

System parameters are a flat object over ``SystemParams``: gamma, delta,
omega_b, J, K, Lambda, beta, E, delta_F, m_th, gamma_p.  Every rate key may
instead be given in reduced units through a companion key suffixed
``_over_gamma`` or ``_over_omega_b``; supplying more than one spelling of the
same quantity is a config error.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, fields
from typing import Any, Callable

import numpy as np

from .errors import ConfigError
from .model import SystemParams
from .operators import HilbertConfig

# keys that carry rad/s units and accept reduced-unit companions
RATE_KEYS = ("delta", "J", "K", "Lambda", "E", "delta_F", "gamma_p")
_SUFFIXES = ("_over_gamma", "_over_omega_b")
# every key a parameter may be spelled by: absolute or reduced units
SPELLINGS = frozenset(f.name for f in fields(SystemParams)) | {
    k + s for k in RATE_KEYS for s in _SUFFIXES}


def _number(value: Any, key: str) -> float:
    try:   # isfinite raises for a non-number and for an int beyond float range
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):
        pass
    raise ConfigError(f"key '{key}' must be a finite number, got {value!r}")


def _integer(value: Any, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"key '{key}' must be an integer, got {value!r}")
    return int(value)


def _string(value: Any, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"key '{key}' must be a string, got {value!r}")
    return value


def _parse_object(cls: type, raw: Any, converters: dict[str, Callable],
                  what: str) -> dict:
    """The converted values of the JSON object ``raw``, keyed as in ``raw``.

    ``converters`` maps each allowed key to ``convert(value, key)``; any
    other key but ``comment`` is rejected, as is a missing field of the
    dataclass ``cls`` that has no default.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} spec must be a JSON object")
    unknown = set(raw) - set(converters) - {"comment"}
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {sorted(unknown)}")
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING \
                and f.name not in raw:
            raise ConfigError(f"{what} missing required key '{f.name}'")
    return {key: converters[key](value, key) for key, value in raw.items()
            if key != "comment"}


def params_from_dict(raw: dict) -> SystemParams:
    """Build SystemParams from a flat JSON object, resolving reduced units."""
    given = _parse_object(SystemParams, raw, dict.fromkeys(SPELLINGS, _number),
                          "parameter")
    values: dict[str, float] = {}
    for spelling, value in given.items():
        name, value = resolve_unit(spelling, value, given["gamma"],
                                   given["omega_b"])
        if name in values:
            raise ConfigError(f"key '{name}' given in multiple unit spellings")
        values[name] = value
    return SystemParams(**values)


def resolve_unit(spelling: str, value: float, gamma: float,
                 omega_b: float) -> tuple[str, float]:
    """Parameter name and absolute value (rad/s) of one key spelling."""
    for suffix, scale in zip(_SUFFIXES, (gamma, omega_b)):
        if spelling.endswith(suffix):
            return spelling[:-len(suffix)], value * scale
    return spelling, value


def params_reduced_dict(params: SystemParams) -> dict:
    """Rates echoed in both reduced-unit systems (for manifests)."""
    out = {}
    for key in RATE_KEYS:
        value = getattr(params, key)
        out[key + "_over_gamma"] = value / params.gamma
        out[key + "_over_omega_b"] = value / params.omega_b
    return out


def hilbert_from_dict(raw: dict | None) -> HilbertConfig:
    """Truncation from a JSON object; None is the default truncation."""
    if raw is None:
        return HilbertConfig()
    return HilbertConfig(**_parse_object(
        HilbertConfig, raw, {"n_magnon": _integer, "n_photon": _integer},
        "truncation"))


def json_default(value: Any) -> Any:
    """``default`` hook of the JSON writers: a numpy scalar as its Python value.

    So a run given numpy numbers (point counts, parameters) hashes and
    records the same JSON as one given Python numbers.
    """
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def canonical_json(obj: Any) -> str:
    """Deterministic serialization used for config hashing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=json_default)


def config_hash(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def _unique_keys(pairs: list) -> dict:
    """The object of ``pairs``; a key given twice is a ValueError, not an override."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} is given twice in one object")
        obj[key] = value
    return obj


def load_json(path) -> dict:
    """JSON from ``path``; a failure to read or decode it is a ConfigError.

    So is a key given twice in one object: JSON would keep the last value.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:   # bad syntax, bytes, digits; nesting
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
