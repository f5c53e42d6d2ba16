"""Declarative parameter sweeps with CSV output and run manifests.

A sweep evaluates one observable over a 1-D or 2-D grid, row-major with
axis1 outermost, and writes full-precision CSV plus a JSON manifest with
provenance (config hash, tool version, timing) and a truncation-convergence
check.  Grid evaluation is sequential and deterministic: rerunning a spec
produces a byte-identical CSV.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import find_optimal_pairs, g2_analytic
from .config import (
    AXIS_KEYS,
    OBSERVABLES,
    SPELLINGS,
    SWEEP_KEYS,
    _require_number,
    config_hash,
    hilbert_from_dict,
    params_from_dict,
    params_reduced_dict,
    params_to_dict,
    resolve_unit,
)
from .errors import ConfigError, SolverError
from .lindblad import build_liouvillian, g2_tau, g2_zero, mandel_q, steady_state
from .model import SystemParams
from .operators import HilbertConfig

CONVERGENCE_BOUND = 1e-4   # relative change allowed from one extra Fock level


def _format(value: float) -> str:
    """Full-precision, byte-stable CSV float formatting."""
    return format(value, ".17g")


@dataclass(frozen=True)
class AxisSpec:
    """One scan axis: a parameter name and a linear or log grid."""

    parameter: str
    min: float
    max: float
    points: int
    scale: str = "linear"

    def __post_init__(self):
        if self.parameter not in SPELLINGS | {"tau"}:
            raise ConfigError(f"unknown axis parameter '{self.parameter}'")
        if self.points < 2:
            raise ConfigError("axis needs at least 2 points")
        if not -np.inf < self.min < self.max < np.inf:   # also rejects NaN
            raise ConfigError("axis must have finite min < max")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"axis scale must be linear|log, got '{self.scale}'")
        if self.scale == "log" and self.min <= 0:
            raise ConfigError("log axis requires min > 0")
        if self.parameter == "tau" and self.min < 0:
            raise ConfigError("tau axis requires min >= 0")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.logspace(np.log10(self.min), np.log10(self.max), self.points)
        return np.linspace(self.min, self.max, self.points)


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a scan plus its output destination."""

    axis1: AxisSpec
    observable: str
    base: SystemParams
    output_path: str
    axis2: AxisSpec | None = None
    cfg: HilbertConfig = field(default_factory=HilbertConfig)

    def __post_init__(self):
        if self.observable not in OBSERVABLES:
            raise ConfigError(f"unknown observable '{self.observable}'")
        tau_axes = [ax for ax in (self.axis1, self.axis2)
                    if ax is not None and ax.parameter == "tau"]
        if self.observable == "g2_tau":
            if len(tau_axes) != 1:
                raise ConfigError("observable g2_tau needs exactly one tau axis")
        elif tau_axes:
            raise ConfigError("a tau axis requires observable g2_tau")
        if self.axis2 is not None and self.axis1.parameter == self.axis2.parameter:
            raise ConfigError("axis1 and axis2 scan the same parameter")


@dataclass
class RunManifest:
    """Provenance written alongside every CSV."""

    config_hash: str
    tool_version: str
    timestamp: str
    duration_s: float
    truncation_convergence_delta: float | None
    converged: bool
    observable: str
    params_rad_per_s: dict
    params_reduced: dict
    cfg: dict
    failures: list
    rows: int
    notes: list

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.__dict__, fh, indent=2)
            fh.write("\n")


def _apply_axis(params: SystemParams, name: str, value: float) -> SystemParams:
    name, value = resolve_unit(name, value, params.gamma, params.omega_b)
    return params.replace(**{name: value})


def _eval_point(observable: str, params: SystemParams, cfg: HilbertConfig) -> float:
    if observable == "g2_analytic":
        return g2_analytic(params)
    rho = steady_state(build_liouvillian(params, cfg))
    if observable == "g2_numeric":
        return g2_zero(rho, cfg)
    return mandel_q(rho, cfg)


def _grid_results(spec: SweepSpec) -> tuple[list, list]:
    """Evaluate the grid row-major; returns (rows, failures).

    Each row is (axis1_value, [axis2_value,] observable_value); a 1-D sweep
    is a grid with one column.  A g2_tau sweep computes one delay line per
    point of its other axis.  Failed points carry NaN and a failure record
    with the index and value of each axis the failure covers.
    """
    axes = [ax for ax in (spec.axis1, spec.axis2) if ax is not None]
    values = [ax.values() for ax in axes]
    grid = np.full((len(values[0]), 1 if spec.axis2 is None else len(values[1])),
                   np.nan)
    failures: list[dict] = []

    def record_failure(exc: Exception, index: dict) -> None:
        coord = {}
        for k, i in index.items():
            if k < len(axes):
                coord[f"axis{k + 1}_index"] = i
                coord[axes[k].parameter] = float(values[k][i])
        failures.append({**coord, "error": f"{type(exc).__name__}: {exc}"})

    if spec.observable == "g2_tau":
        t = 0 if spec.axis1.parameter == "tau" else 1
        lines = grid.T if t == 0 else grid   # row j: delays at other-axis point j
        for j in range(lines.shape[0]):
            point = spec.base
            if spec.axis2 is not None:
                point = _apply_axis(point, axes[1 - t].parameter, values[1 - t][j])
            try:
                lines[j] = [g for _t, g in g2_tau(point, spec.cfg, values[t])]
            except (SolverError, np.linalg.LinAlgError) as exc:
                record_failure(exc, {1 - t: j})
    else:
        for i1, v1 in enumerate(values[0]):
            point1 = _apply_axis(spec.base, spec.axis1.parameter, v1)
            for i2 in range(grid.shape[1]):
                point = point1 if spec.axis2 is None else _apply_axis(
                    point1, spec.axis2.parameter, values[1][i2])
                try:
                    grid[i1, i2] = _eval_point(spec.observable, point, spec.cfg)
                except (SolverError, np.linalg.LinAlgError) as exc:
                    record_failure(exc, {0: i1, 1: i2})

    rows = [(*(float(v[i]) for v, i in zip(values, index)), float(grid[index]))
            for index in np.ndindex(grid.shape)]
    return rows, failures


def _probe(observable: str, point: SystemParams, cfg: HilbertConfig,
           low: float, tau: float | None) -> tuple[float | None, bool, list]:
    """Redo one computed value with one extra Fock level per mode.

    ``low`` is the value at ``point`` (and delay ``tau`` for g2_tau) on
    ``cfg``; returns the relative change, whether it is below
    ``CONVERGENCE_BOUND``, and notes.
    """
    cfg_hi = HilbertConfig(cfg.n_magnon + 1, cfg.n_photon + 1)
    try:
        if observable == "g2_tau":
            high = g2_tau(point, cfg_hi, [tau])[0][1]
        else:
            high = _eval_point(observable, point, cfg_hi)
    except (SolverError, np.linalg.LinAlgError) as exc:
        return None, False, [f"convergence probe failed: {exc}"]
    delta = abs(high - low) / max(abs(low), 1e-300)
    return delta, delta < CONVERGENCE_BOUND, []


def _convergence_check(spec: SweepSpec, rows: list) -> tuple[float | None, bool, list]:
    """Probe the most sensitive grid point: the smallest observable value.

    The analytic observable has no truncation, so its delta is 0 by
    construction.
    """
    if spec.observable == "g2_analytic":
        return 0.0, True, ["analytic observable: truncation-free, delta is 0"]
    finite = [r for r in rows if np.isfinite(r[-1])]
    if not finite:
        return None, False, ["no finite grid point; convergence not checkable"]
    row = min(finite, key=lambda r: r[-1])
    point, tau = spec.base, None
    for ax, value in zip((spec.axis1, spec.axis2), row[:-1]):
        if ax.parameter == "tau":
            tau = value
        else:
            point = _apply_axis(point, ax.parameter, value)
    return _probe(spec.observable, point, spec.cfg, row[-1], tau)


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format(v) for v in row) + "\n")


def _finish(output_path, header: list[str], rows: list, failures: list,
            check: tuple[float | None, bool, list], observable: str,
            params: SystemParams, cfg: HilbertConfig | None,
            spec_dict: dict | None, t0: float) -> RunManifest:
    """Write the CSV and its manifest; ``check`` is (delta, converged, notes)."""
    delta, converged, notes = check
    if params.weak_drive_warning:
        notes = notes + ["weak-drive flag: E > 0.1 gamma, the excitation "
                         "hierarchy may not hold"]
    out = Path(output_path)
    _write_csv(out, header, rows)
    manifest = RunManifest(
        config_hash=config_hash(spec_dict if spec_dict is not None else {}),
        tool_version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
        duration_s=time.monotonic() - t0,
        truncation_convergence_delta=delta,
        converged=converged,
        observable=observable,
        params_rad_per_s=params_to_dict(params),
        params_reduced=params_reduced_dict(params),
        cfg={} if cfg is None else {"n_magnon": cfg.n_magnon,
                                    "n_photon": cfg.n_photon},
        failures=failures,
        rows=len(rows),
        notes=notes,
    )
    manifest.write(manifest_path_for(out))
    return manifest


def manifest_path_for(csv_path) -> Path:
    return Path(str(csv_path) + ".manifest.json")


def run_sweep(spec: SweepSpec, spec_dict: dict | None = None) -> RunManifest:
    """Execute a sweep: evaluate the grid, write CSV and manifest."""
    t0 = time.monotonic()
    rows, failures = _grid_results(spec)
    header = ["axis1_value", "observable_value"]
    if spec.axis2 is not None:
        header = ["axis1_value", "axis2_value", "observable_value"]
    return _finish(spec.output_path, header, rows, failures,
                   _convergence_check(spec, rows), spec.observable, spec.base,
                   spec.cfg, spec_dict, t0)


def run_optimal(params: SystemParams, directions: list[str], output_path,
                delta_range: tuple[float, float] = (-1.0, 1.0),
                lambda_range: tuple[float, float] = (0.0, 1.0e-5),
                spec_dict: dict | None = None) -> RunManifest:
    """Root-search per drive direction; CSV of the located optimal pairs.

    Directions are 'cw' (delta_F = +|delta_F|) or 'ccw' (delta_F =
    -|delta_F|).  A direction with no root in the box emits one warning row
    of NaNs rather than failing.
    """
    t0 = time.monotonic()
    rows = []
    failures = []
    for direction in directions:
        if direction not in ("cw", "ccw"):
            raise ConfigError(f"unknown direction '{direction}'")
        shift = abs(params.delta_F) if direction == "cw" else -abs(params.delta_F)
        point = params.replace(delta_F=shift)
        pairs = find_optimal_pairs(point, delta_range, lambda_range)
        if not pairs:
            rows.append((shift / params.gamma, float("nan"), float("nan"),
                         float("nan")))
            failures.append({"direction": direction,
                             "error": "no optimal pair in search box"})
            continue
        for pair in pairs:
            rows.append((shift / params.gamma, pair.delta_opt_over_omega_b,
                         pair.lambda_opt_over_omega_b, pair.residual))
    check = (0.0, True, ["pair search is analytic: truncation-free, delta is 0"])
    return _finish(output_path, ["delta_F_over_gamma", "delta_opt_over_omega_b",
                                 "lambda_opt_over_omega_b", "residual"],
                   rows, failures, check, "optimal_pairs", params, None,
                   spec_dict, t0)


def run_g2tau(params: SystemParams, cfg: HilbertConfig, tau_max: float,
              points: int, output_path,
              spec_dict: dict | None = None) -> RunManifest:
    """Linear delay grid from 0 to tau_max; CSV of (tau, g2(tau)).

    A solver error is raised, not recorded: the trace has a single
    parameter point.
    """
    if not 0 < tau_max < np.inf:
        raise ConfigError("tau_max must be positive and finite")
    if points < 1:
        raise ConfigError("points must be >= 1")
    t0 = time.monotonic()
    taus = [0.0] if points == 1 else list(np.linspace(0.0, tau_max, points))
    rows = g2_tau(params, cfg, taus)
    tau, low = min(rows, key=lambda r: r[1])
    return _finish(output_path, ["tau", "g2"], rows, [],
                   _probe("g2_tau", params, cfg, low, tau), "g2_tau", params,
                   cfg, spec_dict, t0)


def sweep_spec_from_dict(raw: dict) -> SweepSpec:
    """Parse and validate a sweep spec JSON object."""
    if not isinstance(raw, dict):
        raise ConfigError("sweep spec must be a JSON object")
    unknown = set(raw) - SWEEP_KEYS
    if unknown:
        raise ConfigError(f"unknown sweep key(s): {sorted(unknown)}")
    for key in ("axis1", "observable", "base", "output_path"):
        if key not in raw:
            raise ConfigError(f"sweep spec missing required key '{key}'")
    return SweepSpec(
        axis1=_axis_from_dict(raw["axis1"]),
        axis2=_axis_from_dict(raw["axis2"]) if raw.get("axis2") else None,
        observable=raw["observable"],
        base=params_from_dict(raw["base"]),
        cfg=hilbert_from_dict(raw.get("cfg")),
        output_path=raw["output_path"],
    )


def _axis_from_dict(raw: dict) -> AxisSpec:
    if not isinstance(raw, dict):
        raise ConfigError("axis must be a JSON object")
    unknown = set(raw) - AXIS_KEYS
    if unknown:
        raise ConfigError(f"unknown axis key(s): {sorted(unknown)}")
    for key in ("parameter", "min", "max", "points"):
        if key not in raw:
            raise ConfigError(f"axis missing required key '{key}'")
    points = raw["points"]
    if isinstance(points, bool) or not isinstance(points, int):
        raise ConfigError("axis 'points' must be an integer")
    return AxisSpec(parameter=raw["parameter"],
                    min=_require_number(raw["min"], "min"),
                    max=_require_number(raw["max"], "max"), points=points,
                    scale=raw.get("scale", "linear"))
