"""Declarative parameter sweeps with CSV output and run manifests.

A sweep evaluates one observable over a 1-D or 2-D grid, row-major with
axis1 outermost, and writes full-precision CSV plus a JSON manifest with
provenance (config hash, tool version, timing) and a truncation-convergence
check.  The grid is a float array, filled one block at a time (a run of
g2_analytic cells, a delay line or one steady state; see ``_grid_results``)
and written and probed straight from that array.  Every
parameter point is built by ``_at`` and every engine call is in
``_evaluate``; a ``SweepSpec`` builds every grid point when made, so
``validate`` rejects what ``sweep`` would.  Evaluation is
sequential and deterministic: rerunning a spec produces a byte-identical CSV.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import _DELTA_RANGE, _LAMBDA_RANGE, find_optimal_pairs, g2_analytic
from .config import (
    SPELLINGS,
    _integer,
    _number,
    _parse_object,
    _string,
    config_hash,
    hilbert_from_dict,
    json_default,
    params_from_dict,
    params_reduced_dict,
    resolve_unit,
)
from .errors import ConfigError, SolverError
from .lindblad import build_liouvillian, g2_tau, g2_zero, mandel_q, steady_state
from .model import DIRECTION_SIGN, SystemParams
from .operators import HilbertConfig

CONVERGENCE_BOUND = 1e-4   # relative change allowed from one extra Fock level
ANALYTIC_BLOCK = 1024      # most cells per g2_analytic call: bounds its memory
CSV_BLOCK = 1024           # rows of the CSV formatted and written at once


@dataclass(frozen=True)
class AxisSpec:
    """One scan axis: a parameter name and a linear or log grid."""

    parameter: str
    min: float
    max: float
    points: int
    scale: str = "linear"

    def __post_init__(self):
        _string(self.parameter, "parameter")   # so a list fails here, not as
        _string(self.scale, "scale")           # an unhashable set member
        if self.parameter not in SPELLINGS | {"tau"}:
            raise ConfigError(f"unknown axis parameter '{self.parameter}'")
        _number(self.min, "min")   # finite, so NaN and inf fail here
        _number(self.max, "max")
        if _integer(self.points, "points") < 2:
            raise ConfigError("axis needs at least 2 points")
        if not self.min < self.max:
            raise ConfigError("axis must have min < max")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"axis scale must be linear|log, got '{self.scale}'")
        if self.scale == "log" and self.min <= 0:
            raise ConfigError("log axis requires min > 0")
        if self.parameter == "tau" and self.min < 0:
            raise ConfigError("tau axis requires min >= 0")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return _grid(np.logspace, np.log10(self.min), np.log10(self.max),
                         self.points)
        return _grid(np.linspace, self.min, self.max, self.points)


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
        # two unit spellings of one parameter are the same axis
        if self.axis2 is not None and (
                resolve_unit(self.axis1.parameter, 0.0, 1.0, 1.0)[0]
                == resolve_unit(self.axis2.parameter, 0.0, 1.0, 1.0)[0]):
            raise ConfigError("axis1 and axis2 scan the same parameter")
        # every grid point is a valid SystemParams, as the sweep will build it
        _at(self, _grid(np.meshgrid, *(ax.values() for ax in (self.axis1, self.axis2)
                                       if ax is not None), indexing="ij"))
        _check_output(self.output_path)


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
            json.dump(self.__dict__, fh, indent=2, default=json_default)
            fh.write("\n")


def _grid(build, *args, **kwargs) -> np.ndarray:
    """``build(*args, **kwargs)``; numpy refusing the grid's size is a ConfigError."""
    try:
        return build(*args, **kwargs)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"grid too large to build: {exc}") from exc


def _check_output(output_path) -> None:
    """Reject a path that holds a NUL, names a directory or lies under a file.

    The manifest path beside it must not be a directory either, so a run
    never writes a CSV it cannot give a manifest.  "" names the current
    directory; missing parents are created on write.
    """
    if "\0" in str(output_path):
        raise ConfigError(f"output path {str(output_path)!r} holds a NUL character")
    path = Path(output_path)
    if path.is_dir():
        raise ConfigError(f"output path '{output_path}' is a directory")
    if manifest_path_for(path).is_dir():
        raise ConfigError(f"manifest path '{manifest_path_for(path)}' is a directory")
    parent = next((p for p in path.parents if p.exists()), None)
    if parent is not None and not parent.is_dir():
        raise ConfigError(f"output path '{output_path}' lies under '{parent}',"
                          " which is not a directory")


def _at(spec: SweepSpec, coords) -> tuple[SystemParams, object]:
    """(point, delays) at one coordinate (a value or an array) per axis.

    axis1 is applied first, so an ``_over_gamma`` or ``_over_omega_b`` axis2
    is scaled by the gamma or omega_b that axis1 left.  ``delays`` is the tau
    coordinate (an array or a scalar), None without a tau axis.
    """
    point, delays = spec.base, None
    for ax, coord in zip((spec.axis1, spec.axis2), coords):
        if ax.parameter == "tau":
            delays = coord
        else:
            name, value = resolve_unit(ax.parameter, coord, point.gamma,
                                       point.omega_b)
            point = point.replace(**{name: value})
    return point, delays


def _evaluate(observable: str, point: SystemParams, delays,
              cfg: HilbertConfig):
    """The observable at ``point``; the sweep's one call into the engines.

    g2_tau gives one value per delay, g2_analytic one per point of an
    array-valued ``point``, and g2_numeric and mandel_q one value.
    """
    if observable == "g2_tau":
        return np.array([g for _t, g in g2_tau(point, cfg, np.atleast_1d(delays))])
    if observable == "g2_analytic":
        return g2_analytic(point)
    extract = g2_zero if observable == "g2_numeric" else mandel_q
    return extract(steady_state(build_liouvillian(point, cfg)), cfg)


def _grid_results(spec: SweepSpec) -> tuple[list, np.ndarray, list]:
    """Evaluate the grid; returns (axis values, grid, failures).

    The grid has one dimension per axis.  g2_analytic is solved over runs of
    at most ``ANALYTIC_BLOCK`` consecutive row-major cells per array-valued
    call, g2_tau one delay trace per line of its tau axis, and g2_numeric and
    mandel_q one steady state per cell, so a failed cell costs no other.  Each
    block's point and delays are ``_at`` of its coordinates.  A g2_analytic
    run that fails is halved until each failing cell is alone; a g2_tau line
    that fails (one steady state) fails at every delay.  Each failed cell is
    NaN with one failure record giving every axis's index and value.
    """
    axes = [ax for ax in (spec.axis1, spec.axis2) if ax is not None]
    values = [ax.values() for ax in axes]
    grid = np.full([len(v) for v in values], np.nan)
    k = next((n for n, ax in enumerate(axes) if ax.parameter == "tau"), None)
    if spec.observable == "g2_analytic":   # index arrays of each run of cells
        cells = np.unravel_index(np.arange(grid.size), grid.shape)
        todo = [tuple(c[start:start + ANALYTIC_BLOCK] for c in cells)
                for start in range(0, grid.size, ANALYTIC_BLOCK)]
    elif spec.observable == "g2_tau":   # every line along the tau axis k
        todo = [i[:k] + (slice(None),) + i[k:]
                for i in np.ndindex(grid.shape[:k] + grid.shape[k + 1:])]
    else:
        todo = list(np.ndindex(grid.shape))
    errors = {}
    for block in todo:   # a failed g2_analytic run appends its two halves
        try:
            grid[block] = _evaluate(spec.observable, *_at(spec, [
                v[b] for v, b in zip(values, block)]), spec.cfg)
        except SolverError as exc:
            if spec.observable == "g2_tau":   # one steady state, one trace
                errors.update(dict.fromkeys([block[:k] + (i,) + block[k + 1:]
                                             for i in range(grid.shape[k])], exc))
            elif spec.observable == "g2_analytic" and len(block[0]) > 1:
                half = len(block[0]) // 2
                todo += [tuple(b[:half] for b in block),
                         tuple(b[half:] for b in block)]
            else:   # one cell, held as ints or as one-element index arrays
                errors[tuple(np.ravel(block).tolist())] = exc
    failures = []
    for index, error in sorted(errors.items()):   # row-major, as the CSV
        record = {}
        for n, i in enumerate(index):
            record[f"axis{n + 1}_index"] = i
            record[axes[n].parameter] = float(values[n][i])
        failures.append({**record, "error": f"{type(error).__name__}: {error}"})
    return values, grid, failures


def _probe(observable: str, cfg: HilbertConfig, values: list,
           grid: np.ndarray, at) -> tuple[float | None, list]:
    """Redo the most sensitive cell with one extra Fock level per mode.

    That is the first smallest finite cell in row-major order, recomputed by
    one ``_evaluate`` call at its (point, delays) ``at(coords)``, at
    (n_magnon + 1) x (n_photon + 1).  Returns the relative change (None if
    not checkable) and notes; g2_analytic has no truncation, so its delta is 0.
    """
    if observable == "g2_analytic":
        return 0.0, ["analytic observable: truncation-free, delta is 0"]
    finite = np.isfinite(grid)
    if not finite.any():
        return None, ["no finite grid point; convergence not checkable"]
    index = np.unravel_index(np.argmin(np.where(finite, grid, np.inf)), grid.shape)
    coords = [v[i] for v, i in zip(values, index)]
    cfg_hi = HilbertConfig(cfg.n_magnon + 1, cfg.n_photon + 1)
    try:
        high = _evaluate(observable, *at(coords), cfg_hi)
    except SolverError as exc:
        return None, [f"convergence probe failed: {exc}"]
    high, low = float(np.ravel(high)[0]), float(grid[index])
    return abs(high - low) / max(abs(low), 1e-300), []


def _write_csv(path: Path, header: list[str], table) -> None:
    """Write ``table`` (rows of floats) with every value in '%.17g'.

    Per block of ``CSV_BLOCK`` rows each column's distinct bit patterns are
    formatted once, so a repeated axis value costs one conversion.  Bits,
    not values, are compared: 0.0 and -0.0 are equal but print differently.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    # reshaped, as an empty list of rows is a 1-D array
    table = np.asarray(table, dtype=float).reshape(len(table), len(header))
    template = ",".join(["%s"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        # only one block's text is held: about 0.3 kB per row of three
        # columns, 0.3 MB for a whole block
        for start in range(0, len(table), CSV_BLOCK):
            block = table[start:start + CSV_BLOCK]
            text = np.stack([_formatted(column) for column in block.T], axis=1)
            fh.write((template * len(block)) % tuple(text.ravel().tolist()))


def _formatted(column: np.ndarray) -> np.ndarray:
    """'%.17g' of each value of ``column``, one conversion per bit pattern."""
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()],
                    dtype=object)
    return text[inverse]


def _finish(output_path, header: list[str], table, failures: list,
            check: tuple[float | None, list], observable: str,
            params: SystemParams, points: SystemParams,
            cfg: HilbertConfig | None, inputs: dict, t0: float) -> RunManifest:
    """Write the CSV and its manifest; ``check`` is (delta, notes).

    The run is converged when ``delta`` is below ``CONVERGENCE_BOUND``.
    ``points`` (arrays for a grid) are checked for the weak-drive flag, and
    ``inputs``, the run's parsed inputs, are hashed.
    """
    delta, notes = check
    if np.any(points.weak_drive_warning):
        notes = notes + ["weak-drive flag: E > 0.1 gamma, the excitation "
                         "hierarchy may not hold"]
    out = Path(output_path)
    _write_csv(out, header, table)
    manifest = RunManifest(
        config_hash=config_hash(inputs),
        tool_version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
        duration_s=time.monotonic() - t0,
        truncation_convergence_delta=delta,
        converged=delta is not None and delta < CONVERGENCE_BOUND,
        observable=observable,
        params_rad_per_s=asdict(params),
        params_reduced=params_reduced_dict(params),
        cfg={} if cfg is None else asdict(cfg),
        failures=failures,
        rows=len(table),
        notes=notes,
    )
    manifest.write(manifest_path_for(out))
    return manifest


def manifest_path_for(csv_path) -> Path:
    return Path(str(csv_path) + ".manifest.json")


def run_sweep(spec: SweepSpec) -> RunManifest:
    """Execute a sweep: evaluate the grid, write CSV and manifest."""
    t0 = time.monotonic()
    values, grid, failures = _grid_results(spec)
    coords = np.meshgrid(*values, indexing="ij")
    header = ["axis1_value", "axis2_value"][:len(values)] + ["observable_value"]
    table = np.column_stack([c.ravel() for c in coords] + [grid.ravel()])
    check = _probe(spec.observable, spec.cfg, values, grid,
                   lambda point_coords: _at(spec, point_coords))
    return _finish(spec.output_path, header, table, failures, check,
                   spec.observable, spec.base, _at(spec, coords)[0], spec.cfg,
                   asdict(spec), t0)


def run_optimal(params: SystemParams, directions: list[str],
                output_path) -> RunManifest:
    """Root-search per drive direction; CSV of the located optimal pairs.

    Directions are keys of ``DIRECTION_SIGN`` ('cw' runs at +|delta_F|, 'ccw'
    at -|delta_F|), at least one and each at most once.  The search box is
    the fixed one of ``find_optimal_pairs``, hashed with the inputs.  A
    direction with no root in the box emits one warning row of NaNs rather
    than failing.
    """
    _check_output(output_path)
    t0 = time.monotonic()
    named = {d for d in directions if isinstance(d, str)} & DIRECTION_SIGN.keys()
    if not named or len(named) < len(directions):
        raise ConfigError(
            f"directions must be one or more distinct cw or ccw, got {directions}")
    rows, failures = [], []
    for direction in directions:
        shift = DIRECTION_SIGN[direction] * abs(params.delta_F)
        point = params.replace(delta_F=shift)
        pairs = find_optimal_pairs(point)
        if not pairs:
            rows.append((shift / params.gamma, float("nan"), float("nan"),
                         float("nan")))
            failures.append({"direction": direction,
                             "error": "no optimal pair in search box"})
            continue
        for pair in pairs:
            rows.append((shift / params.gamma, pair.delta_opt / params.omega_b,
                         pair.lambda_opt / params.omega_b, pair.residual))
    check = (0.0, ["pair search is analytic: truncation-free, delta is 0"])
    inputs = {"params": asdict(params), "directions": directions,
              "delta_range": _DELTA_RANGE, "lambda_range": _LAMBDA_RANGE,
              "output_path": str(output_path)}
    return _finish(output_path, ["delta_F_over_gamma", "delta_opt_over_omega_b",
                                 "lambda_opt_over_omega_b", "residual"],
                   rows, failures, check, "optimal_pairs", params, params, None,
                   inputs, t0)


def run_g2tau(params: SystemParams, cfg: HilbertConfig, tau_max: float,
              points: int, output_path) -> RunManifest:
    """Linear delay grid from 0 to tau_max; CSV of (tau, g2(tau)).

    A solver error is raised, not recorded: the trace has a single
    parameter point.
    """
    _check_output(output_path)
    if not _number(tau_max, "tau_max") > 0:   # finite, so inf and NaN fail
        raise ConfigError("tau_max must be positive")
    if _integer(points, "points") < 1:
        raise ConfigError("points must be >= 1")
    t0 = time.monotonic()
    taus = _grid(np.linspace, 0.0, tau_max, points)   # one point is tau = 0
    trace = _evaluate("g2_tau", params, taus, cfg)
    inputs = {"params": asdict(params), "cfg": asdict(cfg),
              "tau_max": tau_max, "points": points, "output_path": str(output_path)}
    return _finish(output_path, ["tau", "g2"], np.column_stack([taus, trace]), [],
                   _probe("g2_tau", cfg, [taus], trace,
                          lambda coords: (params, coords[0])),
                   "g2_tau", params, params, cfg, inputs, t0)


OBSERVABLES = ("g2_analytic", "g2_numeric", "mandel_q", "g2_tau")


def _axis_from_dict(raw: dict) -> AxisSpec:
    return AxisSpec(**_parse_object(AxisSpec, raw, {
        "parameter": _string, "min": _number, "max": _number,
        "points": _integer, "scale": _string}, "axis"))


def sweep_spec_from_dict(raw: dict) -> SweepSpec:
    """Parse and validate a sweep spec JSON object; axis2 null is no axis."""
    return SweepSpec(**_parse_object(SweepSpec, raw, {
        "axis1": lambda value, _: _axis_from_dict(value),
        "axis2": lambda value, _: None if value is None else _axis_from_dict(value),
        "observable": _string,
        "base": lambda value, _: params_from_dict(value),
        "cfg": lambda value, _: hilbert_from_dict(value),
        "output_path": _string}, "sweep"))
