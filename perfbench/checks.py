"""Correctness oracles for the CSVs one benchmark pass writes.

A row of output fails when it is NaN, when the run's manifest records a
failure for it, when it misses its oracle, or when a repeated pass with the
same inputs writes different bytes for it.  Tolerances are the program's own
truncation-convergence bound, ``spinpb.sweep.CONVERGENCE_BOUND`` (1e-4
relative):

* ``scan``: sampled rows against the steady state taken as the SVD null
  vector of the same Liouvillian, which must pass ``DensityMatrix.validate``.
* ``large``: rows with ``|delta| >= 0.15 omega_b`` against the same point at
  5x5; inside that window the truncation itself has not converged.
* ``optimal``: two roots per drive direction, and ``|c02|`` recomputed through
  ``steady_amplitudes`` at every root is below the bound times ``|c02|`` of the
  drive pathway alone (Lambda = 0) at the same detuning.
* ``map``: sampled ``g2_analytic`` rows against the two-excitation hierarchy
  projected out of ``build_hamiltonian(hermitian=False)``.
* ``tau``: every delay against ``scipy.linalg.expm`` of the same generator.

The ``tau`` comparison is measured and reported, not counted as a failed
output (see ``REPORTED_ONLY``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from spinpb.analytic import steady_amplitudes
from spinpb.config import params_from_dict
from spinpb.errors import SolverError
from spinpb.lindblad import DensityMatrix, build_liouvillian, steady_state
from spinpb.model import build_hamiltonian
from spinpb.operators import HilbertConfig, annihilation
from spinpb.sweep import CONVERGENCE_BOUND, manifest_path_for
from workloads import UNCONVERGED_WINDOW

TOLERANCE = CONVERGENCE_BOUND
SMALL = HilbertConfig(5, 5)
# Oracle kinds whose misses are reported with every run but do not fail it.
# g2(tau) from the program's RK45 propagation misses expm by up to 2.3e-3 at
# delays below about 0.8 us, because the integrator's absolute tolerance is not
# scaled to the conditional state a rho a+; an independent DOP853 integration
# at rtol 1e-13 agrees with expm to 1e-11.  The comparison keeps the 1e-4
# bound, and its misses and worst error are printed by every run, so a fix of
# the propagation shows as a drop to zero.
REPORTED_ONLY = frozenset({"tau"})


@dataclass
class CheckResult:
    """Per-kind tally of outputs checked and outputs failed."""

    attempted: int = 0
    failed: int = 0
    oracle_checked: int = 0
    oracle_missed: int = 0
    max_rel_err: float = 0.0
    reported_missed: int = 0      # oracle misses of a REPORTED_ONLY kind
    notes: list = field(default_factory=list)
    failed_rows: set = field(default_factory=set)   # of one invocation
    missed_rows: set = field(default_factory=set)   # of one invocation

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.oracle_checked += other.oracle_checked
        self.oracle_missed += other.oracle_missed
        self.reported_missed += other.reported_missed
        self.max_rel_err = max(self.max_rel_err, other.max_rel_err)
        self.notes.extend(other.notes)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "oracle_checked": self.oracle_checked,
                "oracle_missed": self.oracle_missed,
                "reported_missed": self.reported_missed,
                "max_rel_err": self.max_rel_err, "notes": self.notes}


def _photon_moments(rho: np.ndarray, n_magnon: int, n_photon: int):
    """<a+a> and <a+a+aa> from operators built here, not by the program."""
    a = np.kron(np.eye(n_magnon), annihilation(n_photon))
    n_op = a.conj().T @ a
    nn_op = a.conj().T @ n_op @ a
    return (float(np.real(np.trace(n_op @ rho))),
            float(np.real(np.trace(nn_op @ rho))))


def _observable_error(observable: str, value: float, n: float, nn: float) -> float:
    """Relative error of a g2 or Mandel Q value against exact moments.

    g2 is compared relatively.  Q = n (g2 - 1) can cross zero, so its error
    is taken relative to n (g2 + 1), the size a 1e-4 relative error in n and
    <a+a+aa> propagates to.
    """
    g2 = nn / n**2
    if observable == "g2_numeric":
        return abs(value - g2) / abs(g2)
    return abs(value - (nn - n**2) / n) / (n * (g2 + 1.0))


def _null_vector_state(params, cfg: HilbertConfig) -> np.ndarray:
    matrix = build_liouvillian(params, cfg).matrix
    _, _, vh = np.linalg.svd(matrix)
    rho = vh[-1].conj().reshape((cfg.dim, cfg.dim), order="F")
    rho = rho / np.trace(rho)
    rho = 0.5 * (rho + rho.conj().T)
    DensityMatrix(rho).validate()
    return rho


def _point(spec: dict, *axis_values: float):
    """SystemParams of one grid point, reduced-unit axes applied to base."""
    raw = dict(spec["base"])
    axes = [spec["axis1"]] + ([spec["axis2"]] if spec.get("axis2") else [])
    for axis, value in zip(axes, axis_values):
        name = axis["parameter"]
        plain = name.split("_over_")[0]
        for key in [k for k in raw if k == plain or k.startswith(plain + "_over_")]:
            del raw[key]
        raw[name] = value
    return params_from_dict(raw)


def _check_scan(inv, rows, result: CheckResult) -> set[int]:
    spec = inv.inputs
    cfg = HilbertConfig(**spec["cfg"])
    missed = set()
    for index in inv.oracle_rows:
        delta, value = rows[index]
        try:
            rho = _null_vector_state(_point(spec, delta), cfg)
        except (SolverError, np.linalg.LinAlgError) as exc:
            result.notes.append(f"{inv.csv.name} row {index}: {exc}")
            missed.add(index)
            continue
        err = _observable_error(spec["observable"], value,
                                *_photon_moments(rho, cfg.n_magnon, cfg.n_photon))
        result.max_rel_err = max(result.max_rel_err, err)
        if not err <= TOLERANCE:
            missed.add(index)
    result.oracle_checked += len(inv.oracle_rows)
    return missed


def _check_large(inv, rows, result: CheckResult) -> set[int]:
    spec = inv.inputs
    missed = set()
    for index, (delta, value) in enumerate(rows):
        if abs(delta) < UNCONVERGED_WINDOW:
            continue
        rho = steady_state(build_liouvillian(_point(spec, delta), SMALL)).data
        err = _observable_error(spec["observable"], value,
                                *_photon_moments(rho, SMALL.n_magnon,
                                                 SMALL.n_photon))
        result.oracle_checked += 1
        result.max_rel_err = max(result.max_rel_err, err)
        if not err <= TOLERANCE:
            missed.add(index)
    return missed


def _check_optimal(inv, rows, result: CheckResult) -> set[int]:
    params = params_from_dict(inv.inputs)
    missed = set()
    per_direction: dict[float, int] = {}
    for index, (shift, delta, lam, _residual) in enumerate(rows):
        per_direction[shift] = per_direction.get(shift, 0) + 1
        if math.isnan(delta):
            continue
        point = params.replace(delta_F=shift * params.gamma,
                               delta=delta * params.omega_b)
        c02 = abs(steady_amplitudes(point.replace(Lambda=lam * params.omega_b)).c02)
        scale = abs(steady_amplitudes(point.replace(Lambda=0.0)).c02)
        err = c02 / scale
        result.oracle_checked += 1
        result.max_rel_err = max(result.max_rel_err, err)
        if not err <= TOLERANCE:
            missed.add(index)
    counts = sorted(per_direction.values())
    if counts != [2, 2]:
        result.notes.append(f"{inv.csv.name}: roots per direction {counts}")
        missed.update(range(len(rows)))
    return missed


def _hierarchy_g2(params) -> float:
    """g2(0) from the m + n <= 2 blocks of the non-Hermitian Hamiltonian."""
    cfg = HilbertConfig(3, 3)
    H = build_hamiltonian(params, cfg, hermitian=False)
    one = [cfg.basis_index(1, 0), cfg.basis_index(0, 1)]
    two = [cfg.basis_index(1, 1), cfg.basis_index(0, 2), cfg.basis_index(2, 0)]
    c1 = np.linalg.solve(H[np.ix_(one, one)], -H[one, 0])
    c2 = np.linalg.solve(H[np.ix_(two, two)], -H[two, 0] - H[np.ix_(two, one)] @ c1)
    return 2.0 * abs(c2[1]) ** 2 / abs(c1[1]) ** 4


def _check_map(inv, rows, result: CheckResult) -> set[int]:
    missed = set()
    for index in inv.oracle_rows:
        delta, lam, value = rows[index]
        exact = _hierarchy_g2(_point(inv.inputs, delta, lam))
        err = abs(value - exact) / abs(exact)
        result.max_rel_err = max(result.max_rel_err, err)
        if not err <= TOLERANCE:
            missed.add(index)
    result.oracle_checked += len(inv.oracle_rows)
    return missed


def _check_tau(inv, rows, result: CheckResult) -> set[int]:
    raw = inv.inputs
    params = params_from_dict(raw["base"] if "axis1" in raw else raw)
    liouvillian = build_liouvillian(params, SMALL)
    rho = steady_state(liouvillian).data
    n, _ = _photon_moments(rho, SMALL.n_magnon, SMALL.n_photon)
    a = np.kron(np.eye(SMALL.n_magnon), annihilation(SMALL.n_photon))
    n_op = a.conj().T @ a
    taus = np.array([r[0] for r in rows])
    step = expm(liouvillian.matrix * (taus[1] - taus[0]))
    vec = (a @ rho @ a.conj().T).reshape(-1, order="F")
    if taus[0] > 0:
        vec = expm(liouvillian.matrix * taus[0]) @ vec
    missed = set()
    for index, (tau, value) in enumerate(rows):
        if index:
            vec = step @ vec
        sigma = vec.reshape((SMALL.dim, SMALL.dim), order="F")
        exact = float(np.real(np.trace(n_op @ sigma))) / n**2
        err = abs(value - exact) / abs(exact)
        result.max_rel_err = max(result.max_rel_err, err)
        if not err <= TOLERANCE:
            missed.add(index)
    result.oracle_checked += len(rows)
    return missed


_ORACLES = {"scan": _check_scan, "large": _check_large,
            "optimal": _check_optimal, "map": _check_map, "tau": _check_tau}


def parse_csv(data: bytes | None) -> list[tuple[float, ...]] | None:
    if data is None:
        return None
    lines = data.decode("utf-8").splitlines()[1:]
    return [tuple(float(v) for v in line.split(",")) for line in lines]


def check_invocation(inv, exit_code, reference: bytes | None,
                     reruns: list[bytes | None]) -> CheckResult:
    """Check one invocation's reference CSV and its byte-identical reruns."""
    result = CheckResult(attempted=inv.expected_rows)
    rows = parse_csv(reference) if exit_code == 0 else None
    if rows is None:
        result.failed = inv.expected_rows
        result.notes.append(f"{inv.csv.name}: exit code {exit_code}, no CSV")
        return result
    bad = {i for i, row in enumerate(rows) if any(math.isnan(v) for v in row)}
    if len(rows) > inv.expected_rows:
        result.attempted = len(rows)
    missing = max(0, inv.expected_rows - len(rows))
    if bad:
        missed = set()
        result.notes.append(f"{inv.csv.name}: {len(bad)} NaN rows")
    else:
        try:
            missed = _ORACLES[inv.kind](inv, rows, result)
        except (SolverError, np.linalg.LinAlgError, ValueError) as exc:
            result.notes.append(f"{inv.csv.name}: oracle raised {exc!r}")
            missed = set(range(len(rows)))
            bad |= missed         # unchecked outputs fail, whatever the kind
    result.oracle_missed += len(missed)
    result.missed_rows = missed
    if inv.kind not in REPORTED_ONLY:
        bad |= missed

    manifest = json.loads(manifest_path_for(inv.csv).read_text(encoding="utf-8"))
    unmatched = max(0, len(manifest["failures"]) - len(bad))

    ref_lines = reference.splitlines()
    for rerun in reruns:
        lines = rerun.splitlines() if rerun is not None else []
        if len(lines) != len(ref_lines):
            bad |= set(range(len(rows)))
            result.notes.append(f"{inv.csv.name}: rerun wrote {len(lines)} lines")
            continue
        bad |= {i - 1 for i, (x, y) in enumerate(zip(ref_lines, lines))
                if x != y and i > 0}
    result.failed_rows = bad
    result.failed = len(bad) + missing + unmatched
    result.reported_missed = len(missed - bad)
    return result
