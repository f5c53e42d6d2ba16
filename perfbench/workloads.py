"""Seeded inputs for the four benchmark workloads.

Every workload is a fixed list of ``spinpb`` CLI invocations whose spec and
parameter files are generated from the seed.  The seed changes parameter
values, windows and assignments, never the amount of work: point counts,
truncations, delay grids and the mix of dissipators are the same for every
seed, so run-to-run differences in wall time measure the program and the
machine, not the draw.

Workloads and the layer each one loads:

* ``lindblad-scan``: four 5x5 detuning sweeps, one per fig2 panel; many small
  Liouvillian builds and LU solves.
* ``lindblad-large``: one 7x7 detuning sweep of a few points; few large
  builds and solves plus the 8x8 convergence probe.
* ``pair-search``: ``optimal --direction both`` on a seeded parameter set and
  one ``g2_analytic`` 2-D map of comparable wall time; the amplitude solver
  only.
* ``g2tau``: two tau-axis sweeps and two ``g2tau`` commands at the four
  published optimal pairs; RK45 delay propagation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

PANELS = ("fig2a", "fig2b", "fig2c", "fig2d")
# published interference-optimal detuning (delta / omega_b) of each panel;
# the preset files carry the matching Lambda and Sagnac sign
PAIR_DELTA = {"fig2a": -0.684495, "fig2b": 0.654639,
              "fig2c": 0.679535, "fig2d": -0.659796}

SCAN_POINTS = 12          # per sweep, four sweeps per pass
SCAN_WIDTH = 0.4          # detuning window, omega_b units
M_TH_VALUES = (1e-8, 1e-7)            # fig3a family
GAMMA_P_VALUES = (0.01, 0.1)          # fig6a family, units of gamma
LARGE_POINTS = 2
LARGE_TRUNCATION = 7
# |delta| / omega_b below which the 7x7 truncation itself has not converged;
# large-truncation points are drawn outside it so each one has an oracle
UNCONVERGED_WINDOW = 0.15
PAIR_SETS = 1
MAP_POINTS = (201, 101)
TAU_MAX = 1.5e-6          # seconds
TAU_POINTS = 41
SMALL_TRUNCATION = 5

WORKLOADS = ("lindblad-scan", "lindblad-large", "pair-search", "g2tau")


@dataclass
class Invocation:
    """One CLI call, the CSV it writes and what the checks need to know."""

    argv: list[str]
    csv: Path
    expected_rows: int
    kind: str                     # scan | large | optimal | map | tau
    inputs: dict                  # spec or flat parameters as written
    truncation: int | None = None
    oracle_rows: list[int] = field(default_factory=list)


@dataclass
class WorkloadInputs:
    name: str
    seed: int
    invocations: list[Invocation]
    setup_spec: Path              # spec parsed by the set-up measurement

    def summary(self) -> list[dict]:
        return [{"command": inv.argv[0], "kind": inv.kind,
                 "rows": inv.expected_rows, "truncation": inv.truncation}
                for inv in self.invocations]


def _preset(root: Path, panel: str) -> dict:
    raw = json.loads((root / "src" / "spinpb" / "presets" / f"{panel}.json")
                     .read_text(encoding="utf-8"))
    return raw["base"]


def _write(path: Path, obj: dict) -> Path:
    path.write_text(json.dumps(obj, indent=1), encoding="utf-8")
    return path


def _sweep(work: Path, tag: str, spec: dict, kind: str, rows: int,
           truncation: int | None, oracle_rows=()) -> Invocation:
    csv = work / f"{tag}.csv"
    spec = dict(spec, output_path=str(csv))
    path = _write(work / f"{tag}.spec.json", spec)
    return Invocation(["sweep", "--spec", str(path)], csv, rows, kind, spec,
                      truncation, list(oracle_rows))


def _axis(parameter: str, lo: float, hi: float, points: int) -> dict:
    return {"parameter": parameter, "min": lo, "max": hi, "points": points,
            "scale": "linear"}


def _cfg(n: int) -> dict:
    return {"n_magnon": n, "n_photon": n}


def _lindblad_scan(root, rng, work):
    extras = [{}, {"m_th": rng.choice(M_TH_VALUES)},
              {"gamma_p_over_gamma": rng.choice(GAMMA_P_VALUES)},
              {"m_th": rng.choice(M_TH_VALUES),
               "gamma_p_over_gamma": rng.choice(GAMMA_P_VALUES)}]
    rng.shuffle(extras)
    invocations = []
    for panel, extra in zip(PANELS, extras):
        lo = rng.uniform(-1.0, 1.0 - SCAN_WIDTH)
        spec = {"axis1": _axis("delta_over_omega_b", lo, lo + SCAN_WIDTH,
                               SCAN_POINTS),
                "observable": rng.choice(("g2_numeric", "mandel_q")),
                "base": {**_preset(root, panel), **extra},
                "cfg": _cfg(SMALL_TRUNCATION)}
        oracle_rows = [rng.randrange(SCAN_POINTS)]
        invocations.append(_sweep(work, f"scan-{panel}", spec, "scan",
                                  SCAN_POINTS, SMALL_TRUNCATION, oracle_rows))
    return invocations


def _lindblad_large(root, rng, work):
    panel = rng.choice(PANELS)
    lo, hi = sorted(rng.choice((-1.0, 1.0)) * rng.uniform(UNCONVERGED_WINDOW, 1.0)
                    for _ in range(LARGE_POINTS))
    spec = {"axis1": _axis("delta_over_omega_b", lo, hi, LARGE_POINTS),
            "observable": rng.choice(("g2_numeric", "mandel_q")),
            "base": _preset(root, panel),
            "cfg": _cfg(LARGE_TRUNCATION)}
    return [_sweep(work, f"large-{panel}", spec, "large", LARGE_POINTS,
                   LARGE_TRUNCATION)]


def _pair_search(root, rng, work):
    invocations = []
    for k in range(PAIR_SETS):
        base = {key: value for key, value in _preset(root, "fig2a").items()
                if key not in ("Lambda_over_omega_b", "delta_F_over_gamma")}
        base["K_over_gamma"] = rng.uniform(0.09, 0.11)
        base["delta_F_over_gamma"] = rng.uniform(0.45, 0.55)
        config = _write(work / f"pairs-{k}.json", base)
        csv = work / f"pairs-{k}.csv"
        # two roots per drive direction near the fig2 working point
        invocations.append(Invocation(
            ["optimal", "--config", str(config), "--direction", "both",
             "--output", str(csv)], csv, 4, "optimal", base))
    panel = rng.choice(PANELS)
    base = _preset(root, panel)
    centre = PAIR_DELTA[panel] + rng.uniform(-0.02, 0.02)
    lam = base["Lambda_over_omega_b"]
    spec = {"axis1": _axis("delta_over_omega_b", centre - 0.05, centre + 0.05,
                           MAP_POINTS[0]),
            "axis2": _axis("Lambda_over_omega_b", lam * rng.uniform(0.8, 0.9),
                           lam * rng.uniform(1.1, 1.2), MAP_POINTS[1]),
            "observable": "g2_analytic",
            "base": base}
    rows = MAP_POINTS[0] * MAP_POINTS[1]
    invocations.append(_sweep(work, f"map-{panel}", spec, "map", rows, None,
                              sorted(rng.sample(range(rows), 64))))
    return invocations


def _g2tau(root, rng, work):
    panels = list(PANELS)
    rng.shuffle(panels)
    invocations = []
    for k, panel in enumerate(panels):
        point = dict(_preset(root, panel),
                     delta_over_omega_b=PAIR_DELTA[panel])
        if k < 2:
            spec = {"axis1": _axis("tau", 0.0, TAU_MAX, TAU_POINTS),
                    "observable": "g2_tau", "base": point,
                    "cfg": _cfg(SMALL_TRUNCATION)}
            invocations.append(_sweep(work, f"tau-sweep-{panel}", spec, "tau",
                                      TAU_POINTS, SMALL_TRUNCATION))
        else:
            config = _write(work / f"tau-{panel}.json", point)
            csv = work / f"tau-{panel}.csv"
            invocations.append(Invocation(
                ["g2tau", "--config", str(config), "--tau-max", repr(TAU_MAX),
                 "--points", str(TAU_POINTS), "--output", str(csv)],
                csv, TAU_POINTS, "tau", point, SMALL_TRUNCATION))
    return invocations


_BUILDERS = {"lindblad-scan": _lindblad_scan, "lindblad-large": _lindblad_large,
             "pair-search": _pair_search, "g2tau": _g2tau}


def build(name: str, seed: int, root: Path, work: Path) -> WorkloadInputs:
    """Write the workload's spec and parameter files under ``work``."""
    rng = random.Random(f"{name}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    invocations = _BUILDERS[name](root, rng, work)
    setup_spec = next(Path(inv.argv[2]) for inv in invocations
                      if inv.argv[0] == "sweep")
    return WorkloadInputs(name, seed, invocations, setup_spec)
