"""Reference outputs of the CLI: cut presets, pair search and a delay trace.

``compute(workdir)`` runs, through ``spinpb.cli.main``:

* each of the 15 presets with every axis cut to 41 points (1-D) or 7 points
  (2-D, so 7 x 7), at its own truncation;
* ``fig7b``'s probed cell (delta = -0.64 omega_b, E = 0.2 gamma, the most
  negative Mandel Q of the full preset) at 5x5 and at 6x6, as a 2-point E
  sweep whose probed cell is that one, with the converged flag each gives;
* ``optimal --direction both`` and ``g2tau`` (41 delays to 6 us) at the
  ``fig8a`` base;
* ``layouts``: small grids at a 3x3 truncation that put the tau axis, a
  reduced-unit axis scaled by a swept gamma, and a failing E = 0 line in
  each axis position, plus a log tau axis to 1e31 s that the propagator
  refuses;

and returns the CSV tables with each run's converged flag, convergence
delta and failure records (axis indices, or direction, and error text).
``tests/test_reference.py`` reruns it and compares with the record this
script writes::

    PYTHONPATH=src python tests/reference_record.py

which rewrites ``tests/reference_record.json``.  Regenerate it only when a
change of the numbers is intended, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

from spinpb.cli import main

RECORD = Path(__file__).with_name("reference_record.json")
PRESETS = sorted(r.name[:-5] for r in resources.files("spinpb.presets").iterdir()
                 if r.name.endswith(".json"))


def _preset(name: str) -> dict:
    return json.loads(resources.files("spinpb.presets")
                      .joinpath(f"{name}.json").read_text())


def _run(out: Path, argv: list[str]) -> dict:
    """Run one command that writes ``out``; its table, probe and failures."""
    if main(argv) != 0:
        raise RuntimeError(f"{out.name}: command failed")
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    failures = [{key: value for key, value in record.items()
                 if key.endswith("_index") or key in ("direction", "error")}
                for record in manifest["failures"]]
    return {"table": table.tolist(), "converged": manifest["converged"],
            "delta": manifest["truncation_convergence_delta"],
            "failures": failures}


def _sweep(workdir: Path, name: str, spec: dict) -> dict:
    out = workdir / f"{name}.csv"
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(dict(spec, output_path=str(out))))
    return _run(out, ["sweep", "--spec", str(path)])


def _axis(parameter: str, low: float, high: float, points: int = 3,
          scale: str = "linear") -> dict:
    return {"parameter": parameter, "min": low, "max": high, "points": points,
            "scale": scale}


def _layouts() -> dict:
    """Small sweeps at 3x3, each with its axes in one order.

    Without a pair source (Lambda = 0), E = 0 leaves no photons, so every
    cell on the E = 0 line fails.
    """
    base = _preset("fig8a")["base"]
    vacuum = dict(base, Lambda_over_omega_b=0.0)
    tau = _axis("tau", 0.0, 1e-6)
    drive = _axis("E_over_gamma", 0.0, 0.01)
    signed = _axis("E_over_gamma", -0.01, 0.01)   # E = 0 in the middle
    detuning = _axis("delta_over_omega_b", -0.8, 0.8)
    gamma = base["gamma"]
    return {
        "g2_tau_tau_first": ("g2_tau", vacuum, tau, drive),
        "g2_tau_tau_second": ("g2_tau", base,
                              _axis("delta_over_omega_b", -0.7, -0.66), tau),
        "mandel_q_gamma_first": ("mandel_q", base,
                                 _axis("gamma", 0.5 * gamma, 2.0 * gamma),
                                 _axis("delta_over_gamma", 0.5, 2.0)),
        "g2_analytic_e_first": ("g2_analytic", vacuum, signed, detuning),
        "g2_analytic_e_second": ("g2_analytic", vacuum, detuning, signed),
        "mandel_q_e_row": ("mandel_q", vacuum, signed, detuning),
        "g2_tau_log_tau": ("g2_tau", base,
                           _axis("tau", 1e-45, 1e31, 5, "log"), None),
    }


def compute(workdir: Path) -> dict:
    record: dict = {"presets": {}, "fig7b_probe": {}, "layouts": {}}
    for name in PRESETS:
        spec = _preset(name)
        cut = 41 if spec.get("axis2") is None else 7
        for key in ("axis1", "axis2"):
            if spec.get(key) is not None:
                spec[key] = dict(spec[key], points=cut)
        record["presets"][name] = _sweep(workdir, name, spec)
    fig7b = _preset("fig7b")
    e_axis = dict(fig7b["axis2"], points=2)   # E = 0.001 and 0.2 gamma
    for n in (5, 6):
        spec = dict(fig7b, axis1=e_axis, axis2=None,
                    base=dict(fig7b["base"], delta_over_omega_b=-0.64),
                    cfg={"n_magnon": n, "n_photon": n})
        record["fig7b_probe"][f"{n}x{n}"] = _sweep(workdir, f"fig7b_{n}x{n}", spec)
    for name, (observable, base, axis1, axis2) in _layouts().items():
        record["layouts"][name] = _sweep(workdir, name, {
            "axis1": axis1, "axis2": axis2, "observable": observable,
            "base": base, "cfg": {"n_magnon": 3, "n_photon": 3}})
    base = workdir / "base.json"
    base.write_text(json.dumps(_preset("fig8a")["base"]))
    for name, options in (("optimal", ["--direction", "both"]),
                          ("g2tau", ["--tau-max", "6e-6", "--points", "41"])):
        out = workdir / f"{name}.csv"
        record[name] = _run(out, [name, "--config", str(base), *options,
                                  "--output", str(out)])
    return record


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        result = compute(Path(tmp))
    text = json.dumps(result, indent=1)
    # one line per table row
    text = re.sub(r"\[\s+([^][]*?)\s+\]", lambda m: f"[{' '.join(m[1].split())}]", text)
    RECORD.write_text(text + "\n")
    print(f"wrote {RECORD}", file=sys.stderr)
