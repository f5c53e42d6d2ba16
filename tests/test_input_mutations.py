"""Every single mutation of a valid JSON input is rejected or runs cleanly.

Each mutation changes one thing in a valid sweep spec or flat parameter
object, at any depth: it drops one key, adds an unknown key, or replaces one
value (or a whole object) with a value of each JSON type.  ``validate`` must
exit 0 or 2 and never raise; a mutant it accepts must then run its 2-point
``g2_analytic`` sweep with exit 0: ``sweep`` rejects no input that
``validate`` accepts.  Its manifest holds exactly one failure record per NaN
row of its CSV: a numerical failure, overflow included, is recorded, never a
bare NaN and never a crash.
"""

import json
from pathlib import Path

import pytest

from spinpb.cli import main
from spinpb.sweep import manifest_path_for
from conftest import GAMMA, J, OMEGA_B

# 1e80 is finite and passes validation, but as E/gamma its |c01|^4 overflows;
# numpy refuses a grid of 10**30 points, and no file name holds a NUL
REPLACEMENTS = (None, True, 1, 1.5, 1e80, 10**30, "x", "x\u0000", [], {})

BASE = {
    "gamma": GAMMA,
    "omega_b": OMEGA_B,
    "J": J,
    "K_over_gamma": 0.1,
    "E_over_gamma": 0.005,
    "delta_F_over_gamma": 0.5,
    "Lambda_over_omega_b": 2.46157e-6,
    "beta": 0.0,
    "m_th": 0.0,
}

SPEC = {
    "comment": "2x2 analytic map",
    "axis1": {"parameter": "delta_over_omega_b", "min": -0.8, "max": 0.8,
              "points": 2, "scale": "linear"},
    "axis2": {"parameter": "E_over_gamma", "min": 0.001, "max": 0.005,
              "points": 2, "scale": "log"},
    "observable": "g2_analytic",
    "base": BASE,
    "cfg": {"n_magnon": 3, "n_photon": 3},
    "output_path": "out.csv",
}


def mutants(obj):
    """(label, mutant) for every single mutation of ``obj`` or a value in it."""
    for value in REPLACEMENTS:
        yield "=" + json.dumps(value), value
    if isinstance(obj, dict):
        yield "+unknown_key", {**obj, "unknown_key": 1}
        for key in obj:
            yield "-" + key, {k: v for k, v in obj.items() if k != key}
            for label, inner in mutants(obj[key]):
                yield "." + key + label, {**obj, key: inner}


def run(argv_head, obj, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    return main([*argv_head, str(path)])


def assert_one_record_per_nan_row(csv_path):
    """The manifest's failures name the NaN rows' axis values, in CSV order."""
    lines = csv_path.read_text().splitlines()[1:]
    nan_rows = [[float(v) for v in line.split(",")[:-1]]
                for line in lines if line.endswith(",nan")]
    failures = json.loads(manifest_path_for(csv_path).read_text())["failures"]
    recorded = [[v for k, v in record.items()
                 if k != "error" and not k.endswith("_index")]
                for record in failures]
    assert recorded == nan_rows


def assert_rejected_or_runs(spec, tmp_path, monkeypatch, validate_argv, obj):
    monkeypatch.chdir(tmp_path)   # relative output paths land in tmp_path
    code = run(validate_argv, obj, tmp_path)
    assert code in (0, 2)
    if code == 0:
        assert run(["sweep", "--spec"], spec, tmp_path) == 0
        assert_one_record_per_nan_row(Path(spec["output_path"]))


SPEC_MUTANTS = list(mutants(SPEC))
BASE_MUTANTS = list(mutants(BASE))


# the 1e80 mutants overflow on purpose
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("spec", [m for _, m in SPEC_MUTANTS],
                         ids=["spec" + label for label, _ in SPEC_MUTANTS])
def test_spec_mutant_is_rejected_or_runs(spec, tmp_path, monkeypatch):
    assert_rejected_or_runs(spec, tmp_path, monkeypatch,
                            ["validate", "--spec"], spec)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("params", [m for _, m in BASE_MUTANTS],
                         ids=["params" + label for label, _ in BASE_MUTANTS])
def test_parameter_mutant_is_rejected_or_runs(params, tmp_path, monkeypatch):
    assert_rejected_or_runs({**SPEC, "base": params}, tmp_path, monkeypatch,
                            ["validate", "--config"], params)


def test_mutants_cover_every_key_at_every_depth():
    labels = {label for label, _ in SPEC_MUTANTS}
    assert {".axis2.scale=[]", ".base.gamma=null", ".cfg.n_photon=1.5",
            ".base+unknown_key", ".cfg-n_magnon", "-axis2", "={}",
            ".axis2.max=1e+80"} <= labels
    assert len(SPEC_MUTANTS) == 323 and len(BASE_MUTANTS) == 110
