"""Command-line interface: subcommands, exit codes, end-to-end runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinpb
from spinpb.cli import main
from conftest import GAMMA, J, OMEGA_B

FLAT_PARAMS = {
    "gamma": GAMMA,
    "omega_b": OMEGA_B,
    "J": J,
    "K_over_gamma": 0.1,
    "E_over_gamma": 0.005,
    "delta_F_over_gamma": 0.5,
    "Lambda_over_omega_b": 2.46157e-6,
    "delta_over_omega_b": -0.684495,
}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def params_file(tmp_path):
    return write_json(tmp_path / "params.json", FLAT_PARAMS)


@pytest.fixture
def sweep_file(tmp_path):
    return write_json(tmp_path / "spec.json", {
        "axis1": {"parameter": "delta_over_omega_b", "min": -0.8, "max": 0.8,
                  "points": 5},
        "observable": "g2_analytic",
        "base": FLAT_PARAMS,
        "output_path": str(tmp_path / "out.csv"),
    })


def loaded_modules(code: str, prefix: str) -> str:
    """Run ``code`` in a fresh interpreter; the loaded modules named prefix*."""
    src = str(Path(spinpb.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code += f"; print([m for m in sys.modules if m.startswith({prefix!r})])"
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_import_loads_no_scipy():
    """Importing the CLI (all that a parse-only command needs) skips scipy."""
    assert loaded_modules("import sys, spinpb.cli", "scipy") == "[]"


def test_lindblad_path_loads_no_optimizer():
    """A steady-state g2 never imports scipy.optimize (~19 MB resident)."""
    code = ("import sys; from spinpb import *; cfg = HilbertConfig(3, 3); "
            "p = SystemParams(gamma=1.0, omega_b=20.0, E=0.05, J=0.5); "
            "g2_zero(steady_state(build_liouvillian(p, cfg)), cfg)")
    assert loaded_modules(code, "scipy.optimize") == "[]"


class TestValidate:
    def test_params_ok(self, params_file):
        assert main(["validate", "--config", params_file]) == 0

    def test_spec_ok(self, sweep_file):
        assert main(["validate", "--spec", sweep_file]) == 0

    def test_unknown_key_is_config_error(self, tmp_path):
        bad = dict(FLAT_PARAMS, lambda_opt=1.0)
        path = write_json(tmp_path / "bad.json", bad)
        assert main(["validate", "--config", path]) == 2

    @pytest.mark.parametrize("content", [
        b"{not json",
        b"\xff",                                 # UnicodeDecodeError
        b"[" * 100_000 + b"]" * 100_000,          # RecursionError
        b'{"gamma": ' + b"1" * 5000 + b"}",       # ValueError: int digit limit
    ], ids=["syntax", "non-utf8", "deep-nesting", "long-integer"])
    def test_invalid_json_is_config_error(self, tmp_path, capsys, content):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        assert main(["validate", "--config", str(path)]) == 2
        assert "config error: config file" in capsys.readouterr().err

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2


class TestSweepCommand:
    def test_end_to_end(self, sweep_file, tmp_path, capsys):
        assert main(["sweep", "--spec", sweep_file]) == 0
        assert (tmp_path / "out.csv").exists()
        assert (tmp_path / "out.csv.manifest.json").exists()
        assert "config hash" in capsys.readouterr().out

    def test_bad_observable(self, tmp_path):
        spec = {
            "axis1": {"parameter": "delta", "min": 0, "max": 1, "points": 2},
            "observable": "g9",
            "base": FLAT_PARAMS,
            "output_path": str(tmp_path / "x.csv"),
        }
        assert main(["sweep", "--spec", write_json(tmp_path / "s.json", spec)]) == 2

    def test_negative_tau_axis_exits_two(self, tmp_path):
        spec = {
            "axis1": {"parameter": "tau", "min": -1e-6, "max": 1e-6,
                      "points": 3},
            "observable": "g2_tau",
            "base": FLAT_PARAMS,
            "output_path": str(tmp_path / "x.csv"),
        }
        assert main(["sweep", "--spec", write_json(tmp_path / "s.json", spec)]) == 2
        assert not (tmp_path / "x.csv").exists()

    def test_two_spellings_of_one_axis_exit_two(self, tmp_path):
        spec = {
            "axis1": {"parameter": "delta", "min": 0, "max": 1, "points": 3},
            "axis2": {"parameter": "delta_over_omega_b", "min": 0, "max": 1,
                      "points": 2},
            "observable": "g2_analytic",
            "base": FLAT_PARAMS,
            "output_path": str(tmp_path / "x.csv"),
        }
        assert main(["sweep", "--spec", write_json(tmp_path / "s.json", spec)]) == 2
        assert not (tmp_path / "x.csv").exists()

    def test_bad_truncation_exits_two(self, tmp_path, capsys):
        spec = {
            "axis1": {"parameter": "delta", "min": 0, "max": 1, "points": 2},
            "observable": "g2_numeric",
            "base": FLAT_PARAMS,
            "cfg": {"n_magnon": 2, "n_photon": 5},
            "output_path": str(tmp_path / "x.csv"),
        }
        path = write_json(tmp_path / "s.json", spec)
        assert main(["validate", "--spec", path]) == 2
        assert main(["sweep", "--spec", path]) == 2
        assert "truncation must keep Fock levels" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("axis2", [{}, False, [], 0, ""])
    def test_empty_axis2_is_not_absent(self, tmp_path, capsys, axis2):
        spec = {
            "axis1": {"parameter": "delta", "min": 0, "max": 1, "points": 2},
            "axis2": axis2,
            "observable": "g2_analytic",
            "base": FLAT_PARAMS,
            "output_path": str(tmp_path / "x.csv"),
        }
        assert main(["sweep", "--spec", write_json(tmp_path / "s.json", spec)]) == 2
        assert not (tmp_path / "x.csv").exists()
        if axis2 == {}:
            assert "axis missing required key 'parameter'" in capsys.readouterr().err

    def test_null_axis2_is_absent(self, tmp_path):
        spec = {
            "axis1": {"parameter": "delta", "min": 0, "max": 1, "points": 2},
            "axis2": None,
            "observable": "g2_analytic",
            "base": FLAT_PARAMS,
            "output_path": str(tmp_path / "x.csv"),
        }
        assert main(["sweep", "--spec", write_json(tmp_path / "s.json", spec)]) == 0
        assert (tmp_path / "x.csv").read_text().startswith(
            "axis1_value,observable_value\n")

    @pytest.mark.parametrize("where, key", [("axis1", "parameter"),
                                            ("axis1", "scale"),
                                            (None, "observable"),
                                            (None, "output_path")])
    @pytest.mark.parametrize("value", [["delta"], 5])
    def test_non_string_exits_two(self, tmp_path, capsys, where, key, value):
        spec = {
            "axis1": {"parameter": "delta", "min": 1, "max": 2, "points": 2,
                      "scale": "log"},
            "observable": "g2_analytic",
            "base": FLAT_PARAMS,
            "output_path": str(tmp_path / "x.csv"),
        }
        (spec[where] if where else spec)[key] = value
        path = write_json(tmp_path / "s.json", spec)
        assert main(["validate", "--spec", path]) == 2
        assert main(["sweep", "--spec", path]) == 2
        assert "must be a string" in capsys.readouterr().err

    def test_missing_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["sweep"])
        assert err.value.code == 2

    @pytest.mark.parametrize("observable, axis1, axis2, message", [
        ("g2_numeric", ("Lambda_over_omega_b", -1e-6, 3e-6), None,
         "Lambda must be non-negative"),
        ("g2_analytic", ("delta_over_omega_b", -0.8, 0.8), ("m_th", -1.0, 1.0),
         "m_th must be non-negative"),
        ("g2_analytic", ("gamma", 0.0, GAMMA), None, "gamma must be positive"),
    ], ids=["Lambda-axis-below-zero", "m_th-axis2-below-zero", "gamma-axis-at-zero"])
    def test_swept_value_out_of_range_exits_two(self, tmp_path, capsys,
                                                 observable, axis1, axis2,
                                                 message):
        def axis(parameter, lo, hi):
            return {"parameter": parameter, "min": lo, "max": hi, "points": 2}
        spec = {
            "axis1": axis(*axis1),
            "axis2": axis(*axis2) if axis2 else None,
            "observable": observable,
            "base": FLAT_PARAMS,
            "cfg": {"n_magnon": 3, "n_photon": 3},
            "output_path": str(tmp_path / "x.csv"),
        }
        path = write_json(tmp_path / "s.json", spec)
        assert main(["validate", "--spec", path]) == 2
        assert main(["sweep", "--spec", path]) == 2
        err = capsys.readouterr().err
        assert err.count(message) == 2
        assert not (tmp_path / "x.csv").exists()

    def test_empty_output_path_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)   # "" names the working directory
        spec = {
            "axis1": {"parameter": "delta", "min": 0, "max": 1, "points": 2},
            "observable": "g2_analytic",
            "base": FLAT_PARAMS,
            "output_path": "",
        }
        path = write_json(tmp_path / "s.json", spec)
        assert main(["validate", "--spec", path]) == 2
        assert main(["sweep", "--spec", path]) == 2
        assert capsys.readouterr().err.count("is a directory") == 2
        assert not list(tmp_path.glob("*.manifest.json"))


class TestOptimalCommand:
    def test_single_direction(self, params_file, tmp_path):
        out = tmp_path / "opt.csv"
        code = main(["optimal", "--config", params_file,
                     "--direction", "cw", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("delta_F_over_gamma")
        assert len(lines) == 3   # two CW pairs

    def test_nonzero_squeezing_phase(self, tmp_path):
        config = write_json(tmp_path / "beta.json", dict(FLAT_PARAMS, beta=1.0))
        out = tmp_path / "opt.csv"
        assert main(["optimal", "--config", config, "--direction", "cw",
                     "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize("direction", ["sideways", "cw,cw", ",", "cw,ccw"])
    def test_bad_direction(self, params_file, tmp_path, direction):
        """Only cw, ccw and both name directions; the rest exit before a search."""
        out = tmp_path / "x.csv"
        assert main(["optimal", "--config", params_file,
                     "--direction", direction, "--output", str(out)]) == 2
        assert not out.exists()

    def test_directory_output_exits_two(self, params_file, tmp_path, capsys):
        assert main(["optimal", "--config", params_file,
                     "--output", str(tmp_path)]) == 2
        assert "is a directory" in capsys.readouterr().err

    def test_unwritable_manifest_exits_one(self, params_file, tmp_path, capsys):
        # the CSV is written, then the manifest path is a directory
        out = tmp_path / "opt.csv"
        (tmp_path / "opt.csv.manifest.json").mkdir()
        assert main(["optimal", "--config", params_file, "--direction", "cw",
                     "--output", str(out)]) == 1
        assert "I/O error: [Errno 21] Is a directory" in capsys.readouterr().err


class TestG2TauCommand:
    def test_small_trace(self, params_file, tmp_path):
        out = tmp_path / "tau.csv"
        code = main(["g2tau", "--config", params_file, "--tau-max", "1e-6",
                     "--points", "3", "--output", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 4

    def test_vacuum_is_solver_error(self, tmp_path):
        dead = write_json(tmp_path / "dead.json",
                          {"gamma": 1.0, "omega_b": 20.0})
        assert main(["g2tau", "--config", dead, "--tau-max", "1.0",
                     "--points", "2", "--output", str(tmp_path / "x.csv")]) == 3

    def test_directory_output_exits_two(self, params_file, tmp_path, capsys):
        assert main(["g2tau", "--config", params_file, "--tau-max", "1e-6",
                     "--points", "3", "--output", str(tmp_path)]) == 2
        assert "is a directory" in capsys.readouterr().err

    def test_oversized_grid_exits_two(self, params_file, tmp_path, capsys):
        """A delay grid numpy refuses to allocate is a config error."""
        out = tmp_path / "x.csv"
        assert main(["g2tau", "--config", params_file, "--tau-max", "1e-6",
                     "--points", str(10**23), "--output", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "sweep", "optimal", "g2tau"])
def test_output_under_regular_file_exits_two(tmp_path, params_file, capsys,
                                             command):
    """A destination whose parent is a file is refused before any work."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = str(blocker / "out.csv")
    spec = write_json(tmp_path / "spec.json", {
        "axis1": {"parameter": "delta_over_omega_b", "min": -0.8, "max": 0.8,
                  "points": 2},
        "observable": "g2_analytic", "base": FLAT_PARAMS, "output_path": out})
    argv = {
        "validate": ["validate", "--spec", spec],
        "sweep": ["sweep", "--spec", spec],
        "optimal": ["optimal", "--config", params_file, "--output", out],
        "g2tau": ["g2tau", "--config", params_file, "--tau-max", "1e-6",
                  "--points", "3", "--output", out],
    }[command]
    assert main(argv) == 2
    assert "which is not a directory" in capsys.readouterr().err
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command", ["sweep", "optimal", "g2tau"])
def test_strong_drive_noted_in_manifest(tmp_path, command):
    strong = dict(FLAT_PARAMS, E_over_gamma=0.2)
    config = write_json(tmp_path / "strong.json", strong)
    out = tmp_path / "out.csv"
    argv = {
        "sweep": ["sweep", "--spec", write_json(tmp_path / "spec.json", {
            "axis1": {"parameter": "delta_over_omega_b", "min": -0.8,
                      "max": 0.8, "points": 2},
            "observable": "g2_analytic", "base": strong,
            "output_path": str(out)})],
        "optimal": ["optimal", "--config", config, "--direction", "cw",
                    "--output", str(out)],
        "g2tau": ["g2tau", "--config", config, "--tau-max", "1e-6",
                  "--points", "1", "--output", str(out)],
    }[command]
    assert main(argv) == 0
    notes = json.loads((tmp_path / "out.csv.manifest.json").read_text())["notes"]
    assert any(note.startswith("weak-drive flag") for note in notes)


@pytest.mark.parametrize("case", ["params-nan-infinity", "axis-min-nan",
                                  "axis-min-text", "axis-min-numeric-string",
                                  "tau-max-nan"])
def test_non_finite_or_non_numeric_input_exits_two(tmp_path, case):
    out = tmp_path / "out.csv"
    axis_min = {"axis-min-nan": float("nan"), "axis-min-text": "abc",
                "axis-min-numeric-string": "0.5"}.get(case)
    if case == "params-nan-infinity":
        config = {"gamma": float("nan"), "omega_b": OMEGA_B, "delta": float("inf")}
        argv = ["validate", "--config", write_json(tmp_path / "p.json", config)]
    elif case == "tau-max-nan":
        argv = ["g2tau", "--config", write_json(tmp_path / "p.json", FLAT_PARAMS),
                "--tau-max", "nan", "--points", "2", "--output", str(out)]
    else:
        spec = {"axis1": {"parameter": "delta_over_omega_b", "min": axis_min,
                          "max": 0.8, "points": 3},
                "observable": "g2_analytic", "base": FLAT_PARAMS,
                "output_path": str(out)}
        argv = ["sweep", "--spec", write_json(tmp_path / "s.json", spec)]
    assert main(argv) == 2
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # overflows on purpose
@pytest.mark.parametrize("case", ["g2tau-huge-drive", "g2tau-huge-delay",
                                  "optimal-huge-drive"])
def test_numerical_overflow_exits_three(tmp_path, capsys, case):
    """An overflow inside an engine is a one-line solver error, not a crash."""
    huge = {k: v for k, v in FLAT_PARAMS.items() if k != "E_over_gamma"}
    config = write_json(tmp_path / "p.json", dict(huge, E=1e200))
    out = tmp_path / "out.csv"
    argv = {
        "g2tau-huge-drive": ["g2tau", "--config", config, "--tau-max", "1e-6",
                             "--points", "3", "--output", str(out)],
        "g2tau-huge-delay": ["g2tau", "--config", write_json(
            tmp_path / "ok.json", FLAT_PARAMS), "--tau-max", "1e200",
            "--points", "3", "--output", str(out)],
        "optimal-huge-drive": ["optimal", "--config", config,
                               "--output", str(out)],
    }[case]
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("solver error: ")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # overflows on purpose
def test_overflowing_sweep_records_every_nan_row(tmp_path):
    """At E = 1e80 gamma |c01|^4 overflows: a NaN row plus one record each."""
    out = tmp_path / "out.csv"
    spec = write_json(tmp_path / "s.json", {
        "axis1": {"parameter": "delta_over_omega_b", "min": -0.8, "max": 0.8,
                  "points": 2},
        "axis2": {"parameter": "E_over_gamma", "min": 0.001, "max": 1e80,
                  "points": 2, "scale": "log"},
        "observable": "g2_analytic", "base": FLAT_PARAMS,
        "output_path": str(out)})
    assert main(["sweep", "--spec", spec]) == 0
    values = [line.split(",")[-1] for line in out.read_text().splitlines()[1:]]
    assert values[1] == values[3] == "nan" and "nan" not in (values[0], values[2])
    failures = json.loads((tmp_path / "out.csv.manifest.json").read_text())[
        "failures"]
    records = [(f["axis1_index"], f["axis2_index"]) for f in failures]
    assert records == [(0, 1), (1, 1)]
    assert all(f["error"].startswith("SolverError: ") for f in failures)
