"""Sweep execution: grids, CSV format, manifests, determinism."""

import json
from importlib import resources

import numpy as np
import pytest

from spinpb import (
    AxisSpec,
    ConfigError,
    HilbertConfig,
    SweepSpec,
    SystemParams,
    build_liouvillian,
    g2_zero,
    run_g2tau,
    run_optimal,
    run_sweep,
    steady_state,
)
from spinpb.sweep import manifest_path_for, sweep_spec_from_dict
from conftest import GAMMA, J, OMEGA_B


def cw_base() -> SystemParams:
    return SystemParams(gamma=GAMMA, omega_b=OMEGA_B, J=J, K=0.1 * GAMMA,
                        E=0.005 * GAMMA, delta_F=0.5 * GAMMA,
                        Lambda=2.46157e-6 * OMEGA_B)


def small_analytic_spec(tmp_path, points=5) -> SweepSpec:
    return SweepSpec(
        axis1=AxisSpec("delta_over_omega_b", -0.8, 0.8, points),
        observable="g2_analytic",
        base=cw_base(),
        output_path=str(tmp_path / "scan.csv"),
    )


class TestAxisSpec:
    def test_linear_values(self):
        ax = AxisSpec("delta", -1.0, 1.0, 5)
        np.testing.assert_allclose(ax.values(), [-1, -0.5, 0, 0.5, 1])

    def test_log_values(self):
        ax = AxisSpec("m_th", 1e-9, 1e-5, 5, "log")
        np.testing.assert_allclose(ax.values(),
                                   [1e-9, 1e-8, 1e-7, 1e-6, 1e-5], rtol=1e-12)

    @pytest.mark.parametrize("kw", [
        dict(parameter="bogus", min=0, max=1, points=3),
        dict(parameter="delta", min=0, max=1, points=1),
        dict(parameter="delta", min=1, max=0, points=3),
        dict(parameter="delta", min=0, max=1, points=3, scale="cubic"),
        dict(parameter="delta", min=0, max=1, points=3, scale="log"),
        dict(parameter="tau", min=-1e-6, max=1e-6, points=3),
        dict(parameter="delta", min=float("nan"), max=1.0, points=3),
        dict(parameter="delta", min=0.0, max=float("inf"), points=3),
        dict(parameter="delta", min=-float("inf"), max=1.0, points=3),
    ])
    def test_rejects_bad_axes(self, kw):
        with pytest.raises(ConfigError):
            AxisSpec(**kw)


class TestSweepSpecValidation:
    def test_tau_axis_needs_g2_tau(self, tmp_path):
        with pytest.raises(ConfigError):
            SweepSpec(axis1=AxisSpec("tau", 0, 1e-6, 4),
                      observable="g2_numeric", base=cw_base(),
                      output_path=str(tmp_path / "x.csv"))

    def test_g2_tau_needs_tau_axis(self, tmp_path):
        with pytest.raises(ConfigError):
            SweepSpec(axis1=AxisSpec("delta", 0, 1.0, 4),
                      observable="g2_tau", base=cw_base(),
                      output_path=str(tmp_path / "x.csv"))

    def test_duplicate_axes_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            SweepSpec(axis1=AxisSpec("delta", 0, 1.0, 4),
                      axis2=AxisSpec("delta", 0, 2.0, 4),
                      observable="g2_numeric", base=cw_base(),
                      output_path=str(tmp_path / "x.csv"))

    def test_unknown_observable(self, tmp_path):
        with pytest.raises(ConfigError):
            SweepSpec(axis1=AxisSpec("delta", 0, 1.0, 4),
                      observable="g3", base=cw_base(),
                      output_path=str(tmp_path / "x.csv"))


class TestRunSweep:
    def test_analytic_scan_csv_and_manifest(self, tmp_path):
        spec = small_analytic_spec(tmp_path)
        manifest = run_sweep(spec, spec_dict={"tag": 1})
        lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert lines[0] == "axis1_value,observable_value"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == -0.8
        assert manifest.rows == 5
        assert manifest.converged and manifest.truncation_convergence_delta == 0.0
        saved = json.loads(manifest_path_for(tmp_path / "scan.csv").read_text())
        assert saved["tool_version"] == manifest.tool_version
        assert saved["params_rad_per_s"]["gamma"] == GAMMA
        assert saved["params_reduced"]["J_over_gamma"] == pytest.approx(13.4)

    def test_byte_identical_reruns(self, tmp_path):
        spec_dict = {
            "axis1": {"parameter": "delta_over_omega_b", "min": -0.8,
                      "max": 0.8, "points": 5},
            "observable": "g2_analytic",
            "base": {"gamma": GAMMA, "omega_b": OMEGA_B, "J": J,
                     "K_over_gamma": 0.1, "E_over_gamma": 0.005,
                     "delta_F_over_gamma": 0.5,
                     "Lambda_over_omega_b": 2.46157e-6},
            "output_path": str(tmp_path / "a.csv"),
        }
        m1 = run_sweep(sweep_spec_from_dict(spec_dict), spec_dict)
        first = (tmp_path / "a.csv").read_bytes()
        m2 = run_sweep(sweep_spec_from_dict(spec_dict), spec_dict)
        second = (tmp_path / "a.csv").read_bytes()
        assert first == second
        assert m1.config_hash == m2.config_hash

    def test_full_precision_round_trip(self, tmp_path):
        from spinpb import g2_analytic

        spec = small_analytic_spec(tmp_path, points=3)
        run_sweep(spec)
        rows = (tmp_path / "scan.csv").read_text().splitlines()[1:]
        for row in rows:
            delta_wb, value = (float(tok) for tok in row.split(","))
            direct = g2_analytic(spec.base.replace(delta=delta_wb * OMEGA_B))
            assert value == direct   # '%.17g' must round-trip exactly

    def test_vacuum_points_emit_nan(self, tmp_path):
        base = SystemParams(gamma=1.0, omega_b=20.0)   # no drive, no pairs
        spec = SweepSpec(axis1=AxisSpec("delta", 0.0, 1.0, 2),
                         observable="g2_numeric", base=base,
                         cfg=HilbertConfig(3, 3),
                         output_path=str(tmp_path / "vac.csv"))
        manifest = run_sweep(spec)
        rows = (tmp_path / "vac.csv").read_text().splitlines()[1:]
        assert all(row.endswith(",nan") for row in rows)
        assert len(manifest.failures) == 2
        assert not manifest.converged

    def test_two_dim_row_major(self, tmp_path):
        spec = SweepSpec(
            axis1=AxisSpec("delta_over_omega_b", -0.5, 0.5, 2),
            axis2=AxisSpec("K_over_gamma", 0.0, 0.2, 3),
            observable="g2_analytic",
            base=cw_base(),
            output_path=str(tmp_path / "map.csv"),
        )
        run_sweep(spec)
        lines = (tmp_path / "map.csv").read_text().splitlines()
        assert lines[0] == "axis1_value,axis2_value,observable_value"
        grid = [tuple(float(t) for t in line.split(",")[:2])
                for line in lines[1:]]
        assert grid == [(-0.5, 0.0), (-0.5, 0.1), (-0.5, 0.2),
                        (0.5, 0.0), (0.5, 0.1), (0.5, 0.2)]

    def test_tau_sweep(self, tmp_path):
        spec = SweepSpec(
            axis1=AxisSpec("tau", 0.0, 1e-6, 3),
            observable="g2_tau",
            base=cw_base().replace(delta=-0.684495 * OMEGA_B),
            output_path=str(tmp_path / "tau.csv"),
        )
        manifest = run_sweep(spec)
        rows = (tmp_path / "tau.csv").read_text().splitlines()[1:]
        assert len(rows) == 3 and manifest.converged
        g2s = [float(r.split(",")[1]) for r in rows]
        assert g2s[0] < g2s[1] < g2s[2]

    def test_tau_sweep_matches_g2tau_command(self, tmp_path, cfg55):
        p = cw_base().replace(delta=-0.684495 * OMEGA_B)
        tau_max, points = 1e-6, 3
        swept = run_sweep(SweepSpec(axis1=AxisSpec("tau", 0.0, tau_max, points),
                                    observable="g2_tau", base=p, cfg=cfg55,
                                    output_path=str(tmp_path / "sweep.csv")))
        traced = run_g2tau(p, cfg55, tau_max, points, tmp_path / "trace.csv")
        body = [(tmp_path / name).read_text().splitlines()[1:]
                for name in ("sweep.csv", "trace.csv")]
        assert body[0] == body[1]
        assert (swept.truncation_convergence_delta
                == traced.truncation_convergence_delta)

    @pytest.mark.parametrize("tau_first", [True, False])
    def test_tau_sweep_failure_per_line(self, tmp_path, tau_first):
        tau = AxisSpec("tau", 0.0, 1.0, 3)
        drive = AxisSpec("E_over_gamma", 0.0, 0.01, 2)   # E = 0: vacuum line
        axis1, axis2 = (tau, drive) if tau_first else (drive, tau)
        spec = SweepSpec(axis1=axis1, axis2=axis2, observable="g2_tau",
                         base=SystemParams(gamma=1.0, omega_b=20.0),
                         cfg=HilbertConfig(3, 3),
                         output_path=str(tmp_path / "tau.csv"))
        manifest = run_sweep(spec)
        index = "axis2_index" if tau_first else "axis1_index"
        assert [{k: v for k, v in f.items() if k != "error"}
                for f in manifest.failures] == [{index: 0, "E_over_gamma": 0.0}]
        rows = [line.split(",") for line in
                (tmp_path / "tau.csv").read_text().splitlines()[1:]]
        e_col = 1 if tau_first else 0
        assert all((row[2] == "nan") == (float(row[e_col]) == 0.0)
                   for row in rows)

    def test_unwritable_path_raises_io_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        spec = SweepSpec(axis1=AxisSpec("delta_over_omega_b", -0.5, 0.5, 2),
                         observable="g2_analytic", base=cw_base(),
                         output_path=str(blocker / "out.csv"))
        with pytest.raises(OSError):
            run_sweep(spec)

    def test_numeric_scan_converged_manifest(self, tmp_path):
        spec = SweepSpec(
            axis1=AxisSpec("delta_over_omega_b", -0.7, -0.66, 3),
            observable="g2_numeric",
            base=cw_base(),
            output_path=str(tmp_path / "num.csv"),
        )
        manifest = run_sweep(spec)
        assert manifest.converged
        assert 0.0 <= manifest.truncation_convergence_delta < 1e-4


class TestRunOptimal:
    def test_paper_rows_and_header(self, tmp_path, working_params):
        out = tmp_path / "optimal.csv"
        manifest = run_optimal(working_params, ["cw", "ccw"], out)
        lines = out.read_text().splitlines()
        assert lines[0] == ("delta_F_over_gamma,delta_opt_over_omega_b,"
                            "lambda_opt_over_omega_b,residual")
        assert len(lines) == 5    # two pairs per direction
        assert manifest.rows == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.5
        assert abs(float(first[1]) - (-0.684495)) < 0.01

    def test_empty_direction_warning_row(self, tmp_path, working_params):
        out = tmp_path / "none.csv"
        manifest = run_optimal(working_params, ["cw"], out,
                               lambda_range=(5e-6, 1e-5))
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "nan"
        assert manifest.failures

    def test_reversed_box_is_config_error(self, tmp_path, working_params):
        with pytest.raises(ConfigError):
            run_optimal(working_params, ["cw"], tmp_path / "x.csv",
                        delta_range=(1.0, -1.0))

    def test_unknown_direction(self, tmp_path, working_params):
        with pytest.raises(ConfigError):
            run_optimal(working_params, ["up"], tmp_path / "x.csv")


class TestRunG2Tau:
    def test_trace_csv(self, tmp_path, cfg55):
        p = cw_base().replace(delta=-0.684495 * OMEGA_B)
        out = tmp_path / "g2tau.csv"
        manifest = run_g2tau(p, cfg55, tau_max=1e-6, points=3,
                             output_path=out)
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,g2"
        assert len(lines) == 4
        assert manifest.converged
        rho = steady_state(build_liouvillian(p, cfg55))
        assert abs(float(lines[1].split(",")[1]) - g2_zero(rho, cfg55)) < 1e-10

    def test_single_point_grid(self, tmp_path, cfg55):
        p = cw_base().replace(delta=-0.684495 * OMEGA_B)
        out = tmp_path / "one.csv"
        run_g2tau(p, cfg55, tau_max=1e-6, points=1, output_path=out)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[0]) == 0.0

    def test_bad_grid_rejected(self, tmp_path, cfg55):
        with pytest.raises(ConfigError):
            run_g2tau(cw_base(), cfg55, tau_max=0.0, points=3,
                      output_path=tmp_path / "x.csv")
        with pytest.raises(ConfigError):
            run_g2tau(cw_base(), cfg55, tau_max=1e-6, points=0,
                      output_path=tmp_path / "x.csv")


PRESETS = sorted(r.name for r in resources.files("spinpb.presets").iterdir()
                 if r.name.endswith(".json"))


def load_preset(name: str) -> dict:
    return json.loads(resources.files("spinpb.presets").joinpath(name).read_text())


class TestPresets:
    def test_all_presets_parse(self):
        assert len(PRESETS) >= 15
        for name in PRESETS:
            raw = load_preset(name)
            spec = sweep_spec_from_dict(raw)
            assert spec.observable in ("g2_numeric", "g2_analytic",
                                       "mandel_q", "g2_tau")
            assert "comment" in raw

    @pytest.mark.parametrize("name", PRESETS)
    def test_preset_runs(self, name, tmp_path):
        """Each preset, every axis cut to 2 points, at its own truncation."""
        raw = load_preset(name)
        for key in ("axis1", "axis2"):
            if raw.get(key):
                raw[key]["points"] = 2
        raw["output_path"] = str(tmp_path / "out.csv")
        manifest = run_sweep(sweep_spec_from_dict(raw))
        values = np.loadtxt(tmp_path / "out.csv", delimiter=",", skiprows=1)
        assert manifest.rows == values.shape[0] >= 2
        assert np.isfinite(values).all()
        assert manifest.failures == []
        assert manifest.converged
