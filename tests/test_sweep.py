"""Sweep execution: grids, CSV format, manifests, determinism."""

import json
from dataclasses import asdict
from importlib import resources

import numpy as np
import pytest

from spinpb import (
    AxisSpec,
    ConfigError,
    HilbertConfig,
    SolverError,
    SpinGeometry,
    SweepSpec,
    SystemParams,
    build_liouvillian,
    g2_analytic,
    g2_tau,
    g2_zero,
    mandel_q,
    run_g2tau,
    run_optimal,
    run_sweep,
    sagnac_shift,
    steady_state,
)
from spinpb.config import config_hash, params_from_dict
from spinpb.errors import LiouvillianSizeError
import spinpb.lindblad as lindblad
import spinpb.sweep as sweep
from spinpb.sweep import _grid_results, manifest_path_for, sweep_spec_from_dict
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
        dict(parameter="delta", min="0", max=1, points=3),
        dict(parameter="delta", min=0, max=[1], points=3),
        dict(parameter="delta", min=-1, max=1, points=2.5),
        dict(parameter="delta", min=0, max=1, points="5"),
        dict(parameter="delta", min=0, max=1, points=np.float64(3)),
    ])
    def test_rejects_bad_axes(self, kw):
        with pytest.raises(ConfigError):
            AxisSpec(**kw)

    @pytest.mark.parametrize("kw", [dict(parameter=["delta"]),
                                    dict(parameter=None),
                                    dict(parameter="delta", scale=["log"])])
    def test_mistyped_name_or_scale_rejected(self, kw):
        # a list is not hashable: it must fail as a config error, not in the
        # lookup among the known spellings
        with pytest.raises(ConfigError, match="must be a string"):
            AxisSpec(**{"min": 0, "max": 1, "points": 3, **kw})


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

    @pytest.mark.parametrize("first, second", [
        ("delta", "delta_over_omega_b"),
        ("E_over_gamma", "E"),
        ("K_over_gamma", "K_over_omega_b"),
    ])
    def test_unit_spellings_of_one_parameter_rejected(self, tmp_path, first,
                                                      second):
        # axis 2 would overwrite axis 1 at every point
        with pytest.raises(ConfigError, match="same parameter"):
            SweepSpec(axis1=AxisSpec(first, 0, 1.0, 3),
                      axis2=AxisSpec(second, 0, 2.0, 2),
                      observable="g2_analytic", base=cw_base(),
                      output_path=str(tmp_path / "x.csv"))

    def test_unknown_observable(self, tmp_path):
        with pytest.raises(ConfigError):
            SweepSpec(axis1=AxisSpec("delta", 0, 1.0, 4),
                      observable="g3", base=cw_base(),
                      output_path=str(tmp_path / "x.csv"))


class TestRunSweep:
    def test_analytic_scan_csv_and_manifest(self, tmp_path):
        spec = small_analytic_spec(tmp_path)
        manifest = run_sweep(spec)
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
        m1 = run_sweep(sweep_spec_from_dict(spec_dict))
        first = (tmp_path / "a.csv").read_bytes()
        m2 = run_sweep(sweep_spec_from_dict(spec_dict))
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

    @pytest.mark.parametrize("layout", ["E first", "E second", "E only"])
    def test_analytic_map_failure_per_point(self, tmp_path, layout):
        # at E = 0 the drive leaves c01 = 0: each such point is NaN plus one
        # failure record, and the rest of its row is computed
        drive = AxisSpec("E_over_gamma", -0.01, 0.01, 3)   # E = 0 in the middle
        detuning = AxisSpec("delta_over_omega_b", -0.8, 0.8, 3)
        axes = {"E first": [drive, detuning], "E second": [detuning, drive],
                "E only": [drive]}[layout]
        spec = SweepSpec(axis1=axes[0], axis2=axes[1] if len(axes) > 1 else None,
                         observable="g2_analytic", base=cw_base(),
                         output_path=str(tmp_path / "map.csv"))
        manifest = run_sweep(spec)
        rows = [[float(tok) for tok in line.split(",")] for line in
                (tmp_path / "map.csv").read_text().splitlines()[1:]]
        e = axes.index(drive)
        assert len(rows) == 3 ** len(axes)
        for row in rows:
            assert np.isnan(row[-1]) == (row[e] == 0.0)
        expected = []
        for index in np.ndindex(*(ax.points for ax in axes)):
            if index[e] == 1:   # E = 0
                record = {}
                for k, (ax, i) in enumerate(zip(axes, index)):
                    record[f"axis{k + 1}_index"] = i
                    record[ax.parameter] = float(ax.values()[i])
                expected.append({**record, "error": "UndefinedCorrelationError: "
                                 "c01 vanishes; g2(0) is undefined"})
        assert len(expected) == len(rows) // 3
        assert manifest.failures == expected

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
        # one record per cell of the failed line, in row-major order
        keys = ["axis1_index", "axis2_index"]
        t, e = keys if tau_first else keys[::-1]
        expected = [{t: i, "tau": tau, e: 0, "E_over_gamma": 0.0}
                    for i, tau in enumerate((0.0, 0.5, 1.0))]
        assert [{k: v for k, v in f.items() if k != "error"}
                for f in manifest.failures] == expected
        rows = [line.split(",") for line in
                (tmp_path / "tau.csv").read_text().splitlines()[1:]]
        e_col = 1 if tau_first else 0
        assert all((row[2] == "nan") == (float(row[e_col]) == 0.0)
                   for row in rows)

    def test_failed_tau_line_solves_one_steady_state(self, tmp_path, monkeypatch):
        # delays 1e-45, 1e-26, 1e-7, 1e12 and 1e31 s: the last two need more
        # than 2^63 Taylor substeps, so the grid is refused before any delay
        # is propagated.  The line costs its one steady state and every
        # delay fails with it.
        solves = []
        solve = lindblad.steady_state
        monkeypatch.setattr(lindblad, "steady_state",
                            lambda liou: solves.append(liou) or solve(liou))
        spec = SweepSpec(axis1=AxisSpec("tau", 1e-45, 1e31, 5, "log"),
                         observable="g2_tau",
                         base=cw_base().replace(delta=-0.684495 * OMEGA_B),
                         cfg=HilbertConfig(3, 3),
                         output_path=str(tmp_path / "tau.csv"))
        (taus,), grid, failures = _grid_results(spec)
        assert len(solves) == 1
        assert not np.isfinite(grid).any()
        assert [{k: v for k, v in f.items() if k != "error"} for f in failures] == [
            {"axis1_index": i, "tau": float(taus[i])} for i in range(5)]
        assert all(f["error"].startswith("SolverError: propagation by")
                   and "2^63 substeps" in f["error"] for f in failures)

    @pytest.mark.parametrize("observable", ["g2_numeric", "mandel_q"])
    def test_failed_line_solves_each_cell_once(self, tmp_path, monkeypatch,
                                               observable):
        # without a pair source, E = 0 (the middle of 5 cells) leaves no
        # photons: that cell fails alone and no other is solved again, so the
        # line costs 5 steady states, not 3 + 5
        solves = []
        solve = sweep.steady_state
        monkeypatch.setattr(sweep, "steady_state",
                            lambda liou: solves.append(liou) or solve(liou))
        spec = SweepSpec(axis1=AxisSpec("E_over_gamma", -0.01, 0.01, 5),
                         observable=observable, base=cw_base().replace(Lambda=0.0),
                         cfg=HilbertConfig(3, 3),
                         output_path=str(tmp_path / "line.csv"))
        _values, grid, failures = _grid_results(spec)
        assert len(solves) == 5
        assert np.isnan(grid[2]) and np.all(np.isfinite(np.delete(grid, 2)))
        assert [f["axis1_index"] for f in failures] == [2]
        assert failures[0]["error"].startswith("UndefinedCorrelationError")

    @pytest.mark.parametrize("layout", ["1-D", "E first", "E second"])
    @pytest.mark.parametrize("observable", ["g2_analytic", "g2_numeric",
                                            "mandel_q", "g2_tau"])
    def test_every_cell_is_its_point_or_one_failure(self, tmp_path, observable,
                                                    layout):
        # without a pair source, E = 0 leaves no photons: each such cell is NaN
        # with one record, and every other cell is its own evaluation
        base, cfg = cw_base().replace(Lambda=0.0), HilbertConfig(3, 3)
        drive = AxisSpec("E_over_gamma", -0.01, 0.01, 3)   # E = 0 in the middle
        other = (AxisSpec("tau", 0.0, 1e-6, 2) if observable == "g2_tau"
                 else AxisSpec("delta_over_omega_b", -0.8, 0.8, 2))
        axes = {"1-D": [drive], "E first": [drive, other],
                "E second": [other, drive]}[layout]
        if observable == "g2_tau" and layout == "1-D":   # one all-vacuum line
            axes, base = [other], base.replace(E=0.0)
        spec = SweepSpec(axis1=axes[0], axis2=axes[1] if len(axes) > 1 else None,
                         observable=observable, base=base, cfg=cfg,
                         output_path=str(tmp_path / "grid.csv"))
        manifest = run_sweep(spec)
        table = np.loadtxt(tmp_path / "grid.csv", delimiter=",", skiprows=1,
                           ndmin=2)
        records = {tuple(f[f"axis{n + 1}_index"] for n in range(len(axes))): f
                   for f in manifest.failures}
        assert len(records) == len(manifest.failures)
        vacuum = 0
        for index, row in zip(np.ndindex(*(ax.points for ax in axes)), table):
            point, tau = base, None
            for ax, value in zip(axes, row[:-1]):
                if ax.parameter == "tau":
                    tau = value
                elif ax.parameter == "E_over_gamma":
                    point = point.replace(E=value * base.gamma)
                else:
                    point = point.replace(delta=value * base.omega_b)
            vacuum += point.E == 0.0
            try:
                if observable == "g2_analytic":
                    expected = g2_analytic(point)
                elif observable == "g2_tau":
                    expected = dict(g2_tau(point, cfg, other.values()))[tau]
                else:
                    rho = steady_state(build_liouvillian(point, cfg))
                    expected = (g2_zero if observable == "g2_numeric"
                                else mandel_q)(rho, cfg)
            except SolverError as exc:
                assert np.isnan(row[-1])
                coords = {}
                for n, (ax, i) in enumerate(zip(axes, index)):
                    coords[f"axis{n + 1}_index"] = i
                    coords[ax.parameter] = float(ax.values()[i])
                assert records.pop(index) == {
                    **coords, "error": f"{type(exc).__name__}: {exc}"}
            else:
                assert row[-1] == expected
        assert records == {}
        assert len(manifest.failures) == vacuum > 0

    @pytest.mark.parametrize("e_max, noted", [(0.2, True), (0.1, False)])
    def test_swept_drive_past_weak_limit_noted(self, tmp_path, e_max, noted):
        # the base drive is weak; the flag must come from the swept points
        spec = SweepSpec(axis1=AxisSpec("delta_over_omega_b", -0.8, 0.8, 2),
                         axis2=AxisSpec("E_over_gamma", 0.05, e_max, 2),
                         observable="g2_analytic", base=cw_base(),
                         output_path=str(tmp_path / "drive.csv"))
        assert not spec.base.weak_drive_warning
        notes = run_sweep(spec).notes
        assert any(n.startswith("weak-drive flag") for n in notes) == noted

    def test_output_under_regular_file_is_config_error(self, tmp_path):
        # a parent that is a regular file is refused before any point is run
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(ConfigError, match="not a directory"):
            SweepSpec(axis1=AxisSpec("delta_over_omega_b", -0.5, 0.5, 2),
                      observable="g2_analytic", base=cw_base(),
                      output_path=str(blocker / "sub" / "out.csv"))

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


def per_row_csv(header, rows) -> bytes:
    """The CSV of ``rows`` written one '%.17g' row at a time."""
    template = ",".join(["%.17g"] * len(header)) + "\n"
    return (",".join(header) + "\n" + "".join(
        template % tuple(float(v) for v in row) for row in rows)).encode()


def edge_table(rows: int, seed: int = 0) -> np.ndarray:
    """Three columns of repeated values, signed zeros and float extremes."""
    rng = np.random.default_rng(seed)
    negative_nan = -np.float64(np.nan)
    payload_nan = np.array([0x7FF8000000000001]).view(np.float64)[0]
    specials = np.array([0.0, -0.0, np.nan, negative_nan, payload_nan, np.inf,
                         -np.inf, 5e-324, -5e-324, 1.7976931348623157e308,
                         -1.7976931348623157e308, 0.1, 1 / 3])
    return np.column_stack([rng.choice(specials, rows),
                            rng.choice([1.5, -2.25e-7, 0.0, -0.0], rows),
                            rng.standard_normal(rows)])


class TestWriteCsv:
    """``_write_csv`` writes the bytes of a per-row '%.17g' writer."""

    HEADER = ["a", "b", "c"]

    def check(self, tmp_path, table):
        path = tmp_path / "out.csv"
        sweep._write_csv(path, self.HEADER, table)
        assert path.read_bytes() == per_row_csv(self.HEADER, table)

    def test_signed_zeros_in_one_column(self, tmp_path):
        zeros = np.array([0.0, -0.0, -0.0, 0.0, 0.0, -0.0])
        table = np.column_stack([zeros, zeros[::-1], np.arange(6.0)])
        self.check(tmp_path, table)
        body = (tmp_path / "out.csv").read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in body] == [
            "0", "-0", "-0", "0", "0", "-0"]

    def test_nan_inf_subnormal_and_largest(self, tmp_path):
        values = [np.nan, -np.float64(np.nan), np.inf, -np.inf, 5e-324,
                  1.7976931348623157e308]
        self.check(tmp_path, np.column_stack([values, values[::-1], values]))
        first = (tmp_path / "out.csv").read_text().splitlines()[1]
        assert first == "nan,1.7976931348623157e+308,nan"

    def test_repeated_values(self, tmp_path):
        self.check(tmp_path, np.tile([[0.1, 2.0, -3e-300]], (50, 1)))

    @pytest.mark.parametrize("rows", [0, 1])
    def test_no_row_and_one_row(self, tmp_path, rows):
        self.check(tmp_path, edge_table(rows))

    @pytest.mark.parametrize("extra", [1, -1])
    def test_rows_not_a_whole_number_of_blocks(self, tmp_path, extra):
        self.check(tmp_path, edge_table(3 * sweep.CSV_BLOCK + extra))

    def test_small_blocks(self, tmp_path, monkeypatch):
        # values repeat across blocks, and each block dedups on its own
        monkeypatch.setattr(sweep, "CSV_BLOCK", 3)
        self.check(tmp_path, edge_table(40, seed=1))

    def test_list_of_tuples_with_a_warning_row(self, tmp_path):
        # run_optimal's rows: one NaN warning row per direction without a root
        nan = float("nan")
        rows = [(0.5, -0.684495, 2.46157e-6, 1.2e-18), (-0.5, nan, nan, nan),
                (0.5, 0.654639, 2.46157e-6, 0.0)]
        path = tmp_path / "out.csv"
        header = ["delta_F_over_gamma", "delta_opt_over_omega_b",
                  "lambda_opt_over_omega_b", "residual"]
        sweep._write_csv(path, header, rows)
        assert path.read_bytes() == per_row_csv(header, rows)


def block_sizes(monkeypatch) -> list:
    """Record the number of points of every ``g2_analytic`` call."""
    sizes = []
    solve = sweep.g2_analytic

    def recorded(point):
        sizes.append(np.broadcast(*(getattr(point, f) for f in
                                    point.__dataclass_fields__)).size)
        return solve(point)

    monkeypatch.setattr(sweep, "g2_analytic", recorded)
    return sizes


def line_by_line(spec) -> tuple[np.ndarray, list]:
    """A g2_analytic grid one line of the last axis per call, a failed line
    redone one cell at a time: the values and failed cells of a line rule."""
    axes = [ax for ax in (spec.axis1, spec.axis2) if ax is not None]
    values = [ax.values() for ax in axes]
    grid, failed = np.full([len(v) for v in values], np.nan), []
    for outer in np.ndindex(grid.shape[:-1]):
        coords = [v[i] for v, i in zip(values, outer)]
        try:
            grid[outer] = g2_analytic(sweep._at(spec, coords + [values[-1]])[0])
        except SolverError:
            for i, value in enumerate(values[-1]):
                try:
                    grid[outer + (i,)] = g2_analytic(
                        sweep._at(spec, coords + [value])[0])
                except SolverError:
                    failed.append(outer + (i,))
    return grid, failed


class TestAnalyticBlocks:
    """A g2_analytic grid is solved over runs of at most ANALYTIC_BLOCK cells."""

    def test_clean_map_calls(self, tmp_path, monkeypatch):
        # the pair-search map size; the cap bounds the stacked solve's memory
        spec = SweepSpec(axis1=AxisSpec("delta_over_omega_b", -0.73, -0.63, 201),
                         axis2=AxisSpec("Lambda_over_omega_b", 2.1e-6, 2.8e-6, 101),
                         observable="g2_analytic", base=cw_base(),
                         output_path=str(tmp_path / "map.csv"))
        sizes = block_sizes(monkeypatch)
        _values, grid, failures = _grid_results(spec)
        cap = sweep.ANALYTIC_BLOCK
        assert len(sizes) == -(-20301 // cap) and max(sizes) <= cap
        assert sum(sizes) == 20301 and failures == []
        monkeypatch.undo()
        assert np.array_equal(grid, line_by_line(spec)[0])   # bit for bit

    @pytest.mark.parametrize("e_first", [True, False])
    def test_failing_line_calls(self, tmp_path, monkeypatch, e_first):
        # Lambda = 0 and E = 0 leave c01 = 0: the E = 0 line fails, as one
        # run of 401 cells (E first) or as every third cell (E second).
        # Halving a failed run makes two calls; each failed cell lies under
        # at most log2(cap) halvings, so it adds at most 2 log2(cap) calls.
        drive = AxisSpec("E_over_gamma", -0.01, 0.01, 3)
        detuning = AxisSpec("delta_over_omega_b", -0.8, 0.8, 401)
        axis1, axis2 = (drive, detuning) if e_first else (detuning, drive)
        spec = SweepSpec(axis1=axis1, axis2=axis2, observable="g2_analytic",
                         base=cw_base().replace(Lambda=0.0),
                         output_path=str(tmp_path / "map.csv"))
        sizes = block_sizes(monkeypatch)
        values, grid, failures = _grid_results(spec)
        cap, cells = sweep.ANALYTIC_BLOCK, 3 * 401
        extra = len(sizes) - -(-cells // cap)
        assert 0 < extra <= 2 * 401 * int(np.ceil(np.log2(cap)))
        assert len(sizes) < 2 * cells   # a halving tree has fewer nodes
        assert max(sizes) <= cap
        monkeypatch.undo()
        expected, failed = line_by_line(spec)
        assert np.array_equal(grid, expected, equal_nan=True)
        assert len(failed) == 401
        e = 0 if e_first else 1
        assert [f[f"axis{e + 1}_index"] for f in failures] == [1] * 401
        assert failures == [
            {"axis1_index": index[0], axis1.parameter: float(values[0][index[0]]),
             "axis2_index": index[1], axis2.parameter: float(values[1][index[1]]),
             "error": "UndefinedCorrelationError: c01 vanishes; g2(0) is undefined"}
            for index in failed]


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
        # without drive there is no pathway to cancel: no root anywhere
        out = tmp_path / "none.csv"
        manifest = run_optimal(working_params.replace(E=0.0), ["cw"], out)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "nan"
        assert manifest.failures

    def test_shares_the_sign_rule_of_sagnac_shift(self, tmp_path, working_params):
        """A cw run of a CCW-signed delta_F lands on the CW Sagnac shift."""
        geom = SpinGeometry(n_index=1.4, radius=30e-6, wavelength=1550e-9,
                            omega_a=2 * np.pi * 193.4e12)
        omega_rot = 2 * np.pi * 3.3e3    # |shift| near 0.5 gamma
        params = working_params.replace(
            delta_F=sagnac_shift(geom, omega_rot, "ccw"))
        out = tmp_path / "cw.csv"
        run_optimal(params, ["cw"], out)
        expected = sagnac_shift(geom, omega_rot, "cw") / working_params.gamma
        assert expected > 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert len(rows) == 2 and np.all(rows[:, 0] == expected)

    def test_unknown_direction(self, tmp_path, working_params):
        with pytest.raises(ConfigError):
            run_optimal(working_params, ["up"], tmp_path / "x.csv")

    def test_repeated_direction(self, tmp_path, working_params):
        with pytest.raises(ConfigError, match="distinct"):
            run_optimal(working_params, ["cw", "cw"], tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

    def test_no_direction(self, tmp_path, working_params):
        # an empty list would write a header-only CSV with no failure record
        with pytest.raises(ConfigError, match="one or more distinct"):
            run_optimal(working_params, [], tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("direction", [["cw"], {"cw": 1}])
    def test_non_string_direction(self, tmp_path, working_params, direction):
        with pytest.raises(ConfigError, match="distinct"):
            run_optimal(working_params, [direction], tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()


class TestConfigHash:
    """The manifest's hash identifies the inputs each command parsed."""

    def test_sweep_hashes_its_spec(self, tmp_path):
        spec = small_analytic_spec(tmp_path, points=3)
        assert run_sweep(spec).config_hash == config_hash(asdict(spec))
        other = small_analytic_spec(tmp_path, points=4)
        assert run_sweep(other).config_hash != config_hash(asdict(spec))

    def test_optimal_hash_covers_directions_and_box(self, tmp_path,
                                                    working_params):
        out = tmp_path / "opt.csv"
        hashes = [run_optimal(working_params, directions, out).config_hash
                  for directions in (["cw"], ["cw"], ["cw", "ccw"])]
        assert hashes[0] == hashes[1] != hashes[2]
        # the fixed search box of find_optimal_pairs is part of the inputs
        assert hashes[0] == config_hash({
            "params": asdict(working_params), "directions": ["cw"],
            "delta_range": (-1.0, 1.0), "lambda_range": (0.0, 1.0e-5),
            "output_path": str(out)})

    def test_hash_of_fixed_inputs_is_pinned(self, tmp_path, monkeypatch):
        """The hashes of one parsed sweep spec and one optimal input.

        Integer JSON values pin the parsed types too: ``min`` and ``gamma``
        parse to floats, ``points`` and the truncation stay integers.
        """
        monkeypatch.chdir(tmp_path)
        base = {"gamma": 2, "omega_b": 40, "J_over_gamma": 13, "E": 0.01,
                "Lambda_over_omega_b": 2.5e-6, "delta_F_over_gamma": 0.5,
                "comment": "not hashed"}
        spec = sweep_spec_from_dict({
            "axis1": {"parameter": "delta_over_omega_b", "min": -1, "max": 1,
                      "points": 3},
            "axis2": {"parameter": "K", "min": 0.1, "max": 1, "points": 2,
                      "scale": "log"},
            "observable": "g2_analytic", "base": base,
            "cfg": {"n_magnon": 4, "n_photon": 3}, "output_path": "map.csv"})
        assert run_sweep(spec).config_hash == (
            "5d09ff9a2ae2b71689a97584054b4c61b45cc6a9e8c1afc041089c2a86f7015c")
        optimal = run_optimal(params_from_dict(base), ["cw", "ccw"], "opt.csv")
        assert optimal.config_hash == (
            "b8d2d0313359a891abccf8c6aff0ec9b3c565932da9fd2d080b2cca131031f70")

    def test_g2tau_hash_covers_the_delay_grid(self, tmp_path):
        p, cfg = cw_base(), HilbertConfig(3, 3)
        out = tmp_path / "tau.csv"
        hashes = [run_g2tau(p, cfg, tau_max, points, out).config_hash
                  for tau_max, points in [(1e-6, 2), (2e-6, 2), (1e-6, 3)]]
        assert len(set(hashes)) == 3
        assert run_g2tau(p, HilbertConfig(4, 3), 1e-6, 2, out).config_hash \
            not in hashes

    @pytest.mark.parametrize("given", ["g2tau-cfg", "g2tau-points", "axis-points"])
    def test_numpy_integers_hash_as_python_ints(self, tmp_path, given):
        """numpy integer inputs write the manifest of the Python-int run.

        The CSV is written before the manifest, so a numpy integer that the
        JSON writers refuse would leave a CSV without its manifest.
        """
        def run(integer):
            if given == "axis-points":
                return run_sweep(small_analytic_spec(tmp_path, points=integer(3)))
            n = integer(3) if given == "g2tau-cfg" else 3
            points = integer(2) if given == "g2tau-points" else 2
            return run_g2tau(cw_base(), HilbertConfig(n, n), 1e-7, points,
                             tmp_path / "tau.csv")

        expected = run(int)
        manifest = run(np.int64)
        out = tmp_path / ("scan.csv" if given == "axis-points" else "tau.csv")
        written = json.loads(manifest_path_for(out).read_text())
        assert manifest.config_hash == written["config_hash"] == expected.config_hash


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

    @pytest.mark.parametrize("points", [2.5, "3", np.float64(3)])
    def test_mistyped_points_rejected(self, tmp_path, points):
        with pytest.raises(ConfigError, match="must be an integer"):
            run_g2tau(cw_base(), HilbertConfig(3, 3), tau_max=1e-6,
                      points=points, output_path=tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("tau_max", ["1e-6", [1e-6], None, True])
    def test_mistyped_tau_max_rejected(self, tmp_path, tau_max):
        with pytest.raises(ConfigError, match="must be a finite number"):
            run_g2tau(cw_base(), HilbertConfig(3, 3), tau_max=tau_max,
                      points=1, output_path=tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()


class TestConvergenceProbe:
    """The probe redoes the first smallest finite cell at (n+1)x(n+1)."""

    @pytest.mark.parametrize("case", ["mandel_q 2-D", "mandel_q gamma first",
                                      "g2_tau tau first", "g2_tau tau second",
                                      "g2tau command"])
    def test_probed_cell_and_delta_are_pinned(self, tmp_path, case):
        base, cfg, cfg_hi = cw_base(), HilbertConfig(3, 3), HilbertConfig(4, 4)
        out = tmp_path / "out.csv"

        def g2_at(point, tau):
            return g2_tau(point, cfg_hi, [tau])[0][1]

        if case == "mandel_q 2-D":
            # delta is in units of the base gamma: axis1 is applied first
            manifest = run_sweep(SweepSpec(
                axis1=AxisSpec("delta_over_gamma", 0.5, 2.0, 3),
                axis2=AxisSpec("gamma", 0.5 * GAMMA, 2.0 * GAMMA, 3),
                observable="mandel_q", base=base, cfg=cfg, output_path=str(out)))

            def high_at(d, g):
                point = base.replace(delta=d * base.gamma, gamma=g)
                return mandel_q(steady_state(build_liouvillian(point, cfg_hi)),
                                cfg_hi)
        elif case == "mandel_q gamma first":
            # delta follows the swept gamma: axis1 is applied first
            manifest = run_sweep(SweepSpec(
                axis1=AxisSpec("gamma", 0.5 * GAMMA, 2.0 * GAMMA, 3),
                axis2=AxisSpec("delta_over_gamma", 0.5, 2.0, 3),
                observable="mandel_q", base=base, cfg=cfg, output_path=str(out)))

            def q_at(g, d, cfg):
                point = base.replace(gamma=g, delta=d * g)
                return mandel_q(steady_state(build_liouvillian(point, cfg)), cfg)

            def high_at(g, d):
                return q_at(g, d, cfg_hi)

            for g, d, q in np.loadtxt(out, delimiter=",", skiprows=1):
                assert q == q_at(g, d, cfg)
        elif case == "g2_tau tau first":
            manifest = run_sweep(SweepSpec(
                axis1=AxisSpec("tau", 0.0, 1e-6, 3),
                axis2=AxisSpec("delta_over_omega_b", -0.7, -0.66, 3),
                observable="g2_tau", base=base, cfg=cfg, output_path=str(out)))

            def high_at(tau, d):
                return g2_at(base.replace(delta=d * base.omega_b), tau)
        elif case == "g2_tau tau second":
            manifest = run_sweep(SweepSpec(
                axis1=AxisSpec("delta_over_omega_b", -0.7, -0.66, 3),
                axis2=AxisSpec("tau", 0.0, 1e-6, 3),
                observable="g2_tau", base=base, cfg=cfg, output_path=str(out)))

            def high_at(d, tau):
                return g2_at(base.replace(delta=d * base.omega_b), tau)
        else:
            point = base.replace(delta=-0.684495 * OMEGA_B)
            manifest = run_g2tau(point, cfg, 1e-6, 3, out)

            def high_at(tau):
                return g2_at(point, tau)
        table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        column = table[:, -1]
        low = column[np.isfinite(column)].min()
        cell = table[np.flatnonzero(column == low)[0]]   # first, row-major
        high = high_at(*cell[:-1])
        assert manifest.truncation_convergence_delta == abs(high - low) / abs(low)

    def test_failed_probe_is_a_note(self, tmp_path, monkeypatch):
        # a probe that raises leaves the grid as it is: the manifest has no
        # delta, is not converged and says why, and records no failed point
        build = sweep.build_liouvillian

        def build_base_only(params, cfg):
            if cfg.dim > 9:
                raise LiouvillianSizeError("refused above 3x3")
            return build(params, cfg)

        monkeypatch.setattr(sweep, "build_liouvillian", build_base_only)
        out = tmp_path / "probe.csv"
        run_sweep(SweepSpec(axis1=AxisSpec("delta_over_omega_b", -0.7, -0.66, 2),
                            observable="g2_numeric", base=cw_base(),
                            cfg=HilbertConfig(3, 3), output_path=str(out)))
        written = json.loads(manifest_path_for(out).read_text())
        assert written["converged"] is False
        assert written["truncation_convergence_delta"] is None
        assert written["notes"] == ["convergence probe failed: refused above 3x3"]
        assert written["failures"] == []
        assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all()


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
