"""Master-equation engine: generator structure, steady states, observables.

The strongest checks here are closed-form oracles for linear sub-models
(driven cavity -> coherent state; pair source only -> squeezed vacuum;
thermal bath only -> Bose occupation), which certify the full superoperator
construction independently of the amplitude solver.
"""

import json
import math
import time
import tracemalloc
from importlib import resources

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse import csc_array

from spinpb import (
    ConfigError,
    HilbertConfig,
    SolverError,
    SystemParams,
    build_liouvillian,
    g2_analytic,
    g2_tau,
    g2_zero,
    mandel_q,
    steady_state,
)
from spinpb.config import params_from_dict
from spinpb.errors import (LiouvillianSizeError, NonUniqueSteadyStateError,
                           UndefinedCorrelationError)
import spinpb.lindblad as lindblad
from spinpb.lindblad import (DensityMatrix, Liouvillian, _split_systems, unvectorize,
                             vectorize)
from spinpb.operators import embed_ops
from conftest import (GAMMA, J, OMEGA_B, PAIRS_CCW, PAIRS_CW, random_density,
                      refined_solve, trace_row_system)


def unit_params(**kw) -> SystemParams:
    """Parameters in gamma = 1 units, so absolute tolerances are scale-free."""
    base = dict(gamma=1.0, omega_b=20.0)
    base.update(kw)
    return SystemParams(**base)


def preset_point(panel: str, delta: float, m_th: float = 0.0,
                 gamma_p: float = 0.0, E: float | None = None) -> SystemParams:
    """A fig2 preset's base at delta (omega_b units); gamma_p in gamma units.

    E, in gamma units, replaces the preset's drive when given.
    """
    raw = json.loads(resources.files("spinpb.presets")
                     .joinpath(f"{panel}.json").read_text())
    base = params_from_dict(raw["base"])
    point = base.replace(delta=delta * base.omega_b, m_th=m_th,
                         gamma_p=gamma_p * base.gamma)
    return point if E is None else point.replace(E=E * base.gamma)


# g2 floor cases: the first four (ids noiseN-<delta>) are the two fig2a dips
# at 5x5; then 1e-4 omega_b off the first dip, where stopping the sector
# sweeps once their max-norm step stops halving misses g2 by 1.6e-9; then
# every published (delta, Lambda) pair of fig2a-d, whose Lambda and Sagnac
# sign the preset carries, at 5x5 and 6x6
PANEL_DELTA = dict(zip(("fig2a", "fig2b", "fig2c", "fig2d"),
                       (delta for delta, _ in PAIRS_CW + PAIRS_CCW)))
NOISES = [{}, {"m_th": 1e-7, "gamma_p": 0.01}]
FLOOR_CASES = [pytest.param("fig2a", delta, noise, 5, id=f"noise{i}-{delta}")
               for delta in (-0.684495, 0.654639)
               for i, noise in enumerate(NOISES)] + [
    pytest.param("fig2a", -0.684395, noise, 5, id=f"fig2a-near-noise{i}-5x5")
    for i, noise in enumerate(NOISES)] + [
    pytest.param(panel, delta, noise, size, id=f"{panel}-noise{i}-{size}x{size}")
    for size in (5, 6) for panel, delta in PANEL_DELTA.items()
    for i, noise in enumerate(NOISES) if (panel, size) != ("fig2a", 5)]


def count_factors(monkeypatch) -> tuple[list[tuple[int, int]], list[int]]:
    """Wrap ``splu``: the shape of each factored matrix, and one entry per solve."""
    factored, solves = [], []
    splu = scipy.sparse.linalg.splu

    class CountingLU:
        def __init__(self, matrix):
            factored.append(matrix.shape)
            self.lu = splu(matrix)

        def solve(self, rhs):
            solves.append(1)
            return self.lu.solve(rhs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", CountingLU)
    return factored, solves


def record_fallbacks(monkeypatch) -> list[int]:
    """Count the sector sweeps; returns the count at each direct solve.

    Every ``splu`` factor counts its solves, and each ``_direct_solve``
    call appends the count so far: the sweeps run before the fallback.
    """
    _, solves = count_factors(monkeypatch)
    sweeps_at_fallback = []
    direct_solve = lindblad._direct_solve
    monkeypatch.setattr(lindblad, "_direct_solve", lambda *args: (
        sweeps_at_fallback.append(len(solves)) or direct_solve(*args)))
    return sweeps_at_fallback


def fock_photon_density(cfg: HilbertConfig, n: int) -> DensityMatrix:
    rho = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    idx = cfg.basis_index(0, n)
    rho[idx, idx] = 1.0
    return DensityMatrix(rho)


def propagate(liou: Liouvillian, rho: DensityMatrix, t: float) -> np.ndarray:
    """exp(L t) rho as a matrix, by one step of ``_propagate`` mapped back by P."""
    x = next(lindblad._propagate(liou, vectorize(rho.data), [t]))
    return unvectorize(lindblad._hermitian_frame(liou.dim)[0] @ x, liou.dim)


class TestBuildLiouvillian:
    def test_single_photon_decay_rate(self):
        cfg = HilbertConfig(3, 3)
        liou = build_liouvillian(unit_params(), cfg)
        rho = fock_photon_density(cfg, 1).data
        drho = unvectorize(liou.matrix @ vectorize(rho), cfg.dim)
        idx = cfg.basis_index(0, 1)
        assert abs(drho[idx, idx] - (-1.0)) < 1e-12   # total rate = gamma

    def test_vacuum_is_dark_state(self):
        cfg = HilbertConfig(3, 3)
        liou = build_liouvillian(unit_params(delta=0.7, J=2.0, K=0.1), cfg)
        rho = np.zeros((cfg.dim, cfg.dim), dtype=complex)
        rho[0, 0] = 1.0
        assert np.max(np.abs(liou.matrix @ vectorize(rho))) == 0.0

    def test_trace_preservation_random_states(self):
        rng = np.random.default_rng(5)
        cfg = HilbertConfig(3, 4)
        liou = build_liouvillian(
            unit_params(delta=1.3, J=4.0, K=0.2, Lambda=0.05, E=0.3,
                        delta_F=0.4, m_th=0.02, gamma_p=0.17), cfg)
        for _ in range(20):
            rho = random_density(rng, cfg.dim).data
            drho = unvectorize(liou.matrix @ vectorize(rho), cfg.dim)
            assert abs(np.trace(drho)) < 1e-10

    def test_size_guard(self):
        with pytest.raises(LiouvillianSizeError):
            build_liouvillian(unit_params(), HilbertConfig(11, 10))

    def test_assembly_memory(self):
        """After the per-truncation tables are built, a build allocates ~L."""
        p = unit_params(delta=0.3, J=1.1, K=0.1, Lambda=0.02, E=0.05,
                        m_th=0.1, gamma_p=0.01)
        cfg = HilbertConfig(6, 6)
        build_liouvillian(p, cfg)
        tracemalloc.start()
        try:
            matrix = build_liouvillian(p, cfg).matrix
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * matrix.nbytes

    def test_sparse_assembly_memory(self):
        """A warm 8x8 build allocates under 1 % of the dense L (268 MB)."""
        p = unit_params(delta=0.3, J=1.1, K=0.1, Lambda=0.02, E=0.05,
                        m_th=0.1, gamma_p=0.01)
        cfg = HilbertConfig(8, 8)
        build_liouvillian(p, cfg)
        tracemalloc.start()
        try:
            build_liouvillian(p, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.01 * 16 * cfg.dim**4

    def test_thermal_magnon_occupation(self):
        cfg = HilbertConfig(6, 3)
        liou = build_liouvillian(unit_params(delta=0.4, m_th=0.01), cfg)
        rho = steady_state(liou)
        ops = embed_ops(cfg)
        occupation = np.real(np.trace(ops.n_m @ rho.data))
        assert abs(occupation - 0.01) < 1e-6


class TestSteadyState:
    def test_vacuum_fixed_point(self):
        cfg = HilbertConfig(3, 3)
        rho = steady_state(build_liouvillian(unit_params(delta=0.3, J=1.0), cfg))
        expected = np.zeros((cfg.dim, cfg.dim))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.data, expected, atol=1e-13)

    def test_invariants_at_working_point(self, working_params, cfg55):
        p = working_params.replace(delta=-0.684495 * OMEGA_B,
                                   Lambda=2.46157e-6 * OMEGA_B)
        liou = build_liouvillian(p, cfg55)
        rho = steady_state(liou)
        rho.validate()
        residual = np.max(np.abs(liou.matrix @ vectorize(rho.data)))
        assert residual < 1e-10 * np.max(np.abs(liou.matrix))

    def test_degenerate_generator_rejected(self):
        cfg = HilbertConfig(3, 3)
        null = Liouvillian(generator=csc_array((81, 81), dtype=complex), cfg=cfg)
        with pytest.raises(NonUniqueSteadyStateError):
            steady_state(null)

    def test_non_density_null_vector_rejected(self):
        # L = I - x x+/|x|^2 has the unique null vector x = vec(X), with X
        # Hermitian and trace one but not PSD; X[0, 0] != 0 keeps the
        # trace-row system nonsingular, so only validation can refuse it
        cfg = HilbertConfig(3, 3)
        X = np.diag(np.linspace(1.5, -0.5, cfg.dim)).astype(complex)
        X[0, 1] = X[1, 0] = 0.1
        X /= np.trace(X)
        x = vectorize(X)
        matrix = np.eye(cfg.dim**2) - np.outer(x, x.conj()) / np.vdot(x, x)
        with pytest.raises(SolverError, match="not PSD"):
            steady_state(Liouvillian(generator=csc_array(matrix), cfg=cfg))

    @pytest.mark.parametrize("panel, delta, noise, size", FLOOR_CASES)
    def test_g2_accurate_at_blockade_floor(self, panel, delta, noise, size):
        """g2(0) to 1e-10 of the refined trace-row solve at the fig2 dips.

        The two-photon populations are ~1e-12 here, so a solve that loses
        digits moves g2 while the residual check still passes: an LU
        pivoted by column by ~1e-6, sector sweeps stopped once their
        max-norm step stops halving by 1.6e-9.  At the fig2c pair the sweeps
        stall at the rounding floor of their residual and settle once it is
        taken in long double; where long double is only double, the direct
        solve takes over.
        """
        p = preset_point(panel, delta, **noise)
        cfg = HilbertConfig(size, size)
        exact = g2_zero(refined_solve(build_liouvillian(p, cfg)), cfg)
        value = g2_zero(steady_state(build_liouvillian(p, cfg)), cfg)
        assert abs(value - exact) <= 1e-10 * exact

    @pytest.mark.parametrize("noise", [{}, {"m_th": 1e-7},
                                       pytest.param({"E": 0.2}, id="E0.2")])
    def test_working_point_needs_no_direct_solve(self, monkeypatch, noise):
        # the sector sweeps must settle the fig2a dip on their own, also at
        # E = 0.2 gamma, the presets' strongest drive (33 sweeps)
        def direct_solve(*_args):
            raise AssertionError("sector sweeps fell back to the direct solve")
        monkeypatch.setattr(lindblad, "_direct_solve", direct_solve)
        cfg = HilbertConfig(5, 5)
        steady_state(build_liouvillian(preset_point("fig2a", -0.684495, **noise), cfg))

    def test_diverging_sweeps_fall_back_to_direct_solve(self, monkeypatch):
        # at E = gamma the drive outweighs the sector block and the sweeps
        # diverge; the direct solve must then agree with the refined dense solve
        calls = []
        direct_solve = lindblad._direct_solve
        monkeypatch.setattr(lindblad, "_direct_solve",
                            lambda *args: calls.append(1) or direct_solve(*args))
        p = preset_point("fig2a", -0.684495)
        p = p.replace(E=p.gamma)
        cfg = HilbertConfig(5, 5)
        liou = build_liouvillian(p, cfg)
        dense = g2_zero(refined_solve(liou), cfg)
        value = g2_zero(steady_state(liou), cfg)
        assert calls == [1]
        assert abs(value - dense) <= 1e-10 * dense

    def test_nan_sweeps_fall_back_at_once(self, monkeypatch):
        # at E = 1e200 rad/s the sweep step turns NaN by the third sweep;
        # a NaN fails every comparison, so it must count as divergence
        # rather than run out the sweep limit
        sweeps_at_fallback = record_fallbacks(monkeypatch)
        liou = build_liouvillian(preset_point("fig2a", -0.684495).replace(E=1e200),
                                 HilbertConfig(5, 5))
        with pytest.raises(SolverError):
            steady_state(liou)
        assert len(sweeps_at_fallback) == 1
        assert 1 <= sweeps_at_fallback[0] <= 3

    @pytest.mark.parametrize("change", [{"gamma": 1e-300}, {"E": 1e200}],
                             ids=["gamma=1e-300", "E=1e200"])
    def test_overflowing_sweeps_warn_nothing(self, change):
        # the sweeps' own NaN test falls back; a RuntimeWarning on the way,
        # an error under this suite's filter, would escape the run layer
        # as something other than a SolverError
        liou = build_liouvillian(preset_point("fig2a", -0.684495).replace(**change),
                                 HilbertConfig(5, 5))
        with pytest.raises(SolverError):
            steady_state(liou)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                        reason="long double is only double here, so a widened"
                               " residual stalls like the first and falls back")
    @pytest.mark.parametrize("size", [5, 6])
    def test_stalled_sweeps_settle_on_widened_residual(self, monkeypatch, size):
        # at the exact fig2c pair (m_th = gamma_p = 0) four coherences of
        # 1e-13 jitter at about 5e-10 of themselves, the rounding floor of
        # the double-precision residual, and stall the sweeps (sweep 21 at
        # 5x5, 22 at 6x6); with the residual in long double they settle a
        # few sweeps later, on the same factor and with no direct solve
        def direct_solve(*_args):
            raise AssertionError("sector sweeps fell back to the direct solve")
        monkeypatch.setattr(lindblad, "_direct_solve", direct_solve)
        factored, solves = count_factors(monkeypatch)
        steady_state(build_liouvillian(preset_point("fig2c", 0.679535),
                                       HilbertConfig(size, size)))
        assert len(factored) == 1
        assert len(solves) <= 35

    def test_second_stall_falls_back_early(self, monkeypatch):
        # a platform whose long double is only double, modelled by widening
        # to complex128: at the fig2c pair (5x5) the sweeps stall at sweep
        # 21, stall again on the same residual at sweep 32, and must then
        # fall back once, long before the sweep limit; the state is the
        # direct solve's, bit for bit
        liou = build_liouvillian(preset_point("fig2c", 0.679535), HilbertConfig(5, 5))
        with monkeypatch.context() as patch:
            patch.setattr(lindblad, "_sector_sweeps", lambda *args: None)
            direct = steady_state(liou)
        monkeypatch.setattr(lindblad, "_WIDE", complex)
        sweeps_at_fallback = record_fallbacks(monkeypatch)
        rho = steady_state(liou)
        assert len(sweeps_at_fallback) == 1
        assert 2 * lindblad._STALL_SWEEPS < sweeps_at_fallback[0] <= 35
        np.testing.assert_array_equal(rho.data, direct.data)

    def test_sweep_limit_falls_back_to_direct_solve(self, monkeypatch):
        # the fig2a pair (5x5) settles in 14 sweeps; held to 5, the sweeps
        # must give up after the fifth, and the state is the direct
        # solve's, bit for bit
        liou = build_liouvillian(preset_point("fig2a", -0.684495), HilbertConfig(5, 5))
        with monkeypatch.context() as patch:
            patch.setattr(lindblad, "_sector_sweeps", lambda *args: None)
            direct = steady_state(liou)
        monkeypatch.setattr(lindblad, "_MAX_SWEEPS", 5)
        sweeps_at_fallback = record_fallbacks(monkeypatch)
        rho = steady_state(liou)
        assert sweeps_at_fallback == [5]
        np.testing.assert_array_equal(rho.data, direct.data)

    @pytest.mark.parametrize("n_magnon, n_photon", [(3, 4), (5, 5)])
    def test_sector_block_is_drive_free_system(self, working_params, n_magnon,
                                               n_photon):
        # the same-sector entries of the k >= 0 rows are exactly the system
        # at E = Lambda = 0, stored without the off-sector pattern or
        # explicit zeros; that system's k >= 0 rows read no k < 0 column
        p = working_params.replace(delta=-0.3 * OMEGA_B, Lambda=2.5e-6 * OMEGA_B,
                                   beta=0.4, m_th=0.1, gamma_p=0.01 * GAMMA)
        cfg = HilbertConfig(n_magnon, n_photon)
        half = _split_systems(build_liouvillian(p, cfg))
        upper = half.source < half.block.shape[0]
        free = _split_systems(build_liouvillian(p.replace(E=0.0, Lambda=0.0), cfg)).rows
        assert np.count_nonzero(free[:, ~upper].toarray()) == 0
        free = free[:, upper]
        free.eliminate_zeros()
        assert 0 < half.block.nnz < half.rows.nnz
        np.testing.assert_array_equal(half.block.indptr, free.indptr)
        np.testing.assert_array_equal(half.block.indices, free.indices)
        np.testing.assert_array_equal(half.block.data, free.data)

    @pytest.mark.parametrize("n_magnon, n_photon", [(3, 4), (5, 5)])
    def test_sector_minus_k_mirrors_sector_k(self, working_params, n_magnon,
                                             n_photon):
        # the premise of solving half the sectors: X -> X+ maps sector k to
        # -k, so M's sector -k block is, bit for bit, the conjugate of its
        # sector k block under (i, j) -> (j, i); so is S as a whole
        p = working_params.replace(delta=-0.3 * OMEGA_B, Lambda=2.5e-6 * OMEGA_B,
                                   beta=0.4, m_th=0.1, gamma_p=0.01 * GAMMA)
        cfg = HilbertConfig(n_magnon, n_photon)
        system = trace_row_system(build_liouvillian(p, cfg))
        number = np.add(*np.divmod(np.arange(cfg.dim), cfg.n_photon))   # N = m + n
        sector = vectorize(np.subtract.outer(number, number))   # at (i, j): N_i - N_j
        mirror = np.arange(cfg.dim**2).reshape(cfg.dim, cfg.dim).T.ravel()   # (j, i)
        block = np.where(np.equal.outer(sector, sector), system, 0.0)
        for k in range(sector.max() + 1):
            plus = np.flatnonzero(sector == k)
            np.testing.assert_array_equal(block[np.ix_(mirror[plus], mirror[plus])],
                                          block[np.ix_(plus, plus)].conj())
        np.testing.assert_array_equal(system[np.ix_(mirror, mirror)], system.conj())

    def test_only_the_half_is_factored_and_swept(self, monkeypatch):
        # at the fig2a pair (5x5) the factor holds the 355 unknowns of
        # sectors k >= 0, the sweeps take the 14 of the whole system, and the
        # swept vector is exactly Hermitian before steady_state Hermitizes it
        factored, solves = count_factors(monkeypatch)
        swept = []
        sector_sweeps = lindblad._sector_sweeps
        monkeypatch.setattr(lindblad, "_sector_sweeps",
                            lambda half: swept.append(sector_sweeps(half)) or swept[-1])
        cfg = HilbertConfig(5, 5)
        steady_state(build_liouvillian(preset_point("fig2a", -0.684495), cfg))
        assert factored == [(355, 355)]
        assert len(solves) == 14
        rho = unvectorize(swept[0], cfg.dim)
        np.testing.assert_array_equal(rho, rho.conj().T)

    def test_driven_cavity_matches_coherent_state(self):
        # closed form: alpha = -E / (delta + delta_F - i gamma/2)
        p = unit_params(delta=0.8, delta_F=-0.35, E=0.02)
        cfg = HilbertConfig(3, 8)
        rho = steady_state(build_liouvillian(p, cfg))
        ops = embed_ops(cfg)
        n = np.real(np.trace(ops.n_a @ rho.data))
        alpha = -p.E / (p.delta + p.delta_F - 0.5j * p.gamma)
        assert abs(n - abs(alpha) ** 2) < 1e-10
        assert abs(g2_zero(rho, cfg) - 1.0) < 1e-8

    def test_pair_source_matches_squeezed_vacuum(self):
        # below-threshold closed forms from the quadrature moment equations:
        # n = 8 L^2 / (gamma^2 - 16 L^2),  g2 = 2 + gamma^2 / (16 L^2)
        p = unit_params(Lambda=0.05)
        cfg = HilbertConfig(3, 12)
        rho = steady_state(build_liouvillian(p, cfg))
        ops = embed_ops(cfg)
        n = np.real(np.trace(ops.n_a @ rho.data))
        n_exact = 8 * p.Lambda**2 / (p.gamma**2 - 16 * p.Lambda**2)
        g2_exact = 2 + p.gamma**2 / (16 * p.Lambda**2)
        # the residual error is the even-photon truncation tail, not the solve
        assert abs(n - n_exact) < 1e-7 * n_exact
        assert abs(g2_zero(rho, cfg) - g2_exact) < 1e-7 * g2_exact

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # overflows on purpose
    def test_non_finite_solution_is_solver_error(self):
        # at E = 1e200 gamma the solve overflows to nan; its residual fails
        liou = build_liouvillian(unit_params(J=1.0, E=1e200), HilbertConfig(3, 3))
        with pytest.raises(NonUniqueSteadyStateError, match="residual nan"):
            steady_state(liou)


class TestPhotonStatistics:
    def test_single_photon_fock_blocks(self, cfg55):
        rho = fock_photon_density(cfg55, 1)
        assert g2_zero(rho, cfg55) == 0.0
        assert abs(mandel_q(rho, cfg55) - (-1.0)) < 1e-12

    def test_coherent_state_is_poissonian(self):
        cfg = HilbertConfig(3, 10)
        alpha = 0.2
        amps = np.array([alpha**n / math.sqrt(math.factorial(n))
                         for n in range(cfg.n_photon)], dtype=complex)
        amps /= np.linalg.norm(amps)
        ket = np.zeros(cfg.dim, dtype=complex)
        for n in range(cfg.n_photon):
            ket[cfg.basis_index(0, n)] = amps[n]
        rho = DensityMatrix(np.outer(ket, ket.conj()))
        assert abs(g2_zero(rho, cfg) - 1.0) < 1e-6
        assert abs(mandel_q(rho, cfg)) < 1e-6

    def test_thermal_photons_bunch(self):
        cfg = HilbertConfig(3, 6)
        nbar = 0.01
        weights = np.array([(nbar / (1 + nbar)) ** n
                            for n in range(cfg.n_photon)])
        weights /= weights.sum()
        rho = np.zeros((cfg.dim, cfg.dim), dtype=complex)
        for n, w in enumerate(weights):
            rho[cfg.basis_index(0, n), cfg.basis_index(0, n)] = w
        assert abs(g2_zero(DensityMatrix(rho), cfg) - 2.0) < 1e-3

    def test_mandel_identity_random_states(self, cfg55):
        rng = np.random.default_rng(99)
        ops = embed_ops(cfg55)
        for _ in range(100):
            rho = random_density(rng, cfg55.dim)
            n = np.real(np.trace(ops.n_a @ rho.data))
            identity = n * (g2_zero(rho, cfg55) - 1.0)
            assert abs(mandel_q(rho, cfg55) - identity) < 1e-10

    def test_zero_population_guard(self, cfg55):
        vacuum = np.zeros((cfg55.dim, cfg55.dim), dtype=complex)
        vacuum[0, 0] = 1.0
        with pytest.raises(UndefinedCorrelationError):
            g2_zero(DensityMatrix(vacuum), cfg55)
        with pytest.raises(UndefinedCorrelationError):
            mandel_q(DensityMatrix(vacuum), cfg55)


class TestDensityMatrixValidation:
    def test_accepts_valid(self, cfg55):
        rng = np.random.default_rng(1)
        random_density(rng, cfg55.dim).validate()

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(SolverError):
            DensityMatrix(bad).validate()

    def test_rejects_wrong_trace(self):
        with pytest.raises(SolverError):
            DensityMatrix(np.eye(3, dtype=complex)).validate()

    def test_rejects_negative_eigenvalue(self):
        bad = np.diag([1.5, -0.5, 0.0]).astype(complex)
        with pytest.raises(SolverError):
            DensityMatrix(bad).validate()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # inf - inf is nan
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_diagonal_entry(self, cfg55, value):
        # a SolverError before eigvalsh, which would raise LinAlgError or pass it
        rho = random_density(np.random.default_rng(2), cfg55.dim).data.copy()
        rho[1, 1] = value
        with pytest.raises(SolverError, match="not Hermitian"):
            DensityMatrix(rho).validate()


class TestEvolve:
    """Time evolution exp(L t) rho by ``_propagate``, the engine of ``g2_tau``."""

    def test_zero_time_is_identity(self, cfg55):
        rho = fock_photon_density(cfg55, 1)
        rho_0 = propagate(build_liouvillian(unit_params(), cfg55), rho, 0.0)
        assert np.array_equal(rho_0, rho.data)

    def test_pure_photon_decay(self):
        cfg = HilbertConfig(3, 4)
        p = unit_params()
        liou = build_liouvillian(p, cfg)
        rho0 = fock_photon_density(cfg, 2)
        ops = embed_ops(cfg)
        for t in (0.4, 1.3):
            rho_t = propagate(liou, rho0, t)
            n_t = np.real(np.trace(ops.n_a @ rho_t))
            assert abs(n_t - 2.0 * np.exp(-p.gamma * t)) < 1e-8

    def test_relaxes_to_steady_state(self, working_params, cfg55):
        p = working_params.replace(delta=-0.684495 * OMEGA_B,
                                   Lambda=2.46157e-6 * OMEGA_B)
        liou = build_liouvillian(p, cfg55)
        vacuum = np.zeros((cfg55.dim, cfg55.dim), dtype=complex)
        vacuum[0, 0] = 1.0
        rho_t = propagate(liou, DensityMatrix(vacuum), 30.0 / p.gamma)
        rho_ss = steady_state(liou)
        gap = rho_t - rho_ss.data
        trace_distance = 0.5 * np.sum(np.linalg.svd(gap, compute_uv=False))
        assert trace_distance < 1e-6

    def test_long_step_matches_matrix_exponential(self, working_params):
        # one step far past |A t|_1 = 63.4, where scipy's expm_multiply would
        # refine its Taylor degree from norm estimates and this one does not
        from scipy.linalg import expm

        p = working_params.replace(delta=-0.684495 * OMEGA_B,
                                   Lambda=2.46157e-6 * OMEGA_B)
        cfg = HilbertConfig(3, 3)
        liou = build_liouvillian(p, cfg)
        t = 30.0 / p.gamma
        shifted = liou.matrix - np.trace(liou.matrix) / cfg.dim**2 * np.eye(cfg.dim**2)
        assert np.abs(shifted).sum(axis=0).max() * t > 63.4
        vacuum = np.zeros((cfg.dim, cfg.dim), dtype=complex)
        vacuum[0, 0] = 1.0
        exact = unvectorize(expm(liou.matrix * t) @ vectorize(vacuum), cfg.dim)
        rho_t = propagate(liou, DensityMatrix(vacuum), t)
        assert np.max(np.abs(rho_t - exact)) <= 1e-10 * np.max(np.abs(exact))

    def test_step_past_substep_limit_is_solver_error(self, cfg55):
        # 1e200 s needs more than 2^63 Taylor substeps: refused up front,
        # not run for ever
        liou = build_liouvillian(unit_params(), cfg55)
        start = time.perf_counter()
        with pytest.raises(SolverError, match="2\\^63 substeps"):
            propagate(liou, fock_photon_density(cfg55, 1), 1e200)
        assert time.perf_counter() - start < 1.0

    def test_grid_past_substep_limit_is_solver_error(self, cfg55):
        # 1000 steps of about 2^63 / 100 substeps each: no step is over the
        # bound, the last time is 10 times over it, and the grid is refused
        # before the first step (which alone would run for ever)
        liou = build_liouvillian(unit_params(), cfg55)
        matrix = liou.matrix   # |A|_1 of the complex A, within 1% of the frame's
        shifted = matrix - np.trace(matrix) / cfg55.dim**2 * np.eye(cfg55.dim**2)
        norm = np.abs(shifted).sum(axis=0).max()
        step = 0.01 * lindblad._MAX_SUBSTEPS * lindblad._THETA_55 / norm
        times = [k * step for k in range(1, 1001)]
        start = time.perf_counter()
        with pytest.raises(SolverError, match="2\\^63 substeps"):
            next(lindblad._propagate(
                liou, vectorize(fock_photon_density(cfg55, 1).data), times))
        assert time.perf_counter() - start < 1.0


class TestG2Tau:
    def test_unpropagatable_grid_fails_before_any_delay(self, working_params,
                                                        cfg55, monkeypatch):
        # the 1e200 s delay is refused after the one steady state, before
        # the 1e-3 s delay (seconds of propagation) is reached
        solves = []
        solve = lindblad.steady_state
        monkeypatch.setattr(lindblad, "steady_state",
                            lambda liou: solves.append(liou) or solve(liou))
        start = time.perf_counter()
        with pytest.raises(SolverError, match="2\\^63 substeps"):
            g2_tau(working_params, cfg55, [0.0, 1e-3, 1e200])
        assert time.perf_counter() - start < 1.0
        assert len(solves) == 1

    def test_zero_delay_matches_equal_time(self, working_params, cfg55):
        p = working_params.replace(delta=-0.684495 * OMEGA_B,
                                   Lambda=2.46157e-6 * OMEGA_B)
        trace = g2_tau(p, cfg55, [0.0])
        rho = steady_state(build_liouvillian(p, cfg55))
        assert abs(trace[0][1] - g2_zero(rho, cfg55)) < 1e-10

    def test_antibunching_rises_to_coherence(self, working_params, cfg55):
        p = working_params.replace(delta=-0.684495 * OMEGA_B,
                                   Lambda=2.46157e-6 * OMEGA_B)
        taus = np.linspace(0.0, 3.5e-6, 8)
        trace = g2_tau(p, cfg55, taus)
        values = [g for _t, g in trace]
        assert all(v > values[0] for v in values[1:])
        assert abs(values[-1] - 1.0) < 0.01   # ~coherent by 3.5 us

    @pytest.mark.parametrize("grid", ["linear", "linear-6x6", "linear-noisy",
                                      "log", "step-30", "step-1e-3", "log-steps"])
    def test_matches_matrix_exponential(self, working_params, cfg55, grid):
        """Every delay within 1e-10 of expm(L tau) vec(a rho_ss a+).

        The conditional state has entries near 2.5e-5, far below the
        absolute tolerance an adaptive integrator would be given.  The
        linear grid runs at 5x5, at 6x6, and with a thermal magnon bath,
        cavity dephasing and a pair-source phase, so that every generator
        term enters the real frame.  The last three grids are set by the
        steps' |A h|_1: 29.85, four substeps of at most 55 terms where the
        cheapest (m, s) of the paper's table is five of 40; 1e-3, one
        substep that stops after a few terms; and log-spaced steps from one
        to the other.
        """
        from scipy.linalg import expm

        p = working_params.replace(delta=-0.684495 * OMEGA_B,
                                   Lambda=2.46157e-6 * OMEGA_B)
        if grid == "linear-noisy":
            p = p.replace(m_th=0.01, gamma_p=0.01 * GAMMA, beta=0.7)
        cfg = HilbertConfig(6, 6) if grid == "linear-6x6" else cfg55
        liou = build_liouvillian(p, cfg)
        rho = steady_state(liou).data
        ops = embed_ops(cfg)
        n_ss = np.real(np.trace(ops.n_a @ rho))
        sigma = vectorize(ops.a @ rho @ ops.a_dag)
        if grid.startswith("linear"):
            taus = np.linspace(0.0, 1.5e-6, 41)
            step = expm(liou.matrix * taus[1])
            vecs = [sigma]
            for _ in taus[1:]:
                vecs.append(step @ vecs[-1])
            propagated = dict(zip(taus, vecs))
        else:
            if grid == "log":
                log = np.geomspace(1e-8, 1.5e-6, 6)
                taus = np.concatenate([[0.0], log, log[2:3]])   # 0 and a repeat
            else:
                L = liou.matrix
                shifted = L - np.trace(L) / len(L) * np.eye(len(L))
                sizes = {"step-30": [29.85], "step-1e-3": [1e-3],
                         "log-steps": np.geomspace(1e-3, 29.85, 8)}[grid]
                taus = np.cumsum(sizes) / np.abs(shifted).sum(axis=0).max()
            propagated = {tau: expm(liou.matrix * tau) @ sigma
                          for tau in np.unique(taus)}
        exact = {tau: np.real(np.trace(ops.n_a @ unvectorize(vec, cfg.dim))) / n_ss**2
                 for tau, vec in propagated.items()}
        trace = g2_tau(p, cfg, taus)
        assert [t for t, _g in trace] == sorted(taus)
        for tau, value in trace:
            assert abs(value - exact[tau]) <= 1e-10 * exact[tau], f"tau = {tau:.3e}"

    def test_long_delay_matches_matrix_exponential(self, working_params, cfg55):
        # one 6 us step, |A tau|_1 about 4e3, far past condition 3.13
        from scipy.linalg import expm

        p = working_params.replace(delta=-0.684495 * OMEGA_B,
                                   Lambda=2.46157e-6 * OMEGA_B)
        liou = build_liouvillian(p, cfg55)
        rho = steady_state(liou).data
        ops = embed_ops(cfg55)
        n_ss = np.real(np.trace(ops.n_a @ rho))
        sigma = expm(liou.matrix * 6e-6) @ vectorize(ops.a @ rho @ ops.a_dag)
        exact = np.real(np.trace(ops.n_a @ unvectorize(sigma, cfg55.dim))) / n_ss**2
        ((_tau, value),) = g2_tau(p, cfg55, [6e-6])
        assert abs(value - exact) <= 1e-10 * exact

    def test_propagation_keeps_no_state(self, working_params, cfg55):
        # 401 delays, each state dropped once read: the traced peak stays
        # below 100 states, where holding all 401 takes 4 MB
        p = working_params.replace(delta=-0.684495 * OMEGA_B,
                                   Lambda=2.46157e-6 * OMEGA_B)
        liou = build_liouvillian(p, cfg55)
        rho = steady_state(liou).data
        ops = embed_ops(cfg55)
        sigma = vectorize(ops.a @ rho @ ops.a_dag)
        taus = np.linspace(0.0, 6e-6, 401)
        tracemalloc.start()
        try:
            largest = max(np.abs(v).max()
                          for v in lindblad._propagate(liou, sigma, taus))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < largest < np.inf
        assert peak < 100 * sigma.nbytes

    def test_zero_and_repeated_delays_are_exact(self, working_params, cfg55):
        # every yield is real frame coordinates; a zero step returns the
        # coordinates of the vector it was given, bit for bit
        p = working_params.replace(delta=-0.684495 * OMEGA_B,
                                   Lambda=2.46157e-6 * OMEGA_B)
        liou = build_liouvillian(p, cfg55)
        vec = vectorize(random_density(np.random.default_rng(3), cfg55.dim).data)
        yields = list(lindblad._propagate(liou, vec, [0.0, 2e-7, 2e-7]))
        assert all(x.dtype == np.float64 and x.shape == vec.shape for x in yields)
        at_zero, once, again = yields
        to_frame = lindblad._hermitian_frame(cfg55.dim)[1]
        assert at_zero.tobytes() == (to_frame @ vec).real.tobytes()
        assert again.tobytes() == once.tobytes()

    def test_empty_grid_solves_nothing(self, monkeypatch, working_params, cfg55):
        monkeypatch.setattr(lindblad, "steady_state", None)
        assert g2_tau(working_params, cfg55, []) == []

    def test_vacuum_has_no_correlations(self, cfg55):
        with pytest.raises(UndefinedCorrelationError):
            g2_tau(unit_params(), cfg55, [0.0, 1.0])

    @pytest.mark.parametrize("bad", [-1e-9, float("nan"), float("inf")])
    def test_rejects_bad_delays(self, monkeypatch, working_params, cfg55, bad):
        # rejected up front, before the steady state is solved
        monkeypatch.setattr(lindblad, "steady_state", None)
        with pytest.raises(ConfigError, match="non-negative and finite"):
            g2_tau(working_params, cfg55, [0.0, bad, 1e-6])


class TestAnalyticNumericAgreement:
    def test_log_agreement_random_weak_drive(self, cfg55):
        """Random weak-drive draws agree within 0.15 decades.

        The amplitude method presumes the excitation hierarchy
        |c01| >> |c11|, |c02|, |c20|.  Draws that land outside it (near zero
        detuning the drive is far off both hybrid resonances and photon
        amplitudes are J^2-suppressed; a strong pair source with a very weak
        drive inverts the ordering outright) are extreme-bunching points
        where no agreement is expected, so the comparison is gated on the
        hierarchy actually holding: 2|c02|^2 < 0.01 |c01|^2.
        """
        from spinpb import steady_amplitudes

        rng = np.random.default_rng(1234)
        checked = 0
        for _ in range(50):
            delta = rng.choice([-1, 1]) * rng.uniform(0.2, 1.0) * OMEGA_B
            p = SystemParams(
                gamma=GAMMA, omega_b=OMEGA_B, J=J, delta=delta,
                K=rng.uniform(0.0, 1.0) * GAMMA,
                Lambda=10 ** rng.uniform(-7, -5) * OMEGA_B,
                E=10 ** rng.uniform(np.log10(5e-4), np.log10(5e-3)) * GAMMA,
                delta_F=rng.choice([-0.5, 0.5]) * GAMMA)
            amps = steady_amplitudes(p)
            if 2 * abs(amps.c02) ** 2 >= 0.01 * abs(amps.c01) ** 2:
                continue
            g_ana = g2_analytic(p)
            g_num = g2_zero(steady_state(build_liouvillian(p, cfg55)), cfg55)
            if g_ana > 1e-8 and g_num > 1e-8:
                checked += 1
                assert abs(np.log10(g_num) - np.log10(g_ana)) < 0.15, \
                    f"disagreement at {p}"
        assert checked >= 25   # the regime gate must not starve the check
