"""Amplitude solver: closed forms, full-system oracle, optima, approach to steady state."""

import re
from dataclasses import astuple

import numpy as np
import pytest

from spinpb import (
    SolverError,
    SystemParams,
    analytic,
    find_optimal_pairs,
    g2_analytic,
    steady_amplitudes,
)
from spinpb.errors import SingularSystemError, UndefinedCorrelationError
from conftest import GAMMA, J, OMEGA_B, PAIRS_CCW, PAIRS_CW


def oracle_matrix(p: SystemParams) -> np.ndarray:
    """Independent coefficient matrix of i dC/dt = M C, written from scratch.

    Row order (c00, c10, c01, c11, c02, c20); matrix elements transcribed
    term by term from the coupled amplitude equations, keeping every term.
    """
    da = p.delta - 0.5j * p.gamma + p.delta_F   # cavity incl. Sagnac shift
    dm = p.delta - 0.5j * p.gamma
    r2 = np.sqrt(2.0)
    eb = np.exp(1j * p.beta)
    M = np.array([
        [0, 0, p.E, 0, -1j * r2 * p.Lambda / eb, 0],
        [0, dm + p.K, p.J, p.E, 0, 0],
        [p.E, p.J, da, 0, r2 * p.E, 0],
        [0, p.E, 0, da + dm + p.K, r2 * p.J, r2 * p.J],
        [1j * r2 * p.Lambda * eb, 0, r2 * p.E, r2 * p.J, 2 * da, 0],
        [0, 0, 0, r2 * p.J, 0, 2 * (dm + 2 * p.K)],
    ], dtype=complex)
    return M


def oracle_full_solve(p: SystemParams) -> np.ndarray:
    """Quasi-steady amplitudes without any hierarchy truncation.

    The weak-drive steady state is the near-null direction of the full
    coefficient matrix: the right-singular vector of the smallest singular
    value, normalized to c00 = 1.
    """
    _u, _s, vh = np.linalg.svd(oracle_matrix(p))
    vec = vh[-1].conj()
    return vec / vec[0]


def make_params(delta_wb, lam_wb, df_gamma, **kw) -> SystemParams:
    base = dict(gamma=GAMMA, omega_b=OMEGA_B, J=J, K=0.1 * GAMMA,
                E=0.005 * GAMMA)
    base.update(kw)
    return SystemParams(delta=delta_wb * OMEGA_B, Lambda=lam_wb * OMEGA_B,
                        delta_F=df_gamma * GAMMA, **base)


class TestCoefficientMatrix:
    def test_matches_hamiltonian_projection(self):
        # the amplitude equations are the m + n <= 2 block of the
        # non-Hermitian Hamiltonian, in the order (00, 10, 01, 11, 02, 20);
        # the block is checked against the hand-written oracle
        rng = np.random.default_rng(77)
        for _ in range(200):
            gamma = 10 ** rng.uniform(4, 7)
            wb = 10 ** rng.uniform(6, 8)
            p = SystemParams(
                gamma=gamma, omega_b=wb, delta=rng.uniform(-1, 1) * wb,
                J=rng.uniform(0, 20) * gamma, K=rng.uniform(0, 2) * gamma,
                Lambda=rng.uniform(0, 1e-4) * wb, beta=rng.uniform(0.1, 3.0),
                E=rng.uniform(1e-3, 0.05) * gamma,
                delta_F=rng.choice([-1, 1]) * rng.uniform(0.1, 1) * gamma)
            M = analytic._coefficient_matrix(p)
            assert np.max(np.abs(M - oracle_matrix(p))) <= 1e-14 * np.max(np.abs(M))


class TestSteadyAmplitudes:
    def test_single_driven_mode(self):
        p = SystemParams(gamma=2.0, omega_b=20.0, E=0.01)
        amps = steady_amplitudes(p)
        expected = -p.E / (p.delta - 0.5j * p.gamma)
        assert abs(amps.c01 - expected) < 1e-15
        assert amps.c10 == 0 and amps.c20 == 0

    def test_one_photon_amplitude_closed_form(self):
        # factored closed form of c01, checked verbatim over random draws
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            gamma = 10 ** rng.uniform(4, 7)
            wb = 10 ** rng.uniform(6, 8)
            p = SystemParams(
                gamma=gamma, omega_b=wb, delta=rng.uniform(-1, 1) * wb,
                J=rng.uniform(0, 20) * gamma, K=rng.uniform(0, 2) * gamma,
                Lambda=rng.uniform(0, 1e-4) * wb, E=rng.uniform(1e-3, 0.05) * gamma,
                delta_F=rng.uniform(-1, 1) * gamma)
            da = p.delta - 0.5j * p.gamma
            dm = p.delta - 0.5j * p.gamma
            closed = -(p.K + dm) * p.E / (
                -p.J**2 + p.K * da + da * dm + p.K * p.delta_F + dm * p.delta_F)
            got = steady_amplitudes(p).c01
            assert abs(got - closed) <= 1e-12 * abs(closed)

    def test_matches_full_solve_at_generic_point(self):
        p = make_params(0.3, 2.46e-6, 0.5)
        hier = astuple(steady_amplitudes(p))
        full = oracle_full_solve(p)
        for h, f in zip(hier, full):
            assert abs(h - f) <= 1e-3 * max(abs(f), 1e-12)

    def test_hierarchy_vs_full_g2_half_percent(self):
        for delta in (-0.7, -0.3, 0.2, 0.45, 0.8):
            p = make_params(delta, 2.46e-6, 0.5)
            g_h = g2_analytic(p)
            full = oracle_full_solve(p)
            g_f = 2 * abs(full[4]) ** 2 / abs(full[2]) ** 4
            if g_f > 1e-8:
                assert abs(g_h - g_f) <= 5e-3 * g_f

    def test_weak_drive_hierarchy_ordering(self):
        for delta_wb, lam_wb in PAIRS_CW:
            amps = steady_amplitudes(make_params(delta_wb, lam_wb, 0.5))
            assert abs(amps.c01) < 0.2
            assert abs(amps.c02) < abs(amps.c01)
            assert abs(amps.c00) == 1.0

    @pytest.mark.parametrize("shape", [(4,), (5,), (3, 4)])
    def test_array_point_is_scalar_bit_for_bit(self, shape):
        # each field holds one amplitude at every point, not the five of
        # one point; 5 points is the count at which unpacking the point axis
        # went unnoticed
        deltas = np.linspace(-0.9, 0.8, np.prod(shape)).reshape(shape)
        amps = steady_amplitudes(make_params(deltas, 2.46e-6, 0.5))
        points = [steady_amplitudes(make_params(d, 2.46e-6, 0.5)) for d in deltas.flat]
        assert amps.c00 == 1.0
        for name in ("c10", "c01", "c11", "c02", "c20"):
            expected = np.reshape([getattr(point, name) for point in points], shape)
            np.testing.assert_array_equal(getattr(amps, name), expected)


class TestG2Analytic:
    def test_linear_cavity_is_coherent(self):
        # with J = K = Lambda = 0 the drive makes a coherent state:
        # c02 = c01^2 / sqrt(2), hence g2 = 1 identically
        p = SystemParams(gamma=3.0, omega_b=20.0, delta=1.2, E=0.02,
                         delta_F=0.4)
        assert abs(g2_analytic(p) - 1.0) < 1e-10

    def test_vanishes_at_interference_root(self, working_params):
        pairs = find_optimal_pairs(working_params)
        for pair in pairs:
            p = working_params.replace(delta=pair.delta_opt,
                                       Lambda=pair.lambda_opt)
            assert g2_analytic(p) < 1e-10

    def test_undefined_without_photons(self):
        undriven = SystemParams(gamma=1.0, omega_b=20.0, J=2.0)
        with pytest.raises(UndefinedCorrelationError):
            g2_analytic(undriven)

    def test_undefined_when_photon_population_underflows(self):
        # |c01|^4 ~ 1e-360 is below the smallest double: no silent inf or nan
        faint = SystemParams(gamma=1.0, omega_b=20.0, J=2.0, E=1e-90)
        with pytest.raises(UndefinedCorrelationError):
            g2_analytic(faint)
        with pytest.raises(UndefinedCorrelationError):
            g2_analytic(faint.replace(delta=np.array([0.0, 0.5])))

    def test_subnormal_decay_is_singular(self):
        # gamma/2 underflows to 0, leaving the undetuned hierarchy singular;
        # no RuntimeWarning is involved (pytest makes them errors)
        with pytest.raises(SingularSystemError, match="singular"):
            g2_analytic(SystemParams(gamma=5e-324, omega_b=1.0, E=1.0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # overflows on purpose
    @pytest.mark.parametrize("E_over_gamma, message", [
        (1e200, "amplitudes overflow"),   # c02 ~ E^2 is past the float range
        (1e80, "|c01|^4"),                # |c01|^4 ~ 1e320 would divide to 0 or nan
        (1e-80, "g2(0) overflows"),       # the pair source's c02 over |c01|^4 ~ 1e-320
    ])
    def test_overflow_is_solver_error(self, working_params, E_over_gamma, message):
        p = working_params.replace(delta=-0.684495 * OMEGA_B,
                                   Lambda=2.46157e-6 * OMEGA_B,
                                   E=E_over_gamma * GAMMA)
        with pytest.raises(SolverError, match=re.escape(message)):
            g2_analytic(p)
        with pytest.raises(SolverError, match=re.escape(message)):
            g2_analytic(p.replace(E=np.array([0.005 * GAMMA, p.E])))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # overflows on purpose
    def test_overflow_at_interference_root_is_not_zero(self, working_params):
        # E -> s E with Lambda -> s^2 Lambda keeps the root; at s = 1e80
        # |c01|^4 overflows but |c02|^2 ~ 1e281 does not: the quotient is 0
        pair = find_optimal_pairs(working_params)[0]
        s = 1e80
        p = working_params.replace(delta=pair.delta_opt, E=s * working_params.E,
                                   Lambda=s**2 * pair.lambda_opt)
        with pytest.raises(SolverError, match=re.escape("|c01|^4")):
            g2_analytic(p)


class TestFindOptimalPairs:
    def test_reproduces_published_pairs(self, working_params):
        for df, published in ((0.5, PAIRS_CW), (-0.5, PAIRS_CCW)):
            p = working_params.replace(delta_F=df * GAMMA)
            pairs = find_optimal_pairs(p)
            assert len(pairs) == 2
            for d_exp, l_exp in published:
                best = min(pairs, key=lambda q: abs(q.delta_opt / OMEGA_B - d_exp))
                assert abs(best.delta_opt / OMEGA_B - d_exp) <= 0.01 * abs(d_exp)
                assert abs(best.lambda_opt / OMEGA_B - l_exp) <= 0.01 * abs(l_exp)
                assert best.residual < 1e-12

    def test_results_sorted_by_delta(self, working_params):
        pairs = find_optimal_pairs(working_params)
        deltas = [p.delta_opt for p in pairs]
        assert deltas == sorted(deltas)

    def test_empty_box_when_lambda_excluded(self, working_params):
        # a root's Lambda scales as E^2: at 2 E both pairs sit just inside
        # the box's Lambda <= 1e-5 omega_b, at 4 E (~3.96e-5) they leave it
        double = find_optimal_pairs(working_params.replace(E=2 * working_params.E))
        assert [round(p.lambda_opt / OMEGA_B, 8) for p in double] == [9.90e-6, 9.82e-6]
        strong = working_params.replace(E=4 * working_params.E)
        assert find_optimal_pairs(strong) == []
        # grid oracle: |c02| stays bounded away from zero on the box, 3.41e-8
        # at its least (the same grid falls to 8.5e-9 at 2 E, roots inside)
        floor = min(
            abs(steady_amplitudes(strong.replace(
                delta=d * OMEGA_B, Lambda=lam * OMEGA_B)).c02)
            for d in np.linspace(-1, 1, 41)
            for lam in np.linspace(0.0, 1e-5, 11))
        assert floor > 2e-8

    def test_roots_persist_under_grid_refinement(self, working_params, monkeypatch):
        coarse = find_optimal_pairs(working_params)
        monkeypatch.setattr(analytic, "_SCAN_POINTS", 20 * analytic._SCAN_POINTS)
        fine = find_optimal_pairs(working_params)
        assert len(coarse) == len(fine)
        for a, b in zip(coarse, fine):
            assert abs(a.delta_opt - b.delta_opt) <= 0.01 * abs(a.delta_opt)
            assert abs(a.lambda_opt - b.lambda_opt) <= 0.01 * abs(a.lambda_opt)

    def test_zero_shift_pairs_differ_from_spun_ones(self, working_params):
        pairs = find_optimal_pairs(working_params.replace(delta_F=0.0))
        assert pairs
        for pair in pairs:
            for d_pub, l_pub in PAIRS_CW + PAIRS_CCW:
                same = (abs(pair.delta_opt / OMEGA_B - d_pub) <= 0.005 * abs(d_pub)
                        and abs(pair.lambda_opt / OMEGA_B - l_pub) <= 0.005 * l_pub)
                assert not same

    @pytest.mark.parametrize("beta, expected", [
        (1.0, [-0.7253994, 0.6203567]),
        # the middle root has Lambda = 1.4e-8 omega_b, close to the box edge
        (2.0, [-0.351659, -0.2582169, 0.4906496]),
    ])
    def test_roots_at_nonzero_squeezing_phase(self, working_params, beta, expected):
        p = working_params.replace(beta=beta)
        pairs = find_optimal_pairs(p)
        got = [pair.delta_opt / OMEGA_B for pair in pairs]
        assert len(got) == len(expected)
        for d_got, d_exp in zip(got, expected):
            assert abs(d_got - d_exp) <= 1e-6
        for pair in pairs:
            point = p.replace(delta=pair.delta_opt, Lambda=0.0)
            drive_only = abs(steady_amplitudes(point).c02)
            at_root = abs(steady_amplitudes(point.replace(Lambda=pair.lambda_opt)).c02)
            assert at_root <= 1e-10 * drive_only

    def test_tiny_mismatch_is_bracketed_by_sign(self, working_params):
        # at J = 1e80 rad/s the phase mismatch is ~1e-160 everywhere, so the
        # product of two neighbours underflows to 0 whatever their signs
        assert find_optimal_pairs(working_params.replace(J=1e80)) == []

    def test_unconverged_root_is_solver_error(self, working_params):
        # a +-1e80 rad/s box needs more than brentq's 100 iterations
        with pytest.raises(SolverError, match="did not converge"):
            find_optimal_pairs(working_params.replace(omega_b=1e80))


class TestEvolveAmplitudes:
    """dC/dt = -i M C from the vacuum, by a test-local exp(-i M t)."""

    @staticmethod
    def evolve(p: SystemParams, t: float) -> np.ndarray:
        from scipy.linalg import expm

        return expm(-1j * t * analytic._coefficient_matrix(p))[:, 0]

    def test_vacuum_is_stationary_without_couplings(self):
        p = SystemParams(gamma=1.0, omega_b=20.0, delta=0.4)
        np.testing.assert_array_equal(self.evolve(p, 5.0), [1, 0, 0, 0, 0, 0])

    def test_converges_to_steady_state(self, working_params):
        p = working_params.replace(delta=-0.684495 * OMEGA_B,
                                   Lambda=2.46157e-6 * OMEGA_B)
        state = self.evolve(p, 20 / p.gamma)
        final = state / state[0]   # steady solve fixes c00 = 1
        target = np.array(astuple(steady_amplitudes(p)))
        assert np.max(np.abs(final - target)) < 1e-6
