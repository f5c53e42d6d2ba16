"""Model layer: Sagnac shift, effective Kerr strength, Hamiltonian builds."""

import numpy as np
import pytest

from spinpb import (
    ConfigError,
    HilbertConfig,
    SpinGeometry,
    SystemParams,
    build_hamiltonian,
    effective_kerr,
    sagnac_shift,
)
from spinpb.operators import embed_ops

GEOM = SpinGeometry(n_index=1.4, radius=30e-6, wavelength=1550e-9,
                    omega_a=2 * np.pi * 193.4e12, c=3.0e8)


class TestSagnacShift:
    def test_no_rotation_no_shift(self):
        assert sagnac_shift(GEOM, 0.0, "cw") == 0.0

    def test_direction_antisymmetry(self):
        cw = sagnac_shift(GEOM, 2 * np.pi * 5e3, "cw")
        ccw = sagnac_shift(GEOM, 2 * np.pi * 5e3, "ccw")
        assert cw == -ccw
        assert cw > 0

    def test_matches_direct_formula(self):
        # independent one-line evaluation of the shift
        omega_rot = 2 * np.pi * 8.2e3
        n, r, lam, c, wa, dn = (GEOM.n_index, GEOM.radius, GEOM.wavelength,
                                GEOM.c, GEOM.omega_a, GEOM.dn_dlambda)
        expected = omega_rot * n * r * wa / c * (1 - 1 / n**2 - lam / n * dn)
        got = sagnac_shift(GEOM, omega_rot, "cw")
        assert abs(got - expected) < 1e-12 * abs(expected)

    def test_dispersion_term(self):
        geom = SpinGeometry(n_index=1.4, radius=30e-6, wavelength=1550e-9,
                            omega_a=GEOM.omega_a, c=3.0e8, dn_dlambda=1.2e4)
        omega_rot = 100.0
        n, lam = geom.n_index, geom.wavelength
        expected = omega_rot * n * geom.radius * geom.omega_a / geom.c \
            * (1 - 1 / n**2 - lam / n * geom.dn_dlambda)
        assert abs(sagnac_shift(geom, omega_rot, "cw")
                   - expected) < 1e-12 * abs(expected)

    @pytest.mark.parametrize("direction", [None, "CW", "sideways", 1])
    def test_rejects_unknown_direction(self, direction):
        """Only "cw" and "ccw" have a sign; anything else is not a CCW drive."""
        with pytest.raises(ConfigError, match="direction must be"):
            sagnac_shift(GEOM, 1e4, direction)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            SpinGeometry(n_index=-1.0, radius=30e-6, wavelength=1550e-9,
                         omega_a=1e9)

    @pytest.mark.parametrize("key, value", [("n_index", float("nan")),
                                            ("radius", float("inf")),
                                            ("dn_dlambda", float("nan"))])
    def test_rejects_non_finite_geometry(self, key, value):
        fields = dict(n_index=1.0, radius=1e-3, wavelength=1e-2, omega_a=1e10)
        with pytest.raises(ConfigError, match=key):
            SpinGeometry(**{**fields, key: value})

    @pytest.mark.parametrize("n_index, omega_rot", [(1.4, float("nan")),
                                                    (1.4, float("inf")),
                                                    (1.4, 1e300), (1e200, 1.0),
                                                    (1e-200, 1.0)])
    def test_rejects_non_finite_shift(self, n_index, omega_rot):
        geom = SpinGeometry(n_index=n_index, radius=30e-6, wavelength=1550e-9,
                            omega_a=GEOM.omega_a)
        with pytest.raises(ConfigError, match="not finite"):
            sagnac_shift(geom, omega_rot, "cw")


class TestEffectiveKerr:
    def test_no_magnomechanical_correction(self):
        assert effective_kerr(123.0, 0.0, 1e7) == 123.0

    def test_exact_cancellation(self):
        g, wb = 2 * np.pi * 1e3, 2 * np.pi * 1e7
        assert effective_kerr(g**2 / wb, g, wb) == 0.0

    def test_zero_omega_b(self):
        with pytest.raises(ConfigError):
            effective_kerr(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("omega_b", [float("nan"), float("inf")])
    def test_non_finite_omega_b(self, omega_b):
        with pytest.raises(ConfigError, match="omega_b"):
            effective_kerr(1.0, 1.0, omega_b)

    @pytest.mark.parametrize("K0, g", [(float("nan"), 1.0), (1.0, float("inf")),
                                       (1.0, 1e200)])
    def test_non_finite_result(self, K0, g):
        with pytest.raises(ConfigError, match="not finite"):
            effective_kerr(K0, g, 1.0)

    def test_negative_omega_b(self):
        with pytest.raises(ConfigError):
            effective_kerr(1.0, 1.0, -1.0)


def _random_params(rng) -> SystemParams:
    gamma = 10 ** rng.uniform(4, 7)
    wb = 10 ** rng.uniform(6, 8)
    return SystemParams(
        gamma=gamma, omega_b=wb,
        delta=rng.uniform(-1, 1) * wb,
        J=rng.uniform(0, 20) * gamma,
        K=rng.uniform(0, 2) * gamma,
        Lambda=rng.uniform(0, 1e-4) * wb,
        beta=rng.uniform(0, 2 * np.pi),
        E=rng.uniform(0, 0.05) * gamma,
        delta_F=rng.uniform(-1, 1) * gamma,
    )


class TestBuildHamiltonian:
    def test_free_spectrum(self):
        cfg = HilbertConfig(4, 3)
        p = SystemParams(gamma=1.0, omega_b=20.0, delta=0.7, delta_F=0.3,
                         K=0.05)
        H = build_hamiltonian(p, cfg)
        for m in range(4):
            for n in range(3):
                idx = cfg.basis_index(m, n)
                expected = (p.delta + p.delta_F) * n + p.delta * m + p.K * m**2
                assert abs(H[idx, idx] - expected) < 1e-14
        off = H - np.diag(np.diag(H))
        assert np.max(np.abs(off)) == 0.0

    def test_hermiticity_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            H = build_hamiltonian(_random_params(rng), HilbertConfig(4, 4))
            assert np.max(np.abs(H - H.conj().T)) < 1e-12 * max(1.0, np.max(np.abs(H)))

    def test_non_hermitian_decay_term(self):
        rng = np.random.default_rng(3)
        p = _random_params(rng)
        cfg = HilbertConfig(4, 4)
        ops = embed_ops(cfg)
        H_h = build_hamiltonian(p, cfg, hermitian=True)
        H_nh = build_hamiltonian(p, cfg, hermitian=False)
        np.testing.assert_array_equal(
            H_nh, H_h - 0.5j * p.gamma * (ops.n_a + ops.n_m))

    def test_two_magnon_element(self):
        cfg = HilbertConfig(4, 4)
        p = SystemParams(gamma=1.0, omega_b=20.0, delta=0.31, K=0.17, J=2.2,
                         E=0.01, Lambda=0.003)
        H = build_hamiltonian(p, cfg)
        idx = cfg.basis_index(2, 0)
        assert abs(H[idx, idx] - (2 * p.delta + 4 * p.K)) < 1e-14

    def test_beam_splitter_block(self):
        cfg = HilbertConfig(5, 5)
        p = SystemParams(gamma=1.0, omega_b=20.0, delta=0.5, J=1.7, K=0.1,
                         Lambda=0.02, E=0.04, delta_F=0.2)
        H = build_hamiltonian(p, cfg)
        for m in range(1, 5):
            for n in range(0, 4):
                element = H[cfg.basis_index(m - 1, n + 1), cfg.basis_index(m, n)]
                assert abs(element - p.J * np.sqrt(m * (n + 1))) < 1e-12

    def test_pair_source_block(self):
        cfg = HilbertConfig(4, 5)
        for beta in (0.0, 0.9):
            p = SystemParams(gamma=1.0, omega_b=20.0, delta=0.5, J=1.7, K=0.1,
                             Lambda=0.02, beta=beta, E=0.04)
            H = build_hamiltonian(p, cfg)
            for m in range(4):
                for n in range(3):
                    element = H[cfg.basis_index(m, n + 2), cfg.basis_index(m, n)]
                    expected = 1j * p.Lambda * np.exp(1j * beta) \
                        * np.sqrt((n + 1) * (n + 2))
                    assert abs(element - expected) < 1e-12
                    if beta == 0.0:
                        assert abs(element.real) < 1e-15


class TestSystemParams:
    def test_rejects_bad_rates(self):
        with pytest.raises(ConfigError):
            SystemParams(gamma=0.0, omega_b=1.0)
        with pytest.raises(ConfigError):
            SystemParams(gamma=1.0, omega_b=-2.0)
        with pytest.raises(ConfigError):
            SystemParams(gamma=1.0, omega_b=1.0, m_th=-0.1)
        with pytest.raises(ConfigError):
            SystemParams(gamma=1.0, omega_b=1.0, gamma_p=-1.0)
        with pytest.raises(ConfigError):
            SystemParams(gamma=1.0, omega_b=1.0, Lambda=-1.0)

    @pytest.mark.parametrize("key", ["gamma", "omega_b", "delta", "E",
                                     "m_th", "Lambda"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    def test_rejects_non_finite(self, key, value):
        with pytest.raises(ConfigError, match="finite"):
            SystemParams(**{"gamma": 1.0, "omega_b": 20.0, key: value})

    @pytest.mark.parametrize("key", ["gamma", "omega_b", "delta", "J", "K",
                                     "Lambda", "beta", "E", "delta_F", "m_th",
                                     "gamma_p"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_rejects_non_finite_array_element(self, key, bad):
        values = np.full((2, 3), 0.5)
        values[1, 2] = bad
        with pytest.raises(ConfigError, match="finite"):
            SystemParams(**{"gamma": 1.0, "omega_b": 20.0, key: values})

    @pytest.mark.parametrize("key", ["Lambda", "m_th", "gamma_p", "gamma",
                                     "omega_b"])
    def test_rejects_out_of_range_array_element(self, key):
        values = np.array([0.5, 0.1, -1e-12, 0.3])
        with pytest.raises(ConfigError):
            SystemParams(**{"gamma": 1.0, "omega_b": 20.0, key: values})

    def test_weak_drive_flag(self):
        assert not SystemParams(gamma=1.0, omega_b=1.0, E=0.05).weak_drive_warning
        assert SystemParams(gamma=1.0, omega_b=1.0, E=0.2).weak_drive_warning

    def test_replace(self):
        p = SystemParams(gamma=1.0, omega_b=2.0, J=3.0)
        q = p.replace(delta=0.5)
        assert q.delta == 0.5 and q.J == 3.0 and p.delta == 0.0
