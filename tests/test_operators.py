"""Operator kernel: ladder matrices and the composite embedding."""

import numpy as np
import pytest

from spinpb import HilbertConfig
from spinpb.errors import DimensionError
from spinpb.lindblad import _generators, build_liouvillian
from spinpb.operators import annihilation, embed_ops


class TestAnnihilation:
    def test_two_level_matrix(self):
        np.testing.assert_array_equal(annihilation(2), [[0, 1], [0, 0]])

    def test_ladder_action_on_one(self):
        a = annihilation(3)
        ket1 = np.array([0, 1, 0], dtype=complex)
        np.testing.assert_array_equal(a @ ket1, [1, 0, 0])

    def test_number_operator(self):
        a = annihilation(5)
        np.testing.assert_allclose(a.conj().T @ a, np.diag(np.arange(5.0)),
                                   atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    def test_entries_are_sqrt_k(self, n):
        a = annihilation(n)
        nonzero = np.nonzero(a)
        assert len(nonzero[0]) == n - 1
        for k in range(1, n):
            assert abs(a[k - 1, k] - np.sqrt(k)) < 1e-15

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_rejects_small_dimension(self, n):
        with pytest.raises(DimensionError):
            annihilation(n)


class TestTensor:
    """The composite space is the Kronecker product magnon (x) photon."""

    def test_first_factor_is_slow_index(self):
        ops = embed_ops(HilbertConfig(3, 3))
        np.testing.assert_allclose(np.diag(ops.n_m),
                                   [0, 0, 0, 1, 1, 1, 2, 2, 2], atol=1e-14)
        np.testing.assert_allclose(np.diag(ops.n_a),
                                   [0, 1, 2, 0, 1, 2, 0, 1, 2], atol=1e-14)


class TestEmbedOps:
    def test_photon_commutator_truncated(self):
        cfg = HilbertConfig(3, 3)
        ops = embed_ops(cfg)
        comm = ops.a @ ops.a_dag - ops.a_dag @ ops.a
        # identity except on the highest photon level of each magnon sector
        for m in range(3):
            for n in range(3):
                idx = cfg.basis_index(m, n)
                expected = 1.0 if n < 2 else -(cfg.n_photon - 1)
                assert abs(comm[idx, idx] - expected) < 1e-12
        off_diag = comm - np.diag(np.diag(comm))
        assert np.max(np.abs(off_diag)) < 1e-12

    def test_distinct_modes_commute(self):
        ops = embed_ops(HilbertConfig(3, 3))
        np.testing.assert_array_equal(ops.a @ ops.m - ops.m @ ops.a,
                                      np.zeros((9, 9)))

    def test_photon_number_eigenvalue(self):
        cfg = HilbertConfig(4, 4)
        ops = embed_ops(cfg)
        ket = np.zeros(cfg.dim, dtype=complex)
        ket[cfg.basis_index(2, 3)] = 1.0
        np.testing.assert_allclose(ops.n_a @ ket, 3.0 * ket, atol=1e-14)

    def test_magnon_number_eigenvalue(self):
        cfg = HilbertConfig(4, 4)
        ops = embed_ops(cfg)
        ket = np.zeros(cfg.dim, dtype=complex)
        ket[cfg.basis_index(2, 3)] = 1.0
        np.testing.assert_allclose(ops.n_m @ ket, 2.0 * ket, atol=1e-14)


class TestHilbertConfig:
    def test_default_truncation(self):
        cfg = HilbertConfig()
        assert (cfg.n_magnon, cfg.n_photon, cfg.dim) == (5, 5, 25)

    @pytest.mark.parametrize("nm,np_", [(2, 5), (5, 2), (1, 1)])
    def test_rejects_too_small(self, nm, np_):
        with pytest.raises(DimensionError):
            HilbertConfig(nm, np_)

    @pytest.mark.parametrize("nm,np_", [(3.0, 3), (3, 4.0), (float("nan"), 3),
                                        (True, 3), (5, False)])
    def test_rejects_non_integer(self, nm, np_):
        with pytest.raises(DimensionError, match="integers"):
            HilbertConfig(nm, np_)

    def test_accepts_numpy_integers(self):
        cfg = HilbertConfig(np.int64(3), np.int32(4))
        assert cfg == HilbertConfig(3, 4) and cfg.dim == 12

    def test_numpy_integers_are_stored_as_ints(self, working_params, cfg55):
        """Narrow numpy sizes would wrap the products dim and dim**2."""
        cfg = HilbertConfig(np.int8(20), np.int8(20))
        assert cfg.dim == 400
        assert type(cfg.n_magnon) is int and type(cfg.n_photon) is int
        # equal configs share one cached table, so each build starts afresh
        _generators.cache_clear()
        narrow = build_liouvillian(working_params,
                                   HilbertConfig(np.uint8(5), np.uint8(5)))
        _generators.cache_clear()
        wide = build_liouvillian(working_params, cfg55)
        np.testing.assert_array_equal(narrow.generator.toarray(),
                                      wide.generator.toarray())

    def test_basis_index_bounds(self):
        cfg = HilbertConfig(3, 4)
        assert cfg.basis_index(2, 3) == 11
        with pytest.raises(DimensionError):
            cfg.basis_index(3, 0)
