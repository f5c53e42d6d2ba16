"""Property tests over random weak-drive parameters (hypothesis).

Each property is an independent oracle for one engine: the Liouvillian
against the textbook master equation applied to each basis matrix, the
sparse steady state against a dense solve of the same system, exact
propagation against the dense matrix exponential, the real frame of the
propagation against its defining identities, the optimal-pair search
against the amplitude it claims to cancel, the array-valued amplitude
engine against its own scalar evaluation, bit for bit, and the CSV writer
against per-value ``format``.  Examples are few and derandomized so the suite
stays quick and repeatable.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from spinpb import (
    HilbertConfig,
    SystemParams,
    build_hamiltonian,
    build_liouvillian,
    find_optimal_pairs,
    g2_analytic,
    g2_zero,
    mandel_q,
    steady_amplitudes,
    steady_state,
)
from spinpb.lindblad import (DensityMatrix, _hermitian_frame, _propagate,
                             _split_systems, unvectorize, vectorize)
from spinpb.operators import annihilation, embed_ops
from spinpb.sweep import _write_csv
from conftest import GAMMA, J, OMEGA_B, random_density

FEW = settings(max_examples=12, deadline=None, derandomize=True, database=None)


def between(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# gamma = 1 units; E <= 0.1 gamma keeps every draw in the weak-drive regime
weak_drive_params = st.builds(
    SystemParams, gamma=st.just(1.0), omega_b=st.just(20.0),
    delta=between(-2.0, 2.0), J=between(0.0, 3.0), K=between(0.0, 0.5),
    Lambda=between(0.0, 0.05), beta=between(0.0, 2 * np.pi),
    E=between(0.0, 0.1), delta_F=between(-1.0, 1.0), m_th=between(0.0, 0.1),
    gamma_p=between(0.0, 0.2))


@FEW
@given(params=weak_drive_params)
def test_liouvillian_matches_textbook_master_equation(params):
    # -i[H, rho] + sum (r/2)(2 c rho c+ - {c+c, rho}), one column per basis
    # matrix |j><k| in column-stacked order
    cfg = HilbertConfig(3, 4)
    dim = cfg.dim
    a = np.kron(np.eye(cfg.n_magnon), annihilation(cfg.n_photon))
    m = np.kron(annihilation(cfg.n_magnon), np.eye(cfg.n_photon))
    g = params.gamma
    jumps = [(g, a), (g * (params.m_th + 1), m), (g * params.m_th, m.conj().T),
             (params.gamma_p, a.conj().T @ a)]
    H = build_hamiltonian(params, cfg)

    def master_equation(rho):
        out = -1j * (H @ rho - rho @ H)
        for rate, c in jumps:
            cdc = c.conj().T @ c
            out += 0.5 * rate * (2 * c @ rho @ c.conj().T - cdc @ rho - rho @ cdc)
        return out

    textbook = np.empty((dim**2, dim**2), dtype=complex)
    for col in range(dim**2):
        basis = np.zeros(dim**2, dtype=complex)
        basis[col] = 1.0
        textbook[:, col] = vectorize(master_equation(unvectorize(basis, dim)))
    liou = build_liouvillian(params, cfg)
    # the pattern holds every trace-row position (explicit zeros where L has
    # no entry), and the dense matrix is still the textbook one
    columns = np.repeat(np.arange(dim**2), np.diff(liou.generator.indptr))
    assert set(range(0, dim**2, dim + 1)) <= set(columns[liou.generator.indices == 0])
    L = liou.matrix
    assert np.max(np.abs(L - textbook)) <= 1e-14 * np.max(np.abs(L))


@settings(FEW, max_examples=40)
@given(params=weak_drive_params, e=between(1e-3, 0.1),
       n_magnon=st.integers(3, 5), n_photon=st.integers(3, 5))
def test_sparse_steady_state_matches_dense_solve(params, e, n_magnon, n_photon):
    # the oracle: np.linalg.solve on the trace-row system built from L.matrix
    params = params.replace(E=e)
    cfg = HilbertConfig(n_magnon, n_photon)
    liou = build_liouvillian(params, cfg)
    system = liou.matrix
    system[0, :] = 0.0
    system[0, ::cfg.dim + 1] = 1.0
    # the sparse system is a mask of L: the dense one entry for entry, with
    # only the dim trace entries stored in row 0
    masked, _ = _split_systems(liou)
    np.testing.assert_array_equal(masked.toarray(), system)
    assert np.count_nonzero(masked.indices == 0) == cfg.dim
    rhs = np.zeros(cfg.dim**2, dtype=complex)
    rhs[0] = 1.0
    rho = unvectorize(np.linalg.solve(system, rhs), cfg.dim)
    dense = DensityMatrix(0.5 * (rho + rho.conj().T))
    sparse = steady_state(liou)
    g2 = g2_zero(dense, cfg)
    assert abs(g2_zero(sparse, cfg) - g2) <= 1e-10 * g2
    # Q = n (g2 - 1) can cross zero: scale by n (g2 + 1), the size of its terms
    n = np.real(np.trace(embed_ops(cfg).n_a @ dense.data))
    assert abs(mandel_q(sparse, cfg) - mandel_q(dense, cfg)) <= 1e-10 * n * (g2 + 1)


@FEW
@given(params=weak_drive_params, t=between(0.01, 5.0),
       seed=st.integers(0, 2**32 - 1))
def test_evolve_matches_matrix_exponential(params, t, seed):
    cfg = HilbertConfig(3, 3)
    rho0 = random_density(np.random.default_rng(seed), cfg.dim)
    liou = build_liouvillian(params, cfg)
    rho_t = unvectorize(next(_propagate(liou, vectorize(rho0.data), [t])), cfg.dim)
    exact = unvectorize(expm(liou.matrix * t) @ vectorize(rho0.data), cfg.dim)
    assert np.max(np.abs(rho_t - exact)) <= 1e-10
    DensityMatrix(rho_t).validate()


@FEW
@given(params=weak_drive_params,
       sizes=st.sampled_from([(m, n) for m in range(3, 7) for n in range(3, 7)
                              if m != n]),
       seed=st.integers(0, 2**32 - 1))
def test_hermitian_frame_makes_liouvillian_real(params, sizes, seed):
    # Q L P is real, so propagating real coordinates loses nothing, and P Q
    # is the identity on density matrices
    cfg = HilbertConfig(*sizes)
    liou = build_liouvillian(params, cfg)
    to_matrix, to_frame = _hermitian_frame(cfg.dim)
    real_frame = (to_frame @ liou.generator @ to_matrix).toarray()
    norm = np.abs(liou.matrix).sum(axis=0).max()
    assert np.abs(real_frame.imag).max() <= 1e-14 * norm
    rho = vectorize(random_density(np.random.default_rng(seed), cfg.dim).data)
    assert np.abs(to_matrix @ (to_frame @ rho) - rho).max() <= 1e-15


@FEW
@given(k=between(0.0, 0.5), e=between(1e-3, 0.05), f=between(-1.0, 1.0),
       beta=between(0.0, 2 * np.pi))
def test_pair_search_roots_cancel_c02(k, e, f, beta):
    params = SystemParams(gamma=GAMMA, omega_b=OMEGA_B, J=J, K=k * GAMMA,
                          E=e * GAMMA, delta_F=f * GAMMA, beta=beta)
    for pair in find_optimal_pairs(params):
        point = params.replace(delta=pair.delta_opt, Lambda=0.0)
        drive_only = abs(steady_amplitudes(point).c02)
        at_root = abs(steady_amplitudes(point.replace(Lambda=pair.lambda_opt)).c02)
        assert at_root <= 1e-10 * drive_only


@FEW
@given(params=weak_drive_params, e=between(1e-3, 0.1), f=between(0.01, 1.0),
       beta=between(0.1, 2 * np.pi - 0.1), n=st.integers(1, 40),
       m=st.integers(1, 9))
def test_array_g2_analytic_is_scalar_bit_for_bit(params, e, f, beta, n, m):
    deltas = np.linspace(-2.0, 2.0, n) + params.delta
    lambdas = np.linspace(0.0, 0.05, m)
    for sign in (1.0, -1.0):   # both Sagnac signs
        point = params.replace(E=e, beta=beta, delta_F=sign * f)
        line = g2_analytic(point.replace(delta=deltas))
        grid = g2_analytic(point.replace(delta=deltas[:, None],
                                         Lambda=lambdas[None, :]))
        assert isinstance(line, np.ndarray) and line.shape == (n,)
        assert type(g2_analytic(point)) is float
        assert np.array_equal(
            line, [g2_analytic(point.replace(delta=d)) for d in deltas])
        assert np.array_equal(
            grid, [[g2_analytic(point.replace(delta=d, Lambda=lam))
                    for lam in lambdas] for d in deltas])


# any float: NaN, +-inf, -0.0 and subnormals included
tables = st.integers(1, 4).flatmap(lambda width: st.lists(
    st.lists(st.floats(), min_size=width, max_size=width),
    min_size=1, max_size=20))


@settings(FEW, max_examples=200)
@given(rows=tables)
@example(rows=[[-0.0, 5e-324, float("nan")],
               [float("inf"), -float("inf"), 2.2250738585072009e-308]])
def test_csv_writer_is_per_value_format(rows, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "csv" / "table.csv"
    header = [f"c{k}" for k in range(len(rows[0]))]
    expected = ",".join(header) + "\n" + "".join(
        ",".join(format(v, ".17g") for v in row) + "\n" for row in rows)
    for table in (rows, np.array(rows)):   # the optimal and the sweep form
        _write_csv(path, header, table)
        assert path.read_bytes() == expected.encode()
