"""The centered-DFT kernel and the lattice maps built on it, checked against
dense phase matrices and explicit Weyl unitaries at small and odd-half n."""

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (centered_dft_by_table, chi_by_explicit_unitaries,
                     chi_to_density_by_cocycle, density_to_chi_by_cocycle,
                     density_to_wigner_by_chi, fd4_by_rolls, gemm_along_axis,
                     rfft_derivative, wigner_to_chi, wigner_to_density_by_chi)
from wignerlab import engine
from wignerlab.engine import (apply_matrix, centered_dft, chi_to_wigner,
                              density_to_chi, density_to_wigner,
                              derivative_matrix, fd4_matrix, fourier_matrix,
                              wigner_to_density)
from wignerlab.lattice import Grid
from wignerlab.wigner import symplectic_fourier

even_n = st.integers(1, 32).map(lambda k: 2 * k)


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _dense_centered(x, axes, sign, L=1.7):
    """sum_k x_k exp(sign i p_j q_k) by one dense phase matrix per axis."""
    for ax in axes:
        g = Grid(1, x.shape[ax], L)
        E = np.exp(sign * 1j * np.outer(g.momenta, g.positions))
        x = np.moveaxis(np.tensordot(E, x, axes=([1], [ax])), 0, ax)
    return x


@settings(max_examples=60, deadline=None)
@given(dims=st.lists(even_n, min_size=1, max_size=3),
       batch=st.lists(st.integers(1, 3), max_size=2),
       sign=st.sampled_from([-1, 1]), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_centered_dft_matches_dense_phase_product(dims, batch, sign, seed, data):
    assume(math.prod(dims) <= 4096)
    axes = data.draw(st.lists(st.sampled_from(range(len(dims))), min_size=1,
                              unique=True))
    x = _complex(np.random.default_rng(seed), dims + batch)
    got = centered_dft(x, axes, sign)
    expected = _dense_centered(x, axes, sign)
    scale = np.abs(x).max() * math.prod(dims[ax] for ax in axes)
    assert got.shape == x.shape
    assert np.abs(got - expected).max() < 1e-13 * scale


def test_centered_dft_n2_where_half_n_is_odd():
    # q = (-L, 0), p = (-pi/L, 0): exp(-i p_j q_k) = [[e^{-i pi}, 1], [1, 1]]
    x = np.array([2.0, 3.0j])
    assert np.allclose(centered_dft(x, (0,), -1), [-2.0 + 3.0j, 2.0 + 3.0j],
                       atol=1e-15)
    assert np.allclose(centered_dft(x, (0,), +1), [-2.0 + 3.0j, 2.0 + 3.0j],
                       atol=1e-15)


def test_centered_dft_is_bitwise_the_sign_table_kernel(rng):
    # no sign table of the field's shape is built, but every entry still gets
    # the one complex product with +-1 that the table gives it, so the bits
    # (signed zeros of real input included) are kept. n = 2 and 6 on one
    # axis and the (6, 4) field have an odd sum of n/2
    cases = [(x, (0,)) for n in (2, 6, 64)
             for x in (_complex(rng, (n, 3)), np.eye(n))]
    cases += [(x, (0, 1)) for x in (_complex(rng, (6, 4)), np.eye(6, 4))]
    for x, axes in cases:
        for sign in (-1, 1):
            expected = centered_dft_by_table(x, axes, sign)
            assert centered_dft(x, axes, sign).tobytes() == \
                expected.tobytes(), (x.shape, axes, sign)
            y = x.astype(complex)
            assert centered_dft(y, axes, sign, out=y).tobytes() == \
                expected.tobytes(), (x.shape, axes, sign)


def test_centered_dft_leaves_input_untouched(rng):
    # and so do the lattice maps; their cached tables are read-only
    x = _complex(rng, (8, 4))
    keep = x.copy()
    centered_dft(x, (0, 1), -1)
    assert np.array_equal(x, keep)
    axes = [(6, 2.0), (4, 1.5)]
    T = _complex(rng, (24, 24))
    keep = T.copy()
    for f in (density_to_wigner, wigner_to_density, density_to_chi,
              chi_to_wigner):
        f(T.reshape(6, 4, 6, 4), axes)
        assert np.array_equal(T, keep), f.__name__
    for table in (engine._diag_index, engine._scatter_index,
                  engine._half_cell):
        for n in (4, 6):
            assert not table(n).flags.writeable
            assert table(n) is table(n)


STAGES = (engine._shift, engine._unshift, engine._to_p, engine._from_p)


def test_stage_matrices_are_cached_read_only_fft_images(rng):
    # each dense kernel is its stage's FFTs applied to the unit vectors, so
    # it is the same linear map; one matrix per (stage, n), never rebuilt
    for stage in STAGES:
        for n in (2, 6, engine.DENSE_MAX):
            M = engine._matrix(stage, n)
            assert M.shape == (n, n) and not M.flags.writeable
            assert M is engine._matrix(stage, n)
            x = _complex(rng, (3, n, 5))
            by_fft = np.empty_like(x)
            stage(x, by_fft, n)
            by_gemm = np.empty_like(x)
            engine._apply(stage, x, by_gemm)
            assert _rel(by_gemm, by_fft) <= 1e-14, (stage.__name__, n)


def test_one_size_rule_picks_the_kernel_of_every_map(rng, monkeypatch):
    # at n <= DENSE_MAX every stage of the direct pair is a GEMM (no FFT
    # runs once the matrices are cached), above it every stage is FFTs; the
    # Weyl-sample maps are centered DFTs on every side of the rule
    maps = (density_to_wigner, wigner_to_density)

    def refuse(*args, **kwargs):
        raise AssertionError("wrong kernel")

    for n, refused in ((engine.DENSE_MAX, "fft"),
                       (engine.DENSE_MAX + 2, "matmul")):
        axes = [(n, 3.0)]
        T = _complex(rng, (n, n))
        for f in maps:
            f(T, axes)
        with monkeypatch.context() as m:
            if refused == "fft":
                for name in ("fft", "ifft", "fftn", "ifftn"):
                    m.setattr(np.fft, name, refuse)
            else:
                m.setattr(np, "matmul", refuse)
            for f in maps:
                f(T, axes)
    axes = [(engine.DENSE_MAX, 3.0)]
    T = _complex(rng, (engine.DENSE_MAX, engine.DENSE_MAX))
    with monkeypatch.context() as m:
        m.setattr(np, "matmul", refuse)
        chi_to_wigner(density_to_chi(T, axes), axes)


@given(n=even_n)
@settings(max_examples=10, deadline=None)
def test_fourier_matrix_is_the_unitary_dense_dft(n):
    F = fourier_matrix(n)
    assert np.abs(F - _dense_centered(np.eye(n), (0,), -1) / math.sqrt(n)).max() < 1e-13
    assert np.abs(F @ F.conj().T - np.eye(n)).max() < 1e-13


def _spec_stub(n, L):
    return SimpleNamespace(n_per_axis=n, grid=Grid(1, n, L))


def test_density_to_chi_matches_explicit_unitaries_at_small_n(rng):
    for n, L in ((2, 3.0), (4, 2.5), (8, 4.0)):
        T = _complex(rng, (n, n))
        chi = density_to_chi(T, [(n, L)])
        oracle = chi_by_explicit_unitaries(T, _spec_stub(n, L))
        assert np.abs(chi - oracle).max() < 1e-13 * np.abs(T).sum()


def test_two_axis_maps_factorize_over_kron(rng):
    (n1, L1), (n2, L2) = axes = [(8, 4.0), (4, 2.5)]
    T1, T2 = _complex(rng, (n1, n1)), _complex(rng, (n2, n2))
    chi = density_to_chi(np.kron(T1, T2), axes)
    c1 = density_to_chi(T1, [(n1, L1)])
    c2 = density_to_chi(T2, [(n2, L2)])
    expected = np.einsum('ab,cd->acbd', c1, c2)
    assert np.abs(chi - expected).max() < 1e-13 * np.abs(expected).max()
    W = chi_to_wigner(chi, axes)
    W1 = chi_to_wigner(c1, [(n1, L1)])
    W2 = chi_to_wigner(c2, [(n2, L2)])
    expected_w = np.einsum('ab,cd->acbd', W1, W2)
    assert np.abs(W - expected_w).max() < 1e-13 * np.abs(expected_w).max()


def test_symplectic_fourier_factorizes_over_axes(rng):
    # fields are laid out (q1, q2, p1, p2); the transform swaps the q and p
    # blocks axis by axis, so a product field maps to the product of images
    (n1, L1), (n2, L2) = axes = [(8, 4.0), (4, 2.5)]
    g1, g2 = _complex(rng, (n1, n1)), _complex(rng, (n2, n2))
    f = np.einsum('ab,cd->acbd', g1, g2)
    for sign in (-1, 1):
        F1 = symplectic_fourier(g1, [(n1, L1)], sign)
        F2 = symplectic_fourier(g2, [(n2, L2)], sign)
        expected = np.einsum('ab,cd->acbd', F1, F2)
        got = symplectic_fourier(f, axes, sign)
        assert np.abs(got - expected).max() < 1e-14 * np.abs(f).sum()
        back = symplectic_fourier(got, axes, -sign)
        assert np.abs(back - f).max() < 1e-13 * np.abs(f).max()


@settings(max_examples=25, deadline=None)
@given(dims=st.lists(st.sampled_from([2, 4, 8, 16]), min_size=1, max_size=2),
       L=st.floats(0.5, 20.0), seed=st.integers(0, 2 ** 32 - 1))
def test_maps_are_exact_inverses_on_arbitrary_matrices(dims, L, seed):
    axes = [(n, L) for n in dims]
    N = math.prod(dims)
    T = _complex(np.random.default_rng(seed), (N, N))
    chi = density_to_chi(T, axes)
    back = chi_to_density_by_cocycle(chi, axes).reshape(N, N)
    assert np.abs(back - T).max() < 1e-13 * np.abs(T).max() * N
    again = wigner_to_chi(chi_to_wigner(chi, axes), axes)
    assert np.abs(again - chi).max() < 1e-13 * np.abs(chi).max() * N


# shapes of the direct-map references: n/2 odd (2, 6, 10, 30, 34), unequal
# axes and three axes; both sides of DENSE_MAX = 32 (dense GEMMs at 32 and
# below, FFTs at 34, 48 and up) and one shape with an axis of each kind
DIRECT_SHAPES = ([2], [6], [10], [30], [32], [34], [48], [64], [256],
                 [16, 16], [32, 32], [6, 10], [8, 6], [16, 64], [4, 6, 8])


def _rel(got, expected):
    return np.abs(got - expected).max() / np.abs(expected).max()


def test_direct_maps_match_the_weyl_sample_route(rng):
    for dims in DIRECT_SHAPES:
        axes = [(n, 1.0 + 0.1 * n) for n in dims]
        N = math.prod(dims)
        T = _complex(rng, (N, N))
        W = density_to_wigner(T, axes)
        assert W.shape == tuple(dims + dims) and W.flags.c_contiguous
        assert _rel(W, density_to_wigner_by_chi(T, axes)) <= 1e-14, dims
        V = _complex(rng, dims + dims)
        back = wigner_to_density(V, axes)
        assert back.shape == (N, N)
        assert _rel(back, wigner_to_density_by_chi(V, axes)) <= 1e-14, dims
        assert _rel(wigner_to_density(W, axes), T) <= 1e-14, dims
        C = V.astype(complex)
        by_fft = centered_dft(C, range(2 * len(dims)), +1) * (
            math.prod(2.0 * math.pi / n for n in dims)
            / (2.0 * math.pi) ** (2 * len(dims)))
        assert np.array_equal(chi_to_wigner(C, axes), by_fft), dims


def test_weyl_samples_match_the_cocycle_table(rng):
    for dims in DIRECT_SHAPES:
        axes = [(n, 1.0 + 0.1 * n) for n in dims]
        N = math.prod(dims)
        T = _complex(rng, (N, N))
        assert _rel(density_to_chi(T, axes),
                    density_to_chi_by_cocycle(T, axes)) <= 1e-14, dims


# --- one-axis derivative matrices -------------------------------------------

ORDERS = range(1, 8)
EVEN_N = range(2, 65, 2)


def _spacing(n, L=4.0):
    return 2.0 * L / n


def _along(M, x, axis, out=None):
    """engine.apply_matrix of M along `axis` of x, viewed as (pre, n, post),
    written into `out` (allocated when None) and returned."""
    if out is None:
        out = np.empty(x.shape, np.result_type(M, x))
    view = (math.prod(x.shape[:axis]), x.shape[axis], -1)
    apply_matrix(M, x.reshape(view), out.reshape(view))
    return out


def _rel_err(got, expected, x):
    return np.abs(got - expected).max() / max(np.abs(expected).max(),
                                               np.abs(x).max())


def test_spectral_matrix_matches_rfft_pair(rng):
    for n in EVEN_N:
        x = rng.normal(size=(n, 3))
        for o in ORDERS:
            D = derivative_matrix(n, _spacing(n), o)
            assert D.shape == (n, n) and D.dtype == np.float64
            expected = rfft_derivative(x, 0, _spacing(n), o)
            assert _rel_err(D @ x, expected, x) <= 1e-12, (n, o)


def test_spectral_matrix_on_every_axis_of_a_d2_field(rng):
    # (q1, q2, p1, p2) at n = 16, the p-axes on their own spacing
    n = 16
    x = rng.normal(size=(n,) * 4)
    spacings = [_spacing(n)] * 2 + [math.pi / 4.0] * 2
    for ax, h in enumerate(spacings):
        for o in ORDERS:
            got = _along(derivative_matrix(n, h, o), x, ax)
            expected = rfft_derivative(x, ax, h, o)
            assert _rel_err(got, expected, x) <= 1e-12, (ax, o)


def test_spectral_matrix_keeps_the_nyquist_rule():
    # the Nyquist mode (-1)^j: odd orders drop it, even orders scale it by
    # the real (i k_N)^o
    for n in (2, 8, 64):
        h = _spacing(n)
        nyq = (-1.0) ** np.arange(n)
        for o in ORDERS:
            got = derivative_matrix(n, h, o) @ nyq
            expected = 0.0 if o % 2 else (1j * math.pi / h) ** o * nyq
            assert np.abs(got - expected).max() <= 1e-12 * (math.pi / h) ** o


def test_fd4_matrix_matches_roll_stencil(rng):
    for n in EVEN_N:
        x = rng.normal(size=(n, 3))
        for o in ORDERS:
            D = fd4_matrix(n, _spacing(n), o)
            expected = fd4_by_rolls(x, 0, _spacing(n), o)
            assert _rel_err(D @ x, expected, x) <= 1e-12, (n, o)
    x = rng.normal(size=(8,) * 4)
    for ax in range(4):
        got = _along(fd4_matrix(8, 0.7, 3), x, ax)
        assert _rel_err(got, fd4_by_rolls(x, ax, 0.7, 3), x) <= 1e-12


def test_matrix_symmetry_follows_order_parity_and_mass_is_kept():
    for build in (derivative_matrix, fd4_matrix):
        for n in (2, 4, 16, 64):
            for o in ORDERS:
                D = build(n, _spacing(n), o)
                scale = np.abs(D).max() * n
                # every column sums to zero: sum_i (D x)_i = 0 for every x
                assert np.abs(D.sum(axis=0)).max() <= 1e-13 * scale
                if o % 2:
                    assert np.abs(D + D.T).max() <= 1e-13 * scale, (build, n, o)
                else:
                    assert np.abs(D - D.T).max() <= 1e-13 * scale, (build, n, o)


def test_last_axis_gemm_is_bitwise_free_of_matrix_order(rng):
    # the bracket plan stores last-axis matrices in Fortran order so that the
    # M.T it multiplies by is C-contiguous; the product must not change.
    # (20,) * 4 has 8000 last-axis rows: a full block of engine._ROWS and a
    # partial one
    for shape in ((64, 64), (32,) * 4, (20,) * 4):
        n = shape[-1]
        x = rng.normal(size=shape)
        for build, o in ((derivative_matrix, 1), (derivative_matrix, 3),
                         (fd4_matrix, 1)):
            M = build(n, _spacing(n), o)
            got = _along(np.asfortranarray(M), x, len(shape) - 1)
            assert got.tobytes() == _along(M, x, len(shape) - 1) \
                .tobytes(), (shape, build, o)


def test_gemm_into_out_is_bitwise_the_allocating_product(rng):
    # the bracket plan writes each term's last derivative into one scratch
    # field; that must be the same product, on every axis, and the blocks of
    # engine._ROWS rows (the last axis) or columns (the first axis of 32^4)
    # must be bitwise the one-call product. The lattice stages' complex
    # matrices go through the same applier.
    cases = []
    for shape in ((64, 64), (32,) * 4, (20,) * 4):
        n = shape[-1]
        cases.append((rng.normal(size=shape),
                      derivative_matrix(n, _spacing(n), 1)))
    z = _complex(rng, (32,) * 4)
    cases += [(z, engine._matrix(stage, 32)) for stage in STAGES]
    for x, M in cases:
        out = np.empty(x.shape, np.result_type(M, x))
        for ax in range(x.ndim):
            A = np.asfortranarray(M) if ax == x.ndim - 1 else M
            got = _along(A, x, ax, out=out)
            assert got is out
            assert out.tobytes() == _along(A, x, ax).tobytes(), (x.shape, ax)
            assert out.tobytes() == gemm_along_axis(A, x, ax).tobytes(), \
                (x.shape, ax)
