import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import poly_eval, wick_polynomial
from wignerlab import GaussianMeasure, make_phase_space
from wignerlab.engine import fourier_matrix
from wignerlab.errors import (BadGridSize, InsufficientDomain,
                              NonPositiveCovariance, NonSymmetricCovariance)
from wignerlab.tolerances import TolerancePolicy


def test_standard_normal_density_at_origin(lab64):
    assert lab64.mu.density([0.0]) == pytest.approx(
        1 / math.sqrt(2 * math.pi), abs=1e-15)


def test_density_direct_substitution(lab64):
    val = lab64.mu.density([1.0])
    assert val == pytest.approx(math.exp(-0.5) / math.sqrt(2 * math.pi), abs=1e-15)


def test_density_matches_hand_formula_diag():
    mu = GaussianMeasure.from_covariance([[1.0, 0.0], [0.0, 4.0]])
    # independent evaluation: (2 pi)^-1 det^-1/2 exp(-(x^2/1 + y^2/4)/2)
    x, y = 1.0, 2.0
    expected = (1 / (2 * math.pi * math.sqrt(4.0))) * math.exp(
        -0.5 * (x ** 2 / 1.0 + y ** 2 / 4.0))
    assert mu.density([x, y]) == pytest.approx(expected, rel=1e-14)


def test_density_even_symmetry(lab64):
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.uniform(-8, 8, size=1)
        assert lab64.mu.density(x) == pytest.approx(
            lab64.mu.density(-x), abs=1e-15)


def test_nonpositive_covariance_rejected():
    with pytest.raises(NonPositiveCovariance):
        make_phase_space(1, 64, 6.0, [[-1.0]])


def test_nonsymmetric_covariance_rejected():
    with pytest.raises(NonSymmetricCovariance):
        make_phase_space(2, 32, 12.0, [[1.0, 0.5], [0.1, 1.0]])


def test_grid_size_must_be_power_of_two():
    with pytest.raises(BadGridSize):
        make_phase_space(1, 48, 10.0, [[1.0]])
    with pytest.raises(BadGridSize):
        make_phase_space(0, 64, 10.0, [[1.0]])


def test_insufficient_domain_rejected():
    # a 6-sigma box leaves 2.0e-9 of Gaussian mass outside, over the 1e-12 bar
    with pytest.raises(InsufficientDomain):
        make_phase_space(1, 64, 6.0, [[1.0]])


def test_cell_quadrature_exact(lab64):
    assert lab64.grid.position_cell == (2 * 10.0 / 64)
    spec2 = make_phase_space(2, 128, 12.0, np.diag([1.0, 2.0]))
    assert spec2.grid.position_cell == (2 * 12.0 / 128) ** 2


def test_momentum_grid_is_fourier_dual(lab64, rng):
    # the unitary centered DFT is exp(-i p_m q_j)/sqrt(n) on the spec's grids
    grid = lab64.grid
    n = lab64.n_per_axis
    F = fourier_matrix(n)
    dense = np.exp(-1j * np.outer(grid.momenta, grid.positions)) / math.sqrt(n)
    assert np.abs(F - dense).max() < 1e-12
    assert np.abs(F @ F.conj().T - np.eye(n)).max() < 1e-12
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    back = F.conj().T @ (F @ v)
    assert np.abs(back - v).max() < 1e-12


def test_measure_quadratures_are_one(lab64):
    h = lab64.grid.h
    dp = lab64.grid.dp
    mu_q = lab64.mu_density_grid().sum() * h
    assert abs(mu_q - 1.0) < 1e-10
    nu_q = lab64.nu.density_mesh([lab64.grid.momenta]).sum() * dp
    assert abs(nu_q - 1.0) < 1e-10
    mn = lab64.mu_nu_density_grid().sum() * h * dp
    assert abs(mn - 1.0) < 1e-10


def test_measure_quadrature_d2_diag():
    # mu x nu factorizes exactly, so quadrature = (mu sum) * (nu sum);
    # materializing the 128^4 joint grid is pointless
    spec = make_phase_space(2, 128, 12.0, np.diag([1.0, 2.0]))
    mu_q = spec.mu_density_grid().sum() * spec.grid.position_cell
    pm = spec.grid.momenta
    nu_q = spec.nu.density_mesh(
        np.meshgrid(pm, pm, indexing="ij", sparse=True)).sum() \
        * spec.grid.dp ** spec.d
    assert abs(mu_q - 1.0) < 1e-10
    assert abs(nu_q - 1.0) < 1e-10
    assert abs(mu_q * nu_q - 1.0) < 1e-10


def test_momentum_side_domain_guard():
    # large L at small n starves the momentum box of its Gaussian tail
    with pytest.raises(InsufficientDomain):
        make_phase_space(1, 32, 14.0, [[1.0]])


def test_fourier_transform_of_density_matches_covariance(lab64):
    # defining property: FT of the mu density at grid momenta is e^{-p^2 B/2}
    g = lab64.mu_density_grid()
    q = lab64.grid.positions
    p = lab64.grid.momenta
    ft = (np.exp(1j * np.outer(p, q)) @ g) * lab64.grid.h
    assert np.abs(ft - np.exp(-0.5 * p ** 2)).max() < 1e-8


def test_doubling_n_leaves_quadrature(lab64):
    spec2 = make_phase_space(1, 128, 10.0, [[1.0]])
    q1 = lab64.mu_density_grid().sum() * lab64.grid.h
    q2 = spec2.mu_density_grid().sum() * spec2.grid.h
    assert abs(q1 - q2) < 1e-10


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=0.3, max_value=1.5),
       st.floats(min_value=-0.4, max_value=0.4))
def test_spd_covariance_quadrature_property(s, c):
    B = np.array([[1.0, c * s], [c * s, s ** 2 + c ** 2 * 1.0]])
    B = 0.5 * (B + B.T)
    if np.linalg.eigvalsh(B).min() <= 0.05:
        return
    L = 9.0 * math.sqrt(max(B[0, 0], B[1, 1]))
    spec = make_phase_space(2, 128, L, B)
    cell = spec.grid.position_cell
    assert abs(spec.mu_density_grid().sum() * cell - 1.0) < 1e-10


def test_density_grids_are_kept_read_only():
    spec = make_phase_space(1, 64, 10.0, [[1.3]])
    for get, build in (
            (spec.mu_nu_density_grid,
             lambda: spec.mu_nu.density_mesh(spec.grid.phase_mesh())),
            (spec.mu_density_grid,
             lambda: spec.mu.density_mesh(spec.grid.position_mesh()))):
        g = get()
        assert get() is g
        assert not g.flags.writeable
        assert np.array_equal(g, build())
        with pytest.raises(ValueError):
            g[0] = 0.0
        with pytest.raises(ValueError):
            g *= 2.0
        assert np.array_equal(get(), build())


def test_unequal_specs_keep_their_own_grids():
    a = make_phase_space(1, 64, 10.0, [[1.0]])
    b = make_phase_space(1, 64, 10.0, [[1.5]])
    c = make_phase_space(1, 64, 10.0, [[1.0]])
    ga, gb, gc = (s.mu_nu_density_grid() for s in (a, b, c))
    assert a != b and not np.array_equal(ga, gb)
    assert np.array_equal(gb, b.mu_nu.density_mesh(b.grid.phase_mesh()))
    # an equal spec is another instance: it builds its own, equal, grid
    assert a == c and gc is not ga and np.array_equal(gc, ga)
    # the kept grids are no part of equality, hashing or the repr
    assert hash(a) == hash(c) and repr(a) == repr(c)


def test_threads_share_equal_read_only_grids():
    # a grid two threads both build on first use is equal in both
    spec = make_phase_space(1, 64, 10.0, [[0.8]])
    want = spec.mu_nu.density_mesh(spec.grid.phase_mesh())
    got = []
    start = threading.Barrier(6)

    def work():
        start.wait(timeout=10)
        got.append(spec.mu_nu_density_grid())

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 6
    assert all(not g.flags.writeable and np.array_equal(g, want) for g in got)
    assert spec.mu_nu_density_grid() is spec.mu_nu_density_grid()


# --- Wick fields: the pairing recursion against the polynomial oracle --------

# an n = 32 box holds both unit-scale tails only above the strict default
WIDE = TolerancePolicy(domain_tail_mass=1e-9)


def _random_spd(rng, dim):
    A = rng.normal(size=(dim, dim))
    return A @ A.T + 0.5 * dim * np.eye(dim)


def _assert_matches_polynomial(mu, directions, x):
    # relative to the sum of the terms' magnitudes, the scale of the
    # polynomial's own rounding
    poly = wick_polynomial(mu.precision, directions)
    want = poly_eval(poly, x)
    scale = poly_eval({a: abs(c) for a, c in poly.items()},
                      [np.abs(xi) for xi in x])
    assert np.all(np.abs(mu.wick(directions, x) - want) <= 1e-13 * scale)


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_wick_matches_the_polynomial_oracle_at_points(dim):
    rng = np.random.default_rng(dim)
    for order in range(8):
        for _ in range(4):
            mu = GaussianMeasure.from_covariance(_random_spd(rng, dim))
            _assert_matches_polynomial(mu, rng.normal(size=(order, dim)),
                                       rng.uniform(-2, 2, size=dim))


def test_wick_matches_the_polynomial_oracle_on_a_correlated_mesh():
    spec = make_phase_space(2, 32, 7.2, [[1.0, 0.2], [0.2, 0.8]], WIDE)
    mesh = spec.grid.phase_mesh()
    axes = np.eye(4)
    rng = np.random.default_rng(4)
    for order in range(5):
        for _ in range(2):
            _assert_matches_polynomial(
                spec.mu_nu, axes[rng.integers(0, 4, size=order)], mesh)


@pytest.mark.parametrize("cov", [[[1.0]], [[1.0, 0.2], [0.2, 0.8]]],
                         ids=["d1", "d2_correlated"])
def test_one_direction_wick_field_is_the_linear_form_summed_onto_zero(cov):
    # bitwise: each nonzero -(P h)_m x_m added onto +0.0 in axis order, so
    # every zero of the field, the origin's included, is +0.0
    d = len(cov)
    spec = make_phase_space(d, 32, 7.2, cov, WIDE)
    mesh = spec.grid.phase_mesh()
    for h in np.eye(2 * d):
        want = 0.0
        for m, coef in enumerate(-(spec.mu_nu.precision @ h)):
            if coef != 0.0:
                want = want + coef * mesh[m]
        got = spec.mu_nu.wick([h], mesh)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert not np.signbit(got[got == 0.0]).any()
