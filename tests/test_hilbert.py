import functools
import itertools
import math

import numpy as np
import pytest

from oracles import (letter_loop_partial_trace, operator_with_min_eigenvalue,
                     reported_eigenvalue, state_inner)
from wignerlab import hilbert
from wignerlab import (CompositeSystem, DensityOperator, LevelSpace, kernel_of,
                       mix, partial_trace, pure_density, tensor,
                       to_gaussian_rep, to_lebesgue_rep)
from wignerlab.errors import (InvalidDensity, NonPositiveOperator,
                              RepresentationMismatch, SpecMismatch,
                              UnknownSubsystem, UnnormalizedState,
                              WrongRepresentation)
from wignerlab.lattice import make_phase_space
from wignerlab.hilbert import (LEBESGUE, RHO1, RHO2, StateVector, certify_psd,
                               chebyshev_propagate, chebyshev_terms,
                               exact_propagate, factorization,
                               lowest_eigenvalue, propagate,
                               spectral_interval, tensor_many)
from wignerlab.moyal import EvolutionRun, von_neumann_oracle
from wignerlab.states import displaced_state, ground_state, level_thermal, \
    oscillator_basis, random_mixed, random_pure, thermal_state
from wignerlab.tolerances import TolerancePolicy
from wignerlab.weyl import HamiltonianSymbol, weyl_quantize


def test_gaussian_rep_closed_form(lab64):
    psi = ground_state(lab64)
    phi = to_gaussian_rep(psi)
    q = lab64.grid.positions
    expected = math.pi ** -0.25 * (2 * math.pi) ** 0.25 * np.exp(-q ** 2 / 4)
    assert np.abs(phi.values - expected).max() < 1e-12
    assert abs(phi.norm() - 1.0) < 1e-12
    assert abs(psi.norm() - 1.0) < 1e-12


def test_rep_round_trip_random_state(lab64, rng):
    psi = random_pure(lab64, rng)
    back = to_lebesgue_rep(to_gaussian_rep(psi))
    assert np.abs(back.values - psi.values).max() < 1e-12


def test_oscillator_basis_hands_out_read_only_cache(lab64):
    # a write into the returned arrays would corrupt every later thermal or
    # random draw on this spec
    thermal = thermal_state(lab64, 0.7).matrix.copy()
    evals, evecs = oscillator_basis(lab64, 4)
    for a in (evals, evecs):
        with pytest.raises(ValueError):
            a[0] = 0.0
    again = oscillator_basis(lab64, 4)
    assert np.array_equal(again[0], evals)
    assert np.array_equal(again[1], evecs)
    assert np.array_equal(thermal_state(lab64, 0.7).matrix, thermal)


def test_rep_preserves_trace_and_inner_products(lab64, rng):
    T = random_mixed(lab64, rng)
    Tg = to_gaussian_rep(T)
    assert abs(Tg.trace() - 1.0) < 1e-10
    for _ in range(5):
        a = random_pure(lab64, rng)
        b = random_pure(lab64, rng)
        lhs = state_inner(a, b)
        rhs = state_inner(to_gaussian_rep(a), to_gaussian_rep(b))
        assert abs(lhs - rhs) < 1e-10


def test_wrong_representation_raises(lab64):
    psi = ground_state(lab64)
    with pytest.raises(WrongRepresentation):
        to_lebesgue_rep(psi)
    with pytest.raises(WrongRepresentation):
        to_gaussian_rep(to_gaussian_rep(psi))


def test_pure_density_properties(lab64, rng):
    T = pure_density(ground_state(lab64))
    assert abs(T.purity() - 1.0) < 1e-8
    T.validate()
    lam = np.linalg.eigvalsh(T.matrix)
    assert lam[-2] < 1e-8  # rank one

    a = pure_density(displaced_state(lab64, 2.0, 0.0))
    b = pure_density(displaced_state(lab64, -2.0, 0.0))
    mixed = mix([(0.5, a), (0.5, b)])
    # humps at +/-2 are orthogonal to ~e^(-4): purity 1/2
    assert abs(mixed.purity() - 0.5) < 1e-3

    Tr = random_mixed(lab64, rng)
    Tr.validate()


def test_unnormalized_state_rejected(lab64):
    vals = ground_state(lab64).values * 1.5
    with pytest.raises(UnnormalizedState):
        StateVector(vals, LEBESGUE, lab64)


def test_tensor_and_partial_trace_roundtrip(sys2, spec32c):
    a = pure_density(displaced_state(spec32c, 1.0, 0.0))
    b = pure_density(ground_state(spec32c))
    T = tensor(a, b, sys2)
    assert abs(T.trace() - 1.0) < 1e-12
    assert abs(T.purity() - 1.0) < 1e-10
    Ta = partial_trace(T, "A")
    assert np.abs(Ta.matrix - a.matrix).max() < 1e-10
    Tb = partial_trace(T, "B")
    assert np.abs(Tb.matrix - b.matrix).max() < 1e-10


@pytest.mark.parametrize("dims", [(2, 3, 4), (2, 3, 2, 3)])
def test_partial_trace_equals_letter_loop(dims, rng):
    # every kept subset: non-adjacent ones, and orders like ("C", "A")
    labels = "ABCD"[:len(dims)]
    sys = CompositeSystem(tuple((lab, LevelSpace(d))
                                for lab, d in zip(labels, dims)))
    x = rng.normal(size=(sys.dim, sys.dim)) \
        + 1j * rng.normal(size=(sys.dim, sys.dim))
    T = DensityOperator(x @ x.conj().T, LEBESGUE, sys)
    for r in range(1, len(labels) + 1):
        for keep in itertools.permutations(labels, r):
            got = partial_trace(T, keep)
            want = letter_loop_partial_trace(T, keep)
            assert np.array_equal(got.matrix, want.matrix), keep
            assert got.space == want.space, keep


def _random_level_density(dim, rng):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = x @ x.conj().T
    return DensityOperator(m / np.trace(m).real, LEBESGUE, LevelSpace(dim))


@pytest.fixture(scope="module")
def spec16():
    return make_phase_space(1, 16, 4.6, [[0.4]])


@pytest.mark.parametrize("factors", [
    (2, 3), (3, 2, 4), (2, 3, 2, 5),                      # level products
    ("g16", "g32"), ("g16", 3, "g16"), ("g16", 2, "g16", 3),  # grid products
], ids=["levels2", "levels3", "levels4", "grid2", "grid3", "grid4"])
def test_partial_trace_of_product_from_parts(factors, spec16, spec32c, rng):
    # the product rule against the einsum over the materialised kron: every
    # kept subset (the empty one too), in every order. A dropped block's entry is an einsum sum
    # of d_drop products against one product of traces, so the two differ by
    # rounding bounded by d_drop eps max|red| (0.34 of it measured); with
    # nothing dropped both are the kron itself
    grids = {"g16": spec16, "g32": spec32c}
    labels = "ABCD"[:len(factors)]
    ops, spaces = [], []
    for f in factors:
        if f in grids:
            ops.append(random_mixed(grids[f], rng, 3, max_quanta=2))
            spaces.append(grids[f])
        else:
            ops.append(_random_level_density(f, rng))
            spaces.append(LevelSpace(f))
    sys = CompositeSystem(tuple(zip(labels, spaces)))
    T = tensor_many(ops, sys)
    full = DensityOperator(functools.reduce(np.kron, [op.matrix for op in ops]),
                           LEBESGUE, sys)
    eps = np.finfo(float).eps
    for r in range(len(labels) + 1):
        for keep in itertools.permutations(labels, r):
            got = partial_trace(T, keep)
            want = partial_trace(full, keep)
            assert got.space == want.space and got.parts is None, keep
            d_drop = sys.dim // sys.dim_of(keep)
            if d_drop == 1:
                assert np.array_equal(got.matrix, want.matrix), keep
            bound = d_drop * eps * np.abs(want.matrix).max()
            assert np.abs(got.matrix - want.matrix).max() <= bound, keep
    assert "matrix" not in vars(T)


def test_product_matrix_is_formed_once_on_read(rng):
    ops = [_random_level_density(d, rng) for d in (2, 3, 4)]
    sys = CompositeSystem(tuple(zip("ABC", (LevelSpace(d) for d in (2, 3, 4)))))
    T = tensor_many(ops, sys)
    assert "matrix" not in vars(T)
    m = T.matrix
    assert np.array_equal(m, np.kron(np.kron(ops[0].matrix, ops[1].matrix),
                                     ops[2].matrix))
    assert not m.flags.writeable and T.matrix is m
    # a parts-less operator on the same matrix is equal: parts are not compared
    assert DensityOperator(m, LEBESGUE, sys) == T


def test_density_operator_leaves_the_callers_array_writable():
    m = np.array([[0.75, 0.25j], [-0.25j, 0.25]])
    T = DensityOperator(m, LEBESGUE, LevelSpace(2))
    assert m.flags.writeable and not T.matrix.flags.writeable
    assert np.shares_memory(m, T.matrix)        # a view, not a copy
    with pytest.raises(ValueError):
        T.matrix[0, 0] = 0.0


def test_tensor_mismatches(sys2, spec32c, lab64):
    a = pure_density(ground_state(spec32c))
    wrong = pure_density(ground_state(lab64))
    with pytest.raises(SpecMismatch):
        tensor(a, wrong, sys2)
    g = to_gaussian_rep(a)
    with pytest.raises(RepresentationMismatch):
        tensor(a, g, sys2)
    T = tensor(a, a, sys2)
    with pytest.raises(UnknownSubsystem):
        partial_trace(T, "C")


def test_entangled_reduced_purity_matches_eigen_oracle(sys2, spec32c):
    n = spec32c.n_per_axis
    osc = weyl_quantize(HamiltonianSymbol((((2,), (0,), 0.5),
                                           ((0,), (2,), 0.5)), d=1), spec32c)
    qh = weyl_quantize(HamiltonianSymbol((((1,), (0,), 1.0),), d=1), spec32c)
    H = np.kron(osc, np.eye(n)) + np.kron(np.eye(n), osc) \
        + 0.6 * np.kron(qh, qh)
    _, V = np.linalg.eigh(H)
    T = DensityOperator(np.outer(V[:, 0], V[:, 0].conj()), LEBESGUE, sys2)
    TA = partial_trace(T, "A")
    lam = np.linalg.eigvalsh(TA.matrix)
    assert TA.purity() < 1.0 - 1e-3
    assert abs(TA.purity() - float((lam ** 2).sum())) < 1e-6
    TA.validate()


def test_maximally_mixed_two_level_reduction():
    lv = LevelSpace(2)
    sys = CompositeSystem((("S", lv), ("E", LevelSpace(3))))
    half = DensityOperator(np.eye(2) / 2, LEBESGUE, lv)
    e0 = np.zeros(3)
    e0[0] = 1
    pure = DensityOperator(np.outer(e0, e0), LEBESGUE, LevelSpace(3))
    T = tensor(half, pure, sys)
    red = partial_trace(T, "S")
    assert np.abs(red.matrix - np.eye(2) / 2).max() < 1e-10


def test_kernel_rho1_gaussian_and_apply(lab64):
    T = pure_density(ground_state(lab64))
    k1 = kernel_of(T, RHO1)
    # pure Gaussian state: two-variable Gaussian kernel, symmetric
    q = lab64.grid.positions
    expected = math.sqrt(2 * math.pi) / math.sqrt(math.pi) * np.exp(
        -(q[:, None] ** 2 + q[None, :] ** 2) / 2)
    assert np.abs(k1.values - expected).max() < 1e-10

    phi = to_gaussian_rep(displaced_state(lab64, 0.7, 0.2))
    direct = to_gaussian_rep(T).matrix @ phi.values
    assert np.abs(k1.apply(phi) - direct).max() < 1e-8


def test_kernel_rho2_weight_conversion(lab64):
    T = pure_density(displaced_state(lab64, 1.0, 0.5))
    k1 = kernel_of(T, RHO1)
    k2 = kernel_of(T, RHO2)
    c_mu = math.exp(lab64.mu.log_norm)
    assert np.abs(k2.values - c_mu * k1.values).max() < 1e-8
    phi = to_gaussian_rep(ground_state(lab64))
    direct = to_gaussian_rep(T).matrix @ phi.values
    assert np.abs(k2.apply(phi) - direct).max() < 1e-8


def test_normalized_projector_kernel(lab64):
    n = lab64.hilbert_dim
    T = DensityOperator(np.eye(n) / n, LEBESGUE, lab64)
    k2 = kernel_of(T, RHO2)
    off = k2.values - np.diag(np.diag(k2.values))
    assert np.abs(off).max() < 1e-12 * np.abs(np.diag(k2.values)).max()
    assert abs(T.trace() - 1.0) < 1e-12


def test_psd_floor_reported(lab64):
    T = pure_density(ground_state(lab64))
    bad = T.matrix.copy()
    bad[0, 0] -= 1e-4
    bad[1, 1] += 1e-4
    op = DensityOperator(bad, LEBESGUE, lab64)
    with pytest.raises(NonPositiveOperator):
        op.validate()
    assert lowest_eigenvalue(op.matrix) < -1e-8


# --- the PSD certificate ------------------------------------------------------

def _as_rep(T, rep):
    return to_gaussian_rep(T) if rep == "gaussian" else T


@pytest.mark.parametrize("rep", ["lebesgue", "gaussian"])
def test_validate_accepts_eigenvalue_above_floor(lab64, rep):
    floor = lab64.tol.psd_floor
    _as_rep(operator_with_min_eigenvalue(lab64, -0.5 * floor), rep).validate()


@pytest.mark.parametrize("rep", ["lebesgue", "gaussian"])
def test_validate_reports_eigenvalue_below_floor(lab64, rep):
    floor = lab64.tol.psd_floor
    T = _as_rep(operator_with_min_eigenvalue(lab64, -2 * floor), rep)
    with pytest.raises(NonPositiveOperator) as exc:
        T.validate()
    assert abs(reported_eigenvalue(exc.value) + 2 * floor) < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validate_rejects_non_finite_entry(lab64, bad):
    m = np.array(pure_density(ground_state(lab64)).matrix)
    m[3, 0] = bad
    op = DensityOperator(m, LEBESGUE, lab64)
    with pytest.raises(InvalidDensity):
        op.validate()
    assert math.isnan(lowest_eigenvalue(op.matrix))


@pytest.mark.parametrize("where", [(1, 1), (2, 1), (3, 0)])
def test_certificate_never_accepts_a_nan_factor(where):
    # cholesky returns a NaN factor for a NaN entry instead of raising
    H = np.eye(6, dtype=complex) / 6
    H[where] = H[where[::-1]] = math.nan
    with pytest.raises(NonPositiveOperator, match="nan"):
        certify_psd(H, 1e-8)


# --- tensor products and their factors -----------------------------------------

def test_tensor_many_checks_each_factor_dimension():
    # a 2 (x) 8 product has the right total dimension for 4 (x) 4
    sys = CompositeSystem((("A", LevelSpace(4)), ("B", LevelSpace(4))))
    two = DensityOperator(np.eye(2) / 2, LEBESGUE, LevelSpace(2))
    eight = DensityOperator(np.eye(8) / 8, LEBESGUE, LevelSpace(8))
    with pytest.raises(SpecMismatch):
        tensor_many([two, eight], sys)


def test_tensor_many_checks_representations(sys2, spec32c):
    a = pure_density(ground_state(spec32c))
    g = to_gaussian_rep(a)
    with pytest.raises(RepresentationMismatch):
        tensor_many([a, g], sys2)
    with pytest.raises(RepresentationMismatch):
        tensor_many([g, a], sys2)


def test_tensor_many_keeps_first_tolerances(sys2, spec32c):
    tol = TolerancePolicy(trace_one=1e-6, psd_floor=1e-7)
    a = DensityOperator(pure_density(ground_state(spec32c)).matrix, LEBESGUE,
                        spec32c, tol)
    assert tensor_many([a, a], sys2).tol is tol
    assert tensor(a, a, sys2).tol is tol


def _product_case(case, sys2, spec32c, rng):
    """(operators, system, expected rank) of a product state."""
    if case == "pure_grid":
        return ([pure_density(displaced_state(spec32c, 1.0, 0.3)),
                 pure_density(ground_state(spec32c))], sys2, 1)
    if case == "mixed_grid":
        return ([random_mixed(spec32c, rng, 4, max_quanta=3),
                 pure_density(ground_state(spec32c))], sys2, 4)
    lv = LevelSpace(4)
    e0 = np.eye(4)[:, 0]
    sys4 = CompositeSystem(tuple((lab, lv) for lab in ("P1", "P2", "C1", "C2")))
    ops = [DensityOperator(level_thermal(lv, 0.7), LEBESGUE, lv)] + \
        [DensityOperator(np.outer(e0, e0), LEBESGUE, lv)] * 3
    return ops, sys4, 4


def _kron_factors(ops):
    """(F, w) of a product: the kron of its operators' factorizations."""
    F, w = factorization(ops[0])
    for op in ops[1:]:
        Fo, wo = factorization(op)
        F, w = np.kron(F, Fo), np.kron(w, wo)
    return F, w


def _refuse(*args, **kwargs):
    raise AssertionError("a call that the route should not make")


def test_factorization_without_recorded_factors(spec32c, rng):
    T = random_mixed(spec32c, rng, 3)
    F, w = factorization(T)
    assert F.shape == (spec32c.hilbert_dim, 3)
    assert np.abs((F * w) @ F.conj().T - T.matrix).max() <= 1e-14
    # a Hermitian operator that is not PSD keeps its negative weight
    S = DensityOperator(np.diag([0.75, 0.5, -0.25]), LEBESGUE, LevelSpace(3))
    assert sorted(factorization(S)[1]) == [-0.25, 0.5, 0.75]


def test_gaussian_operators_carry_no_factors(sys2, spec32c):
    g = to_gaussian_rep(pure_density(ground_state(spec32c)))
    assert tensor(g, g, sys2).parts is None
    with pytest.raises(WrongRepresentation):
        factorization(g)


# --- exact propagation on factors ------------------------------------------------

@pytest.fixture(scope="module")
def coupled_two_mode(spec32c):
    """The feedback_d2 shape: two n = 32 oscillators, qq + pp coupled (D = 1024)."""
    n = spec32c.n_per_axis
    osc = weyl_quantize(HamiltonianSymbol((((2,), (0,), 0.5),
                                           ((0,), (2,), 0.5)), d=1), spec32c)
    qh = weyl_quantize(HamiltonianSymbol((((1,), (0,), 1.0),), d=1), spec32c)
    ph = weyl_quantize(HamiltonianSymbol((((0,), (1,), 1.0),), d=1), spec32c)
    eye = np.eye(n)
    H = np.kron(osc, eye) + np.kron(eye, osc) + 0.4 * np.kron(qh, qh) \
        + 0.1 * np.kron(ph, ph)
    evals, evecs = np.linalg.eigh(H)
    return H, evals, evecs


@pytest.mark.parametrize("case, t", [("pure_grid", 0.1), ("mixed_grid", 0.1),
                                     ("mixed_grid", 1.3)])
def test_chebyshev_on_factors_matches_eigh_route(case, t, coupled_two_mode,
                                                 sys2, spec32c, rng):
    H, evals, evecs = coupled_two_mode
    ops, _, rank = _product_case(case, sys2, spec32c, rng)
    T0 = tensor_many(ops, sys2)
    F, w = _kron_factors(T0.parts)
    X = chebyshev_propagate(H, F, t, spectral_interval(H))
    assert X.shape == (sys2.dim, rank)
    ref = exact_propagate(T0.matrix, evals, evecs, t)
    assert np.abs((X * w) @ X.conj().T - ref).max() <= 1e-12


def test_spectral_interval_is_the_whole_array_sum(coupled_two_mode, rng):
    # the row blocks sum each row as the whole |H| does: bitwise bounds
    H, _, _ = coupled_two_mode
    A = rng.standard_normal(H.shape) + 1j * rng.standard_normal(H.shape)
    for M in (H, A + A.conj().T):
        centre = np.diagonal(M).real
        radius = np.abs(M).sum(axis=1) - np.abs(np.diagonal(M))
        assert M.shape == (1024, 1024)
        assert spectral_interval(M) == (float((centre - radius).min()),
                                        float((centre + radius).max()))


def test_chebyshev_trace_and_purity_drift(coupled_two_mode, sys2, spec32c, rng):
    H, _, _ = coupled_two_mode
    T0 = tensor(random_mixed(spec32c, rng, 4, max_quanta=3),
                pure_density(ground_state(spec32c)), sys2)
    X, w = _kron_factors(T0.parts)
    interval = spectral_interval(H)

    def trace_purity(X):
        G = X.conj().T @ X
        return float(w @ G.diagonal().real), float(w @ np.abs(G) ** 2 @ w)

    tr0, pu0 = trace_purity(X)
    for _ in range(10):             # t = 0.3, 0.6, ..., 3.0
        X = chebyshev_propagate(H, X, 0.3, interval)
        tr, pu = trace_purity(X)
        assert abs(tr - tr0) <= 1e-13
        assert abs(pu - pu0) <= 1e-13


def test_chebyshev_interval_and_edge_cases(coupled_two_mode, rng):
    H, evals, _ = coupled_two_mode
    lo, hi = spectral_interval(H)
    assert lo <= evals[0] and evals[-1] <= hi
    X = rng.standard_normal((H.shape[0], 2)) + 0j
    same = chebyshev_propagate(H, X, 0.0, (lo, hi))
    assert np.array_equal(same, X) and same is not X
    # H = c I: a degenerate interval, the propagator is a phase
    c = 2.5
    Hc = c * np.eye(4)
    out = chebyshev_propagate(Hc, X[:4], 0.7, spectral_interval(Hc))
    assert np.abs(out - np.exp(-1j * c * 0.7) * X[:4]).max() <= 1e-14


def test_chebyshev_terms_counts_the_products(coupled_two_mode, rng):
    class Counting:
        def __init__(self, H):
            self.H, self.products = H, 0

        def __matmul__(self, Y):
            self.products += 1
            return self.H @ Y

    H, _, _ = coupled_two_mode
    interval = spectral_interval(H)
    X = rng.standard_normal((H.shape[0], 1)) + 0j
    for t in (0.0, 0.1, 1.3):
        counting = Counting(H)
        chebyshev_propagate(counting, X, t, interval)
        assert counting.products == chebyshev_terms(interval, t)


# --- the route choice -------------------------------------------------------------

def _level_hamiltonian():
    """Four 4-level oscillators, P1C1 and P2C2 coupled by 0.3 x x (D = 256)."""
    lv = LevelSpace(4)
    n, x, eye = lv.number_op(), lv.position_op(), np.eye(4)

    def on(*ops):
        return functools.reduce(np.kron, ops)

    return (on(n, eye, eye, eye) + on(eye, n, eye, eye) + on(eye, eye, n, eye)
            + on(eye, eye, eye, n) + 0.3 * on(x, eye, x, eye)
            + 0.3 * on(eye, x, eye, x))


@pytest.mark.parametrize("case", ["pure_grid", "mixed_grid", "levels"])
def test_product_takes_series_route_matching_eigh(case, coupled_two_mode, sys2,
                                                  spec32c, rng, monkeypatch):
    ops, sys, rank = _product_case(case, sys2, spec32c, rng)
    T0 = tensor_many(ops, sys)
    assert all(part is op for part, op in zip(T0.parts, ops))
    if case == "levels":
        H = _level_hamiltonian()
        evals, evecs = np.linalg.eigh(H)
    else:
        H, evals, evecs = coupled_two_mode
    times = np.array([0.0, 0.1, 0.3])
    with monkeypatch.context() as m:
        m.setattr(hilbert, "exact_propagate", _refuse)
        got = list(propagate(H, T0, times))
    assert "matrix" not in vars(T0)     # the series route never forms it
    assert len(got) == 3 and got[0] is T0
    # the parts' factors, kron'd in order, are the product's
    F, w = _kron_factors(T0.parts)
    assert F.shape == (sys.dim, rank) and w.shape == (rank,)
    assert np.abs((F * w) @ F.conj().T - T0.matrix).max() <= 1e-14
    assert abs(w.sum() - 1.0) <= 1e-14
    if len(ops) == 2:
        T2 = tensor(*ops, sys)
        assert np.array_equal(T2.matrix, T0.matrix)
        assert all(part is op for part, op in zip(T2.parts, ops))
    for t, Tt in zip(times[1:], got[1:]):
        assert Tt.space == sys and Tt.parts is None
        ref = exact_propagate(T0.matrix, evals, evecs, t)
        assert np.abs(Tt.matrix - ref).max() <= 1e-12


def test_propagate_takes_series_route_up_to_half_rank(rng, monkeypatch):
    sys = CompositeSystem((("A", LevelSpace(2)), ("B", LevelSpace(4))))
    e0 = np.eye(2)[:, 0]
    pure = DensityOperator(np.outer(e0, e0), LEBESGUE, LevelSpace(2))
    hot2 = DensityOperator(level_thermal(LevelSpace(2), 0.5), LEBESGUE,
                           LevelSpace(2))
    hot4 = DensityOperator(level_thermal(LevelSpace(4), 0.5), LEBESGUE,
                           LevelSpace(4))
    A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    H = 0.25 * (A + A.conj().T)
    evals, evecs = np.linalg.eigh(H)
    times = [0.0, 0.2]
    half = tensor_many([pure, hot4], sys)          # r = 4 = D/2: series
    full = tensor_many([hot2, hot4], sys)          # r = 8 = D: eigh
    assert np.array_equal(full.matrix, np.kron(hot2.matrix, hot4.matrix))
    with monkeypatch.context() as m:
        m.setattr(hilbert, "exact_propagate", _refuse)
        got_half = list(propagate(H, half, times))
    with monkeypatch.context() as m:
        m.setattr(hilbert, "chebyshev_propagate", _refuse)
        m.setattr(np, "kron", _refuse)             # F is never formed
        got_full = list(propagate(H, full, times))
    for T0, got in ((half, got_half), (full, got_full)):
        assert got[0] is T0
        ref = exact_propagate(T0.matrix, evals, evecs, times[1])
        assert np.abs(got[1].matrix - ref).max() <= 1e-12


def test_oracle_on_a_product_agrees_with_the_eigh_route(coupled_two_mode, sys2,
                                                        spec32c, monkeypatch):
    H, evals, evecs = coupled_two_mode
    T0 = tensor(pure_density(displaced_state(spec32c, 1.0, 0.3)),
                pure_density(ground_state(spec32c)), sys2)
    run = EvolutionRun(dt=0.05, t_end=0.1, stride=1)
    # a low-rank product takes the series route in the oracle too
    monkeypatch.setattr(hilbert, "exact_propagate", _refuse)
    snaps = von_neumann_oracle(T0, H, run)
    assert [t for t, _ in snaps] == run.snapshot_times()
    for t, T in snaps:
        assert T.space == sys2 and T.rep == LEBESGUE
        ref = exact_propagate(T0.matrix, evals, evecs, t)
        assert np.abs(T.matrix - ref).max() <= 1e-12


def test_density_operators_compare_by_value(spec32c, sys2):
    # separate arrays of equal values: the dataclass default raised ValueError
    ops = [pure_density(ground_state(spec32c)),
           pure_density(displaced_state(spec32c, 1.0, 0.0))]
    a, b = tensor_many(ops, sys2), tensor_many(ops, sys2)
    assert a.matrix is not b.matrix and a == b and not a != b
    assert pure_density(ground_state(spec32c)) == ops[0]
    # parts are not compared: a product equals its plain matrix
    assert a == DensityOperator(np.array(a.matrix), LEBESGUE, sys2, a.tol)
    assert a != tensor_many(ops[::-1], sys2)
    assert ops[0] != ops[1]
    assert ops[0] != to_gaussian_rep(ops[0])
    assert ops[0] != DensityOperator(ops[0].matrix, LEBESGUE, spec32c,
                                     TolerancePolicy())
    assert ops[0] != "T"
    with pytest.raises(TypeError):
        hash(a)
