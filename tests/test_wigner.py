import math
import warnings

import numpy as np
import pytest

from oracles import (chi_by_explicit_unitaries, operator_with_min_eigenvalue,
                     reported_eigenvalue)
from wignerlab import (DensityOperator, HamiltonianSymbol, expectation,
                       eta_density, eta_to_wigner, inverse_wigner,
                       make_phase_space, pair_expectation, partial_trace,
                       pure_density, purity_estimate, reduce_eta, reduce_wigner,
                       symplectic_fourier, tensor, total_variation,
                       weyl_samples_field, wigner_from_density,
                       wigner_from_weyl_function)
from wignerlab import engine
from wignerlab.engine import density_to_wigner, wigner_to_density
from wignerlab.errors import (GridMismatch, InvalidDensity, NonPositiveOperator,
                              NotNormalized, SpecMismatch, UnderflowRegion,
                              UnknownSubsystem)
from wignerlab.hilbert import LEBESGUE, CompositeSystem, lowest_eigenvalue
from wignerlab.states import (analytic_gaussian_wigner, cat_state,
                              displaced_state, ground_state, random_mixed)
from wignerlab.tolerances import TolerancePolicy
from wignerlab.verify import check_normalization_and_bound
from wignerlab.wigner import WEYL_SAMPLES, PhaseSpaceField


def test_ground_state_closed_form(lab64):
    T = pure_density(ground_state(lab64))
    W = wigner_from_density(T)
    expected = analytic_gaussian_wigner(lab64)
    assert np.abs(W.values - expected.values).max() < 1e-8
    assert abs(W.integrate().real - 1.0) < 1e-8
    assert abs(purity_estimate(W) - 1.0) < 1e-6


def test_displaced_state_closed_form(lab64):
    T = pure_density(displaced_state(lab64, 2.0, 1.0))
    W = wigner_from_density(T)
    expected = analytic_gaussian_wigner(lab64, 2.0, 1.0)
    assert np.abs(W.values - expected.values).max() < 1e-8


def test_displaced_state_at_d2_is_the_product_of_two_d1_states():
    # a number is the same displacement on every axis, a vector of another
    # length than d a library error
    spec2 = make_phase_space(2, 32, 5.5, 0.5 * np.eye(2))
    one = displaced_state(make_phase_space(1, 32, 5.5, [[0.5]]), 1.0, -0.3)
    psi = displaced_state(spec2, 1.0, -0.3)
    assert np.abs(psi.values - np.kron(one.values, one.values)).max() < 1e-14
    assert (analytic_gaussian_wigner(spec2, 1.0).values.tobytes()
            == analytic_gaussian_wigner(spec2, [1.0, 1.0]).values.tobytes())
    for make in (displaced_state, analytic_gaussian_wigner):
        with pytest.raises(SpecMismatch, match="not d = 2"):
            make(spec2, [1.0, 0.0, 2.0], 0.0)


def test_cat_state_negativity(lab_cat):
    # the odd cat reaches -1/pi at the origin; the even one stays shallower
    Wodd = wigner_from_density(pure_density(cat_state(lab_cat, 2.0, "odd")))
    assert Wodd.values.min() < -0.25
    assert abs(Wodd.values.min() + 1 / math.pi) < 1e-3
    assert abs(Wodd.integrate().real - 1.0) < 1e-8
    Weven = wigner_from_density(pure_density(cat_state(lab_cat, 2.0, "even")))
    assert Weven.values.min() < -0.05
    assert abs(Weven.integrate().real - 1.0) < 1e-8


def test_mixed_state_positive_and_normalized(lab64):
    a = pure_density(displaced_state(lab64, 1.5, 0.0))
    b = pure_density(displaced_state(lab64, -1.5, 0.0))
    from wignerlab import mix
    W = wigner_from_density(mix([(0.5, a), (0.5, b)]))
    assert W.values.min() > -1e-8
    assert abs(W.integrate().real - 1.0) < 1e-8


def test_pointwise_bound_random_states(lab64, rng):
    peak = check_normalization_and_bound(lab64, 10, rng)["peak"]
    assert peak <= 1 / math.pi + 1e-8


def test_marginals(lab64):
    T = pure_density(displaced_state(lab64, 1.0, -0.5))
    W = wigner_from_density(T)
    pos = W.values.sum(axis=1) * lab64.grid.dp
    diag = np.real(np.diag(T.matrix)) / lab64.grid.position_cell
    assert np.abs(pos - diag).max() < 1e-8
    # momentum marginal against the Fourier-side density
    psi = displaced_state(lab64, 1.0, -0.5).values
    p = lab64.grid.momenta
    q = lab64.grid.positions
    psihat = (np.exp(-1j * np.outer(p, q)) @ psi) * lab64.grid.h \
        / math.sqrt(2 * math.pi)
    mom = W.values.sum(axis=0) * lab64.grid.h
    assert np.abs(mom - np.abs(psihat) ** 2).max() < 1e-8


def test_route_equivalence_vs_explicit_unitaries(lab64, rng):
    T = random_mixed(lab64, rng)
    W1 = wigner_from_density(T)
    chi = chi_by_explicit_unitaries(T.matrix, lab64)
    samples = PhaseSpaceField(chi, WEYL_SAMPLES, lab64, "lebesgue", lab64.tol)
    W2 = wigner_from_weyl_function(samples)
    assert np.abs(W1.values - W2.values).max() < 1e-10


def test_weyl_route_zero_frequency_is_mass(lab64, rng):
    T = random_mixed(lab64, rng)
    samples = weyl_samples_field(T)
    n = lab64.n_per_axis
    # sample at h = 0 is the trace; the transform preserves total mass
    assert abs(samples.values[n // 2, n // 2] - 1.0) < 1e-10
    W = wigner_from_weyl_function(samples)
    assert abs(W.integrate().real - 1.0) < 1e-8


def test_weyl_route_takes_only_weyl_sample_fields(lab64, rng):
    T = random_mixed(lab64, rng)
    samples = weyl_samples_field(T)
    with pytest.raises(GridMismatch):
        wigner_from_weyl_function(np.asarray(samples.values))
    with pytest.raises(GridMismatch):
        wigner_from_weyl_function(wigner_from_density(T))


def test_weyl_route_conjugate_symmetric_input_gives_real(lab64, rng):
    T = random_mixed(lab64, rng)
    W = wigner_from_weyl_function(weyl_samples_field(T))
    assert np.isrealobj(W.values)


def test_kernel_route_does_not_pass_through_the_weyl_samples(lab64, sys2,
                                                          monkeypatch, rng):
    # with the sample maps disabled, the kernel route and its inverse still
    # run, so the route-equivalence check compares two computations
    def disabled(*args):
        raise AssertionError("the kernel route reached the Weyl-sample maps")

    (_, a), (_, b) = sys2.factors
    states = [random_mixed(lab64, rng),
              tensor(pure_density(displaced_state(a, 1.0, 0.0)),
                     pure_density(ground_state(b)), sys2)]
    via_samples = [wigner_from_weyl_function(weyl_samples_field(T))
                   for T in states]
    monkeypatch.setattr(engine, "density_to_chi", disabled)
    monkeypatch.setattr(engine, "chi_to_wigner", disabled)
    fields = [wigner_from_density(T) for T in states]
    for W, W2 in zip(fields, via_samples):
        assert np.abs(W.values - W2.values).max() < 1e-12
    back = wigner_from_density(inverse_wigner(fields[0]))
    assert np.abs(back.values - fields[0].values).max() < 1e-12


def test_inverse_roundtrip_smooth(lab64, rng):
    for _ in range(5):
        T = random_mixed(lab64, rng)
        W = wigner_from_density(T)
        T2 = inverse_wigner(W)
        rel = np.linalg.norm(T2.matrix - T.matrix) / np.linalg.norm(T.matrix)
        assert rel < 1e-8
        W2 = wigner_from_density(T2)
        assert np.abs(W2.values - W.values).max() < 1e-8


def test_engine_bijection_rough_input(lab64, rng):
    # the lattice transform pair is exact for arbitrary Hermitian matrices
    X = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    T = X + X.conj().T
    axes = lab64.axis_geometry()
    W = density_to_wigner(T, axes)
    back = wigner_to_density(W, axes)
    assert np.abs(back - T).max() < 1e-12 * np.abs(T).max()


def test_inverse_fidelity_ground(lab64):
    psi = ground_state(lab64)
    W = wigner_from_density(pure_density(psi))
    T = inverse_wigner(W)
    fid = float(np.real(np.conj(psi.values) @ T.matrix @ psi.values)
                * lab64.grid.position_cell)
    assert abs(fid - 1.0) < 1e-8


def test_inverse_rejects_unnormalized(lab64):
    W = analytic_gaussian_wigner(lab64)
    bad = PhaseSpaceField(np.asarray(W.values) * 1.6, W.role, lab64)
    with pytest.raises(NotNormalized):
        inverse_wigner(bad)


def test_nonphysical_wigner_reported_not_fixed(lab64):
    # a sub-uncertainty Gaussian violates positivity; report, never clip
    mesh = lab64.grid.phase_mesh()
    sig2 = 0.1
    vals = np.exp(-(mesh[0] ** 2 + mesh[1] ** 2) / (2 * sig2)) \
        / (2 * math.pi * sig2)
    W = PhaseSpaceField(np.broadcast_to(vals, (64, 64)), "wigner_measure_density",
                        lab64)
    with pytest.raises(NonPositiveOperator):
        inverse_wigner(W)
    T = inverse_wigner(W, validate=False)
    lam = lowest_eigenvalue(T.matrix)
    assert lam < -1e-8
    with pytest.raises(NonPositiveOperator) as exc:
        T.validate()
    assert abs(reported_eigenvalue(exc.value) - lam) <= 1e-3 * abs(lam)
    assert abs(T.trace() - 1.0) < 1e-6


def test_inverse_accepts_eigenvalue_above_floor(lab64):
    floor = lab64.tol.psd_floor
    T = operator_with_min_eigenvalue(lab64, -0.5 * floor)
    inverse_wigner(wigner_from_density(T))


def test_inverse_reports_eigenvalue_below_floor(lab64):
    floor = lab64.tol.psd_floor
    W = wigner_from_density(operator_with_min_eigenvalue(lab64, -2 * floor))
    with pytest.raises(NonPositiveOperator) as exc:
        inverse_wigner(W)
    assert abs(reported_eigenvalue(exc.value) + 2 * floor) < 1e-12


def test_inverse_certifies_valid_state_without_eigvalsh(monkeypatch):
    spec = make_phase_space(1, 256, 20.0, [[1.0]])
    W = wigner_from_density(random_mixed(spec, np.random.default_rng(7), rank=4))

    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh ran on a certifiable state")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    inverse_wigner(W)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_inverse_rejects_non_finite_cell(lab64, rng, bad):
    vals = np.array(wigner_from_density(random_mixed(lab64, rng)).values)
    vals[10, 20] = bad
    with pytest.raises(NotNormalized):
        inverse_wigner(PhaseSpaceField(vals, "wigner_measure_density", lab64))


def test_inverse_rejects_an_inf_pair_without_a_raw_warning(lab64, rng):
    # +inf and -inf cells make the mass sum NaN: the documented
    # NotNormalized, not numpy's "invalid value" RuntimeWarning
    vals = np.array(wigner_from_density(random_mixed(lab64, rng)).values)
    vals[10, 20] = math.inf
    vals[30, 40] = -math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotNormalized):
            inverse_wigner(PhaseSpaceField(vals, "wigner_measure_density",
                                           lab64))


def test_symplectic_fourier_properties(lab64, rng):
    axes = lab64.axis_geometry()
    mesh = lab64.grid.phase_mesh()
    f = np.broadcast_to(np.exp(-(0.7 * mesh[0] ** 2 + 1.3 * mesh[1] ** 2) / 2),
                        (64, 64)).astype(complex)
    F = symplectic_fourier(f, axes, +1)
    # gaussian with reciprocal covariance (axes swapped by the pairing)
    expected = (0.7 * 1.3) ** -0.5 * np.exp(
        -(mesh[0] ** 2 / 1.3 + mesh[1] ** 2 / 0.7) / 2)
    assert np.abs(F - expected).max() < 1e-8
    back = symplectic_fourier(F, axes, -1)
    assert np.abs(back - f).max() < 1e-10
    # delta-like field has constant modulus
    delta = np.zeros((64, 64), dtype=complex)
    delta[32, 32] = 1.0
    Fd = symplectic_fourier(delta, axes, +1)
    mods = np.abs(Fd)
    assert np.abs(mods - mods[0, 0]).max() < 1e-12


def test_eta_density_examples(lab64):
    W = wigner_from_density(pure_density(ground_state(lab64)))
    phi = eta_density(W)
    n = lab64.n_per_axis
    assert abs(phi.values[n // 2, n // 2] - 2.0) < 1e-8
    assert abs(phi.eta_integrate().real - 1.0) < 1e-8
    back = eta_to_wigner(phi)
    assert np.abs(back.values - W.values).max() < 1e-10
    # reference density itself has eta-density 1
    g = W.reference_density()
    Wref = PhaseSpaceField(g, "wigner_measure_density", lab64)
    ref = eta_density(Wref)
    assert np.abs(ref.values - 1.0).max() < 1e-12


def test_eta_pairing_identity(lab64):
    T = pure_density(ground_state(lab64))
    phi = eta_density(wigner_from_density(T))
    osc = HamiltonianSymbol((((2,), (0,), 0.5), ((0,), (2,), 0.5)), d=1)
    assert abs(pair_expectation(phi, osc) - expectation(T, osc)) < 1e-6


def test_pairing_identities(lab64, rng):
    T = random_mixed(lab64, rng)
    W = wigner_from_density(T)
    one = HamiltonianSymbol((((0,), (0,), 1.0),), d=1)
    assert abs(pair_expectation(W, one) - 1.0) < 1e-8
    Tg = pure_density(ground_state(lab64))
    Wg = wigner_from_density(Tg)
    q2 = HamiltonianSymbol((((2,), (0,), 1.0),), d=1)
    assert abs(pair_expectation(Wg, q2) - 0.5) < 1e-6
    for _ in range(3):
        terms = []
        for _ in range(3):
            a, b = rng.integers(0, 3, size=2)
            terms.append(((int(a),), (int(b),), float(rng.normal())))
        sym = HamiltonianSymbol(tuple(terms), d=1)
        assert abs(pair_expectation(W, sym) - expectation(T, sym)) < 1e-6


def test_underflow_region_detected():
    # a huge box drives the reference density below the floor; a field that
    # is non-negligible there must be refused, not silently divided
    from wignerlab import make_phase_space
    big = make_phase_space(1, 1024, 40.0, [[1.0]],
                           TolerancePolicy(domain_tail_mass=1.0))
    const = PhaseSpaceField(np.full((1024, 1024), 1e-3),
                            "wigner_measure_density", big)
    with pytest.raises(UnderflowRegion):
        eta_density(const)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_has_no_field(lab64, rng, bad):
    # DensityOperator does not validate on construction; the maps must not
    # hand back a field of NaN or inf values, nor stop at a warning first
    T = random_mixed(lab64, rng)
    m = T.matrix.copy()
    m[5, 5] = bad
    chi = weyl_samples_field(T).values.copy()
    chi[7, 9] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidDensity):
            wigner_from_density(DensityOperator(m, LEBESGUE, lab64))
        with pytest.raises(InvalidDensity):
            wigner_from_weyl_function(
                PhaseSpaceField(chi, WEYL_SAMPLES, lab64))


def test_eta_quotient_is_w_over_g(lab64, rng):
    W = wigner_from_density(random_mixed(lab64, rng))
    g = W.reference_density()
    assert g.min() >= W.tol.underflow_floor
    assert np.array_equal(eta_density(W).values, W.values / g)
    # a NaN or infinite cell in W fails closed, before the quotient and
    # without a numpy warning
    for bad in (math.nan, math.inf, -math.inf):
        vals = W.values.copy()
        vals[10, 20] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDensity):
                eta_density(PhaseSpaceField(vals, "wigner_measure_density",
                                            lab64))


def test_underflow_points_are_zeroed():
    # |q| > ~37 drives mu x nu below the 1e-300 floor on this box; there
    # the ground-state W plus a flat 1e-13 is below the field threshold
    spec = make_phase_space(1, 256, 40.0, [[1.0]])
    q, p = spec.grid.phase_mesh()
    W = PhaseSpaceField(np.exp(-(q ** 2 + p ** 2)) / math.pi + 1e-13,
                        "wigner_measure_density", spec)
    g = W.reference_density()
    low = g < W.tol.underflow_floor
    assert 0 < low.sum() < low.size
    phi = eta_density(W).values
    assert np.all(phi[low] == 0.0)
    assert np.array_equal(phi[~low], W.values[~low] / g[~low])


def test_reduce_product_state(sys2, spec32c):
    Ta = pure_density(displaced_state(spec32c, 1.0, 0.0))
    Tb = pure_density(ground_state(spec32c))
    T = tensor(Ta, Tb, sys2)
    W = wigner_from_density(T)
    Wred = reduce_wigner(W, "A")
    Wa = wigner_from_density(Ta)
    assert np.abs(Wred.values - Wa.values).max() < 1e-10
    assert abs(Wred.integrate().real - 1.0) < 1e-8
    with pytest.raises(UnknownSubsystem):
        reduce_wigner(W, "nope")


def test_reduce_entangled_matches_partial_trace(sys2, spec32c):
    from wignerlab.weyl import weyl_quantize
    n = spec32c.n_per_axis
    osc = weyl_quantize(HamiltonianSymbol((((2,), (0,), 0.5),
                                           ((0,), (2,), 0.5)), d=1), spec32c)
    qh = weyl_quantize(HamiltonianSymbol((((1,), (0,), 1.0),), d=1), spec32c)
    H = np.kron(osc, np.eye(n)) + np.kron(np.eye(n), osc) + 0.6 * np.kron(qh, qh)
    _, V = np.linalg.eigh(H)
    T = DensityOperator(np.outer(V[:, 0], V[:, 0].conj()), LEBESGUE, sys2,
                        spec32c.tol)
    W = wigner_from_density(T)
    Wred = reduce_wigner(W, "A")
    Wdirect = wigner_from_density(partial_trace(T, "A"))
    assert np.abs(Wred.values - Wdirect.values).max() < 1e-8
    assert purity_estimate(Wred) < 1.0 - 1e-3


@pytest.mark.parametrize("keep", [("A", "C"), ("C", "A"), ("B",)])
def test_reduction_square_on_three_factors(keep, rng):
    # reduce_wigner(W[T]) == W[partial_trace(T)]: the phase axes and the
    # einsum subscripts of one factor subset name the same factors
    tol = TolerancePolicy(domain_tail_mass=1.0, imaginary_residue=1.0)
    spec = make_phase_space(1, 8, 4.0, [[1.0]], tol)
    sys3 = CompositeSystem(tuple((lab, spec) for lab in "ABC"))
    F = rng.normal(size=(sys3.dim, 3)) + 1j * rng.normal(size=(sys3.dim, 3))
    m = F @ F.conj().T
    T = DensityOperator(m / np.trace(m).real, LEBESGUE, sys3, tol)
    Wred = reduce_wigner(wigner_from_density(T), keep)
    Wdirect = wigner_from_density(partial_trace(T, keep))
    assert Wred.space == Wdirect.space
    assert np.abs(Wred.values - Wdirect.values).max() <= 1e-12


def test_reduce_eta_form(sys2, spec32c):
    # clean product eta field: reduction in eta space equals the
    # divide-after-reduce route pointwise
    Ta = pure_density(displaced_state(spec32c, 1.0, 0.5))
    Tb = pure_density(ground_state(spec32c))
    W = wigner_from_density(tensor(Ta, Tb, sys2))
    g = W.reference_density()
    phi_clean = PhaseSpaceField(
        np.asarray(analytic_product_eta(spec32c)), "eta_density", sys2,
        "mu_nu", spec32c.tol)
    red_a = reduce_eta(phi_clean, "A")
    direct = eta_density(reduce_wigner(eta_to_wigner(phi_clean), "A"))
    assert np.abs(red_a.values - direct.values).max() < 1e-10
    # transform-derived fields agree in the total-variation metric
    phi = eta_density(W)
    red_b = reduce_eta(phi, "A")
    direct_b = eta_density(reduce_wigner(W, "A"))
    assert total_variation(red_b, direct_b) < 1e-10


def analytic_product_eta(spec):
    from wignerlab.states import analytic_gaussian_eta
    a = np.asarray(analytic_gaussian_eta(spec, 1.0, 0.5).values)
    b = np.asarray(analytic_gaussian_eta(spec, 0.0, 0.0).values)
    n = spec.n_per_axis
    return np.einsum('qp,rs->qrps', a, b)


def test_grid_mismatch_guard(lab64, lab32):
    W64 = analytic_gaussian_wigner(lab64)
    with pytest.raises(GridMismatch):
        PhaseSpaceField(np.asarray(W64.values), "wigner_measure_density", lab32)


def test_purity_identity_random_states(lab64, rng):
    for _ in range(5):
        T = random_mixed(lab64, rng)
        W = wigner_from_density(T)
        assert abs(purity_estimate(W) - T.purity()) < 1e-6


def test_fields_compare_by_value(spec32c, sys2):
    # separate arrays of equal values: the dataclass default raised ValueError
    T = pure_density(displaced_state(spec32c, 1.0, 0.0))
    W1, W2 = wigner_from_density(T), wigner_from_density(T)
    assert W1.values is not W2.values and W1 == W2 and not W1 != W2
    assert W1 != wigner_from_density(pure_density(ground_state(spec32c)))
    assert W1 != eta_density(W1)
    assert W1 != PhaseSpaceField(W1.values, WEYL_SAMPLES, spec32c, "lebesgue",
                                 W1.tol)
    assert W1 != "W"
    prod = wigner_from_density(tensor(T, T, sys2))
    assert prod == wigner_from_density(tensor(T, T, sys2)) and prod != W1
    with pytest.raises(TypeError):
        hash(W1)
