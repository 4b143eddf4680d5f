import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import (fd_bracket, fill_and_scratch_apply, stepping_oracle,
                     term_by_term_rhs, textbook_rk4)
from wignerlab import (GaussianMeasure, HamiltonianSymbol, engine,
                       make_phase_space, moyal, pure_density,
                       wigner_from_density)
from wignerlab.errors import (DomainOverflow, EscapeDetected, InvalidDensity,
                              OrderOverflow, SnapshotMismatch, SpecMismatch,
                              UnstableStep)
from wignerlab.moyal import (FD4, EvolutionRun, MoyalGenerator, evolve,
                             gaussian_measure_derivative, moyal_rhs,
                             pair_snapshots, poisson_power, eta_moyal_rhs,
                             sine_coefficient, von_neumann_oracle)
from wignerlab.states import (analytic_gaussian_eta, analytic_gaussian_wigner,
                              cat_state, displaced_state, ground_state)
from wignerlab.tolerances import TolerancePolicy
from wignerlab.verify import (OSC, QUARTIC, check_oracle_agreement,
                              check_quadratic_exactness, check_wick,
                              worst_error)
from wignerlab.weyl import weyl_quantize
from wignerlab.wigner import (ETA, SYMBOL, WIGNER, PhaseSpaceField,
                              eta_density, eta_to_wigner, total_variation)

FREE = HamiltonianSymbol((((0,), (2,), 0.5),), d=1)


def q_symbol():
    return HamiltonianSymbol((((1,), (0,), 1.0),), d=1)


def p_symbol():
    return HamiltonianSymbol((((0,), (1,), 1.0),), d=1)


def _rel(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


# --- bracket powers -----------------------------------------------------------

def test_poisson_bracket_of_coordinates(lab64):
    out = poisson_power(q_symbol(), p_symbol(), 1, lab64)
    assert np.abs(out - 1.0).max() < 1e-12


def test_poisson_bracket_self_vanishes(lab64):
    out = poisson_power(OSC, OSC, 1, lab64)
    assert np.abs(out).max() < 1e-10


def test_third_bracket_matches_fd_oracle(lab64, rng):
    # independent oracle: nested central differences of the analytic
    # functions, evaluated off the grid machinery entirely
    W = analytic_gaussian_wigner(lab64, 0.5, -0.3)

    def psi_fun(x):
        return math.pi ** -1 * math.exp(-(x[0] - 0.5) ** 2 - (x[1] + 0.3) ** 2)

    def h_fun(x):
        return 0.25 * x[0] ** 4

    q4 = HamiltonianSymbol((((4,), (0,), 0.25),), d=1)
    bracket = poisson_power(W, q4, 3)
    pts_idx = rng.integers(24, 40, size=(12, 2))
    q = lab64.grid.positions
    p = lab64.grid.momenta
    pts = [(q[i], p[j]) for i, j in pts_idx]
    oracle = fd_bracket(psi_fun, h_fun, 3, 1, pts)
    got = np.array([bracket.values[i, j] for i, j in pts_idx])
    assert np.abs(got - oracle).max() < 1e-5


@pytest.mark.parametrize("shape", [(32, 32), (64,), (64, 64, 2)])
def test_mis_shaped_sampled_symbol_raises_domain_overflow(lab64, shape):
    # every consumer of a sampled symbol checks its shape against the grid
    sym = HamiltonianSymbol((((2,), (0,), 0.5),), sampled=np.zeros(shape),
                            d=1)
    W = analytic_gaussian_wigner(lab64, 0.0, 0.0)
    for consume in (lambda: MoyalGenerator(sym, lab64),
                    lambda: poisson_power(W, sym, 1),
                    lambda: weyl_quantize(sym, lab64),
                    lambda: sym.evaluate_phase_grid(lab64)):
        with pytest.raises(DomainOverflow):
            consume()


def test_bracket_order_cap(lab64):
    with pytest.raises(OrderOverflow):
        poisson_power(q_symbol(), p_symbol(), 9, lab64)


# --- right-hand sides ---------------------------------------------------------

@pytest.mark.parametrize("j, value", [(1, -1.0), (2, 1 / 24), (3, -1 / 1920)])
def test_sine_coefficient_closed_form(j, value):
    # 2 (-1)^j 2^(1-2j) / (2j-1)! in the sign convention of bracket_pairs;
    # criterion 08 builds both of its routes from these, so it cannot pin them
    assert sine_coefficient(j) == pytest.approx(value, rel=1e-15, abs=0)


def test_stationary_ground_state(lab64):
    W = wigner_from_density(pure_density(ground_state(lab64)))
    gen = MoyalGenerator(OSC, lab64, truncation=1)
    assert np.abs(moyal_rhs(W, gen).values).max() < 1e-8


def test_quadratic_rhs_is_liouville(lab64):
    W = analytic_gaussian_wigner(lab64, 2.0, 1.0)
    gen4 = MoyalGenerator(OSC, lab64, truncation=4)
    rhs = moyal_rhs(W, gen4)
    mesh = lab64.grid.phase_mesh()
    QQ = np.broadcast_to(mesh[0], (64, 64))
    PP = np.broadcast_to(mesh[1], (64, 64))
    Wv = np.asarray(W.values)
    analytic = -PP * (-2 * (QQ - 2.0)) * Wv + QQ * (-2 * (PP - 1.0)) * Wv
    assert np.abs(rhs.values - analytic).max() < 1e-10


def test_quadratic_truncation_independence(lab64):
    W = wigner_from_density(pure_density(displaced_state(lab64, 1.0, 0.5)))
    assert check_quadratic_exactness(W)["quadratic"] < 1e-12


def test_quartic_series_terminates(lab64):
    W = wigner_from_density(pure_density(displaced_state(lab64, 1.0, 0.0)))
    assert check_quadratic_exactness(W)["quartic"] < 1e-12


def test_quartic_quantum_correction_active(lab64):
    W = wigner_from_density(pure_density(displaced_state(lab64, 1.0, 0.0)))
    r1 = moyal_rhs(W, MoyalGenerator(QUARTIC, lab64, truncation=1))
    r2 = moyal_rhs(W, MoyalGenerator(QUARTIC, lab64, truncation=2))
    assert np.abs(r1.values - r2.values).max() > 1e-4


def test_rhs_conserves_mass(lab64):
    W = wigner_from_density(pure_density(displaced_state(lab64, 1.5, -0.5)))
    gen = MoyalGenerator(QUARTIC, lab64, truncation=2)
    rhs = moyal_rhs(W, gen)
    assert abs(rhs.integrate().real) < 1e-8


def test_derivative_tensors_prune_above_degree(lab64):
    gen = MoyalGenerator(OSC, lab64, truncation=4)
    # quadratic symbol: only first-order derivative fields survive
    for (k, m) in gen._fields:
        assert sum(k) + sum(m) == 1


def test_fd_scheme_cross_checks_spectral(lab64):
    W = analytic_gaussian_wigner(lab64, 1.0, 0.0)
    gen_s = MoyalGenerator(OSC, lab64, truncation=1, scheme="spectral")
    gen_f = MoyalGenerator(OSC, lab64, truncation=1,
                           scheme="finite_difference_4th")
    a = moyal_rhs(W, gen_s).values
    b = moyal_rhs(W, gen_f).values
    # the built-in stencil scheme is a grid-resolution cross-check
    assert np.abs(a - b).max() < 5e-2
    assert np.abs(a - b).max() > 0


def _plan_case(case, lab64):
    """(symbol, K, spec, Wigner field) of one bracket-plan check."""
    W64 = wigner_from_density(pure_density(displaced_state(lab64, 1.0, 0.5)))
    if case == "harmonic":
        return OSC, 1, lab64, W64
    if case == "quartic":
        return QUARTIC, 2, lab64, W64
    if case == "sampled":
        # every third-order term, mixed (q, p) orders included, is nonzero
        q, p = lab64.grid.phase_mesh()
        bump = 0.2 * np.exp(-((q - 0.5) ** 2 + p ** 2) / 3.0) * np.ones((64, 64))
        return HamiltonianSymbol(FREE.terms, sampled=bump, d=1), 2, lab64, W64
    # the classical-feedback scenario: two oscillators, q1 q2 coupling
    tol = TolerancePolicy(imaginary_residue=1e-5, domain_tail_mass=1e-9,
                          boundary_mass=1e-4)
    spec = make_phase_space(2, 32, 7.2, np.eye(2), tol)
    sym = HamiltonianSymbol(
        (((2, 0), (0, 0), 0.5), ((0, 2), (0, 0), 0.5),
         ((0, 0), (2, 0), 0.5), ((0, 0), (0, 2), 0.5),
         ((1, 1), (0, 0), 0.3)), d=2)
    return sym, 1, spec, analytic_gaussian_wigner(spec, [1.0, 0.0], [0.0, 0.2])


@pytest.mark.parametrize("case", ["harmonic", "quartic", "sampled",
                                  "coupled_d2"])
def test_plan_matches_term_by_term(case, lab64):
    sym, K, spec, W = _plan_case(case, lab64)
    gen = MoyalGenerator(sym, spec, truncation=K)
    assert _rel(moyal_rhs(W, gen).values, term_by_term_rhs(W.values, gen)) \
        <= 1e-12


@pytest.mark.parametrize("sym,K", [(OSC, 1), (QUARTIC, 2)])
def test_eta_plan_matches_term_by_term(lab64, sym, K):
    phi = analytic_gaussian_eta(lab64, 1.0, 0.4)
    gen = MoyalGenerator(sym, lab64, truncation=K)
    got = eta_moyal_rhs(phi, gen).values
    assert _rel(got, term_by_term_rhs(phi.values, gen, eta=True)) <= 1e-12


@pytest.mark.parametrize("case", ["harmonic", "quartic", "coupled_d2"])
def test_fd4_plan_matches_term_by_term(case, lab64):
    # the stencil matrices against the np.roll stencil, term by term
    sym, K, spec, W = _plan_case(case, lab64)
    gen = MoyalGenerator(sym, spec, truncation=K, scheme="finite_difference_4th")
    assert _rel(moyal_rhs(W, gen).values, term_by_term_rhs(W.values, gen)) \
        <= 1e-12
    if case != "coupled_d2":
        phi = analytic_gaussian_eta(lab64, 1.0, 0.4)
        assert _rel(eta_moyal_rhs(phi, gen).values,
                    term_by_term_rhs(phi.values, gen, eta=True)) <= 1e-12


def _field_with_exact_zeros(lab64):
    """A Gaussian kept on a 16 x 16 block and exactly zero elsewhere, so the
    derivatives along a zero row or column are exact signed zeros."""
    values = np.zeros((64, 64))
    values[24:40, 24:40] = analytic_gaussian_wigner(lab64, 0.5, 0.3).values[
        24:40, 24:40]
    return values


def _stale(shape, count):
    """`count` buffers of -0.0 with every third value NaN, as a bound
    program finds them after another run."""
    out = np.full(shape, -0.0)
    out.reshape(-1)[::3] = np.nan
    return [out.copy() for _ in range(count)]


def _run_bound(plan, values, out, scratch):
    for f, args in plan.bind(values, out, scratch):
        f(*args)
    return out


@pytest.mark.parametrize("buffer", ["out", "scratch"])
def test_rhs_refuses_a_buffer_it_cannot_write_through(lab64, buffer):
    # the products write through reshaped views, which a transposed buffer
    # cannot give: it must raise, not leave the result in a lost copy
    plan = MoyalGenerator(QUARTIC, lab64, truncation=2).plan(WIGNER)
    values = _field_with_exact_zeros(lab64)
    out, *scratch = _stale(values.shape, 1 + plan.buffers)
    bad = np.empty_like(values).T
    if buffer == "out":
        out = bad
    else:
        scratch = [bad] * plan.buffers
    with pytest.raises(ValueError):
        plan.bind(values, out, scratch)


def test_wigner_rhs_sum_starts_from_positive_zero(lab64):
    # with no zero-order term the sum starts from +0.0, so a term that is
    # -0.0 never survives as -0.0 (0.0 + -0.0 = +0.0)
    plan = MoyalGenerator(OSC, lab64, truncation=1).plan(WIGNER)
    assert plan.zero is None
    values = _field_with_exact_zeros(lab64)
    out, *scratch = _stale(values.shape, 1 + plan.buffers)
    got = _run_bound(plan, values, out, scratch)
    zeros = got == 0.0
    assert zeros.sum() > 0
    assert not np.signbit(got[zeros]).any()


def _kernel_case(case, lab64):
    """(plan, values, has a zero-order term, scratch buffers) of one kernel
    check; the d = 1 fields carry exact signed zeros."""
    values = _field_with_exact_zeros(lab64)
    # q^2 p^2 makes the third-order terms mixed: one head product each
    mixed = HamiltonianSymbol(OSC.terms + (((2,), (2,), 0.1),), d=1)
    if case == "harmonic":
        return MoyalGenerator(OSC, lab64, truncation=1).plan(WIGNER), values, \
            False, 1
    if case == "quartic":
        return MoyalGenerator(QUARTIC, lab64, truncation=2).plan(WIGNER), \
            values, False, 1
    if case == "eta":
        gen = MoyalGenerator(QUARTIC, lab64, truncation=2)
        return gen.plan(ETA), values, True, 1
    if case == "fd4":
        gen = MoyalGenerator(OSC, lab64, truncation=1, scheme=FD4)
        return gen.plan(WIGNER), values, False, 1
    if case == "mixed":
        return MoyalGenerator(mixed, lab64, truncation=2).plan(WIGNER), \
            values, False, 2
    if case == "mixed_eta":
        gen = MoyalGenerator(mixed, lab64, truncation=2)
        return gen.plan(ETA), values, True, 2
    sym, K, spec, W = _plan_case("coupled_d2", lab64)
    if case == "coupled_d2":
        return MoyalGenerator(sym, spec, truncation=K).plan(WIGNER), \
            W.values, False, 1
    if case == "blocked_eta_d2":
        # the zero-order product, then one-axis terms whose axis-0 and axis-3
        # products exceed engine._ROWS, so they are bound as row blocks
        return MoyalGenerator(sym, spec, truncation=K).plan(ETA), W.values, \
            True, 1
    # q1 q2 p1 p2: third-order terms on three axes, two head products each
    sym = HamiltonianSymbol(sym.terms + (((1, 1), (1, 1), 0.1),), d=2)
    return MoyalGenerator(sym, spec, truncation=2).plan(WIGNER), W.values, \
        False, 3


@pytest.mark.parametrize("case", ["harmonic", "quartic", "eta", "fd4",
                                  "coupled_d2", "mixed", "mixed_eta",
                                  "mixed_d2", "blocked_eta_d2"])
def test_apply_is_bitwise_the_fill_and_scratch_kernel(case, lab64):
    # the first term written into out and then += 0.0 is bitwise the sum
    # from out.fill(0.0); the bound program overwrites stale out and scratch
    # buffers (-0.0 and NaN) everywhere
    plan, values, zero_order, buffers = _kernel_case(case, lab64)
    assert (plan.zero is not None, plan.buffers) == (zero_order, buffers)
    expected = fill_and_scratch_apply(plan, values, np.empty(values.shape))
    out, *scratch = _stale(values.shape, 1 + plan.buffers)
    _run_bound(plan, values, out, scratch)
    assert out.tobytes() == expected.tobytes()
    assert plan.apply(values).tobytes() == expected.tobytes()


def test_bind_cuts_a_long_product_into_row_blocks(lab64):
    # at d = 2, n = 32 the axis-0 product has 32**3 columns and the axis-3
    # product 32**3 rows: one GEMM per block of engine._ROWS, and one for
    # each product on the axes between
    plan, values, _, _ = _kernel_case("blocked_eta_d2", lab64)
    calls = plan.bind(values, np.empty(values.shape),
                      [np.empty(values.shape)])
    assert {ax for _, ax, _, _ in plan.terms} == {0, 1, 2, 3}
    blocks = [32 ** 3 // engine._ROWS if ax in (0, 3) else 1
              for _, ax, _, _ in plan.terms]
    assert sum(f is np.matmul for f, _ in calls) == sum(blocks) > len(blocks)


@pytest.mark.parametrize("route", ["wigner", "eta"])
def test_rhs_of_a_field_returns_a_field(lab64, route):
    # a field like the input, over the values the array input gives
    if route == "wigner":
        f, rhs = analytic_gaussian_wigner(lab64, 1.0, 0.4), moyal_rhs
    else:
        f, rhs = analytic_gaussian_eta(lab64, 1.0, 0.4), eta_moyal_rhs
    gen = MoyalGenerator(QUARTIC, lab64, truncation=2)
    got = rhs(f, gen)
    assert isinstance(got, PhaseSpaceField)
    assert (got.role, got.space, got.measure) == (f.role, f.space, f.measure)
    assert got.values.tobytes() == rhs(f.values, gen).tobytes()


# --- eta-density route ----------------------------------------------------------

def test_eta_rhs_stationary_reference(lab64):
    ones = np.ones((64, 64))
    phi = PhaseSpaceField(ones, "eta_density", lab64, "mu_nu", lab64.tol)
    gen = MoyalGenerator(OSC, lab64, truncation=2)
    assert np.abs(eta_moyal_rhs(phi, gen).values).max() < 1e-8


def test_eta_rhs_route_equivalence(lab64):
    phi = analytic_gaussian_eta(lab64, 1.0, 0.4)
    W = eta_to_wigner(phi)
    g = W.reference_density()
    for sym, K in ((OSC, 1), (QUARTIC, 2)):
        gen = MoyalGenerator(sym, lab64, truncation=K)
        a = eta_moyal_rhs(phi, gen).values * g
        b = moyal_rhs(W, gen).values
        assert np.abs(np.asarray(a) - np.asarray(b)).max() < 1e-8


def test_eta_rhs_is_eta_density_of_wigner_rhs(lab64):
    # pointwise division by the reference density amplifies round-off at the
    # corners, so the two routes are compared in the TV metric (criterion 08)
    phi = analytic_gaussian_eta(lab64, 1.0, 0.4)
    for sym, K in ((OSC, 1), (QUARTIC, 2)):
        gen = MoyalGenerator(sym, lab64, truncation=K)
        via_w = eta_density(moyal_rhs(eta_to_wigner(phi), gen))
        assert total_variation(eta_moyal_rhs(phi, gen), via_w) < 1e-7


def test_eta_fd_scheme_cross_checks_spectral(lab64):
    phi = analytic_gaussian_eta(lab64, 1.0, 0.0)
    a = eta_moyal_rhs(phi, MoyalGenerator(OSC, lab64, truncation=1)).values
    b = eta_moyal_rhs(phi, MoyalGenerator(
        OSC, lab64, truncation=1, scheme="finite_difference_4th")).values
    assert total_variation(PhaseSpaceField(a, "eta_density", lab64, "mu_nu"),
                           PhaseSpaceField(b, "eta_density", lab64, "mu_nu")) \
        < 5e-2
    assert np.abs(a - b).max() > 0


def test_eta_rhs_rejects_other_grid_or_measure(lab64, lab32):
    gen = MoyalGenerator(OSC, lab64, truncation=1)
    with pytest.raises(SpecMismatch):
        eta_moyal_rhs(analytic_gaussian_eta(lab32, 1.0, 0.0), gen)
    W = analytic_gaussian_wigner(lab64, 1.0, 0.0)
    with pytest.raises(SpecMismatch):
        eta_moyal_rhs(W, gen)                   # Lebesgue, not mu x nu
    with pytest.raises(SpecMismatch):
        eta_moyal_rhs(np.ones((32, 32)), gen)


# --- Wick formulas ------------------------------------------------------------

def test_wick_first_order_closed_form():
    mu = GaussianMeasure.from_covariance([[1.0]])
    got = gaussian_measure_derivative(mu, [[1.0]], [0.7])
    assert got == pytest.approx(-0.7 * mu.density([0.7]), abs=1e-14)


def test_wick_second_order_closed_form():
    mu = GaussianMeasure.from_covariance([[1.0]])
    got = gaussian_measure_derivative(mu, [[1.0], [1.0]], [0.0])
    assert got == pytest.approx(-mu.density([0.0]), abs=1e-14)


def test_wick_zero_direction():
    mu = GaussianMeasure.from_covariance([[2.0]])
    assert gaussian_measure_derivative(mu, [[0.0]], [0.4]) == 0.0


def test_wick_order_cap():
    mu = GaussianMeasure.from_covariance([[1.0]])
    with pytest.raises(OrderOverflow):
        gaussian_measure_derivative(mu, [[1.0]] * 5, [0.0])


def test_wick_matches_finite_differences(rng):
    assert check_wick(rng) < 1e-7


# --- evolution ----------------------------------------------------------------

def test_harmonic_full_period_returns(lab64):
    T0 = pure_density(displaced_state(lab64, 2.0, 0.0))
    W0 = wigner_from_density(T0)
    gen = MoyalGenerator(OSC, lab64, truncation=1)
    run = EvolutionRun(dt=1e-3, t_end=2 * math.pi, stride=1600)
    res = evolve(W0, gen, run)
    assert np.abs(res.final_field.values - W0.values).max() < 1e-4
    assert np.abs(res.diagnostics["mass"] - 1.0).max() < 1e-6
    l2 = res.diagnostics["l2"]
    assert np.abs(l2 - l2[0]).max() < 1e-4


def test_free_particle_variance_growth(lab64):
    T0 = pure_density(displaced_state(lab64, 1.0, 0.0))
    W0 = wigner_from_density(T0)
    gen = MoyalGenerator(FREE, lab64, truncation=3)
    run = EvolutionRun(dt=1e-3, t_end=1.0, stride=500)
    res = evolve(W0, gen, run)
    mesh = lab64.grid.phase_mesh()
    QQ = np.broadcast_to(mesh[0], (64, 64))
    PP = np.broadcast_to(mesh[1], (64, 64))
    cell = W0.cell_volume()
    var0 = float(((QQ - 1.0) ** 2 * W0.values).sum() * cell)
    varp = float((PP ** 2 * W0.values).sum() * cell)
    Wt = res.final_field.values
    qm = float((QQ * Wt).sum() * cell)
    var1 = float(((QQ - qm) ** 2 * Wt).sum() * cell)
    assert abs(var1 - (var0 + 1.0 ** 2 * varp)) < 1e-4


def test_cfl_guard_raises_and_overrides(lab_quartic):
    W0 = wigner_from_density(pure_density(displaced_state(lab_quartic, 1.0, 0.0)))
    gen = MoyalGenerator(QUARTIC, lab_quartic, truncation=2)
    run = EvolutionRun(dt=1e-3, t_end=0.01, stride=10)
    with pytest.raises(UnstableStep):
        evolve(W0, gen, run)
    run2 = EvolutionRun(dt=1e-3, t_end=0.01, stride=10, enforce_cfl=False)
    with pytest.warns(RuntimeWarning, match="CFL"):
        evolve(W0, gen, run2)


def test_cfl_guard_checks_every_schedule_segment(lab_quartic):
    # the free segment active at t = 0 passes the guard at dt = 1e-3; the
    # quartic segment from t = 0.005 on does not
    sym = HamiltonianSymbol(schedule=((0.0, FREE.terms), (0.005, QUARTIC.terms)),
                            d=1)
    W0 = wigner_from_density(pure_density(displaced_state(lab_quartic, 1.0, 0.0)))
    gen = MoyalGenerator(sym, lab_quartic, truncation=2)
    with pytest.raises(UnstableStep, match="CFL"):
        evolve(W0, gen, EvolutionRun(dt=1e-3, t_end=0.01, stride=10))
    run = EvolutionRun(dt=1e-3, t_end=0.01, stride=10, enforce_cfl=False)
    with pytest.warns(RuntimeWarning, match="CFL"):
        res = evolve(W0, gen, run)
    assert [t for t, _ in res.snapshots] == pytest.approx([0.0, 0.01])


def test_escape_detection():
    from wignerlab import make_phase_space
    from wignerlab.tolerances import TolerancePolicy
    # free flight of a fast packet reaches the wall and must abort
    spec = make_phase_space(1, 64, 10.0, [[1.0]],
                            TolerancePolicy(imaginary_residue=1e-4))
    T0 = pure_density(displaced_state(spec, 6.0, 6.0))
    W0 = wigner_from_density(T0)
    gen = MoyalGenerator(FREE, spec, truncation=1)
    run = EvolutionRun(dt=1e-3, t_end=2.0, stride=100)
    with pytest.raises(EscapeDetected):
        evolve(W0, gen, run)


@pytest.mark.parametrize("kwargs,message", [
    ({"dt": math.nan}, "dt must be finite"),
    ({"dt": math.inf}, "dt must be finite"),
    ({"dt": 0.0}, "dt must be finite and positive"),
    ({"dt": -1e-3}, "dt must be finite and positive"),
    ({"t_end": math.nan}, "t_end must be finite"),
    ({"t_end": math.inf}, "t_end must be finite"),
    ({"t_end": -1.0}, "t_end must be finite and >= 0"),
    ({"stride": 2.5}, "stride must be an integer"),
    ({"stride": True}, "stride must be an integer"),
    ({"stride": 0}, "stride must be an integer >= 1"),
], ids=["dt_nan", "dt_inf", "dt_zero", "dt_negative", "t_end_nan",
        "t_end_inf", "t_end_negative", "stride_float", "stride_bool",
        "stride_zero"])
def test_evolution_run_rejects_a_bad_value(kwargs, message):
    # each fails where the run is described, not later in snapshot_times
    # (a raw ValueError, OverflowError or TypeError) or never (t_end < 0
    # gave one snapshot at t = 0)
    with pytest.raises(UnstableStep, match=message):
        EvolutionRun(**{"dt": 1e-3, "t_end": 0.1, "stride": 10, **kwargs})


def test_snapshot_times_and_immutability(lab64):
    W0 = wigner_from_density(pure_density(ground_state(lab64)))
    gen = MoyalGenerator(OSC, lab64, truncation=1)
    run = EvolutionRun(dt=5e-3, t_end=0.275, stride=20)
    res = evolve(W0, gen, run)
    times = [t for t, _ in res.snapshots]
    assert times == pytest.approx([0.0, 0.1, 0.2, 0.275])
    with pytest.raises(ValueError):
        res.snapshots[1][1].values[0, 0] = 1.0


def test_classical_vs_quantum_divergence(lab_cat):
    Wcat = wigner_from_density(pure_density(cat_state(lab_cat, 1.0, "odd")))
    g1 = MoyalGenerator(QUARTIC, lab_cat, truncation=1)
    g2 = MoyalGenerator(QUARTIC, lab_cat, truncation=2)
    run = EvolutionRun(dt=2e-4, t_end=0.5, stride=5000, enforce_cfl=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r1 = evolve(Wcat, g1, run)
        r2 = evolve(Wcat, g2, run)
    assert np.abs(r1.final_field.values - r2.final_field.values).max() > 1e-2


def _rk4_case(case, lab64, lab_quartic):
    """(initial field, generator factory, run) of one bitwise RK4 check."""
    W = wigner_from_density(pure_density(displaced_state(lab64, 1.5, 0.2)))
    if case == "harmonic":
        return W, lambda: MoyalGenerator(OSC, lab64, truncation=1), \
            EvolutionRun(dt=1e-3, t_end=0.0325, stride=10)
    if case == "quartic":
        Wq = wigner_from_density(pure_density(
            displaced_state(lab_quartic, 1.0, 0.1)))
        return Wq, lambda: MoyalGenerator(QUARTIC, lab_quartic, truncation=2), \
            EvolutionRun(dt=1e-3, t_end=0.03, stride=10, enforce_cfl=False)
    if case == "eta":
        return analytic_gaussian_eta(lab64, 1.5, 0.2), \
            lambda: MoyalGenerator(OSC, lab64, truncation=1), \
            EvolutionRun(dt=1e-3, t_end=0.03, stride=10)
    if case == "fd4":
        return W, lambda: MoyalGenerator(OSC, lab64, truncation=1, scheme=FD4), \
            EvolutionRun(dt=1e-3, t_end=0.03, stride=10)
    if case == "quench":
        # the plan is rebuilt at the off-lattice breakpoint mid-run
        sym = HamiltonianSymbol(schedule=((0.0, FREE.terms),
                                          (0.0105, OSC.terms)), d=1)
        return W, lambda: MoyalGenerator(sym, lab64, truncation=2), \
            EvolutionRun(dt=1e-3, t_end=0.03, stride=5)
    sym, _, spec, W2 = _plan_case("coupled_d2", lab64)
    return W2, lambda: MoyalGenerator(sym, spec, truncation=1), \
        EvolutionRun(dt=2e-3, t_end=4e-3, stride=1, enforce_cfl=False)


@pytest.mark.parametrize("case", ["harmonic", "quartic", "eta", "fd4",
                                  "quench", "coupled_d2"])
def test_evolve_is_bitwise_the_textbook_rk4(case, lab64, lab_quartic):
    field0, make_gen, run = _rk4_case(case, lab64, lab_quartic)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")         # the CFL overrides
        res = evolve(field0, make_gen(), run)
    snaps, diags = textbook_rk4(field0, make_gen(), run)
    assert [t for t, _ in res.snapshots] == [t for t, _ in snaps]
    for (_, f), (_, v) in zip(res.snapshots, snaps):
        assert np.asarray(f.values).tobytes() == v.tobytes()
    assert res.diagnostics.keys() == diags.keys()
    for k, col in diags.items():
        assert res.diagnostics[k].tobytes() == col.tobytes(), k


@pytest.mark.parametrize("case, role, plans", [("eta", ETA, 1),
                                                ("quench", WIGNER, 2),
                                                ("quench", ETA, 2)],
                         ids=["eta", "quench_wigner", "quench_eta"])
def test_evolve_builds_one_plan_per_segment_it_runs(case, role, plans, lab64,
                                                    monkeypatch):
    # only its field's route, once for each segment the run steps through;
    # the CFL guard builds none
    built = []
    init = moyal.BracketPlan.__init__

    def counted(plan, *args, **kwargs):
        built.append(plan)
        init(plan, *args, **kwargs)

    monkeypatch.setattr(moyal.BracketPlan, "__init__", counted)
    field0, make_gen, run = _rk4_case(case, lab64, None)
    if role == ETA:
        field0 = analytic_gaussian_eta(lab64, 1.5, 0.2)
    evolve(field0, make_gen(), run)
    assert len(built) == plans


@pytest.mark.parametrize("sampled", [False, True],
                         ids=["polynomial", "sampled"])
def test_gradient_max_of_another_segment_keeps_the_active_one(lab64, sampled):
    # the limit of a segment that is not active is bitwise the one read
    # after selecting it, and the active fields and plans stay as they are
    bump = None
    if sampled:
        q, p = lab64.grid.phase_mesh()
        bump = 0.2 * np.exp(-((q - 0.5) ** 2 + p ** 2) / 3.0) * np.ones((64, 64))
    sym = HamiltonianSymbol(schedule=((0.0, FREE.terms),
                                      (0.0105, QUARTIC.terms)),
                            sampled=bump, d=1)
    gen = MoyalGenerator(sym, lab64, truncation=2)
    fields, plan = gen._fields, gen.plan(WIGNER)
    got = gen.gradient_max(QUARTIC.terms)
    assert gen._fields is fields and gen.plan(WIGNER) is plan
    ref = MoyalGenerator(sym, lab64, truncation=2)
    ref.select(QUARTIC.terms)
    assert got == ref.gradient_max(QUARTIC.terms)
    assert got > gen.gradient_max(FREE.terms)


@pytest.mark.parametrize("role", ["wigner", "eta", "measure"])
def test_evolve_rejects_another_phase_space_before_stepping(lab64, role,
                                                           monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("a stage program was bound")

    monkeypatch.setattr(moyal.BracketPlan, "bind", no_step)
    other = make_phase_space(1, 64, 8.0, [[1.0]])
    gen = MoyalGenerator(OSC, other, truncation=1)
    if role == "wigner":
        field0 = wigner_from_density(pure_density(displaced_state(lab64, 1.0,
                                                                  0.0)))
    elif role == "eta":
        field0 = analytic_gaussian_eta(lab64, 1.0, 0.0)
    else:
        # the generator's own phase space, but a Wigner field on mu x nu
        gen = MoyalGenerator(OSC, lab64, truncation=1)
        W = analytic_gaussian_wigner(lab64, 1.0, 0.0)
        field0 = PhaseSpaceField(W.values, W.role, lab64, "mu_nu", W.tol)
    with pytest.raises(SpecMismatch):
        evolve(field0, gen, EvolutionRun(dt=1e-3, t_end=0.01, stride=5))


@pytest.mark.parametrize("role", ["no_such_role", SYMBOL],
                         ids=["unknown", "symbol"])
def test_evolve_takes_only_wigner_and_eta_fields(lab64, role, monkeypatch):
    # a field of another role on mu x nu is a library error before any
    # bracket plan is built, not a raw numpy casting error at the first step
    def no_plan(*args, **kwargs):
        raise AssertionError("a bracket plan was built")

    monkeypatch.setattr(MoyalGenerator, "plan", no_plan)
    eta = analytic_gaussian_eta(lab64, 1.0, 0.3)
    field0 = PhaseSpaceField(eta.values, role, lab64, "mu_nu", eta.tol)
    with pytest.raises(SpecMismatch, match=repr(role)):
        evolve(field0, MoyalGenerator(OSC, lab64, truncation=1),
               EvolutionRun(dt=1e-3, t_end=0.01, stride=5))


def _start_field(lab64, role):
    if role == "wigner":
        return analytic_gaussian_wigner(lab64, 1.0, 0.3)
    return analytic_gaussian_eta(lab64, 1.0, 0.3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("role", ["wigner", "eta"])
def test_evolve_rejects_a_non_finite_field_before_stepping(lab64, role, bad,
                                                          monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("a stage program was bound")

    monkeypatch.setattr(moyal.BracketPlan, "bind", no_step)
    f = _start_field(lab64, role)
    values = f.values.copy()
    values[20, 41] = bad
    field0 = PhaseSpaceField(values, f.role, lab64, f.measure, f.tol)
    gen = MoyalGenerator(OSC, lab64, truncation=1)
    with pytest.raises(InvalidDensity, match="1 NaN or infinite"):
        evolve(field0, gen, EvolutionRun(dt=1e-3, t_end=0.01, stride=5))


def _after_every_stage(monkeypatch, make_call):
    """Append the call make_call(out) returns to every stage program that
    BracketPlan.bind makes, so it runs once after each right-hand side that
    evolve evaluates."""
    bind = moyal.BracketPlan.bind

    def bound(plan, values, out, scratch):
        return bind(plan, values, out, scratch) + ((make_call(out), ()),)

    monkeypatch.setattr(moyal.BracketPlan, "bind", bound)


@pytest.mark.parametrize("role", ["wigner", "eta"])
def test_evolve_fails_closed_when_the_field_turns_nan(lab64, role,
                                                     monkeypatch):
    # a NaN drift fails `not drift <= bound`; `drift > bound` let it through
    calls = []

    def poison(out):
        def call():
            calls.append(None)
            if len(calls) == 9:             # the third step's first stage
                out[30, 30] = np.nan
        return call

    _after_every_stage(monkeypatch, poison)
    gen = MoyalGenerator(OSC, lab64, truncation=1)
    with pytest.raises(UnstableStep) as err:
        evolve(_start_field(lab64, role), gen,
               EvolutionRun(dt=1e-3, t_end=0.01, stride=5))
    assert len(calls) == 12
    assert math.isnan(err.value.diagnostics["mass"][-1])


@pytest.mark.parametrize("role,sym", [("wigner", OSC), ("eta", OSC),
                                      ("wigner", FREE)])
def test_evolve_allocates_no_field_per_step(lab64, role, sym, monkeypatch):
    # the memory held between two right-hand sides never rises by a
    # field-sized temporary, and the run's peak stays within its buffers,
    # its snapshot copies and one field; FREE's energy is a function of p
    # alone
    # calls, the largest rise between two calls after the first, the peak;
    # kept in one preallocated array so the probe itself holds no memory
    stats = np.zeros(3, dtype=np.int64)

    def probe():
        current, peak = tracemalloc.get_traced_memory()
        if stats[0]:
            stats[1] = max(stats[1], peak - current)
        stats[0] += 1
        stats[2] = max(stats[2], peak)
        tracemalloc.reset_peak()

    _after_every_stage(monkeypatch, lambda out: probe)
    field0 = _start_field(lab64, role)
    gen = MoyalGenerator(sym, lab64, truncation=1)
    plan = gen.plan(field0.role)
    run = EvolutionRun(dt=1e-3, t_end=0.05, stride=10)
    nbytes = field0.values.nbytes
    tracemalloc.start()
    try:
        res = evolve(field0, gen, run)
        stats[2] = max(stats[2], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert stats[0] == 4 * 50
    assert stats[1] < nbytes / 4
    # values, acc, k, stage and the plan's scratch; the first snapshot is
    # field0 itself
    buffers = 4 + plan.buffers
    copies = len(res.snapshots) - 1
    assert stats[2] <= (buffers + copies + 1) * nbytes


# --- von Neumann oracle -------------------------------------------------------

def test_oracle_identity_at_zero(lab64, rng):
    from wignerlab.states import random_mixed
    T0 = random_mixed(lab64, rng)
    run = EvolutionRun(dt=1e-2, t_end=0.1, stride=5)
    snaps = von_neumann_oracle(T0, OSC, run)
    t0, first = snaps[0]
    assert t0 == 0.0
    assert np.abs(first.matrix - T0.matrix).max() < 1e-14


def test_oracle_period_and_purity(lab64, rng):
    from wignerlab.states import random_mixed
    T0 = random_mixed(lab64, rng)
    run = EvolutionRun(dt=1e-2, t_end=2 * math.pi, stride=157)
    snaps = von_neumann_oracle(T0, OSC, run)
    p0 = T0.purity()
    for t, Tt in snaps:
        assert abs(Tt.trace() - 1.0) < 1e-10
        assert abs(Tt.purity() - p0) < 1e-10
    assert np.abs(snaps[-1][1].matrix - T0.matrix).max() < 1e-8


def test_moyal_matches_oracle_interior_time(lab64):
    T0 = pure_density(displaced_state(lab64, 2.0, 0.0))
    run = EvolutionRun(dt=1e-3, t_end=1.0, stride=500)
    errors, _ = check_oracle_agreement(T0, OSC, 1, run)
    assert worst_error(errors) < 1e-6


def test_time_dependent_schedule(lab64):
    free_terms = (((0,), (2,), 0.5),)
    osc_terms = (((2,), (0,), 0.5), ((0,), (2,), 0.5))
    sym = HamiltonianSymbol(schedule=((0.0, free_terms), (0.25, osc_terms)), d=1)
    T0 = pure_density(displaced_state(lab64, 1.0, 0.0))
    run = EvolutionRun(dt=1e-3, t_end=0.5, stride=250)
    errors, _ = check_oracle_agreement(T0, sym, 2, run)
    assert errors[-1][1] < 1e-6


def test_snapshots_after_off_lattice_breakpoint(lab64):
    # the quench at 0.0105 lies between two dt steps: a fractional step lands
    # on it, and the next one lands back on the snapshot lattice
    sym = HamiltonianSymbol(schedule=((0.0, FREE.terms), (0.0105, OSC.terms)),
                            d=1)
    T0 = pure_density(displaced_state(lab64, 1.0, 0.0))
    run = EvolutionRun(dt=1e-3, t_end=0.05, stride=5)
    errors, res = check_oracle_agreement(T0, sym, 2, run)
    assert [t for t, _ in res.snapshots] == pytest.approx(
        [0.005 * i for i in range(11)], abs=1e-15)
    assert 0.0105 in res.diagnostics["t"]
    assert worst_error(errors) < 1e-6


@pytest.mark.parametrize("stride", [50, 7])
@pytest.mark.parametrize("breakpoint", [0.05, 0.0505, 0.1234])
def test_scheduled_oracle_matches_the_stepping_oracle(lab64, breakpoint,
                                                      stride):
    # one propagate call per segment against exact_propagate from event to
    # event: 2.1e-15 at stride 50, 1.8e-14 at stride 7 (n = 64, OpenBLAS)
    sym = HamiltonianSymbol(schedule=((0.0, FREE.terms), (breakpoint,
                                                          OSC.terms)), d=1)
    T0 = pure_density(displaced_state(lab64, 1.5, 0.0))
    run = EvolutionRun(dt=1e-3, t_end=0.3, stride=stride)
    snaps = von_neumann_oracle(T0, sym, run)
    ref = stepping_oracle(T0, sym, run)
    assert [t for t, _ in snaps] == [t for t, _ in ref] == run.snapshot_times()
    worst = max(float(np.abs(T.matrix - R.matrix).max())
                for (_, T), (_, R) in zip(snaps, ref))
    assert worst < 1e-13


def test_one_segment_schedule_is_bitwise_the_static_symbol(lab64):
    sym = HamiltonianSymbol(schedule=((0.0, OSC.terms),), d=1)
    T0 = pure_density(displaced_state(lab64, 1.5, 0.2))
    W0 = wigner_from_density(T0)
    run = EvolutionRun(dt=1e-3, t_end=0.0325, stride=10)
    res = evolve(W0, MoyalGenerator(sym, lab64, truncation=1), run)
    static = evolve(W0, MoyalGenerator(OSC, lab64, truncation=1), run)
    assert [t for t, _ in res.snapshots] == [t for t, _ in static.snapshots]
    for (_, f), (_, g) in zip(res.snapshots, static.snapshots):
        assert f.values.tobytes() == g.values.tobytes()
    for k, col in static.diagnostics.items():
        assert res.diagnostics[k].tobytes() == col.tobytes(), k
    snaps = von_neumann_oracle(T0, sym, run)
    for (t, T), (s, S) in zip(snaps, von_neumann_oracle(T0, OSC, run),
                              strict=True):
        assert t == s and T.matrix.tobytes() == S.matrix.tobytes()


@pytest.mark.parametrize("starts, reached", [
    ((0.0,), 1),
    ((0.0, 0.0105), 2),
    ((0.0, 0.01, 0.0205, 0.03), 3),      # 0.03 is t_end: never reached
    ((0.0, 0.0105, 0.5), 2),
])
def test_oracle_propagates_each_reached_segment_once(lab64, monkeypatch,
                                                     starts, reached):
    calls, inside = [], []
    real_propagate, real_eigh = moyal.propagate, np.linalg.eigh

    def counted_propagate(H, T0, times):
        calls.append(list(times))
        inside.append(True)
        try:
            yield from real_propagate(H, T0, times)
        finally:
            inside.pop()

    def eigh(a, *args, **kwargs):
        assert inside, "eigh called outside hilbert.propagate"
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(moyal, "propagate", counted_propagate)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    terms = (FREE.terms, OSC.terms)
    sym = HamiltonianSymbol(
        schedule=tuple((t, terms[i % 2]) for i, t in enumerate(starts)), d=1)
    T0 = pure_density(displaced_state(lab64, 1.0, 0.0))
    run = EvolutionRun(dt=1e-3, t_end=0.03, stride=5)
    snaps = von_neumann_oracle(T0, sym, run)
    assert [t for t, _ in snaps] == run.snapshot_times()
    assert len(calls) == reached
    # each call runs from its segment's start to its end, clipped at t_end
    assert calls[0][0] == 0.0
    for times, start, stop in zip(calls, starts, starts[1:] + (0.03,)):
        assert times[-1] == pytest.approx(min(stop, 0.03) - start, abs=1e-15)


def test_pair_snapshots_rejects_other_times():
    a = [(0.0, "x"), (0.1, "y")]
    assert pair_snapshots(a, a) == [(0.0, "x", "x"), (0.1, "y", "y")]
    with pytest.raises(SnapshotMismatch):
        pair_snapshots(a, [(0.0, "x"), (0.0995, "y")])
    with pytest.raises(SnapshotMismatch):
        pair_snapshots(a, a[:1])
