"""Named invariant suite behind the `verify` CLI command.

Each check returns (name, residual, tolerance); a check passes when
residual < tolerance. The quick level runs small sizes in a few seconds,
the full level runs the acceptance-sized geometries.
"""

import math

import numpy as np

from .feedback import (FEEDBACK, GENERAL, NO_FEEDBACK, SubsystemLayout,
                       build_feedback_hamiltonian, classify_coupling)
from .hilbert import LevelSpace, partial_trace, pure_density, tensor
from .hilbert import CompositeSystem
from .lattice import make_phase_space
from .moyal import (EvolutionRun, MoyalGenerator, evolve, moyal_rhs,
                    pair_snapshots, von_neumann_oracle)
from .states import (analytic_gaussian_eta, displaced_state, ground_state,
                     random_mixed)
from .weyl import HamiltonianSymbol, expectation
from .wigner import (eta_density, eta_to_wigner, inverse_wigner,
                     pair_expectation, purity_estimate, reduce_wigner,
                     total_variation, weyl_samples_field, wigner_from_density,
                     wigner_from_weyl_function)


from .tolerances import TolerancePolicy

_QUICK_TOL = TolerancePolicy(domain_tail_mass=1e-10, imaginary_residue=1e-5)


def _lab(n=32, L=8.0):
    tol = _QUICK_TOL if n < 64 else None
    if tol is None:
        return make_phase_space(1, n, L, [[1.0]])
    return make_phase_space(1, n, L, [[1.0]], tol)


def _osc_symbol():
    return HamiltonianSymbol((((2,), (0,), 0.5), ((0,), (2,), 0.5)), d=1)


def check_normalization_and_bound(n, L, count, seed=0):
    spec = _lab(n, L)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        T = random_mixed(spec, rng)
        W = wigner_from_density(T)
        worst = max(worst, abs(W.integrate().real - 1.0))
        worst = max(worst, max(0.0, float(np.abs(W.values).max()) - 1 / math.pi))
    return worst


def check_pairing(n, L, count, seed=1):
    spec = _lab(n, L)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        T = random_mixed(spec, rng)
        W = wigner_from_density(T)
        for a in range(5):
            for b in range(5 - a):
                sym = HamiltonianSymbol((((a,), (b,), 1.0),), d=1)
                worst = max(worst, abs(pair_expectation(W, sym)
                                       - expectation(T, sym)))
    return worst


def check_route_equivalence(n, L, count, seed=2):
    spec = _lab(n, L)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        T = random_mixed(spec, rng)
        W1 = wigner_from_density(T)
        W2 = wigner_from_weyl_function(weyl_samples_field(T))
        worst = max(worst, float(np.abs(W1.values - W2.values).max()))
    return worst


def check_roundtrip(n, L, count, seed=3):
    spec = _lab(n, L)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        T = random_mixed(spec, rng)
        W = wigner_from_density(T)
        T2 = inverse_wigner(W)
        worst = max(worst, float(np.linalg.norm(T2.matrix - T.matrix)
                                 / np.linalg.norm(T.matrix)))
    return worst


def check_eta(n, L):
    spec = _lab(n, L)
    T = pure_density(ground_state(spec))
    W = wigner_from_density(T)
    phi = eta_density(W)
    res = abs(phi.eta_integrate().real - 1.0)
    sym = _osc_symbol()
    res = max(res, abs(pair_expectation(phi, sym) - expectation(T, sym)))
    back = eta_to_wigner(phi)
    res = max(res, float(np.abs(back.values - W.values).max()))
    return res


def check_quadratic_exactness(n, L):
    spec = _lab(n, L)
    W = wigner_from_density(pure_density(displaced_state(spec, 1.0, 0.5)))
    res = 0.0
    sym2 = _osc_symbol()
    r1 = moyal_rhs(W, MoyalGenerator(sym2, spec, truncation=1))
    r4 = moyal_rhs(W, MoyalGenerator(sym2, spec, truncation=4))
    res = max(res, float(np.abs(r1.values - r4.values).max()))
    sym4 = HamiltonianSymbol((((0,), (2,), 0.5), ((4,), (0,), 0.25)), d=1)
    r2 = moyal_rhs(W, MoyalGenerator(sym4, spec, truncation=2))
    r4b = moyal_rhs(W, MoyalGenerator(sym4, spec, truncation=4))
    res = max(res, float(np.abs(r2.values - r4b.values).max()))
    return res


def check_oracle_agreement(n, L, t_end, dt):
    spec = _lab(n, L)
    T0 = pure_density(displaced_state(spec, 2.0, 0.0))
    W0 = wigner_from_density(T0)
    gen = MoyalGenerator(_osc_symbol(), spec, truncation=1)
    run = EvolutionRun(dt=dt, t_end=t_end, stride=max(1, int(t_end / dt) // 4))
    res = evolve(W0, gen, run)
    oracle = von_neumann_oracle(T0, _osc_symbol(), run)
    worst = 0.0
    for _, f, Tt in pair_snapshots(res.snapshots, oracle):
        Wo = wigner_from_density(Tt)
        worst = max(worst, float(np.abs(f.values - Wo.values).max()))
    return worst


def check_eta_route(n, L, t_end, dt):
    spec = _lab(n, L)
    phi0 = analytic_gaussian_eta(spec, 1.5, 0.0)
    W0 = eta_to_wigner(phi0)
    gen = MoyalGenerator(_osc_symbol(), spec, truncation=1)
    run = EvolutionRun(dt=dt, t_end=t_end, stride=max(1, int(t_end / dt) // 2))
    resW = evolve(W0, gen, run)
    resP = evolve(phi0, MoyalGenerator(_osc_symbol(), spec, truncation=1), run)
    worst = 0.0
    for _, fW, fP in pair_snapshots(resW.snapshots, resP.snapshots):
        worst = max(worst, total_variation(fP, eta_density(fW)))
    return worst


def check_reduction_square(n, L):
    specs = [make_phase_space(1, n, L, [[1.0]], _QUICK_TOL) for _ in range(2)]
    sys2 = CompositeSystem((("A", specs[0]), ("B", specs[1])))
    Ta = pure_density(displaced_state(specs[0], 1.0, 0.0))
    Tb = pure_density(ground_state(specs[1]))
    T = tensor(Ta, Tb, sys2)
    Wfull = wigner_from_density(T)
    Wred = reduce_wigner(Wfull, "A")
    Wdirect = wigner_from_density(partial_trace(T, "A"))
    return float(np.abs(Wred.values - Wdirect.values).max())


def check_feedback_axioms():
    lv = LevelSpace(3)
    layout = SubsystemLayout({"P1": lv, "P2": lv, "C1": lv, "C2": lv})
    q = lv.position_op()
    k1 = np.kron(q, q)
    H = build_feedback_hamiltonian(
        np.kron(q, np.eye(3)) * 0.0, np.zeros((9, 9)), k1, k1, layout)
    from .feedback import embed_operator
    K = embed_operator(k1, ("P1", "C1"), layout) \
        + embed_operator(k1, ("P2", "C2"), layout)
    v = classify_coupling(K, layout)
    res = 0.0 if v.kind == FEEDBACK else 1.0
    res = max(res, v.residual)
    v1 = classify_coupling(embed_operator(k1, ("P1", "C1"), layout), layout)
    res = max(res, 0.0 if v1.kind == NO_FEEDBACK else 1.0, v1.residual)
    four = np.kron(np.kron(q, q), np.kron(q, q))
    vg = classify_coupling(four, layout)
    res = max(res, 0.0 if vg.kind == GENERAL else 1.0)
    del H
    return res


def check_wick(seed=4):
    from .moyal import gaussian_measure_derivative
    from .lattice import GaussianMeasure
    rng = np.random.default_rng(seed)
    mu = GaussianMeasure.from_covariance([[1.0, 0.3], [0.3, 2.0]])
    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(-2, 2, size=2)
        h1 = rng.normal(size=2)
        d1 = gaussian_measure_derivative(mu, [h1], x)
        fd = (mu.density(x + eps * h1) - mu.density(x - eps * h1)) / (2 * eps)
        worst = max(worst, abs(d1 - fd))
        h2 = rng.normal(size=2)
        d2 = gaussian_measure_derivative(mu, [h1, h2], x)
        fd2 = (gaussian_measure_derivative(mu, [h1], x + eps * h2)
               - gaussian_measure_derivative(mu, [h1], x - eps * h2)) / (2 * eps)
        worst = max(worst, abs(d2 - fd2))
    return worst


def run_suite(level="quick"):
    """Run all named invariants; returns a list of (name, residual, tol)."""
    if level == "full":
        n, L, count = 64, 10.0, 20
        t_end, dt = 2 * math.pi, 1e-3
    else:
        # structural checks stay exact at any size, but tail-sensitive ones
        # need the full-size box; quick just draws fewer samples
        n, L, count = 64, 10.0, 4
        t_end, dt = 0.5, 1e-3
    n2 = 32
    checks = [
        ("wigner_normalization_and_bound",
         check_normalization_and_bound(n, L, count), 1e-8),
        ("symbol_pairing", check_pairing(n, L, max(count // 2, 2)), 1e-6),
        ("weyl_route_equivalence",
         check_route_equivalence(n, L, max(count // 2, 2)), 1e-6),
        ("inversion_roundtrip", check_roundtrip(n, L, max(count // 2, 2)), 1e-8),
        ("eta_density_consistency", check_eta(n, L), 1e-6),
        ("quadratic_exactness", check_quadratic_exactness(n, L), 1e-12),
        ("oracle_agreement", check_oracle_agreement(n, L, t_end, dt), 1e-4),
        ("eta_route", check_eta_route(n, L, min(t_end, 1.0), dt), 1e-7),
        ("reduction_commuting_square", check_reduction_square(n2, 7.2), 1e-8),
        ("feedback_axioms", check_feedback_axioms(), 1e-8),
        ("wick_formulas", check_wick(), 1e-7),
    ]
    return checks
