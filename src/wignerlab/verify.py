"""Named invariant checks behind the `verify` CLI command and the tests.

Each `check_*` function is the one implementation of its invariant. It
takes what its callers vary and returns the worst residual it saw:

- the random-state checks take a spec, a state count and a
  `np.random.Generator` (states are drawn with `random_mixed`, in order) and
  return a float, or a dict of named floats when one loop measures several
  things (mass and peak; mass, pairing and inverse);
- the series check takes a Wigner field, the product check a composite
  system of grid factors (with a count and a generator), the Wick check a
  generator;
- the evolution checks take the initial state, symbol, truncation and
  `EvolutionRun` and return [(t, error)] over the snapshots paired by time;
  `check_oracle_agreement` also returns the `EvolutionResult`, and
  `worst_error` folds such a list to its largest error.

Every tr(T G) goes through `weyl.operator_expectation`, which raises on an
imaginary residue, so a non-Hermitian state or operator fails the check.
The reduction commuting square is `wigner.reduction_square`, the check
that `feedback.run_scenario` makes at every snapshot.

`run_suite` calls every check at the quick or full size and folds it into a
(name, residual, tolerance) triple that passes when residual < tolerance.
The acceptance criteria (tests/test_acceptance.py) call the same checks at
their own sizes, seeds and bounds.
"""

import math

import numpy as np

from . import engine
from .feedback import (FEEDBACK, GENERAL, NO_FEEDBACK, SubsystemLayout,
                       assemble, classify_coupling, embed_operator)
from .hilbert import (LEBESGUE, CompositeSystem, DensityOperator, LevelSpace,
                      pure_density, tensor, tensor_many)
from .lattice import GaussianMeasure, make_phase_space
from .moyal import (EvolutionRun, MoyalGenerator, evolve, moyal_rhs,
                    pair_snapshots, von_neumann_oracle)
from .states import (analytic_gaussian_eta, displaced_state, ground_state,
                     random_mixed)
from .tolerances import TolerancePolicy
from .weyl import (HamiltonianSymbol, expectation, operator_expectation,
                   weyl_quantize)
from .wigner import (eta_density, eta_to_wigner, inverse_wigner,
                     pair_expectation, reduction_square, total_variation,
                     weyl_samples_field, wigner_from_density,
                     wigner_from_weyl_function)

OSC = HamiltonianSymbol((((2,), (0,), 0.5), ((0,), (2,), 0.5)), d=1)
QUARTIC = HamiltonianSymbol((((0,), (2,), 0.5), ((4,), (0,), 0.25)), d=1)

# n = 32 boxes carry lattice tails above the strict defaults
_QUICK_TOL = TolerancePolicy(domain_tail_mass=1e-10, imaginary_residue=1e-5)


def check_normalization_and_bound(spec, count, rng):
    """Worst |integral W - 1| ("mass") and max |W| ("peak")."""
    mass = peak = 0.0
    for _ in range(count):
        W = wigner_from_density(random_mixed(spec, rng))
        mass = max(mass, abs(W.integrate().real - 1.0))
        peak = max(peak, float(np.abs(W.values).max()))
    return {"mass": mass, "peak": peak}


def check_pairing(spec, count, rng):
    """Worst |<q^a p^b, W> - tr(T Op(q^a p^b))| over a + b <= 4."""
    symbols = [HamiltonianSymbol((((a,), (b,), 1.0),), d=1)
               for a in range(5) for b in range(5 - a)]
    ops = [weyl_quantize(sym, spec) for sym in symbols]
    worst = 0.0
    for _ in range(count):
        T = random_mixed(spec, rng)
        W = wigner_from_density(T)
        for sym, op in zip(symbols, ops):
            worst = max(worst, abs(pair_expectation(W, sym)
                                   - operator_expectation(T, op)))
    return worst


def check_route_equivalence(spec, count, rng):
    """Worst max |W - W2| over random states: W by the direct map
    (wigner_from_density) and W2 through the Weyl samples
    (wigner_from_weyl_function of weyl_samples_field)."""
    worst = 0.0
    for _ in range(count):
        T = random_mixed(spec, rng)
        W2 = wigner_from_weyl_function(weyl_samples_field(T))
        worst = max(worst, float(np.abs(wigner_from_density(T).values
                                        - W2.values).max()))
    return worst


def check_roundtrip(spec, count, rng):
    """Worst relative Frobenius error of inverse_wigner(W[T]) against T."""
    worst = 0.0
    for _ in range(count):
        T = random_mixed(spec, rng)
        T2 = inverse_wigner(wigner_from_density(T))
        worst = max(worst, float(np.linalg.norm(T2.matrix - T.matrix)
                                 / np.linalg.norm(T.matrix)))
    return worst


def check_eta(spec, count, rng):
    """Eta-density identities: worst mass error ("mass"), oscillator
    pairing error ("pairing") and max |eta_to_wigner(Phi) - W| ("inverse").
    """
    mass = pairing = inverse = 0.0
    for _ in range(count):
        T = random_mixed(spec, rng)
        W = wigner_from_density(T)
        phi = eta_density(W)
        mass = max(mass, abs(phi.eta_integrate().real - 1.0))
        pairing = max(pairing, abs(pair_expectation(phi, OSC)
                                   - expectation(T, OSC)))
        inverse = max(inverse, float(np.abs(eta_to_wigner(phi).values
                                            - W.values).max()))
    return {"mass": mass, "pairing": pairing, "inverse": inverse}


def check_quadratic_exactness(W):
    """max |RHS_K - RHS_4| where the Moyal series ends: K = 1 for the
    oscillator ("quadratic"), K = 2 for the quartic ("quartic")."""
    out = {}
    for name, sym, K in (("quadratic", OSC, 1), ("quartic", QUARTIC, 2)):
        rK = moyal_rhs(W, MoyalGenerator(sym, W.space, truncation=K))
        r4 = moyal_rhs(W, MoyalGenerator(sym, W.space, truncation=4))
        out[name] = float(np.abs(rK.values - r4.values).max())
    return out


def oracle_errors(snapshots, oracle):
    """[(t, max |W(t) - W[T_oracle(t)]|)] over snapshots paired by time."""
    return [(t, float(np.abs(f.values - wigner_from_density(Tt).values).max()))
            for t, f, Tt in pair_snapshots(snapshots, oracle)]


def check_oracle_agreement(T0, symbol, truncation, run, scheme="spectral"):
    """Moyal evolution of W[T0] against the von Neumann oracle.

    Returns (oracle_errors, the EvolutionResult).
    """
    gen = MoyalGenerator(symbol, T0.space, truncation=truncation,
                         scheme=scheme)
    res = evolve(wigner_from_density(T0), gen, run)
    oracle = von_neumann_oracle(T0, symbol, run)
    return oracle_errors(res.snapshots, oracle), res


def check_eta_route(phi0, symbol, truncation, run):
    """[(t, TV(Phi(t), eta_density(W(t))))]: eta evolution against the eta
    division of the Wigner evolution from eta_to_wigner(phi0)."""
    gen = MoyalGenerator(symbol, phi0.space, truncation=truncation)
    resW = evolve(eta_to_wigner(phi0), gen, run)
    resP = evolve(phi0, gen, run)
    return [(t, total_variation(fP, eta_density(fW)))
            for t, fW, fP in pair_snapshots(resW.snapshots, resP.snapshots)]


def check_product_wigner(system, count, rng):
    """Worst max |W - W_full| over products of random states, one per grid
    factor of `system`: W by `wigner_from_density`, which maps a product
    factor by factor, W_full by the full lattice map of the product's
    matrix. The states mix modes of up to one quantum, which the n = 32
    boxes resolve within their imaginary-residue policy. A product that
    records no parts would compare the full map with itself, so it reads
    inf instead.
    """
    worst = 0.0
    for _ in range(count):
        T = tensor_many([random_mixed(s, rng, max_quanta=1)
                         for _, s in system.factors], system)
        if T.parts is None:
            return math.inf
        full = engine.density_to_wigner(T.matrix, system.axis_geometry())
        worst = max(worst, float(np.abs(wigner_from_density(T).values
                                        - full.real).max()))
    return worst


def feedback_couplings():
    """Four qutrit roles and one position coupling of each class.

    Returns (layout, {class: K}).
    """
    lv = LevelSpace(3)
    layout = SubsystemLayout({"P1": lv, "P2": lv, "C1": lv, "C2": lv})
    q = lv.position_op()
    k1 = np.kron(q, q)
    return layout, {
        FEEDBACK: assemble(((("P1", "C1"), k1), (("P2", "C2"), k1)), layout),
        GENERAL: np.kron(k1, k1),
        NO_FEEDBACK: embed_operator(k1, ("P1", "C1"), layout)}


def check_feedback_axioms():
    """classify_coupling on each coupling: {expected class: verdict}."""
    layout, couplings = feedback_couplings()
    return {kind: classify_coupling(K, layout)
            for kind, K in couplings.items()}


def check_wick(rng):
    """Worst |Wick derivative - centered difference| over orders 1 and 2."""
    mu = GaussianMeasure.from_covariance([[1.0, 0.3], [0.3, 2.0]])
    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(-2, 2, size=2)
        h1 = rng.normal(size=2)
        h2 = rng.normal(size=2)
        d1 = mu.derivative([h1], x)
        fd1 = (mu.density(x + eps * h1) - mu.density(x - eps * h1)) / (2 * eps)
        worst = max(worst, abs(d1 - fd1))
        d2 = mu.derivative([h1, h2], x)
        fd2 = (mu.derivative([h1], x + eps * h2)
               - mu.derivative([h1], x - eps * h2)) / (2 * eps)
        worst = max(worst, abs(d2 - fd2))
    return worst


def worst_error(errors):
    """The largest error of [(t, error)]."""
    return max(e for _, e in errors)


def run_suite(level="quick"):
    """Run all named invariants; returns a list of (name, residual, tol)."""
    # the tail-sensitive checks need the full-size box at both levels; quick
    # draws fewer states and evolves over a shorter horizon
    count, t_end = (20, 2 * math.pi) if level == "full" else (4, 0.5)
    few, dt, t_eta = max(count // 2, 2), 1e-3, min(t_end, 1.0)
    spec = make_phase_space(1, 64, 10.0, [[1.0]])
    norm = check_normalization_and_bound(spec, count, np.random.default_rng(0))
    W = wigner_from_density(pure_density(displaced_state(spec, 1.0, 0.5)))
    oracle, _ = check_oracle_agreement(
        pure_density(displaced_state(spec, 2.0, 0.0)), OSC, 1,
        EvolutionRun(dt=dt, t_end=t_end, stride=max(1, int(t_end / dt) // 4)))
    eta_route = check_eta_route(
        analytic_gaussian_eta(spec, 1.5, 0.0), OSC, 1,
        EvolutionRun(dt=dt, t_end=t_eta, stride=max(1, int(t_eta / dt) // 2)))
    spec2 = make_phase_space(1, 32, 7.2, [[1.0]], _QUICK_TOL)
    pair = CompositeSystem((("A", spec2), ("B", spec2)))
    # the square reduces the full two-mode map, so the product is passed
    # without its parts; product_wigner checks the factor-by-factor map
    product = DensityOperator(
        tensor(pure_density(displaced_state(spec2, 1.0, 0.0)),
               pure_density(ground_state(spec2)), pair).matrix,
        LEBESGUE, pair, _QUICK_TOL)
    verdicts = check_feedback_axioms()
    return [
        ("wigner_normalization_and_bound",
         max(norm["mass"], norm["peak"] - 1 / math.pi), 1e-8),
        ("symbol_pairing",
         check_pairing(spec, few, np.random.default_rng(1)), 1e-6),
        ("weyl_route_equivalence",
         check_route_equivalence(spec, few, np.random.default_rng(2)), 1e-6),
        ("inversion_roundtrip",
         check_roundtrip(spec, few, np.random.default_rng(3)), 1e-8),
        ("eta_density_consistency",
         max(check_eta(spec, few, np.random.default_rng(5)).values()), 1e-6),
        ("quadratic_exactness",
         max(check_quadratic_exactness(W).values()), 1e-12),
        ("oracle_agreement", worst_error(oracle), 1e-4),
        ("eta_route", worst_error(eta_route), 1e-7),
        ("reduction_commuting_square",
         reduction_square(product, product.space.labels[0]), 1e-8),
        ("feedback_axioms",
         max(*(float(v.kind != kind) for kind, v in verdicts.items()),
             verdicts[FEEDBACK].residual, verdicts[NO_FEEDBACK].residual),
         1e-8),
        ("wick_formulas", check_wick(np.random.default_rng(4)), 1e-7),
        ("product_wigner",
         check_product_wigner(pair, few, np.random.default_rng(6)), 1e-12),
    ]
