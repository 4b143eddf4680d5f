"""Acceptance criteria, one test per criterion, each printing a verdict line.

The invariants are computed by the `wignerlab.verify` checks, the code the
`verify` command runs; geometry, seeds, counts and tolerances are pinned
here, not configured elsewhere. Random states are drawn from the
grid-faithful ensemble (low oscillator quanta) so the strict transform
tolerances measure the library, not the states' box tails.
"""

import math
import time
import warnings

import numpy as np
import pytest

from oracles import chi_by_explicit_unitaries
from wignerlab import (LevelSpace, SubsystemLayout, build_feedback_hamiltonian,
                       classify_coupling, pure_density, run_scenario, tensor,
                       weyl_quantize, wigner_from_density)
from wignerlab.feedback import FEEDBACK, GENERAL, NO_FEEDBACK
from wignerlab.hilbert import DensityOperator, LEBESGUE, tensor_many
from wignerlab.moyal import (EvolutionRun, MoyalGenerator, evolve,
                             von_neumann_oracle)
from wignerlab.states import (analytic_gaussian_eta, displaced_state,
                              ground_state, random_mixed)
from wignerlab.verify import (
    OSC, QUARTIC, check_eta, check_eta_route, check_feedback_axioms,
    check_normalization_and_bound, check_oracle_agreement, check_pairing,
    check_quadratic_exactness, check_roundtrip, check_route_equivalence,
    check_wick, feedback_couplings, oracle_errors, worst_error)
from wignerlab.weyl import HamiltonianSymbol
from wignerlab.wigner import (WEYL_SAMPLES, PhaseSpaceField,
                              reduction_square, wigner_from_weyl_function)


def _report(name, value, tol, direction="<"):
    ok = value < tol if direction == "<" else value > tol
    print(f"{'PASS' if ok else 'FAIL'} {name}: {value:.3e} {direction} {tol:g}")
    assert ok, f"{name}: {value:.3e} not {direction} {tol:g}"


def test_criterion_01_normalization_and_bound(lab64):
    t0 = time.time()
    res = check_normalization_and_bound(lab64, 50, np.random.default_rng(1))
    elapsed = time.time() - t0
    _report("1a wigner normalization (50 states)", res["mass"], 1e-8)
    _report("1b pointwise bound", res["peak"], 1 / math.pi + 1e-8)
    _report("1c runtime [s]", elapsed, 10.0)


def test_criterion_02_symbol_pairing(lab64):
    t0 = time.time()
    worst = check_pairing(lab64, 20, np.random.default_rng(2))
    elapsed = time.time() - t0
    _report("2a pairing, monomials deg <= 4, 20 states", worst, 1e-6)
    _report("2b runtime [s]", elapsed, 30.0)


def test_criterion_03_route_equivalence(lab64):
    # the first two states take their Weyl samples from explicit unitaries
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(2):
        T = random_mixed(lab64, rng)
        W2 = wigner_from_weyl_function(PhaseSpaceField(
            chi_by_explicit_unitaries(T.matrix, lab64), WEYL_SAMPLES, lab64,
            "lebesgue", lab64.tol))
        worst = max(worst, float(np.abs(wigner_from_density(T).values
                                        - W2.values).max()))
    worst = max(worst, check_route_equivalence(lab64, 8, rng))
    _report("3 Weyl-function route vs kernel route (10 states)", worst, 1e-6)


def test_criterion_04_inversion_roundtrip(lab64):
    _report("4 inversion roundtrip, Frobenius relative (20 states)",
            check_roundtrip(lab64, 20, np.random.default_rng(4)), 1e-8)


def test_criterion_05_eta_consistency(lab64):
    res = check_eta(lab64, 5, np.random.default_rng(5))
    _report("5a eta-density normalization", res["mass"], 1e-8)
    _report("5b eta pairing identity", res["pairing"], 1e-6)


def test_criterion_06_series_termination(lab64):
    res = check_quadratic_exactness(
        wigner_from_density(pure_density(displaced_state(lab64, 1.5, 0.5))))
    _report("6a quadratic: K=1 vs K=4", res["quadratic"], 1e-12)
    _report("6b quartic: K=2 vs K=4", res["quartic"], 1e-12)


def test_criterion_07_oracle_agreement(lab64, lab_quartic):
    t0 = time.time()
    errors, res = check_oracle_agreement(
        pure_density(displaced_state(lab64, 2.0, 0.0)), OSC, 1,
        EvolutionRun(dt=1e-3, t_end=2 * math.pi, stride=1571))
    elapsed = time.time() - t0
    W0 = res.snapshots[0][1]
    _report("7a harmonic vs oracle, T=2pi, dt=1e-3", worst_error(errors), 1e-4)
    _report("7b closed orbit: W(2pi) vs W(0)",
            float(np.abs(res.final_field.values - W0.values).max()), 1e-4)
    _report("7c runtime [s]", elapsed, 120.0)

    # quartic leg: dt pinned at 1e-3 exceeds the conservative guard; the run
    # is stable (RK4 |lambda| dt < 2.8 on this box) so the override is used
    Tq = pure_density(displaced_state(lab_quartic, 1.0, 0.0))
    runq = EvolutionRun(dt=1e-3, t_end=0.5, stride=100, enforce_cfl=False)
    with pytest.warns(RuntimeWarning, match="CFL"):
        resq = evolve(wigner_from_density(Tq),
                      MoyalGenerator(QUARTIC, lab_quartic, truncation=2), runq)
    oracleq = von_neumann_oracle(Tq, QUARTIC, runq)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        errorsq = oracle_errors(resq.snapshots, oracleq)
    _report("7d quartic vs oracle, T=0.5, K=2", worst_error(errorsq), 1e-3)


def test_criterion_08_eta_route(lab64):
    tv = check_eta_route(analytic_gaussian_eta(lab64, 1.5, 0.0), OSC, 1,
                         EvolutionRun(dt=1e-3, t_end=1.0, stride=250))
    _report("8 eta-evolution vs eta-division of W-evolution (TV metric)",
            worst_error(tv), 1e-7)


def test_criterion_09_reduction_square(sys2, spec32c):
    Tprod = tensor(pure_density(displaced_state(spec32c, 1.0, 0.0)),
                   pure_density(ground_state(spec32c)), sys2)
    _report("9a reduction square, product state",
            reduction_square(Tprod, "A"), 1e-8)

    n = spec32c.n_per_axis
    osc = weyl_quantize(OSC, spec32c)
    qh = weyl_quantize(HamiltonianSymbol((((1,), (0,), 1.0),), d=1), spec32c)
    H = np.kron(osc, np.eye(n)) + np.kron(np.eye(n), osc) + 0.6 * np.kron(qh, qh)
    _, V = np.linalg.eigh(H)
    Tent = DensityOperator(np.outer(V[:, 0], V[:, 0].conj()), LEBESGUE, sys2,
                           spec32c.tol)
    _report("9b reduction square, entangled coupled ground state",
            reduction_square(Tent, "A"), 1e-6)


def test_criterion_10_feedback_axioms():
    verdicts = check_feedback_axioms()
    assert verdicts[FEEDBACK].kind == FEEDBACK
    _report("10a feedback-form residual", verdicts[FEEDBACK].residual, 1e-8)
    assert verdicts[NO_FEEDBACK].kind == NO_FEEDBACK
    _report("10b no-feedback residual", verdicts[NO_FEEDBACK].residual, 1e-8)
    assert verdicts[GENERAL].kind == GENERAL
    _report("10c four-factor counterexample residual",
            verdicts[GENERAL].residual, 1e-2, direction=">")

    layout, couplings = feedback_couplings()
    rng = np.random.default_rng(10)
    ok = True
    for kind, K in couplings.items():
        for _ in range(5):
            alpha = float(10.0 ** rng.uniform(-3, 3))
            c = float(rng.uniform(-5, 5))
            v = classify_coupling(alpha * K + c * np.eye(layout.dim), layout)
            ok = ok and (v.kind == kind)
    print(f"{'PASS' if ok else 'FAIL'} 10d verdict invariant under aK + cI")
    assert ok


def test_criterion_11_scenario_sanity():
    lv = LevelSpace(4)
    layout = SubsystemLayout({"P1": lv, "P2": lv, "C1": lv, "C2": lv})
    num = lv.number_op()
    q = lv.position_op()
    hp = np.kron(num, np.eye(4)) + np.kron(np.eye(4), num)
    psi = np.zeros(4)
    psi[0], psi[1] = math.sqrt(0.7), math.sqrt(0.3)
    ops = []
    for lab in layout.labels:
        v = psi if lab == "P1" else np.eye(4)[:, 0]
        ops.append(DensityOperator(np.outer(v, v.conj()), LEBESGUE, lv))
    T0 = tensor_many(ops, layout.system())
    run = EvolutionRun(dt=1e-2, t_end=3.0, stride=30)

    H0 = build_feedback_hamiltonian(hp, hp, np.zeros((16, 16)),
                                    np.zeros((16, 16)), layout)
    res0 = run_scenario(layout, H0, T0, run, h_plant=hp)
    _report("11a uncoupled scenario: plant purity drift",
            float(np.abs(res0.plant_purity - 1.0).max()), 1e-8)

    k = 0.4 * np.kron(q, q)
    H1 = build_feedback_hamiltonian(hp, hp, k, k, layout)
    res1 = run_scenario(layout, H1, T0, run, h_plant=hp)
    _report("11b feedback coupling: plant purity dips below 1 - 1e-4",
            float(1.0 - res1.plant_purity.min()), 1e-4, direction=">")


def test_criterion_12_wick_formulas():
    _report("12 Wick formulas vs centered differences, orders 1-2",
            check_wick(np.random.default_rng(12)), 1e-7)
