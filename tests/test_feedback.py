import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import embed_by_permutation
from wignerlab import feedback, hilbert
from wignerlab import (DensityOperator, HamiltonianSymbol, LevelSpace,
                       RefinedParts, SubsystemLayout, assemble,
                       build_feedback_hamiltonian, build_general_hamiltonian,
                       build_refined_hamiltonian, classify_coupling,
                       embed_operator, partial_trace, pure_density,
                       run_scenario, tensor, to_gaussian_rep, weyl_quantize,
                       wigner_from_density)
from wignerlab.errors import (DimensionCap, FactorMismatch, NonHermitianInput,
                              UnknownSubsystem, WrongRepresentation)
from wignerlab.feedback import FEEDBACK, GENERAL, NO_FEEDBACK
from wignerlab.config import parse_config
from wignerlab.hilbert import (EIGH_COST, LEBESGUE, exact_propagate,
                               factorization, spectral_interval, tensor_many)
from wignerlab.moyal import EvolutionRun
from wignerlab.runners import _make_run, assemble_layout, build_composite_state
from wignerlab.states import displaced_state, ground_state, level_thermal

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

LV3 = LevelSpace(3)
LV4 = LevelSpace(4)


def four_level_layout(k=4):
    lv = LevelSpace(k)
    return SubsystemLayout({"P1": lv, "P2": lv, "C1": lv, "C2": lv})


def test_layout_validation():
    with pytest.raises(FactorMismatch):
        SubsystemLayout({"P1": LV3})
    with pytest.raises(UnknownSubsystem):
        SubsystemLayout({"P1": LV3, "C1": LV3, "X9": LV3})
    big = LevelSpace(256)
    with pytest.raises(DimensionCap):
        SubsystemLayout({"P1": big, "P2": big, "C1": big, "C2": LevelSpace(17)})


def test_embedding_matches_permutation_oracle():
    layout = SubsystemLayout({"P1": LevelSpace(2), "P2": LevelSpace(3),
                              "C1": LevelSpace(2), "C2": LevelSpace(3)})
    dims = list(layout.dims)
    q2 = LevelSpace(2).position_op()
    q3 = LevelSpace(3).position_op()
    # P1 x C1 sit at layout positions 0 and 2
    op = np.kron(q2, q2)
    got = embed_operator(op, ("P1", "C1"), layout)
    want = embed_by_permutation(op, [0, 2], dims)
    assert np.abs(got - want).max() < 1e-12
    op2 = np.kron(q3, q3)
    got2 = embed_operator(op2, ("P2", "C2"), layout)
    want2 = embed_by_permutation(op2, [1, 3], dims)
    assert np.abs(got2 - want2).max() < 1e-12


def test_uncoupled_build_has_additive_spectrum():
    layout = four_level_layout(3)
    num = LV3.number_op()
    hp = np.kron(num, np.eye(3)) + np.kron(np.eye(3), num)
    hc = 2.0 * (np.kron(num, np.eye(3)) + np.kron(np.eye(3), num))
    H = build_feedback_hamiltonian(hp, hc, np.zeros((9, 9)), np.zeros((9, 9)),
                                   layout)
    ev = np.sort(np.linalg.eigvalsh(H))
    want = np.sort([a + b + 2 * (c + d)
                    for a in range(3) for b in range(3)
                    for c in range(3) for d in range(3)])
    assert np.abs(ev - want).max() < 1e-10


def test_feedback_build_hermitian_and_classified():
    layout = four_level_layout(4)
    q = LV4.position_op()
    num = LV4.number_op()
    hp = np.kron(num, np.eye(4)) + np.kron(np.eye(4), num)
    k1 = np.kron(q, q)
    H = build_feedback_hamiltonian(hp, hp, k1, k1, layout)
    assert np.abs(H - H.conj().T).max() < 1e-10
    K = embed_operator(k1, ("P1", "C1"), layout) \
        + embed_operator(k1, ("P2", "C2"), layout)
    v = classify_coupling(K, layout)
    assert v.kind == FEEDBACK
    assert v.residual < 1e-10
    assert np.abs(v.witness_a - v.witness_a.conj().T).max() < 1e-10


def test_general_build_special_cases():
    layout = four_level_layout(3)
    q = LV3.position_op()
    num = LV3.number_op()
    hp = np.kron(num, np.eye(3)) + np.kron(np.eye(3), num)
    k1 = np.kron(q, q)
    K = embed_operator(k1, ("P1", "C1"), layout) \
        + embed_operator(k1, ("P2", "C2"), layout)
    H1 = build_general_hamiltonian(hp, hp, K, layout)
    H2 = build_feedback_hamiltonian(hp, hp, k1, k1, layout)
    assert np.abs(H1 - H2).max() < 1e-12

    K_nf = embed_operator(k1, ("P1", "C1"), layout)
    assert classify_coupling(K_nf, layout).kind == NO_FEEDBACK

    four = np.kron(np.kron(q, q), np.kron(q, q))
    v = classify_coupling(four, layout)
    assert v.kind == GENERAL
    assert v.residual > 1e-2


def test_refined_build_reduces_to_feedback_form():
    layout = four_level_layout(3)
    q = LV3.position_op()
    num = LV3.number_op().astype(complex)
    z = np.zeros((9, 9))
    parts = RefinedParts(h_p1=num, h_p2=num, h_c1=num, h_c2=num,
                         k_p1p2=z[:9, :9] * 0, k_c1c2=np.zeros((9, 9)),
                         k_p1c1=np.kron(q, q), k_p2c2=np.kron(q, q))
    parts = RefinedParts(num, num, num, num, np.zeros((9, 9)),
                         np.zeros((9, 9)), np.kron(q, q), np.kron(q, q))
    H5 = build_refined_hamiltonian(parts, layout)
    hp = np.kron(num, np.eye(3)) + np.kron(np.eye(3), num)
    Hf = build_feedback_hamiltonian(hp, hp, np.kron(q, q), np.kron(q, q),
                                    layout)
    assert np.abs(H5 - Hf).max() < 1e-12
    assert np.abs(H5 - H5.conj().T).max() < 1e-10
    assert np.abs(np.linalg.eigvalsh(H5).imag).max() == 0.0


def test_refined_single_block_is_no_feedback():
    layout = four_level_layout(3)
    q = LV3.position_op()
    z = np.zeros((9, 9))
    z3 = np.zeros((3, 3))
    parts = RefinedParts(z3, z3, z3, z3, z, z, np.kron(q, q), z)
    H = build_refined_hamiltonian(parts, layout)
    v = classify_coupling(H, layout)
    assert v.kind == NO_FEEDBACK


def test_builder_swap_symmetry():
    # simultaneous swap P1<->P2, C1<->C2, K1<->K2 conjugates the build
    layout = SubsystemLayout({"P1": LV3, "P2": LV3, "C1": LV3, "C2": LV3})
    q = LV3.position_op()
    num = LV3.number_op()
    swap = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            swap[i * 3 + j, j * 3 + i] = 1.0
    hp = np.kron(num, np.eye(3)) + 0.5 * np.kron(np.eye(3), num)
    hc = np.kron(num, np.eye(3)) + 2.0 * np.kron(np.eye(3), num)
    k1 = np.kron(q, q)
    k2 = 0.3 * np.kron(q, q)
    H = build_feedback_hamiltonian(hp, hp * 0 + hc, k1, k2, layout)
    hp_sw = swap @ hp @ swap.T
    hc_sw = swap @ hc @ swap.T
    H_sw = build_feedback_hamiltonian(hp_sw, hc_sw, k2, k1, layout)
    S = embed_by_permutation(np.kron(swap, swap), [0, 1, 2, 3],
                             [3, 3, 3, 3]) * 0
    # permutation operator on the full space: swap (P1,P2) and (C1,C2)
    P = np.kron(swap, swap)
    assert np.abs(H_sw - P @ H @ P.T).max() < 1e-12
    del S


def test_non_hermitian_inputs_rejected():
    layout = four_level_layout(3)
    bad = np.triu(np.ones((9, 9)))
    with pytest.raises(NonHermitianInput):
        build_general_hamiltonian(bad, np.zeros((9, 9)), np.zeros((81, 81)),
                                  layout)
    with pytest.raises(NonHermitianInput):
        classify_coupling(np.triu(np.ones((81, 81))), layout)


def test_classifier_scalar_and_scale_invariance():
    layout = four_level_layout(3)
    D = layout.dim
    v = classify_coupling(2.5 * np.eye(D), layout)
    assert v.kind == NO_FEEDBACK
    q = LV3.position_op()
    K = embed_operator(np.kron(q, q), ("P1", "C1"), layout) \
        + embed_operator(np.kron(q, q), ("P2", "C2"), layout)
    base = classify_coupling(K, layout).kind
    assert base == FEEDBACK


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=-10, max_value=10))
def test_classifier_affine_invariance(alpha, c):
    layout = four_level_layout(3)
    q = LV3.position_op()
    cases = {
        FEEDBACK: embed_operator(np.kron(q, q), ("P1", "C1"), layout)
        + embed_operator(np.kron(q, q), ("P2", "C2"), layout),
        NO_FEEDBACK: embed_operator(np.kron(q, q), ("P1", "C1"), layout),
        GENERAL: np.kron(np.kron(q, q), np.kron(q, q)),
    }
    for kind, K in cases.items():
        v = classify_coupling(alpha * K + c * np.eye(layout.dim), layout)
        assert v.kind == kind


def make_scenario_layout():
    lv = LevelSpace(4)
    return SubsystemLayout({"P1": lv, "P2": lv, "C1": lv, "C2": lv})


def test_scenario_uncoupled_conserves_plant(rng):
    layout = make_scenario_layout()
    lv = LevelSpace(4)
    num = lv.number_op()
    hp = np.kron(num, np.eye(4)) + np.kron(np.eye(4), num)
    H = build_feedback_hamiltonian(hp, hp, np.zeros((16, 16)),
                                   np.zeros((16, 16)), layout)
    sys = layout.system()
    psi = np.zeros(4)
    psi[0] = np.sqrt(0.7)
    psi[1] = np.sqrt(0.3)
    ops = []
    for lab in layout.labels:
        v = psi if lab == "P1" else np.eye(4)[:, 0]
        ops.append(DensityOperator(np.outer(v, v.conj()), LEBESGUE,
                                   LevelSpace(4)))
    T0 = tensor_many(ops, sys)
    run = EvolutionRun(dt=1e-2, t_end=2.0, stride=50)
    res = run_scenario(layout, H, T0, run, h_plant=hp)
    assert np.abs(res.plant_purity - 1.0).max() < 1e-8
    assert np.abs(res.plant_energy - res.plant_energy[0]).max() < 1e-8
    # uncoupled plant evolves exactly as the isolated plant
    evals, evecs = np.linalg.eigh(hp)
    TP0 = res.plant_states[0][1].matrix
    for t, TP in res.plant_states:
        U = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
        assert np.abs(TP.matrix - U @ TP0 @ U.conj().T).max() < 1e-8


def test_scenario_coupling_entangles_plant():
    layout = make_scenario_layout()
    lv = LevelSpace(4)
    num = lv.number_op()
    q = lv.position_op()
    hp = np.kron(num, np.eye(4)) + np.kron(np.eye(4), num)
    k = 0.4 * np.kron(q, q)
    H = build_feedback_hamiltonian(hp, hp, k, k, layout)
    sys = layout.system()
    psi = np.zeros(4)
    psi[0] = np.sqrt(0.7)
    psi[1] = np.sqrt(0.3)
    ops = []
    for lab in layout.labels:
        v = psi if lab == "P1" else np.eye(4)[:, 0]
        ops.append(DensityOperator(np.outer(v, v.conj()), LEBESGUE,
                                   LevelSpace(4)))
    T0 = tensor_many(ops, sys)
    run = EvolutionRun(dt=1e-2, t_end=3.0, stride=30)
    res = run_scenario(layout, H, T0, run, h_plant=hp)
    assert res.plant_purity.min() < 1.0 - 1e-4


def test_scenario_reduction_square_grid_factors(spec32c):
    # two grid factors, total d = 2: the reduction commuting square at every snapshot
    layout = SubsystemLayout({"P1": spec32c, "C1": spec32c})
    n = spec32c.n_per_axis
    osc = weyl_quantize(HamiltonianSymbol((((2,), (0,), 0.5),
                                           ((0,), (2,), 0.5)), d=1), spec32c)
    qh = weyl_quantize(HamiltonianSymbol((((1,), (0,), 1.0),), d=1), spec32c)
    K = 0.4 * np.kron(qh, qh)
    H = build_general_hamiltonian(osc, osc, K, layout)
    sys = layout.system()
    Ta = pure_density(displaced_state(spec32c, 1.0, 0.0))
    Tb = pure_density(ground_state(spec32c))
    T0 = tensor(Ta, Tb, sys)
    run = EvolutionRun(dt=1e-2, t_end=0.4, stride=20)
    res = run_scenario(layout, H, T0, run, h_plant=osc)
    assert res.square_residuals.size > 0
    assert res.square_residuals.max() < 1e-6
    assert len(res.plant_wigner) == len(res.times)


def test_scenario_holds_one_composite_field_at_a_time(spec32c):
    # D = 1024, three snapshots: T(t), the map's output and its work buffer
    # are three D x D buffers; a composite field kept from the snapshot
    # before would add a fourth (half of one when reduced to its real part)
    layout = SubsystemLayout({"P1": spec32c, "C1": spec32c})
    osc = weyl_quantize(HamiltonianSymbol((((2,), (0,), 0.5),
                                           ((0,), (2,), 0.5)), d=1), spec32c)
    qh = weyl_quantize(HamiltonianSymbol((((1,), (0,), 1.0),), d=1), spec32c)
    H = build_general_hamiltonian(osc, osc, 0.4 * np.kron(qh, qh), layout)
    T0 = tensor(pure_density(displaced_state(spec32c, 1.0, 0.0)),
                pure_density(ground_state(spec32c)), layout.system())
    run = EvolutionRun(dt=1e-2, t_end=0.2, stride=10)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        res = run_scenario(layout, H, T0, run, h_plant=osc)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert len(res.square_residuals) == 3
    assert peak <= 3.25 * layout.dim ** 2 * 16, peak / (layout.dim ** 2 * 16)
    # T(0) is T0 itself and the series route propagates its parts' factors,
    # so T0's D x D matrix is never formed
    assert "matrix" not in vars(T0)


def test_classical_scenario_never_forms_the_product_matrix(spec32c):
    # the classical leg reads T(0)'s partial trace and Wigner field from the
    # product's parts, so T0's D x D matrix is never formed
    layout = SubsystemLayout({"P1": spec32c, "C1": spec32c})
    osc = weyl_quantize(HamiltonianSymbol((((2,), (0,), 0.5),
                                           ((0,), (2,), 0.5)), d=1), spec32c)
    qh = weyl_quantize(HamiltonianSymbol((((1,), (0,), 1.0),), d=1), spec32c)
    H = build_general_hamiltonian(osc, osc, 0.4 * np.kron(qh, qh), layout)
    T0 = tensor(pure_density(displaced_state(spec32c, 1.0, 0.0)),
                pure_density(ground_state(spec32c)), layout.system())
    sym2 = HamiltonianSymbol(
        (((2, 0), (0, 0), 0.5), ((0, 2), (0, 0), 0.5),
         ((0, 0), (2, 0), 0.5), ((0, 0), (0, 2), 0.5),
         ((1, 1), (0, 0), 0.3)), d=2)
    run = EvolutionRun(dt=2e-3, t_end=4e-3, stride=1, enforce_cfl=False)
    res = run_scenario(layout, H, T0, run, classical_feedback=True,
                       hamiltonian_symbol=sym2)
    assert len(res.plant_wigner) == len(run.snapshot_times())
    assert "matrix" not in vars(T0)


def test_scenario_classical_feedback_mode(spec32c):
    layout = SubsystemLayout({"P1": spec32c, "C1": spec32c})
    sym2 = HamiltonianSymbol(
        (((2, 0), (0, 0), 0.5), ((0, 2), (0, 0), 0.5),
         ((0, 0), (2, 0), 0.5), ((0, 0), (0, 2), 0.5),
         ((1, 1), (0, 0), 0.3)), d=2)
    osc = weyl_quantize(HamiltonianSymbol((((2,), (0,), 0.5),
                                           ((0,), (2,), 0.5)), d=1), spec32c)
    n = spec32c.n_per_axis
    H = build_general_hamiltonian(osc, osc, np.zeros((n * n, n * n)), layout)
    sys = layout.system()
    T0 = tensor(pure_density(displaced_state(spec32c, 1.0, 0.0)),
                pure_density(ground_state(spec32c)), sys)
    run = EvolutionRun(dt=2e-3, t_end=0.04, stride=10, enforce_cfl=False)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = run_scenario(layout, H, T0, run, classical_feedback=True,
                           hamiltonian_symbol=sym2)
    assert len(res.plant_wigner) >= 2
    for t, f in res.plant_wigner:
        assert abs(f.integrate().real - 1.0) < 1e-6


def test_scenario_dimension_cap():
    big = LevelSpace(128)
    layout = SubsystemLayout({"P1": big, "C1": big})
    # the cap triggers before the Hamiltonian or state are touched
    with pytest.raises(DimensionCap):
        run_scenario(layout, None, None,
                     EvolutionRun(dt=0.1, t_end=0.2, stride=1))


def test_perturbation_factor_traced_out():
    lv = LevelSpace(2)
    layout = SubsystemLayout({"P1": lv, "C1": lv, "W": lv})
    num = lv.number_op()
    H = (embed_operator(num, "P1", layout)
         + embed_operator(num, "C1", layout)
         + 0.3 * embed_operator(np.kron(lv.position_op(), lv.position_op()),
                                ("P1", "W"), layout))
    sys = layout.system()
    e0 = np.eye(2)[:, 0]
    ops = [DensityOperator(np.outer(e0, e0), LEBESGUE, lv) for _ in range(3)]
    T0 = tensor_many(ops, sys)
    run = EvolutionRun(dt=1e-2, t_end=1.0, stride=25)
    res = run_scenario(layout, H, T0, run)
    # plant purity dips as the perturbation factor entangles with P1
    assert res.plant_states[0][1].matrix.shape == (2, 2)
    assert res.plant_purity.min() < 1.0 - 1e-6


def test_assemble_sums_and_validates():
    layout = four_level_layout(3)
    q = LV3.position_op()
    K = assemble(((("P1", "C1"), np.kron(q, q)),
                  (("P2", "C2"), 0.5 * np.kron(q, q))), layout)
    want = embed_operator(np.kron(q, q), ("P1", "C1"), layout) \
        + 0.5 * embed_operator(np.kron(q, q), ("P2", "C2"), layout)
    assert np.abs(K - want).max() < 1e-14
    with pytest.raises(NonHermitianInput):
        assemble(((("P1", "C1"), np.triu(np.ones((9, 9)))),), layout)
    with pytest.raises(NonHermitianInput):
        embed_operator(np.triu(np.ones((9, 9))), ("P1", "C1"), layout)


def test_mixed_geometry_composite_reduction():
    # factors with different grids: the commuting square still closes
    from wignerlab import make_phase_space
    from wignerlab.hilbert import CompositeSystem
    from wignerlab.tolerances import TolerancePolicy
    tol = TolerancePolicy(imaginary_residue=1e-5, domain_tail_mass=1e-9)
    sa = make_phase_space(1, 32, 7.2, [[1.0]], tol)
    sb = make_phase_space(1, 64, 10.0, [[1.0]], tol)
    sysAB = CompositeSystem((("A", sa), ("B", sb)))
    Ta = pure_density(displaced_state(sa, 1.0, 0.0))
    Tb = pure_density(displaced_state(sb, -0.5, 0.5))
    T = tensor(Ta, Tb, sysAB)
    W = wigner_from_density(T)
    assert abs(W.integrate().real - 1.0) < 1e-8
    from wignerlab import reduce_wigner
    Wa = reduce_wigner(W, "A")
    assert np.abs(Wa.values - wigner_from_density(Ta).values).max() < 1e-8
    Wb = reduce_wigner(W, "B")
    assert np.abs(Wb.values - wigner_from_density(Tb).values).max() < 1e-8


@pytest.mark.parametrize("axis_op", ["position", "momentum", "number"])
def test_classifier_generator_set(axis_op):
    # generator couplings on 3-level factors: one-block, two-block, crossed
    lv = LevelSpace(3)
    layout = SubsystemLayout({"P1": lv, "P2": lv, "C1": lv, "C2": lv})
    op = {"position": lv.position_op(), "momentum": lv.momentum_op(),
          "number": lv.number_op()}[axis_op]
    block = np.kron(op, op)
    one = embed_operator(block, ("P1", "C1"), layout)
    two = one + embed_operator(block, ("P2", "C2"), layout)
    assert classify_coupling(one, layout).kind == NO_FEEDBACK
    assert classify_coupling(two, layout).kind == FEEDBACK
    other = embed_operator(block, ("P2", "C2"), layout)
    assert classify_coupling(other, layout).kind == NO_FEEDBACK
    crossed = np.kron(block, block)
    assert classify_coupling(crossed, layout).kind == GENERAL


def _feedback_levels():
    """configs/feedback_levels.json as the CLI builds it: D = 256, t = 0..3."""
    with open(os.path.join(CONFIGS, "feedback_levels.json")) as f:
        cfg = parse_config(f.read())
    layout, hp, hc, K = assemble_layout(cfg)
    H = build_general_hamiltonian(hp, hc, K, layout)
    T0 = build_composite_state(cfg.initial_state, layout.system(),
                               np.random.default_rng(cfg.seed))
    return layout, H, hp, T0, _make_run(cfg)


def _assert_matches_eigh_route(layout, H, T0, res):
    evals, evecs = np.linalg.eigh(H)
    for t, TP in res.plant_states:
        Tt = DensityOperator(exact_propagate(T0.matrix, evals, evecs, t),
                             LEBESGUE, layout.system())
        ref = partial_trace(Tt, layout.plant_labels())
        assert np.abs(TP.matrix - ref.matrix).max() <= 1e-12


def _refuse(*args, **kwargs):
    raise AssertionError("a call that the route should not make")


def _only_route(monkeypatch, route):
    """Make the route that run_scenario should not take raise."""
    other = "exact_propagate" if route == "chebyshev" else "chebyshev_propagate"
    monkeypatch.setattr(hilbert, other, _refuse)


def test_scenario_on_factors_matches_eigh_route_feedback_levels(monkeypatch):
    # four pure parts: factors of rank 1, derived at propagation time
    layout, H, hp, T0, run = _feedback_levels()
    assert len(T0.parts) == 4
    assert [factorization(op)[1].size for op in T0.parts] == [1, 1, 1, 1]
    _only_route(monkeypatch, "chebyshev")
    res = run_scenario(layout, H, T0, run, h_plant=hp)
    assert len(res.plant_states) == 11 and res.times[-1] == 3.0
    _assert_matches_eigh_route(layout, H, T0, res)


def test_scenario_reads_an_operator_on_another_space_on_the_system():
    # T0 built on the layout, not on layout.system(): relabelled, so the
    # plant states agree with those of the same product on the system
    layout, H, hp, T0, run = _feedback_levels()
    on_layout = tensor_many(T0.parts, layout)
    assert on_layout.space != layout.system()
    got = run_scenario(layout, H, on_layout, run, h_plant=hp)
    want = run_scenario(layout, H, T0, run, h_plant=hp)
    for (t, a), (s, b) in zip(got.plant_states, want.plant_states):
        assert t == s and a.space == b.space
        assert np.abs(a.matrix - b.matrix).max() <= 1e-15


def test_scenario_long_horizon_takes_eigh_route(monkeypatch):
    # rank 1, but the series would need more H-column products than an eigh
    # (about 10 D) plus three D x D products per snapshot
    layout, H, hp, T0, _ = _feedback_levels()
    lo, hi = spectral_interval(H)
    t_end = 2 * 256 * (EIGH_COST + 6) / (0.5 * (hi - lo))
    run = EvolutionRun(dt=t_end, t_end=t_end, stride=1)
    _only_route(monkeypatch, "eigh")
    res = run_scenario(layout, H, T0, run, h_plant=hp)
    assert len(res.plant_states) == 2


def _refuse_kron_in_propagate(monkeypatch):
    """Make np.kron raise whenever `propagate` runs, where F would be formed."""
    propagate = feedback.propagate

    def guarded(*args):
        steps = propagate(*args)
        while True:
            with monkeypatch.context() as m:
                m.setattr(np, "kron", _refuse)
                T = next(steps, None)
            if T is None:
                return
            yield T

    monkeypatch.setattr(feedback, "propagate", guarded)


def test_scenario_full_rank_product_takes_eigh_route(monkeypatch):
    # a thermal product of full rank D: no Kronecker factor F is formed. The
    # eigh route reads T0's matrix, so it is formed first; the t = 0
    # partial trace krons the kept parts, outside propagate
    layout, H, hp, _, run = _feedback_levels()
    ops = [DensityOperator(level_thermal(LV4, 0.5), LEBESGUE, LV4)] * 4
    T0 = tensor_many(ops, layout.system())
    assert T0.matrix.shape == (layout.dim, layout.dim)
    _only_route(monkeypatch, "eigh")
    _refuse_kron_in_propagate(monkeypatch)
    res = run_scenario(layout, H, T0, run, h_plant=hp)
    _assert_matches_eigh_route(layout, H, T0, res)


def test_scenario_without_recorded_factors_takes_eigh_route(rng, monkeypatch):
    # an entangled rank-3 state, built directly: no factors, so no eigh of T0
    layout, H, hp, _, run = _feedback_levels()
    D = layout.dim
    V = rng.normal(size=(D, 3)) + 1j * rng.normal(size=(D, 3))
    V /= np.linalg.norm(V, axis=0)
    T0 = DensityOperator((V * [0.5, 0.3, 0.2]) @ V.conj().T, LEBESGUE,
                         layout.system())
    assert T0.parts is None
    _only_route(monkeypatch, "eigh")
    monkeypatch.setattr(hilbert, "factorization", _refuse)
    res = run_scenario(layout, H, T0, run, h_plant=hp)
    assert len(res.plant_states) == 11


def test_scenario_rejects_gaussian_representation(spec32c):
    layout = SubsystemLayout({"P1": spec32c, "C1": spec32c})
    g = to_gaussian_rep(pure_density(ground_state(spec32c)))
    T0 = tensor(g, g, layout.system())
    run = EvolutionRun(dt=0.1, t_end=0.1, stride=1)
    with pytest.raises(WrongRepresentation):
        run_scenario(layout, np.zeros((layout.dim, layout.dim)), T0, run)
