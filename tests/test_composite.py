"""In-place composite operators against their Kronecker-product references,
the fail-closed hermiticity rule and its check record, and products mapped
factor by factor."""

import dataclasses
import itertools
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from oracles import kron_classify_coupling, kron_embed_operator, kron_sum_block
from wignerlab import cli, engine, feedback, hilbert, make_phase_space
from wignerlab.config import parse_config
from wignerlab.errors import (FactorMismatch, NonHermitianInput,
                              RepresentationMismatch, SpecMismatch,
                              WrongRepresentation)
from wignerlab.feedback import (RefinedParts, SubsystemLayout, assemble,
                                build_feedback_hamiltonian,
                                build_general_hamiltonian,
                                build_refined_hamiltonian, classify_coupling,
                                embed_operator, run_scenario)
from wignerlab.hilbert import (DensityOperator, GAUSSIAN, LEBESGUE,
                               CompositeSystem, LevelSpace, mix, partial_trace,
                               pure_density, tensor, tensor_many,
                               to_gaussian_rep)
from wignerlab.moyal import EvolutionRun
from wignerlab.runners import assemble_layout
from wignerlab.states import displaced_state, ground_state
from wignerlab.tolerances import TolerancePolicy
from wignerlab.verify import OSC, check_product_wigner
from wignerlab.weyl import HamiltonianSymbol, weyl_quantize
from wignerlab.wigner import wigner_from_density

# 2 to 5 roles with unequal level dims; dict order is not layout order
LAYOUTS = {
    "two": {"C1": 3, "P1": 2},
    "three": {"W": 4, "P1": 3, "C1": 2},
    "four": {"P1": 2, "P2": 3, "C1": 4, "C2": 2},
    "five": {"P1": 2, "P2": 3, "C1": 2, "C2": 4, "W": 2},
}


def level_layout(name):
    return SubsystemLayout({r: LevelSpace(d)
                            for r, d in LAYOUTS[name].items()})


def hermitian(rng, n):
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return x + x.conj().T


def label_sets(layout):
    """Out-of-order and non-adjacent label sets of every size."""
    labs = layout.labels
    sets = [labs[::-1], labs[::2][::-1], (labs[-1], labs[0]), (labs[1],)]
    return [s for s in sets if s]


@pytest.mark.parametrize("name", LAYOUTS)
def test_embedding_equals_kron_reference(name, rng):
    layout = level_layout(name)
    labs = layout.labels
    for r in range(1, len(labs) + 1):
        for on in itertools.permutations(labs, r):
            op = hermitian(rng, layout.dim_of(on))
            got = embed_operator(op, on, layout)
            assert np.array_equal(got, kron_embed_operator(op, on, layout)), on
            assert not got.flags.writeable


def test_repeated_label_rejected():
    with pytest.raises(FactorMismatch):
        embed_operator(np.eye(4), ("P1", "P1"), level_layout("two"))


@pytest.mark.parametrize("name", LAYOUTS)
def test_builders_equal_kron_reference(name, rng):
    layout = level_layout(name)
    D = layout.dim
    plant, controller = layout.plant_labels(), layout.controller_labels()
    hp = hermitian(rng, layout.dim_of(plant))
    hc = hermitian(rng, layout.dim_of(controller))
    K = hermitian(rng, D)
    want = (kron_embed_operator(hp, plant, layout)
            + kron_embed_operator(hc, controller, layout) + K)
    assert np.array_equal(build_general_hamiltonian(hp, hc, K, layout), want)

    terms = tuple((on, hermitian(rng, layout.dim_of(on)))
                  for on in (*label_sets(layout), layout.labels))
    want = np.zeros((D, D), dtype=complex)
    for on, m in terms:
        want += kron_embed_operator(m, on, layout)
    assert np.array_equal(assemble(terms, layout), want)

    if layout.controller_labels() != ("C1", "C2"):
        return
    k1 = hermitian(rng, layout.dim_of(("P1", "C1")))
    k2 = hermitian(rng, layout.dim_of(("P2", "C2")))
    want = (kron_embed_operator(hp, plant, layout)
            + kron_embed_operator(hc, controller, layout)
            + kron_embed_operator(k1, ("P1", "C1"), layout)
            + kron_embed_operator(k2, ("P2", "C2"), layout))
    assert np.array_equal(
        build_feedback_hamiltonian(hp, hc, k1, k2, layout), want)

    ons = (("P1",), ("P2",), ("C1",), ("C2",), ("P1", "P2"), ("C1", "C2"),
           ("P1", "C1"), ("P2", "C2"))
    mats = [hermitian(rng, layout.dim_of(on)) for on in ons]
    want = np.zeros((D, D), dtype=complex)
    for m, on in zip(mats, ons):
        want += kron_embed_operator(m, on, layout)
    assert np.array_equal(
        build_refined_hamiltonian(RefinedParts(*mats), layout), want)


FEEDBACK_LEVELS = Path(__file__).resolve().parents[1] / "configs" / \
    "feedback_levels.json"


def unequal_levels_config():
    """feedback_levels.json on unequal dims, with no Hamiltonian on P1 (the
    first plant label) and one on each controller label."""
    raw = json.loads(FEEDBACK_LEVELS.read_text())
    for role, dim in (("P1", 3), ("P2", 2), ("C1", 4), ("C2", 2)):
        raw["layout"][role]["dim"] = dim
    factors = raw["hamiltonian"]["factors"]
    factors["P2"] = factors.pop("P1")
    factors["C2"] = factors["C1"]
    return json.dumps(raw)


@pytest.mark.parametrize("text", [FEEDBACK_LEVELS.read_text(),
                                  unequal_levels_config()],
                         ids=["feedback_levels", "unequal_no_p1_hamiltonian"])
def test_assembled_blocks_equal_kron_sums(text):
    cfg = parse_config(text)
    layout, hp, hc, _ = assemble_layout(cfg)
    assert np.array_equal(
        hp, kron_sum_block(cfg, layout, layout.plant_labels()))
    assert np.array_equal(
        hc, kron_sum_block(cfg, layout, layout.controller_labels()))


def classifier_cases(layout, rng):
    """Couplings of every verdict, with factors given out of layout order."""
    labs = layout.labels
    side_a = [r for r in labs if r in ("P1", "C1")][::-1]
    side_b = [r for r in labs if r not in side_a][::-1]
    D = layout.dim
    one_side = embed_operator(hermitian(rng, layout.dim_of(side_a)),
                              side_a, layout)
    cases = {"general": hermitian(rng, D), "one_side": one_side,
             "scalar": 2.5 * np.eye(D), "shifted": one_side + 3.0 * np.eye(D)}
    if side_b:
        cases["two_sides"] = one_side + embed_operator(
            hermitian(rng, layout.dim_of(side_b)), side_b, layout)
    return cases


@pytest.mark.parametrize("name", LAYOUTS)
def test_classifier_equals_kron_reference(name, rng):
    layout = level_layout(name)
    for case, K in classifier_cases(layout, rng).items():
        got = classify_coupling(K, layout)
        want = kron_classify_coupling(K, layout)
        assert got.kind == want.kind, case
        assert got.witness_a.tobytes() == want.witness_a.tobytes(), case
        assert got.witness_b.tobytes() == want.witness_b.tobytes(), case
        assert abs(got.residual - want.residual) <= 1e-15, case


def test_classifier_leaves_its_input_alone(rng):
    # the (P1 C1) | W cut needs no reordering, so the working copy is the
    # only thing standing between the classifier and the caller's K
    layout = level_layout("three")
    K = hermitian(rng, layout.dim)
    before = K.copy()
    classify_coupling(K, layout)
    assert np.array_equal(K, before)


@pytest.mark.parametrize("n", [1, 63, 64, 81, 200])
def test_tiled_defect_equals_dense_defect(n, rng):
    near = hermitian(rng, n)
    near[n // 3, n - 1] += 1e-9j
    far = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    for m in (near, far):
        dense = np.abs(m - m.conj().T).max()
        assert hilbert._hermitian_defect(m) == dense
        T = DensityOperator(m, LEBESGUE, LevelSpace(n))
        assert T._hermiticity_defect() == dense


# --- fail-closed hermiticity -------------------------------------------------

NON_FINITE = [np.nan, np.inf, -np.inf]
PLACES = {"entry": [(2, 5)], "pair": [(2, 5), (5, 2)], "diagonal": [(4, 4)]}


def spoiled(n, bad, place):
    m = np.eye(n, dtype=complex)
    for i, j in PLACES[place]:
        m[i, j] = bad
    return m


def pair_layout():
    lv = LevelSpace(3)
    return SubsystemLayout({"P1": lv, "C1": lv})


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("place", PLACES)
def test_non_finite_rejected_by_every_builder(bad, place):
    layout = pair_layout()
    K = spoiled(9, bad, place)
    h = np.eye(3)
    with pytest.raises(NonHermitianInput):
        build_general_hamiltonian(h, h, K, layout)
    with pytest.raises(NonHermitianInput):
        assemble(((("P1", "C1"), K),), layout)
    with pytest.raises(NonHermitianInput):
        classify_coupling(K, layout)
    lv = LevelSpace(3)
    four = SubsystemLayout({"P1": lv, "P2": lv, "C1": lv, "C2": lv})
    good = np.eye(9)
    with pytest.raises(NonHermitianInput):
        build_feedback_hamiltonian(good, good, K, good, four)
    with pytest.raises(NonHermitianInput):
        build_feedback_hamiltonian(good, good, good, K, four)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("place", PLACES)
def test_non_finite_rejected_by_run_scenario(bad, place):
    layout = pair_layout()
    lv = LevelSpace(3)
    ground = DensityOperator(np.diag([1.0, 0.0, 0.0]).astype(complex),
                             LEBESGUE, lv)
    T0 = tensor_many([ground, ground], layout.system())
    with pytest.raises(NonHermitianInput):
        run_scenario(layout, spoiled(9, bad, place), T0,
                     EvolutionRun(dt=0.1, t_end=0.2, stride=1))


def test_non_square_rejected():
    with pytest.raises(NonHermitianInput):
        feedback._check_hermitian(np.ones(4), "vector")
    with pytest.raises(NonHermitianInput):
        feedback._check_hermitian(np.ones((2, 3)), "block")


# --- the check record of builder-made operators ----------------------------

@pytest.fixture()
def passes(monkeypatch):
    """Shapes of the full hermiticity passes `_check_hermitian` makes."""
    shapes = []
    real = hilbert._hermitian_defect

    def counting(m, *args, **kwargs):
        shapes.append(m.shape)
        return real(m, *args, **kwargs)

    monkeypatch.setattr(feedback, "_hermitian_defect", counting)
    return shapes


def level_scenario(scale=1.0):
    """A coupled qutrit pair: builder-made H, product T0 and a short run."""
    layout = pair_layout()
    lv = LevelSpace(3)
    h = scale * lv.number_op()
    K = 0.3 * np.kron(lv.position_op(), lv.position_op())
    H = build_general_hamiltonian(h, h, K, layout)
    ground = DensityOperator(np.diag([1.0, 0.0, 0.0]).astype(complex),
                             LEBESGUE, lv)
    T0 = tensor_many([ground, ground], layout.system())
    return layout, H, T0, EvolutionRun(dt=0.1, t_end=0.2, stride=1)


def test_builder_made_operators_are_not_checked_again(passes):
    layout, H, T0, run = level_scenario()
    K = assemble(((("P1", "C1"), np.eye(9)),), layout)
    passes.clear()
    run_scenario(layout, H, T0, run)
    classify_coupling(K, layout)
    build_general_hamiltonian(np.eye(3), np.eye(3), K, layout)
    assert passes == [(3, 3), (3, 3)]       # the two foreign factor blocks
    with pytest.raises(ValueError):
        H.flags.writeable = True


def test_copies_slices_and_unfit_bounds_are_checked(passes):
    layout, H, T0, run = level_scenario()
    for other in (H.copy(), H[:, :], np.array(H), H.T.conj().T, H * 1,
                  H.view(), pickle.loads(pickle.dumps(H))):
        passes.clear()
        run_scenario(layout, other, T0, run)
        assert passes == [(9, 9)]
    # a record no longer holds once its private base is writable again
    H.base.flags.writeable = True
    passes.clear()
    run_scenario(layout, H, T0, run)
    assert passes == [(9, 9)]
    # peaks of 1e6 put the rounding term above tol.hermiticity
    layout, H, T0, run = level_scenario(scale=1e6)
    assert H.record[0] > feedback.DEFAULT_TOL.hermiticity
    passes.clear()
    run_scenario(layout, H, T0, run)
    assert passes == [(9, 9)]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_spoiled_copies_of_builder_made_operators_raise(bad):
    layout, H, T0, run = level_scenario()
    spoilt = H.copy()
    spoilt[2, 5] = bad
    with pytest.raises(NonHermitianInput):
        run_scenario(layout, spoilt, T0, run)
    with pytest.raises(NonHermitianInput):
        classify_coupling(spoilt, layout)


def test_check_record_lives_on_the_assembled_view_only():
    H = level_scenario()[1]
    bound, peak = H.record
    assert 0 <= bound <= feedback.DEFAULT_TOL.hermiticity and peak > 0
    assert H.view().record is None
    # what the checked path hands on is a plain array, never the subclass
    plain, record = feedback._hermitian_record(H, "H")
    assert type(plain) is np.ndarray and record == H.record
    assert np.shares_memory(plain, H) and not plain.flags.writeable


def test_feedback_command_checks_no_operator_twice(tmp_path, passes):
    # one pass per input: the factor Hamiltonians on P1 and C1 and the
    # couplings on P1C1 and P2C2, each where it enters `assemble`
    assert cli.main(["feedback", "--config", str(FEEDBACK_LEVELS),
                     "--out", str(tmp_path)]) == 0
    assert sorted(passes) == [(4, 4), (4, 4), (16, 16), (16, 16)]


def test_uncoupled_layout_makes_no_full_space_pass(tmp_path, passes):
    # the zero K of a layout without couplings is assembled, so neither H's
    # builder nor the classifier reads it again
    raw = json.loads(FEEDBACK_LEVELS.read_text())
    del raw["hamiltonian"]["couplings"]
    path = tmp_path / "uncoupled.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["feedback", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
    assert sorted(passes) == [(4, 4), (4, 4)]


# --- products mapped factor by factor ---------------------------------------

def small_spec(d, n, L):
    # coarse grids: the product identity is exact on any grid, so the tails
    # and residues of these boxes do not matter here
    tol = TolerancePolicy(domain_tail_mass=0.5, imaginary_residue=1.0)
    return make_phase_space(d, n, L, np.eye(d), tol)


PRODUCT_SYSTEMS = {     # labels out of system order; unequal n; a d = 2 factor
    "pair": (("B", (1, 8, 3.0)), ("A", (1, 16, 4.0))),
    "three": (("C", (1, 4, 2.0)), ("A", (2, 4, 2.0)), ("B", (1, 8, 3.0))),
}


@pytest.fixture()
def maps(monkeypatch):
    """Axis counts of the engine.density_to_wigner calls."""
    counts = []
    real = engine.density_to_wigner

    def recording(T, axes):
        counts.append(len(axes))
        return real(T, axes)

    monkeypatch.setattr(engine, "density_to_wigner", recording)
    return counts


@pytest.mark.parametrize("name", PRODUCT_SYSTEMS)
def test_product_map_equals_full_map(name, rng, maps):
    system = CompositeSystem(tuple((lab, small_spec(*geometry))
                                   for lab, geometry in PRODUCT_SYSTEMS[name]))
    assert check_product_wigner(system, 3, rng) <= 1e-15
    total = len(system.axis_geometry())
    # the three full maps are the references; the products were mapped per
    # factor, one call of each factor's d
    assert maps.count(total) == 3
    assert sorted(maps) == sorted([total] * 3 + [s.d for _, s in
                                                 system.factors] * 3)


def test_product_map_on_the_two_mode_grid(sys2, rng):
    assert check_product_wigner(sys2, 1, rng) <= 1e-15


def test_gaussian_products_and_mixtures_take_the_full_map(sys2, spec32c,
                                                          maps):
    a = pure_density(displaced_state(spec32c, 1.0, 0.0))
    b = pure_density(ground_state(spec32c))
    gauss = tensor(to_gaussian_rep(a), to_gaussian_rep(b), sys2)
    assert gauss.rep == GAUSSIAN and gauss.parts is None
    mixed = mix([(0.5, tensor(a, b, sys2)), (0.5, tensor(b, a, sys2))])
    assert mixed.parts is None
    wigner_from_density(mixed)
    assert maps == [2]


def test_gaussian_product_map_raises_library_error(sys2, spec32c):
    a = pure_density(displaced_state(spec32c, 1.0, 0.0))
    b = pure_density(ground_state(spec32c))
    gauss = tensor(to_gaussian_rep(a), to_gaussian_rep(b), sys2)
    with pytest.raises(WrongRepresentation):
        wigner_from_density(gauss)
    with pytest.raises(WrongRepresentation):
        hilbert.to_lebesgue_rep(gauss)


def test_parts_record(spec32c, sys2):
    a = pure_density(displaced_state(spec32c, 1.0, 0.0))
    b = pure_density(ground_state(spec32c))
    T = tensor(a, b, sys2)
    assert isinstance(T.parts, tuple) and T.parts[0] is a and T.parts[1] is b
    with pytest.raises(dataclasses.FrozenInstanceError):
        T.parts = None
    # validated against the factors
    qutrit = DensityOperator(np.eye(3) / 3, LEBESGUE, LevelSpace(3))
    for parts in ((a,), (a, b, b), (a, qutrit)):
        with pytest.raises(SpecMismatch):
            DensityOperator(T.matrix, LEBESGUE, sys2, parts=parts)
    with pytest.raises(SpecMismatch):
        DensityOperator(a.matrix, LEBESGUE, spec32c, parts=(a,))
    with pytest.raises(RepresentationMismatch):
        DensityOperator(T.matrix, LEBESGUE, sys2,
                        parts=(to_gaussian_rep(a), b))
    # not compared and not shown
    plain = DensityOperator(T.matrix, LEBESGUE, sys2, T.tol)
    assert plain == T and plain.parts is None
    assert "parts" not in repr(T)
    # no derived operator inherits it
    lv = LevelSpace(2)
    three = CompositeSystem((("x", lv), ("y", lv), ("z", lv)))
    up = DensityOperator(np.diag([1.0, 0.0]).astype(complex), LEBESGUE, lv)
    T3 = tensor_many([up, up, up], three)
    assert T3.parts is not None
    assert partial_trace(T3, ("x", "z")).parts is None
    assert mix([(1.0, T3)]).parts is None
    assert mix([(1.0, T)]).parts is None


def two_mode_scenario(spec32c):
    layout = SubsystemLayout({"P1": spec32c, "C1": spec32c})
    osc = weyl_quantize(OSC, spec32c)
    qh = weyl_quantize(HamiltonianSymbol((((1,), (0,), 1.0),), d=1), spec32c)
    H = build_general_hamiltonian(osc, osc, 0.4 * np.kron(qh, qh), layout)
    T0 = tensor(pure_density(displaced_state(spec32c, 1.0, 0.0)),
                pure_density(ground_state(spec32c)), layout.system())
    return layout, H, osc, T0


def test_scenario_snapshot_at_zero_is_built_from_t0(spec32c, maps):
    layout, H, osc, T0 = two_mode_scenario(spec32c)
    run = EvolutionRun(dt=1e-2, t_end=0.1, stride=10)
    res = run_scenario(layout, H, T0, run, h_plant=osc)
    TP = partial_trace(T0, "P1")
    (t, got), (_, W0) = res.plant_states[0], res.plant_wigner[0]
    assert t == 0.0 and np.array_equal(got.matrix, TP.matrix)
    assert res.plant_purity[0] == TP.purity()
    assert res.plant_energy[0] == float(np.trace(TP.matrix @ osc).real)
    assert np.array_equal(W0.values, wigner_from_density(TP).values)
    assert res.square_residuals[0] <= 1e-15
    # the product T0 is mapped per factor; only the entangled T(0.1) takes
    # the full two-mode map
    assert maps.count(2) == 1


def test_propagation_does_not_form_t_at_zero(monkeypatch):
    layout, H, T0, run = level_scenario()
    times = []
    real = hilbert.exact_propagate

    def recording(T, evals, evecs, t):
        times.append(t)
        return real(T, evals, evecs, t)

    monkeypatch.setattr(hilbert, "exact_propagate", recording)
    full_rank = DensityOperator(np.eye(9, dtype=complex) / 9, LEBESGUE,
                                layout.system())
    res = run_scenario(layout, H, full_rank, run)
    assert times == [0.1, 0.2] and res.plant_states[0][1].trace() == 1.0
