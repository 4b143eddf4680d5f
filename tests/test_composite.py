"""In-place composite operators against their Kronecker-product references,
and the fail-closed hermiticity rule."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from oracles import kron_classify_coupling, kron_embed_operator, kron_sum_block
from wignerlab import feedback, hilbert
from wignerlab.config import parse_config
from wignerlab.errors import FactorMismatch, NonHermitianInput
from wignerlab.feedback import (CouplingSpec, RefinedParts, SubsystemLayout,
                                build_feedback_hamiltonian,
                                build_general_hamiltonian,
                                build_refined_hamiltonian, classify_coupling,
                                embed_operator, run_scenario)
from wignerlab.hilbert import (DensityOperator, LEBESGUE, LevelSpace,
                               tensor_many)
from wignerlab.moyal import EvolutionRun
from wignerlab.runners import assemble_layout

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
            assert np.array_equal(embed_operator(op, on, layout),
                                  kron_embed_operator(op, on, layout)), on


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
                  for on in label_sets(layout))
    want = np.zeros((D, D), dtype=complex)
    for on, m in terms:
        want += kron_embed_operator(m, on, layout)
    assert np.array_equal(CouplingSpec(terms).assemble(layout), want)

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
        CouplingSpec(((("P1", "C1"), K),))
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
