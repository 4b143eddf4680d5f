import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerlab import config
from wignerlab.config import parse_config
from wignerlab.errors import (SchemaViolation, SpecMismatch, UnknownVersion,
                              WignerLabError)
from wignerlab.hilbert import LevelSpace
from wignerlab.runners import build_state

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

MINIMAL = {
    "version": "1",
    "phase_space": {"d": 1, "n_per_axis": 64, "half_width": 10.0,
                    "covariance": [[1.0]]},
    "hamiltonian": {"terms": [
        {"powers_q": [2], "powers_p": [0], "coeff": 0.5},
        {"powers_q": [0], "powers_p": [2], "coeff": 0.5}]},
    "initial_state": {"type": "displaced", "dq": 2.0, "dp": 0.0},
}


def test_minimal_config_parses_with_defaults():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.phase_space.d == 1
    assert cfg.hamiltonian.degree == 2
    assert cfg.run["truncation_k"] == 3
    assert cfg.run["enforce_cfl"] is True
    assert cfg.run["dt"] == 1e-3
    assert cfg.output["directory"] == "out"
    assert cfg.seed == 0


def test_nonsymmetric_covariance_reported_at_path():
    raw = json.loads(json.dumps(MINIMAL))
    raw["phase_space"] = {"d": 2, "n_per_axis": 32, "half_width": 12.0,
                          "covariance": [[1.0, 0.5], [0.1, 1.0]]}
    with pytest.raises(SchemaViolation) as err:
        parse_config(json.dumps(raw))
    paths = [p for p, _ in err.value.violations]
    assert any("covariance" in p for p in paths)


@pytest.mark.parametrize("d, n", [(1, 8192), (2, 128), (3, 32), (10 ** 6, 2)])
def test_grid_above_wigner_cell_cap_rejected(d, n, monkeypatch):
    # the cap is checked on the numbers alone: no grid is ever built
    def no_grid(*args, **kwargs):
        raise AssertionError("make_phase_space called for an over-cap grid")
    monkeypatch.setattr(config, "make_phase_space", no_grid)
    raw = json.loads(json.dumps(MINIMAL))
    raw["phase_space"].update(d=d, n_per_axis=n)
    with pytest.raises(SchemaViolation) as err:
        parse_config(json.dumps(raw))
    [(path, reason)] = [v for v in err.value.violations
                        if v[0] == "phase_space.n_per_axis"]
    assert f"n_per_axis={n}" in reason and f"d={d}" in reason
    assert str(config.MAX_WIGNER_CELLS) in reason


@pytest.mark.parametrize("d, n", [(1, 4096), (2, 64)])
def test_grid_at_wigner_cell_cap_accepted(d, n):
    raw = json.loads(json.dumps(MINIMAL))
    raw["phase_space"] = {"d": d, "n_per_axis": n, "half_width": 10.0,
                          "covariance": [[float(i == j) for j in range(d)]
                                         for i in range(d)]}
    raw["hamiltonian"] = {"terms": []}
    raw["initial_state"] = {"type": "ground"}
    assert parse_config(json.dumps(raw)).phase_space.n_per_axis == n


def test_layout_grid_factor_above_cap_rejected():
    raw = {
        "version": "1",
        "layout": {
            "P1": {"kind": "grid", "d": 1, "n_per_axis": 8192,
                   "half_width": 10.0, "covariance": [[1.0]]},
            "C1": {"kind": "levels", "dim": 4},
        },
        "hamiltonian": {"factors": {}},
        "initial_state": {"type": "product", "factors": {
            "P1": {"type": "ground"}, "C1": {"type": "ground"}}},
    }
    with pytest.raises(SchemaViolation) as err:
        parse_config(json.dumps(raw))
    assert "layout.P1.n_per_axis" in [p for p, _ in err.value.violations]


def test_unknown_coupling_label_reported():
    raw = {
        "version": "1",
        "layout": {
            "P1": {"kind": "levels", "dim": 4},
            "C1": {"kind": "levels", "dim": 4},
        },
        "hamiltonian": {
            "factors": {"P1": {"terms": []}},
            "couplings": [{"factors": ["P1", "C9"],
                           "symbols": {"P1": [], "C9": []}}],
        },
        "initial_state": {"type": "product", "factors": {
            "P1": {"type": "ground"}, "C1": {"type": "ground"}}},
    }
    with pytest.raises(SchemaViolation) as err:
        parse_config(json.dumps(raw))
    assert any("C9" in reason or "C9" in path
               for path, reason in err.value.violations)


def test_all_violations_collected():
    raw = {
        "version": "1",
        "phase_space": {"d": 1, "n_per_axis": 63, "half_width": 10.0,
                        "covariance": [[1.0]]},
        "hamiltonian": {"terms": [
            {"powers_q": [2, 1], "powers_p": [0], "coeff": 0.5},
            {"powers_q": [1], "powers_p": [0]}]},
        "initial_state": {"type": "warp"},
        "run": {"dt": -1.0},
    }
    with pytest.raises(SchemaViolation) as err:
        parse_config(json.dumps(raw))
    assert len(err.value.violations) >= 4


def test_unknown_version_rejected():
    raw = dict(MINIMAL)
    raw["version"] = "9"
    with pytest.raises(UnknownVersion):
        parse_config(json.dumps(raw))
    with pytest.raises(UnknownVersion):
        parse_config(json.dumps({k: v for k, v in MINIMAL.items()
                                 if k != "version"}))


def test_not_json_and_wrong_top_level():
    with pytest.raises(SchemaViolation):
        parse_config("not json at all {")
    with pytest.raises(SchemaViolation):
        parse_config("[1, 2]")


def test_product_state_requires_every_factor():
    raw = {
        "version": "1",
        "layout": {
            "P1": {"kind": "levels", "dim": 4},
            "C1": {"kind": "levels", "dim": 4},
        },
        "hamiltonian": {"factors": {}},
        "initial_state": {"type": "product",
                          "factors": {"P1": {"type": "ground"}}},
    }
    with pytest.raises(SchemaViolation) as err:
        parse_config(json.dumps(raw))
    assert any("C1" in reason for _, reason in err.value.violations)


def test_cat_needs_a_one_dimensional_grid():
    # at the recipe's type, on a phase space and on a product's grid factor
    d2 = {"d": 2, "n_per_axis": 32, "half_width": 5.5,
          "covariance": [[0.5, 0.0], [0.0, 0.5]]}
    single = {"version": "1", "phase_space": d2,
              "initial_state": {"type": "cat"}}
    product = {"version": "1",
               "layout": {"P1": d2, "C1": {"kind": "levels", "dim": 2}},
               "initial_state": {"type": "product", "factors": {
                   "P1": {"type": "cat"}, "C1": {"type": "ground"}}}}
    for raw, path in ((single, "initial_state.type"),
                      (product, "initial_state.factors.P1.type")):
        with pytest.raises(SchemaViolation) as err:
            parse_config(json.dumps(raw))
        assert [p for p, _ in err.value.violations] == [path]
    single["phase_space"] = MINIMAL["phase_space"]
    assert parse_config(json.dumps(single)).initial_state["type"] == "cat"


@pytest.mark.parametrize("kind", config.FACTOR_RECIPES)
def test_level_recipes_are_what_a_level_factor_builds(kind):
    # config's list of level recipes against the state builder's
    recipe = {"type": kind, "beta": 1.0}
    space = LevelSpace(4)

    def build():
        return build_state(recipe, space, np.random.default_rng(0))

    if kind in config.LEVEL_RECIPES:
        assert build().space == space
    else:
        with pytest.raises(SpecMismatch):
            build()


def test_schedule_parses():
    raw = json.loads(json.dumps(MINIMAL))
    raw["hamiltonian"]["schedule"] = [
        {"t_start": 0.0, "terms": [{"powers_q": [0], "powers_p": [2],
                                    "coeff": 0.5}]},
        {"t_start": 0.5, "terms": [{"powers_q": [2], "powers_p": [0],
                                    "coeff": 0.5}]},
    ]
    cfg = parse_config(json.dumps(raw))
    assert cfg.hamiltonian.schedule is not None
    assert cfg.hamiltonian.terms_at(0.1) == ((((0,), (2,), 0.5),))
    assert cfg.hamiltonian.terms_at(0.9) == ((((2,), (0,), 0.5),))


def _harmonic():
    with open(os.path.join(CONFIGS, "harmonic.json")) as f:
        return json.load(f)


def _segment(t_start, terms):
    return {"t_start": t_start, "terms": [
        {"powers_q": [a], "powers_p": [b], "coeff": 0.5} for a, b in terms]}


FREE_SEG, OSC_SEG = [(0, 2)], [(2, 0), (0, 2)]

# (replaced value as a dotted path, new value, expected violation path)
MALFORMED = {
    "schedule_empty": ("hamiltonian.schedule", [], "hamiltonian.schedule[0]"),
    "schedule_swapped": ("hamiltonian.schedule",
                         [_segment(0.05, OSC_SEG), _segment(0.0, FREE_SEG)],
                         "hamiltonian.schedule[0]"),
    "schedule_out_of_order": ("hamiltonian.schedule",
                              [_segment(0.0, FREE_SEG), _segment(0.2, OSC_SEG),
                               _segment(0.1, FREE_SEG)],
                              "hamiltonian.schedule[2]"),
    "schedule_repeated": ("hamiltonian.schedule",
                          [_segment(0.0, FREE_SEG), _segment(0.0, OSC_SEG)],
                          "hamiltonian.schedule[1]"),
    "schedule_late_start": ("hamiltonian.schedule", [_segment(0.1, OSC_SEG)],
                            "hamiltonian.schedule[0]"),
    "powers_q_scalar": ("hamiltonian.terms.0.powers_q", 2, "hamiltonian.terms[0]"),
    "powers_q_string": ("hamiltonian.terms.0.powers_q", ["a"],
                        "hamiltonian.terms[0]"),
    "powers_q_fraction": ("hamiltonian.terms.0.powers_q", [2.5],
                          "hamiltonian.terms[0]"),
    "coeff_overflow": ("hamiltonian.terms.0.coeff", 10 ** 400,
                       "hamiltonian.terms[0].coeff"),
    "terms_scalar": ("hamiltonian.terms", 5, "hamiltonian.terms"),
    "hamiltonian_list": ("hamiltonian", [], "hamiltonian"),
    "dt_string": ("run.dt", "x", "run.dt"),
    "stride_fraction": ("run.stride", 0.5, "run.stride"),
    "truncation_null": ("run.truncation_k", None, "run.truncation_k"),
    "truncation_above_cap": ("run.truncation_k", 5, "run.truncation_k"),
    "enforce_cfl_string": ("run.enforce_cfl", "yes", "run.enforce_cfl"),
    "run_scalar": ("run", 3, "run"),
    "half_width_overflow": ("phase_space.half_width", 10 ** 400,
                            "phase_space.half_width"),
    "half_width_string": ("phase_space.half_width", "10",
                          "phase_space.half_width"),
    "half_width_bool": ("phase_space.half_width", True,
                        "phase_space.half_width"),
    "n_per_axis_string": ("phase_space.n_per_axis", "64",
                          "phase_space.n_per_axis"),
    "n_per_axis_fraction": ("phase_space.n_per_axis", 64.9,
                            "phase_space.n_per_axis"),
    "d_string": ("phase_space.d", "1", "phase_space.d"),
    "d_bool": ("phase_space.d", True, "phase_space.d"),
    "covariance_null": ("phase_space.covariance", None, "phase_space.covariance"),
    "phase_space_scalar": ("phase_space", 5, "phase_space"),
    "dq_string": ("initial_state.dq", "far", "initial_state.dq"),
    "product_on_a_phase_space": ("initial_state",
                                 {"type": "product", "factors": {}},
                                 "initial_state.type"),
    "directory_number": ("output.directory", 7, "output.directory"),
    "seed_string": ("seed", "x", "seed"),
    "verify_list": ("verify", [], "verify"),
}


def set_at(node, where, value):
    """Set the entry of a parsed config at a dotted path ("run.dt")."""
    keys = [int(k) if k.isdigit() else k for k in where.split(".")]
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_values_are_schema_violations(case):
    where, value, path = MALFORMED[case]
    raw = _harmonic()
    set_at(raw, where, value)
    with pytest.raises(SchemaViolation) as err:
        parse_config(json.dumps(raw))
    assert path in [p for p, _ in err.value.violations]


def test_truncation_at_the_bracket_cap_parses():
    # K terms reach bracket order 2K - 1: K = 4 is order 7, the last one
    # (K = 5 is a MALFORMED case)
    raw = _harmonic()
    raw["run"]["truncation_k"] = 4
    assert parse_config(json.dumps(raw)).run["truncation_k"] == 4


def test_non_finite_numbers_are_rejected():
    text = json.dumps(_harmonic()).replace('"dt": 0.001', '"dt": NaN')
    assert "NaN" in text
    with pytest.raises(SchemaViolation):
        parse_config(text)
    with pytest.raises(SchemaViolation) as err:
        parse_config(text.replace("NaN", "1e400"))
    assert [p for p, _ in err.value.violations] == ["run.dt"]


def _node_paths(node, path=()):
    """Paths to every value below the top level: scalars, lists, objects."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


@pytest.mark.parametrize("name", ["harmonic.json", "feedback_levels.json"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parse_config_raises_only_library_errors(name, data):
    # replace one to three values of a shipped config with arbitrary JSON
    with open(os.path.join(CONFIGS, name)) as f:
        raw = json.load(f)
    paths = data.draw(st.lists(st.sampled_from(list(_node_paths(raw))),
                               min_size=1, max_size=3, unique=True))
    for path in paths:
        node = raw
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = data.draw(JSON_VALUES)
        except (KeyError, IndexError, TypeError):
            pass                # an earlier replacement removed this path
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # as under the CLI's --strict
        try:
            parse_config(json.dumps(raw))
        except WignerLabError:
            pass
