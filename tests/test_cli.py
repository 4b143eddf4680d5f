import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from test_config import MALFORMED, set_at
from wignerlab.cli import build_parser, main

HARMONIC = {
    "version": "1",
    "phase_space": {"d": 1, "n_per_axis": 32, "half_width": 7.0,
                    "covariance": [[1.0]]},
    "hamiltonian": {"terms": [
        {"powers_q": [2], "powers_p": [0], "coeff": 0.5},
        {"powers_q": [0], "powers_p": [2], "coeff": 0.5}]},
    "initial_state": {"type": "displaced", "dq": 1.5, "dp": 0.0},
    "run": {"dt": 1e-3, "t_end": 0.2, "stride": 100,
            "compare_tolerance": 1e-4},
    "output": {"directory": "out", "formats": ["csv"],
               "write_plot_script": True},
}

# n = 32 boxes carry lattice tails above the strict defaults
HARMONIC_JSON = json.dumps(HARMONIC)


def _write(tmp_path, cfg):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return str(p)


@pytest.fixture()
def harmonic_cfg(tmp_path):
    cfg = json.loads(HARMONIC_JSON)
    cfg["phase_space"] = {"d": 1, "n_per_axis": 64, "half_width": 10.0,
                          "covariance": [[1.0]]}
    return _write(tmp_path, cfg)


@pytest.mark.parametrize("recipe", [{"type": "displaced", "dq": 1.0},
                                    {"type": "displaced"}],
                         ids=["dq", "vacuum"])
def test_transform_builds_a_displaced_state_at_d2(recipe, tmp_path, capsys):
    # a number displaces every axis; not under --strict, since this grid's
    # imaginary residue, 3.6e-7, is above the default policy's 1e-8
    path = _write(tmp_path, {
        "version": "1",
        "phase_space": {"d": 2, "n_per_axis": 32, "half_width": 5.5,
                        "covariance": [[0.5, 0.0], [0.0, 0.5]]},
        "initial_state": recipe, "output": {"formats": []}})
    out = tmp_path / "t2"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["transform", "--config", path, "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert (out / "wigner.bin").exists()


def test_transform_command(harmonic_cfg, tmp_path):
    out = str(tmp_path / "t1")
    rc = main(["transform", "--config", harmonic_cfg, "--out", out])
    assert rc == 0
    names = sorted(os.listdir(out))
    assert "wigner.csv" in names
    assert "wigner.bin" in names and "wigner.json" in names
    assert "eta.bin" in names
    assert "manifest.json" in names
    assert "wigner.gp" in names
    meta = json.loads((tmp_path / "t1" / "manifest.json").read_text())
    assert meta["command"] == "transform"


def test_transform_honours_output_formats(tmp_path, capsys):
    cfg = json.loads(HARMONIC_JSON)
    cfg["phase_space"] = {"d": 1, "n_per_axis": 64, "half_width": 10.0,
                          "covariance": [[1.0]]}
    cfg["output"]["formats"] = []
    out = tmp_path / "t0"
    assert main(["transform", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 0
    names = os.listdir(out)
    assert "wigner.bin" in names and "summary.csv" in names
    assert "wigner.csv" not in names and "wigner.gp" not in names
    cfg["output"]["formats"] = ["CSV"]
    assert main(["transform", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "t1")]) == 1
    assert "config error at output.formats" in capsys.readouterr().err


def test_evolve_and_rerun_byte_identical(harmonic_cfg, tmp_path):
    out1, out2 = str(tmp_path / "e1"), str(tmp_path / "e2")
    assert main(["evolve", "--config", harmonic_cfg, "--out", out1]) == 0
    assert main(["evolve", "--config", harmonic_cfg, "--out", out2]) == 0
    d1 = (tmp_path / "e1" / "diagnostics.csv").read_bytes()
    d2 = (tmp_path / "e2" / "diagnostics.csv").read_bytes()
    assert d1 == d2
    s1 = (tmp_path / "e1" / "snapshot_0001.bin").read_bytes()
    s2 = (tmp_path / "e2" / "snapshot_0001.bin").read_bytes()
    assert s1 == s2


def test_oracle_command(harmonic_cfg, tmp_path):
    out = str(tmp_path / "o1")
    assert main(["oracle", "--config", harmonic_cfg, "--out", out]) == 0
    lines = (tmp_path / "o1" / "oracle.csv").read_text().splitlines()
    assert lines[0] == "t,trace,purity"


def test_compare_command_passes(harmonic_cfg, tmp_path):
    out = str(tmp_path / "c1")
    assert main(["compare", "--config", harmonic_cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "c1" / "compare.json").read_text())
    assert report["pass"] is True
    assert report["max_abs_error"] <= 1e-4


def test_compare_tolerance_violation_exit_code(tmp_path):
    cfg = json.loads(HARMONIC_JSON)
    cfg["phase_space"] = {"d": 1, "n_per_axis": 64, "half_width": 10.0,
                          "covariance": [[1.0]]}
    cfg["run"]["compare_tolerance"] = 1e-16
    path = _write(tmp_path, cfg)
    out = str(tmp_path / "c2")
    assert main(["compare", "--config", path, "--out", out]) == 2


def test_strict_warning_exit_code(tmp_path, capsys):
    # dt = 0.05 exceeds the CFL guard; enforce_cfl = false makes it a warning
    with open(os.path.join(os.path.dirname(__file__), "..", "configs",
                           "harmonic.json")) as f:
        cfg = json.load(f)
    cfg["run"].update(dt=0.05, enforce_cfl=False)
    path = _write(tmp_path, cfg)
    filters = list(warnings.filters)
    rc = main(["evolve", "--config", path, "--out", str(tmp_path / "s1"),
               "--strict"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: RuntimeWarning") and "CFL" in err
    assert warnings.filters == filters      # --strict does not leak


@pytest.mark.parametrize("command", ["evolve", "compare"])
def test_cfl_violation_exits_1_before_any_output(command, tmp_path, capsys):
    # H = p^2/2 + q^4/4 on the shipped harmonic box at dt = 0.5: evolve's
    # CFL guard, reported before the output directory is made
    with open(os.path.join(CONFIGS, "harmonic.json")) as f:
        cfg = json.load(f)
    cfg["hamiltonian"]["terms"] = [
        {"powers_q": [0], "powers_p": [2], "coeff": 0.5},
        {"powers_q": [4], "powers_p": [0], "coeff": 0.25}]
    cfg["run"]["dt"] = 0.5
    out = tmp_path / "cfl"
    assert main([command, "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: dt = 0.5 exceeds the CFL guard 7.81211e-05 (")
    assert not out.exists()


def test_cat_on_a_d2_grid_is_a_config_error(tmp_path, capsys):
    path = _write(tmp_path, {
        "version": "1",
        "phase_space": {"d": 2, "n_per_axis": 32, "half_width": 5.5,
                        "covariance": [[0.5, 0.0], [0.0, 0.5]]},
        "initial_state": {"type": "cat"}})
    out = tmp_path / "cat"
    assert main(["transform", "--config", path, "--out", str(out)]) == 1
    assert "config error at initial_state.type: " in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_exit_code(tmp_path):
    cfg = json.loads(HARMONIC_JSON)
    cfg["phase_space"]["covariance"] = [[-1.0]]
    path = _write(tmp_path, cfg)
    assert main(["transform", "--config", path]) == 1
    assert main(["transform", "--config", str(tmp_path / "missing.json")]) == 1
    assert main(["transform"]) == 1


def test_malformed_value_exits_1_with_its_path(tmp_path, capsys):
    cfg = json.loads(HARMONIC_JSON)
    cfg["run"]["dt"] = "x"
    cfg["hamiltonian"]["terms"][0]["powers_q"] = 2
    assert main(["evolve", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "m1")]) == 1
    err = capsys.readouterr().err
    assert "config error at run.dt: must be a positive number" in err
    assert "config error at hamiltonian.terms[0]: powers must be lists" in err
    assert not (tmp_path / "m1").exists()


@pytest.mark.parametrize("command", ["evolve", "compare"])
def test_truncation_above_the_cap_is_a_config_error(command, harmonic_cfg,
                                                    tmp_path, capsys):
    # K = 5 would reach bracket order 9: a config error at its path before
    # any output, not a run-time error after the directory is made
    with open(harmonic_cfg) as f:
        cfg = json.load(f)
    cfg["run"]["truncation_k"] = 5
    out = tmp_path / "k5"
    assert main([command, "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("config error at run.truncation_k: "
                                       "must be at most 4 (bracket order 7)\n")
    assert not out.exists()


@pytest.mark.parametrize("case", [c for c in MALFORMED
                                  if c.startswith("schedule_")])
def test_malformed_schedule_is_a_config_error(case, tmp_path, capsys):
    _, schedule, path = MALFORMED[case]
    cfg = json.loads(HARMONIC_JSON)
    cfg["hamiltonian"]["schedule"] = schedule
    assert main(["compare", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "s")]) == 1
    assert f"config error at {path}: " in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_readme_flags_match_parser():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        readme = f.read()
    flags = readme.split("Flags: ", 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"`(--[a-z-]+)", flags))
    parsed = {opt for action in build_parser()._actions
              for opt in action.option_strings if opt != "--help"
              and opt.startswith("--")}
    assert documented == parsed


def test_feedback_command(tmp_path):
    cfg = {
        "version": "1",
        "layout": {
            "P1": {"kind": "levels", "dim": 4},
            "P2": {"kind": "levels", "dim": 4},
            "C1": {"kind": "levels", "dim": 4},
            "C2": {"kind": "levels", "dim": 4},
        },
        "hamiltonian": {
            "factors": {
                "P1": {"terms": [{"powers_q": [2], "powers_p": [0],
                                  "coeff": 0.5},
                                 {"powers_q": [0], "powers_p": [2],
                                  "coeff": 0.5}]},
            },
            "couplings": [
                {"factors": ["P1", "C1"], "coeff": 0.4,
                 "symbols": {"P1": [{"powers_q": [1], "powers_p": [0],
                                     "coeff": 1.0}],
                             "C1": [{"powers_q": [1], "powers_p": [0],
                                     "coeff": 1.0}]}},
            ],
        },
        "initial_state": {"type": "product", "factors": {
            "P1": {"type": "displaced", "alpha": 0.7},
            "P2": {"type": "ground"},
            "C1": {"type": "ground"},
            "C2": {"type": "ground"}}},
        "run": {"dt": 1e-2, "t_end": 1.0, "stride": 20},
    }
    path = _write(tmp_path, cfg)
    out = str(tmp_path / "f1")
    assert main(["feedback", "--config", path, "--out", out]) == 0
    verdict = json.loads((tmp_path / "f1" / "verdict.json").read_text())
    assert verdict["class"] == "no_feedback"
    lines = (tmp_path / "f1" / "scenario.csv").read_text().splitlines()
    assert lines[0].startswith("t,plant_purity")


def test_feedback_rerun_byte_identical(tmp_path):
    path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "feedback_levels.json")
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        assert main(["feedback", "--config", path, "--out", str(out)]) == 0
    first, second = [(out / "scenario.csv").read_bytes() for out in outs]
    assert len(first.splitlines()) == 12
    assert first == second


def test_grid_feedback_rerun_byte_identical(tmp_path):
    # the grid layout writes plant_*.bin and checks the reduction commuting
    # square (the runner fails above 1e-6); its n = 32 factors warn of the
    # known aliasing residue, so this config stays out of --strict
    path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "feedback_grid.json")
    outs = [tmp_path / "r1", tmp_path / "r2"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for out in outs:
            assert main(["feedback", "--config", path, "--out", str(out)]) == 0
    plants = sorted(p.name for p in outs[0].glob("plant_*.bin"))
    assert len(plants) == 3
    for name in ("scenario.csv", "verdict.json", *plants):
        first, second = [(out / name).read_bytes() for out in outs]
        assert first == second, name


def test_transform_rerun_byte_identical(tmp_path):
    # one process, two runs: the spec kept grids of the first run must not
    # show in the second's fields or summary
    path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "transform.json")
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        assert main(["transform", "--config", path, "--out", str(out)]) == 0
    for name in ("wigner.bin", "eta.bin", "summary.csv"):
        first, second = [(out / name).read_bytes() for out in outs]
        assert first == second, name


def test_feedback_form_verdict(tmp_path):
    cfg = json.loads(json.dumps({
        "version": "1",
        "layout": {r: {"kind": "levels", "dim": 3}
                   for r in ("P1", "P2", "C1", "C2")},
        "hamiltonian": {
            "factors": {},
            "couplings": [
                {"factors": ["P1", "C1"], "symbols":
                 {"P1": [{"powers_q": [1], "powers_p": [0], "coeff": 1.0}],
                  "C1": [{"powers_q": [1], "powers_p": [0], "coeff": 1.0}]}},
                {"factors": ["P2", "C2"], "symbols":
                 {"P2": [{"powers_q": [1], "powers_p": [0], "coeff": 1.0}],
                  "C2": [{"powers_q": [1], "powers_p": [0], "coeff": 1.0}]}},
            ],
        },
        "initial_state": {"type": "product", "factors":
                          {r: {"type": "ground"}
                           for r in ("P1", "P2", "C1", "C2")}},
        "run": {"dt": 1e-2, "t_end": 0.5, "stride": 10},
    }))
    path = _write(tmp_path, cfg)
    out = str(tmp_path / "f2")
    assert main(["feedback", "--config", path, "--out", out]) == 0
    verdict = json.loads((tmp_path / "f2" / "verdict.json").read_text())
    assert verdict["class"] == "feedback"
    assert verdict["residual"] < 1e-8


def test_feedback_over_run_cap_builds_nothing(tmp_path, capsys, monkeypatch):
    # D = 64 x 128 = 8192 passes the layout cap but not the run cap; every
    # D x D operator would take 1.07 GB, so none may be built before exit 1
    from wignerlab import runners

    def unreachable(*args, **kwargs):
        raise AssertionError("operator built before the run cap was checked")

    monkeypatch.setattr(runners, "weyl_quantize", unreachable)
    monkeypatch.setattr(runners, "assemble", unreachable)
    x = [{"powers_q": [1], "powers_p": [0], "coeff": 1.0}]
    path = _write(tmp_path, {
        "version": "1",
        "layout": {"P1": {"kind": "levels", "dim": 64},
                   "C1": {"kind": "levels", "dim": 128}},
        "hamiltonian": {
            "factors": {"P1": {"terms": x}},
            "couplings": [{"factors": ["P1", "C1"],
                           "symbols": {"P1": x, "C1": x}}],
        },
        "initial_state": {"type": "product", "factors": {
            "P1": {"type": "ground"}, "C1": {"type": "ground"}}},
        "run": {"dt": 1e-2, "t_end": 0.1, "stride": 10},
    })
    rc = main(["feedback", "--config", path, "--out", str(tmp_path / "f3")])
    assert rc == 1
    assert "exceeds run cap 4096" in capsys.readouterr().err
    assert not (tmp_path / "f3").exists()


CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
with open(os.path.join(CONFIGS, "harmonic.json")) as _f:
    HARMONIC_PHASE_SPACE = json.load(_f)["phase_space"]
# every command run on a shipped config without the section it needs, and
# layout configs whose initial_state is left to the default ground state;
# then feedback_grid with harmonic's phase_space as well, which the config
# accepts with either kind of recipe, run by each command on the kind it
# does not take
MISMATCHED = (
    [("feedback", name, None, "layout")
     for name in ("harmonic", "quench", "transform")]
    + [(command, name, None, "phase_space")
       for command in ("transform", "evolve", "oracle", "compare")
       for name in ("feedback_levels", "feedback_grid")]
    + [("transform", "feedback_grid", "initial_state", "phase_space")]
    + [("feedback", name, "initial_state", "initial_state")
       for name in ("feedback_levels", "feedback_grid")]
    + [pytest.param(command, "feedback_grid",
                    {"phase_space": HARMONIC_PHASE_SPACE}, "initial_state.type",
                    id=f"{command}-feedback_grid-product-recipe")
       for command in ("transform", "evolve", "oracle", "compare")]
    + [pytest.param("feedback", "feedback_grid",
                    {"phase_space": HARMONIC_PHASE_SPACE,
                     "initial_state": {"type": "displaced", "dq": 1.0}},
                    "initial_state.type",
                    id="feedback-feedback_grid-displaced-recipe")])


@pytest.mark.parametrize("command, name, edit, section", MISMATCHED)
def test_command_on_a_config_without_its_section_exits_1(
        command, name, edit, section, tmp_path, capsys):
    # `edit` names a section to drop, or maps sections to set
    with open(os.path.join(CONFIGS, name + ".json")) as f:
        cfg = json.load(f)
    if isinstance(edit, dict):
        cfg.update(edit)
    else:
        cfg.pop(edit, None)
    out = tmp_path / "out"
    assert main([command, "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    if isinstance(edit, dict):      # a recipe of the kind the command refuses
        assert err.startswith(f"config error at {section}: ")
    else:                           # a missing section
        assert err.startswith("error: ") and repr(section) in err
    assert "Traceback" not in err
    assert not out.exists()


# layout faults, each a config error before any output: (config, where,
# value, the path the config error names)
LAYOUT_FAULTS = {
    "repeated_coupling_factor": (
        "feedback_levels", "hamiltonian.couplings.0.factors", ["P1", "P1"],
        "hamiltonian.couplings[0].factors"),
    "cat_on_a_level_factor": (
        "feedback_levels", "initial_state.factors.P2", {"type": "cat"},
        "initial_state.factors.P2.type"),
    "random_mixed_on_a_level_factor": (
        "feedback_levels", "initial_state.factors.C1",
        {"type": "random_mixed"}, "initial_state.factors.C1.type"),
    "nested_product": (
        "feedback_grid", "initial_state.factors.P1",
        {"type": "product", "factors": {"P1": {"type": "ground"}}},
        "initial_state.factors.P1.type"),
    "single_recipe_on_a_layout": (
        "feedback_grid", "initial_state", {"type": "ground"},
        "initial_state.type"),
    "unknown_role": (
        "feedback_levels", "layout.X1", {"kind": "levels", "dim": 4},
        "layout"),
    "over_run_cap": (
        "feedback_levels", "layout",
        {r: {"kind": "levels", "dim": 9} for r in ("P1", "P2", "C1", "C2")},
        "layout"),
}


@pytest.mark.parametrize("case", LAYOUT_FAULTS)
def test_layout_fault_is_a_config_error(case, tmp_path, capsys):
    name, where, value, path = LAYOUT_FAULTS[case]
    with open(os.path.join(CONFIGS, name + ".json")) as f:
        cfg = json.load(f)
    set_at(cfg, where, value)
    out = tmp_path / "out"
    assert main(["feedback", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error at {path}: " in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["transform", "evolve", "oracle",
                                     "compare", "feedback", "verify"])
def test_out_naming_a_file_exits_1(command, harmonic_cfg, tmp_path, capsys):
    # the output directory cannot be made where a file stands: a library
    # error and exit 1, before any work, never a raw traceback
    config = {"feedback": os.path.join(CONFIGS, "feedback_levels.json"),
              "verify": None}.get(command, harmonic_cfg)
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    argv = [command, "--out", str(out)]
    if config:
        argv += ["--config", config]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "File exists" in err
    assert out.read_text() == "not a directory\n"


def test_verify_quick(tmp_path, capsys):
    out = str(tmp_path / "v1")
    rc = main(["verify", "--out", out, "--level", "quick"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "PASS" in captured.out
    assert "FAIL" not in captured.out
    report = (tmp_path / "v1" / "verify.txt").read_text()
    assert "wigner_normalization_and_bound" in report
    assert "wick_formulas" in report


def test_verify_failure_exits_2(tmp_path, capsys, monkeypatch):
    from wignerlab import verify
    monkeypatch.setattr(verify, "check_roundtrip", lambda *args: 1.0)
    out = tmp_path / "v2"
    assert main(["verify", "--out", str(out), "--level", "quick"]) == 2
    fail = "FAIL inversion_roundtrip residual=1.000e+00 tol=1e-08"
    assert fail in capsys.readouterr().out.splitlines()
    report = (out / "verify.txt").read_text().splitlines()
    assert fail in report
    assert [line.split()[1] for line in report] == [
        "wigner_normalization_and_bound", "symbol_pairing",
        "weyl_route_equivalence", "inversion_roundtrip",
        "eta_density_consistency", "quadratic_exactness", "oracle_agreement",
        "eta_route", "reduction_commuting_square", "feedback_axioms",
        "wick_formulas", "product_wigner"]


def test_seed_override_controls_random_recipes(tmp_path):
    cfg = json.loads(HARMONIC_JSON)
    cfg["phase_space"] = {"d": 1, "n_per_axis": 64, "half_width": 10.0,
                          "covariance": [[1.0]]}
    cfg["initial_state"] = {"type": "random_mixed", "rank": 3}
    path = _write(tmp_path, cfg)
    outs = [str(tmp_path / f"s{i}") for i in range(3)]
    assert main(["transform", "--config", path, "--out", outs[0],
                 "--seed", "7"]) == 0
    assert main(["transform", "--config", path, "--out", outs[1],
                 "--seed", "7"]) == 0
    assert main(["transform", "--config", path, "--out", outs[2],
                 "--seed", "8"]) == 0
    import pathlib
    b0 = pathlib.Path(outs[0], "wigner.bin").read_bytes()
    b1 = pathlib.Path(outs[1], "wigner.bin").read_bytes()
    b2 = pathlib.Path(outs[2], "wigner.bin").read_bytes()
    assert b0 == b1
    assert b0 != b2


DIFF_OUTPUTS = Path(__file__).resolve().parents[1] / "scripts" / \
    "diff_outputs.py"


def _in_git_checkout():
    try:
        return subprocess.run(["git", "rev-parse", "--verify", "HEAD"],
                              cwd=DIFF_OUTPUTS.parent, capture_output=True
                              ).returncode == 0
    except OSError:
        return False


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout")
def test_diff_outputs_finds_the_working_tree_as_head():
    proc = subprocess.run(
        [sys.executable, str(DIFF_OUTPUTS), "--base", "HEAD", "--config",
         "feedback_levels.json"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[1:] == [
        "feedback-feedback_levels: identical (exit 0, 3 files)",
        "all 1 output trees identical"]


def _diff_tool():
    spec = importlib.util.spec_from_file_location("diff_outputs",
                                                  DIFF_OUTPUTS)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_diff_outputs_runs_each_tree_on_its_own_config(tmp_path):
    # two trees on this src whose copies of one config declare another dq
    trees = {}
    for side, dq in (("base", 1.0), ("head", 1.5)):
        tree = tmp_path / side
        (tree / "configs").mkdir(parents=True)
        (tree / "src").symlink_to(DIFF_OUTPUTS.parents[1] / "src")
        cfg = json.loads(HARMONIC_JSON)
        cfg["phase_space"].update(n_per_axis=64, half_width=10.0)
        cfg["initial_state"]["dq"] = dq
        (tree / "configs" / "h.json").write_text(json.dumps(cfg))
        trees[side] = tree
    code, count, lines = _diff_tool().compare_run(
        trees, tmp_path, "transform-h", ["transform"], "h.json")
    assert code == 0 and count > 0
    assert any(line.startswith("wigner.bin: ") and "values differ" in line
               for line in lines), lines


def test_diff_outputs_counts_the_values_that_differ(tmp_path):
    tool = _diff_tool()
    a, b = tmp_path / "a", tmp_path / "b"
    for side, last, name in ((a, 1.0, "x"), (b, 1.0 + 2.0 ** -52, "y")):
        side.mkdir()
        (side / "f.bin").write_bytes(np.array([0.5, 2.0, last]).tobytes())
        (side / "f.json").write_text('{"dtype": "<f8"}')
        (side / "s.csv").write_text(f"t,x\n0,{last!r}\n")
        (side / "h.csv").write_text(f"t,{name}\n0,1\n")
    assert tool.compare_file(a / "f.json", b / "f.json") is None
    assert tool.compare_file(a / "f.bin", b / "f.bin") == (
        "1 of 3 values differ, largest |d| 2.22e-16, "
        "largest relative d 2.22e-16")
    assert tool.compare_file(a / "s.csv", b / "s.csv") == (
        "1 of 2 values differ, largest |d| 2.22e-16, "
        "largest relative d 2.22e-16")
    assert tool.compare_file(a / "h.csv", b / "h.csv") == \
        "differs outside its numbers"
