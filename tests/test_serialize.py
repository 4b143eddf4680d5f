import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import diagnostics_csv_by_rows, field_csv_by_cells
from wignerlab import (make_phase_space, pure_density, serialize,
                       wigner_from_density)
from wignerlab.hilbert import CompositeSystem
from wignerlab.moyal import EvolutionRun, MoyalGenerator, evolve
from wignerlab.serialize import (gnuplot_script, load_field_binary,
                                 save_density,
                                 save_diagnostics_csv, save_field_binary,
                                 save_field_csv, save_series_csv,
                                 write_manifest)
from wignerlab.states import displaced_state, random_mixed
from wignerlab.tolerances import TolerancePolicy
from wignerlab.weyl import HamiltonianSymbol
from wignerlab.wigner import WIGNER, PhaseSpaceField, eta_density


def test_density_binary_roundtrip(lab64, tmp_path):
    T = pure_density(displaced_state(lab64, 1.0, 0.5))
    base = str(tmp_path / "density")
    save_density(T, base)
    meta = json.loads((tmp_path / "density.json").read_text())
    assert meta["dtype"] == "<c16"
    assert meta["shape"] == [64, 64]
    assert meta["space"]["kind"] == "grid"
    # raw buffer is row-major little-endian complex128
    raw = np.fromfile(base + ".bin", dtype="<c16").reshape(64, 64)
    assert np.array_equal(raw, np.asarray(T.matrix))


def test_field_binary_roundtrip(lab64, tmp_path):
    W = wigner_from_density(pure_density(displaced_state(lab64, 1.0, 0.5)))
    base = str(tmp_path / "field")
    save_field_binary(W, base)
    back = load_field_binary(base, lab64, lab64.tol)
    assert np.array_equal(np.asarray(back.values), np.asarray(W.values))
    assert back.role == W.role
    phi = eta_density(W)
    save_field_binary(phi, str(tmp_path / "eta"))
    meta = json.loads((tmp_path / "eta.json").read_text())
    assert meta["role"] == "eta_density"


def test_field_csv_layout_and_determinism(lab32, tmp_path):
    W = wigner_from_density(pure_density(displaced_state(lab32, 1.0, 0.0)))
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    save_field_csv(W, str(p1))
    save_field_csv(W, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "q1,p1,value"
    assert len(lines) == 1 + 32 * 32
    q0, p0, v0 = lines[1].split(",")
    assert float(q0) == lab32.grid.positions[0]
    assert float(p0) == lab32.grid.momenta[0]


def _small_d2_field():
    # two factors of different sizes, so every axis has its own coordinates
    tol = TolerancePolicy(domain_tail_mass=1.0)
    space = CompositeSystem((("A", make_phase_space(1, 8, 3.0, [[1.0]], tol)),
                             ("B", make_phase_space(1, 4, 2.0, [[1.0]], tol))))
    vals = np.random.default_rng(7).standard_normal((8, 4, 8, 4))
    return PhaseSpaceField(vals, WIGNER, space, tol=tol)


def _crafted():
    """The values a decimal kernel gets wrong first: every power of two and
    every float(f"1e{k}") with both neighbours, the fixed/exponent switch
    points with theirs, an exact 17-digit tie (2^-25), subnormals, the
    largest float, zero, NaN and inf, each also negated."""
    base = [2.0 ** p for p in range(-1074, 1024)]
    base += [float(f"1e{k}") for k in range(-324, 310)]
    base += [9.9999999999999995e-05, 1e-4, 1e16, 1e17]
    base = np.array(base)
    vals = np.concatenate([base, np.nextafter(base, np.inf),
                           np.nextafter(base, -np.inf),
                           [2.0 ** -25, 5e-324, 1.7976931348623157e308,
                            0.0, np.nan, np.inf]])
    return np.concatenate([vals, -vals])


@pytest.fixture(scope="module")
def transform_field():
    """The first transform_d1 benchmark state (seed 1), as a Wigner field."""
    lab = make_phase_space(1, 256, 20.0, [[1.0]])
    rng = np.random.default_rng([1, 2])
    return wigner_from_density(random_mixed(lab, rng, rank=4))


def _evolve_snapshot(lab64):
    """The last snapshot of the cli_batch evolve run (harmonic, n = 64)."""
    osc = HamiltonianSymbol((((2,), (0,), 0.5), ((0,), (2,), 0.5)), d=1)
    W0 = wigner_from_density(pure_density(displaced_state(lab64, 1.5, 0.2)))
    res = evolve(W0, MoyalGenerator(osc, lab64, truncation=1),
                 EvolutionRun(dt=1e-3, t_end=0.2, stride=50))
    return res.snapshots[-1][1]


def _field_case(name, lab64, transform_field):
    if name == "d1_wigner":
        return wigner_from_density(random_mixed(lab64,
                                                np.random.default_rng(3)))
    if name == "d2":
        return _small_d2_field()
    crafted = _crafted()
    vals = np.array(transform_field.values)
    if name == "complex":
        phase = np.exp(1j * np.linspace(0.0, 6.0, vals.size))
        vals = vals * phase.reshape(vals.shape)
        flat = vals.reshape(-1)
        flat.real[:crafted.size] = crafted
        flat.imag[:crafted.size] = crafted[::-1]
        assert (vals.imag < 0).any() and (vals.imag > 0).any()
    else:
        vals.reshape(-1)[:crafted.size] = crafted
    return PhaseSpaceField(vals, transform_field.role, transform_field.space)


@pytest.mark.parametrize("case", ["d1_wigner", "complex", "d2", "specials"])
def test_field_csv_matches_per_cell_writer(case, lab64, transform_field,
                                           tmp_path):
    field = _field_case(case, lab64, transform_field)
    save_field_csv(field, str(tmp_path / "blocks.csv"))
    field_csv_by_cells(field, str(tmp_path / "cells.csv"))
    got = (tmp_path / "blocks.csv").read_bytes()
    assert got == (tmp_path / "cells.csv").read_bytes()
    if case == "complex":
        assert b"+-" in got
    if case == "specials":
        assert b",nan\n" in got and b",-inf\n" in got and b",-0\n" in got


def _kernel_text(xs):
    """The cells of `xs` from the array kernel, one per line."""
    cells, keep = serialize._cells(np.asarray(xs, np.float64), b"\n")
    return cells[keep].tobytes()


def _fstring_text(xs):
    return "".join(f"{x:.17g}\n" for x in np.asarray(xs).tolist()).encode()


def test_cells_match_fstring_on_crafted_values():
    crafted = _crafted()
    assert _kernel_text(crafted) == _fstring_text(crafted)
    # from the rounded significand, 1e-304 would take the wrong decade
    assert _kernel_text([1e-304, 2.0 ** -25, 1e16, 1e17]) == (
        b"9.9999999999999997e-305\n2.9802322387695312e-08\n"
        b"10000000000000000\n1e+17\n")


def test_cells_match_fstring_on_random_bit_patterns():
    rng = np.random.default_rng(20261020)
    for _ in range(16):
        xs = rng.integers(0, 2 ** 64, size=65536, dtype=np.uint64)
        xs = xs.view(np.float64)
        assert _kernel_text(xs) == _fstring_text(xs)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_cells_match_fstring_on_any_float(xs):
    assert _kernel_text(xs) == _fstring_text(xs)


def test_ties_and_edges_go_to_the_fstring(monkeypatch):
    calls = []
    fmt = serialize._fmt
    monkeypatch.setattr(serialize, "_fmt", lambda x: calls.append(x) or fmt(x))
    _kernel_text([2.0 ** -25, 1e16, 0.1, -0.0, np.nan])
    assert calls[:2] == [2.0 ** -25, 1e16] and np.isnan(calls[2])


def test_pow10_table_is_within_its_bound():
    hi, lo, b = serialize._pow10_table()
    ks = range(serialize._K_MIN, serialize._K_MAX + 1)
    for k, h, l, e in zip(ks, hi.tolist(), lo.tolist(), b.tolist()):
        exact = Fraction(10) ** k / Fraction(2) ** e
        assert 1 <= exact < 2 and abs(l) <= 2.0 ** -53
        assert abs(Fraction(h) + Fraction(l) - exact) <= exact / 2 ** 105


def test_decimal_tables_are_not_built_at_import():
    code = ("import wignerlab.cli, wignerlab.serialize as s; "
            "print(s._pow10_table.cache_info().currsize, "
            "s._layout_table.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "0"]


@pytest.mark.parametrize("case", ["transform_n256", "evolve_n64"])
def test_few_cells_reach_the_fstring_fallback(case, lab64, transform_field,
                                              monkeypatch, tmp_path):
    field = (transform_field if case == "transform_n256"
             else _evolve_snapshot(lab64))
    calls = []
    fmt = serialize._fmt
    monkeypatch.setattr(serialize, "_fmt", lambda x: calls.append(x) or fmt(x))
    save_field_csv(field, str(tmp_path / "fast.csv"))
    monkeypatch.undo()
    cells = field.values.size * 3
    assert len(calls) < 0.01 * cells
    field_csv_by_cells(field, str(tmp_path / "cells.csv"))
    assert ((tmp_path / "fast.csv").read_bytes()
            == (tmp_path / "cells.csv").read_bytes())


def test_field_csv_working_set_does_not_grow_with_the_field(sys2, spec32c):
    # d = 2, n = 32: 1,048,576 rows, the feedback_grid composite grid
    vals = np.random.default_rng(11).standard_normal((32,) * 4) * 1e-3
    field = PhaseSpaceField(vals, WIGNER, sys2, tol=spec32c.tol)
    tracemalloc.start()
    try:
        save_field_csv(field, os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_diagnostics_csv_matches_row_writer(lab64, tmp_path):
    osc = HamiltonianSymbol((((2,), (0,), 0.5), ((0,), (2,), 0.5)), d=1)
    W0 = wigner_from_density(pure_density(displaced_state(lab64, 1.0, 0.0)))
    res = evolve(W0, MoyalGenerator(osc, lab64, truncation=1),
                 EvolutionRun(dt=1e-3, t_end=0.02, stride=10))
    save_diagnostics_csv(res.diagnostics, str(tmp_path / "series.csv"))
    diagnostics_csv_by_rows(res.diagnostics, str(tmp_path / "rows.csv"))
    assert ((tmp_path / "series.csv").read_bytes()
            == (tmp_path / "rows.csv").read_bytes())


def test_series_csv_matches_per_value_cells(tmp_path):
    crafted = _crafted()
    cols = {"a": crafted, "b": crafted[::-1].tolist(), "c": -crafted}
    save_series_csv(cols, str(tmp_path / "series.csv"))
    rows = ["a,b,c"] + [",".join(f"{v:.17g}" for v in row)
                        for row in zip(crafted, crafted[::-1], -crafted)]
    assert (tmp_path / "series.csv").read_text() == "\n".join(rows) + "\n"


def test_diagnostics_csv(tmp_path):
    diags = {k: np.array([0.0, 1.0]) for k in
             ("t", "mass", "l2", "energy", "min_w", "purity_est")}
    path = tmp_path / "d.csv"
    save_diagnostics_csv(diags, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,mass,l2,energy,min_w,purity_est"
    assert len(lines) == 3


def test_gnuplot_script(tmp_path):
    out = tmp_path / "plot.gp"
    gnuplot_script(str(tmp_path / "field.csv"), str(out), title="t = 0")
    text = out.read_text()
    assert "pm3d" in text
    assert "field.csv" in text


def test_manifest_contents(tmp_path):
    from wignerlab.tolerances import DEFAULT_TOL
    cfg = '{"version": "1"}'
    write_manifest(str(tmp_path), cfg, "transform", DEFAULT_TOL)
    meta = json.loads((tmp_path / "manifest.json").read_text())
    assert meta["command"] == "transform"
    assert len(meta["config_sha256"]) == 64
    assert meta["tool_version"]
    assert "trace_one" in meta["tolerances"]
    # no timestamps: a second write is byte-identical
    first = (tmp_path / "manifest.json").read_bytes()
    write_manifest(str(tmp_path), cfg, "transform", DEFAULT_TOL)
    assert (tmp_path / "manifest.json").read_bytes() == first
