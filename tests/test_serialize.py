import json

import numpy as np
import pytest

from oracles import diagnostics_csv_by_rows, field_csv_by_cells
from wignerlab import make_phase_space, pure_density, wigner_from_density
from wignerlab.hilbert import CompositeSystem
from wignerlab.moyal import EvolutionRun, MoyalGenerator, evolve
from wignerlab.serialize import (gnuplot_script, load_field_binary,
                                 save_density,
                                 save_diagnostics_csv, save_field_binary,
                                 save_field_csv, write_manifest)
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


def _field_case(name, lab64):
    W = wigner_from_density(random_mixed(lab64, np.random.default_rng(3)))
    if name == "d1_wigner":
        return W
    if name == "complex":
        phase = np.exp(1j * np.linspace(0.0, 6.0, W.values.size))
        vals = W.values * phase.reshape(W.values.shape)
        assert (vals.imag < 0).any() and (vals.imag > 0).any()
        return PhaseSpaceField(vals, W.role, lab64)
    if name == "d2":
        return _small_d2_field()
    vals = np.array(W.values)
    vals[0, :4] = [np.nan, np.inf, -np.inf, -0.0]
    vals[5, 7] = -0.0
    return PhaseSpaceField(vals, W.role, lab64)


@pytest.mark.parametrize("case", ["d1_wigner", "complex", "d2", "specials"])
def test_field_csv_matches_per_cell_writer(case, lab64, tmp_path):
    field = _field_case(case, lab64)
    save_field_csv(field, str(tmp_path / "blocks.csv"))
    field_csv_by_cells(field, str(tmp_path / "cells.csv"))
    got = (tmp_path / "blocks.csv").read_bytes()
    assert got == (tmp_path / "cells.csv").read_bytes()
    if case == "complex":
        assert b"+-" in got
    if case == "specials":
        assert b",nan\n" in got and b",-inf\n" in got and b",-0\n" in got


def test_diagnostics_csv_matches_row_writer(lab64, tmp_path):
    osc = HamiltonianSymbol((((2,), (0,), 0.5), ((0,), (2,), 0.5)), d=1)
    W0 = wigner_from_density(pure_density(displaced_state(lab64, 1.0, 0.0)))
    res = evolve(W0, MoyalGenerator(osc, lab64, truncation=1),
                 EvolutionRun(dt=1e-3, t_end=0.02, stride=10))
    save_diagnostics_csv(res.diagnostics, str(tmp_path / "series.csv"))
    diagnostics_csv_by_rows(res.diagnostics, str(tmp_path / "rows.csv"))
    assert ((tmp_path / "series.csv").read_bytes()
            == (tmp_path / "rows.csv").read_bytes())


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
