"""Command implementations shared by the CLI: build, run, persist.

Each cmd_* writes into an output directory that the caller has made."""

import math
import os

import numpy as np

from . import serialize
from .errors import SpecMismatch
from .feedback import (SubsystemLayout, assemble, build_general_hamiltonian,
                       check_run_cap, classify_coupling, run_scenario)
from .hilbert import (DensityOperator, LEBESGUE, LevelSpace, pure_density,
                      tensor_many)
from .moyal import EvolutionRun, MoyalGenerator, evolve, von_neumann_oracle
from .states import (cat_state, displaced_state, ground_state, level_coherent,
                     level_ground, level_thermal, random_mixed, thermal_state)
from .verify import check_oracle_agreement, worst_error
from .weyl import weyl_quantize
from .wigner import eta_density, purity_estimate, wigner_from_density


def build_state(recipe, space, rng):
    """Density operator from a recipe on a grid factor or level factor."""
    kind = recipe["type"]
    if isinstance(space, LevelSpace):
        if kind == "ground":
            v = level_ground(space)
        elif kind == "displaced":
            v = level_coherent(space, complex(recipe.get("alpha",
                                                         recipe.get("dq", 1.0))))
        elif kind == "thermal":
            return DensityOperator(level_thermal(space, float(recipe["beta"])),
                                   LEBESGUE, space)
        else:
            raise SpecMismatch(f"recipe {kind!r} unsupported on level factors")
        return DensityOperator(np.outer(v, v.conj()), LEBESGUE, space)
    if kind == "ground":
        return pure_density(ground_state(space))
    if kind == "displaced":
        return pure_density(displaced_state(
            space, recipe.get("dq", 0.0), recipe.get("dp", 0.0)))
    if kind == "cat":
        return pure_density(cat_state(space, float(recipe.get("a", 2.0)),
                                      recipe.get("parity", "even")))
    if kind == "thermal":
        return thermal_state(space, float(recipe["beta"]))
    if kind == "random_mixed":
        return random_mixed(space, rng, int(recipe.get("rank", 4)),
                            int(recipe.get("max_quanta", 2)))
    raise SpecMismatch(f"unknown recipe {kind!r}")


def build_composite_state(recipe, system, rng):
    if recipe["type"] == "product":
        ops = [build_state(recipe["factors"][lab], s, rng)
               for lab, s in system.factors]
        return tensor_many(ops, system)
    raise SpecMismatch("composite initial states must be product recipes")


def assemble_layout(cfg):
    layout = SubsystemLayout(dict(cfg.layout_factors))
    check_run_cap(layout)     # before any D x D operator is built

    def block(labels):
        """Sum of the factor Hamiltonians on `labels`, each embedded."""
        sub = layout.keep(labels)
        hams = cfg.factor_hamiltonians
        return assemble(((lab, weyl_quantize(hams[lab], space))
                         for lab, space in sub.factors if lab in hams), sub)

    terms = []
    for labels, syms, coeff in cfg.couplings:
        term = np.eye(1, dtype=complex)
        for lab in labels:
            term = np.kron(term, weyl_quantize(syms[lab], layout.roles[lab]))
        terms.append((labels, coeff * term))
    return (layout, block(layout.plant_labels()),
            block(layout.controller_labels()), assemble(terms, layout))


def cmd_transform(cfg, out_dir):
    """State -> Wigner and eta snapshots, marginals, scalar diagnostics."""
    rng = np.random.default_rng(cfg.seed)
    spec = cfg.phase_space
    T = build_state(cfg.initial_state, spec, rng)
    W = wigner_from_density(T)
    phi = eta_density(W)
    serialize.save_field_binary(W, os.path.join(out_dir, "wigner"))
    serialize.save_field_binary(phi, os.path.join(out_dir, "eta"))
    serialize.save_density(T, os.path.join(out_dir, "density"))
    mass = W.integrate().real
    stats = {
        "mass": [mass],
        "eta_mass": [phi.eta_integrate().real],
        "purity_est": [purity_estimate(W)],
        "min_w": [float(W.values.min())],
        "max_w": [float(W.values.max())],
    }
    serialize.save_series_csv(stats, os.path.join(out_dir, "summary.csv"))
    if "csv" in cfg.output["formats"]:
        csv = os.path.join(out_dir, "wigner.csv")
        serialize.save_field_csv(W, csv)
        if cfg.output.get("write_plot_script") and spec.d == 1:
            serialize.gnuplot_script(csv, os.path.join(out_dir, "wigner.gp"))
    failures = []
    if abs(mass - 1.0) > spec.tol.field_mass:
        failures.append(f"wigner mass deviates: {mass}")
    bound = (1.0 / math.pi) ** spec.d + 1e-8
    if np.abs(W.values).max() > bound:
        failures.append("pointwise Wigner bound violated")
    return failures


def _make_run(cfg):
    r = cfg.run
    return EvolutionRun(dt=float(r["dt"]), t_end=float(r["t_end"]),
                        stride=int(r["stride"]),
                        enforce_cfl=bool(r["enforce_cfl"]))


def cmd_evolve(cfg, out_dir):
    rng = np.random.default_rng(cfg.seed)
    spec = cfg.phase_space
    T0 = build_state(cfg.initial_state, spec, rng)
    W0 = wigner_from_density(T0)
    gen = MoyalGenerator(cfg.hamiltonian, spec,
                         truncation=int(cfg.run["truncation_k"]),
                         scheme=cfg.run["derivative_scheme"])
    run = _make_run(cfg)
    res = evolve(W0, gen, run)
    serialize.save_diagnostics_csv(res.diagnostics,
                                   os.path.join(out_dir, "diagnostics.csv"))
    for i, (t, f) in enumerate(res.snapshots):
        base = os.path.join(out_dir, f"snapshot_{i:04d}")
        serialize.save_field_binary(f, base)
        if "csv" in cfg.output["formats"]:
            serialize.save_field_csv(f, base + ".csv")
            if cfg.output.get("write_plot_script") and spec.d == 1:
                serialize.gnuplot_script(base + ".csv", base + ".gp",
                                         title=f"t = {t:.6g}")
    drift = abs(res.diagnostics["mass"][-1] - res.diagnostics["mass"][0])
    failures = []
    if drift > spec.tol.mass_drift_run:
        failures.append(f"mass drift over the run: {drift:.3e}")
    return failures


def cmd_oracle(cfg, out_dir):
    rng = np.random.default_rng(cfg.seed)
    spec = cfg.phase_space
    T0 = build_state(cfg.initial_state, spec, rng)
    run = _make_run(cfg)
    snaps = von_neumann_oracle(T0, cfg.hamiltonian, run)
    purity0 = snaps[0][1].purity()
    rows = {"t": [], "trace": [], "purity": []}
    for i, (t, Tt) in enumerate(snaps):
        W = wigner_from_density(Tt)
        serialize.save_field_binary(W, os.path.join(out_dir, f"snapshot_{i:04d}"))
        rows["t"].append(t)
        rows["trace"].append(Tt.trace())
        rows["purity"].append(Tt.purity())
    serialize.save_series_csv(rows, os.path.join(out_dir, "oracle.csv"))
    failures = []
    if max(abs(p - purity0) for p in rows["purity"]) > 1e-10:
        failures.append("oracle purity drifted beyond 1e-10")
    return failures


def cmd_compare(cfg, out_dir):
    """Twin run: Moyal vs density-operator oracle, machine-readable report."""
    rng = np.random.default_rng(cfg.seed)
    T0 = build_state(cfg.initial_state, cfg.phase_space, rng)
    errors, _ = check_oracle_agreement(
        T0, cfg.hamiltonian, int(cfg.run["truncation_k"]), _make_run(cfg),
        scheme=cfg.run["derivative_scheme"])
    rows = {"t": [t for t, _ in errors],
            "max_abs_error": [e for _, e in errors]}
    serialize.save_series_csv(rows, os.path.join(out_dir, "compare.csv"))
    worst = worst_error(errors)
    tolerance = float(cfg.run["compare_tolerance"])
    report = {"max_abs_error": worst, "tolerance": tolerance,
              "pass": bool(worst <= tolerance)}
    serialize.save_json(report, os.path.join(out_dir, "compare.json"))
    return [] if report["pass"] else \
        [f"compare error {worst:.3e} > tolerance {tolerance:g}"]


def cmd_feedback(cfg, out_dir):
    rng = np.random.default_rng(cfg.seed)
    layout, hp, hc, K = assemble_layout(cfg)
    H = build_general_hamiltonian(hp, hc, K, layout)
    verdict = classify_coupling(K, layout)
    serialize.save_json(
        {"class": verdict.kind,
         "residual": verdict.residual,
         "witness_a_norm": float(np.linalg.norm(verdict.witness_a)),
         "witness_b_norm": float(np.linalg.norm(verdict.witness_b))},
        os.path.join(out_dir, "verdict.json"))
    system = layout.system()
    T0 = build_composite_state(cfg.initial_state, system, rng)
    run = _make_run(cfg)
    res = run_scenario(layout, H, T0, run, h_plant=hp)
    rows = {"t": res.times, "plant_purity": res.plant_purity}
    if res.plant_energy.size:
        rows["plant_energy"] = res.plant_energy
    serialize.save_series_csv(rows, os.path.join(out_dir, "scenario.csv"))
    for i, (t, f) in enumerate(res.plant_wigner):
        serialize.save_field_binary(f, os.path.join(out_dir, f"plant_{i:04d}"))
    failures = []
    if res.square_residuals.size and res.square_residuals.max() > 1e-6:
        failures.append(
            f"reduction square residual {res.square_residuals.max():.3e}")
    return failures
