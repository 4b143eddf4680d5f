"""Scenario configuration: JSON schema, validation, domain-object assembly.

parse_config collects every schema violation (path, reason) before raising,
so a bad config reports all its problems at once.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadGridSize, InsufficientDomain, NonPositiveCovariance,
                     NonSymmetricCovariance, SchemaViolation, UnknownVersion,
                     WignerLabError)
from .hilbert import LevelSpace
from .lattice import make_phase_space
from .tolerances import DEFAULT_TOL
from .weyl import HamiltonianSymbol

SUPPORTED_VERSIONS = ("1",)

RUN_DEFAULTS = {"dt": 1e-3, "t_end": 1.0, "stride": 10, "truncation_k": 3,
                "derivative_scheme": "spectral", "enforce_cfl": True,
                "compare_tolerance": 1e-3}

OUTPUT_DEFAULTS = {"directory": "out", "formats": ["csv"],
                   "write_plot_script": False}
OUTPUT_FORMATS = ("csv",)      # optional extras; binary fields are always written

STATE_KINDS = ("ground", "displaced", "cat", "thermal", "product",
               "random_mixed")


@dataclass
class ScenarioConfig:
    version: str
    raw: dict
    phase_space: object = None          # PhaseSpaceSpec for single-system runs
    layout_factors: dict = None         # role -> space, for feedback runs
    hamiltonian: object = None          # HamiltonianSymbol (single-system)
    factor_hamiltonians: dict = None    # role -> HamiltonianSymbol
    couplings: list = None              # list of (labels, {label: symbol})
    initial_state: dict = None
    run: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    seed: int = 0
    verify_level: str = "quick"


def _check_symbol_terms(raw_terms, d, path, violations):
    terms = []
    for i, item in enumerate(raw_terms):
        here = f"{path}[{i}]"
        if not isinstance(item, dict):
            violations.append((here, "term must be an object"))
            continue
        missing = {"powers_q", "powers_p", "coeff"} - set(item)
        if missing:
            violations.append((here, f"missing key(s) {sorted(missing)}"))
            continue
        pq, pp = item["powers_q"], item["powers_p"]
        if len(pq) != d or len(pp) != d:
            violations.append((here, f"powers must have length d={d}"))
            continue
        if any(int(x) < 0 for x in pq + pp):
            violations.append((here, "powers must be nonnegative"))
            continue
        try:
            coeff = float(item["coeff"])
        except (TypeError, ValueError):
            violations.append((here + ".coeff", "not a real number"))
            continue
        terms.append((tuple(int(x) for x in pq), tuple(int(x) for x in pp), coeff))
    return tuple(terms)


def _build_phase_space(section, path, violations, tol):
    missing = [k for k in ("d", "n_per_axis", "half_width", "covariance")
               if k not in section]
    if missing:
        violations.append((path, f"missing key(s) {missing}"))
        return None
    try:
        d = int(section["d"])
        cov = np.asarray(section["covariance"], dtype=float)
        return make_phase_space(d, int(section["n_per_axis"]),
                                float(section["half_width"]), cov, tol)
    except (NonSymmetricCovariance, NonPositiveCovariance) as exc:
        violations.append((f"{path}.covariance", str(exc)))
    except InsufficientDomain as exc:
        violations.append((f"{path}.half_width", str(exc)))
    except BadGridSize as exc:
        violations.append((f"{path}.n_per_axis", str(exc)))
    except (TypeError, ValueError) as exc:
        violations.append((path, f"malformed section: {exc}"))
    return None


def _build_factor(section, path, violations, tol):
    kind = section.get("kind", "grid")
    if kind == "levels":
        dim = section.get("dim")
        if not isinstance(dim, int) or dim < 2:
            violations.append((f"{path}.dim", "level factor needs integer dim >= 2"))
            return None
        return LevelSpace(dim)
    if kind == "grid":
        return _build_phase_space(section, path, violations, tol)
    violations.append((f"{path}.kind", f"unknown factor kind {kind!r}"))
    return None


def _check_state(section, path, violations, labels=None):
    if not isinstance(section, dict) or "type" not in section:
        violations.append((path, "initial_state needs a 'type'"))
        return None
    kind = section["type"]
    if kind not in STATE_KINDS:
        violations.append((f"{path}.type", f"unknown recipe {kind!r}"))
        return None
    if kind == "product":
        factors = section.get("factors")
        if not isinstance(factors, dict):
            violations.append((f"{path}.factors", "product recipe needs factors"))
            return None
        if labels is not None:
            for lab in factors:
                if lab not in labels:
                    violations.append((f"{path}.factors.{lab}",
                                       f"unknown subsystem label {lab!r}"))
            for lab in labels:
                if lab not in factors:
                    violations.append((f"{path}.factors",
                                       f"missing recipe for {lab!r}"))
        for lab, sub in factors.items():
            _check_state(sub, f"{path}.factors.{lab}", violations)
    return section


def parse_config(text, tol=DEFAULT_TOL):
    """Parse and validate a JSON scenario config; collects all violations."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation([("$", f"not valid JSON: {exc}")])
    if not isinstance(raw, dict):
        raise SchemaViolation([("$", "top level must be an object")])
    version = str(raw.get("version", ""))
    if version not in SUPPORTED_VERSIONS:
        raise UnknownVersion(
            f"version {version!r} not in supported set {SUPPORTED_VERSIONS}")

    violations = []
    cfg = ScenarioConfig(version=version, raw=raw)

    has_ps = "phase_space" in raw
    has_layout = "layout" in raw
    if not has_ps and not has_layout:
        violations.append(("$", "need a phase_space or layout section"))

    if has_ps:
        cfg.phase_space = _build_phase_space(raw["phase_space"], "phase_space",
                                             violations, tol)
    if has_layout:
        cfg.layout_factors = {}
        lay = raw["layout"]
        if not isinstance(lay, dict):
            violations.append(("layout", "must be an object of role -> factor"))
        else:
            for role, section in lay.items():
                space = _build_factor(section, f"layout.{role}", violations, tol)
                if space is not None:
                    cfg.layout_factors[role] = space
            for need in ("P1", "C1"):
                if need not in lay:
                    violations.append((f"layout.{need}", "required role missing"))

    ham = raw.get("hamiltonian", {})
    if has_ps:
        # validate symbol terms even when the phase-space section is bad,
        # so one parse reports every violation
        try:
            d = int(raw["phase_space"].get("d", 1))
        except (TypeError, ValueError, AttributeError):
            d = 1
        terms = _check_symbol_terms(ham.get("terms", []), d, "hamiltonian.terms",
                                    violations)
        schedule = None
        if "schedule" in ham:
            schedule = []
            for i, seg in enumerate(ham["schedule"]):
                segterms = _check_symbol_terms(
                    seg.get("terms", []), d, f"hamiltonian.schedule[{i}].terms",
                    violations)
                schedule.append((float(seg.get("t_start", 0.0)), segterms))
            schedule = tuple(schedule)
        try:
            cfg.hamiltonian = HamiltonianSymbol(terms, schedule=schedule, d=d)
        except WignerLabError as exc:
            violations.append(("hamiltonian", str(exc)))
    if has_layout:
        cfg.factor_hamiltonians = {}
        for role, sub in ham.get("factors", {}).items():
            if cfg.layout_factors is not None and role not in cfg.layout_factors:
                violations.append((f"hamiltonian.factors.{role}",
                                   f"unknown subsystem label {role!r}"))
                continue
            space = cfg.layout_factors.get(role)
            d = space.d if hasattr(space, "d") else 1
            terms = _check_symbol_terms(sub.get("terms", []), d,
                                        f"hamiltonian.factors.{role}.terms",
                                        violations)
            cfg.factor_hamiltonians[role] = HamiltonianSymbol(terms, d=d)
        cfg.couplings = []
        for i, cterm in enumerate(ham.get("couplings", [])):
            path = f"hamiltonian.couplings[{i}]"
            labels = cterm.get("factors")
            if not labels:
                violations.append((path + ".factors", "missing factor labels"))
                continue
            bad = [lab for lab in labels
                   if cfg.layout_factors is not None
                   and lab not in cfg.layout_factors]
            if bad:
                violations.append((path + ".factors",
                                   f"unknown subsystem label(s) {bad}"))
                continue
            syms = {}
            for lab in labels:
                sub = cterm.get("symbols", {}).get(lab)
                if sub is None:
                    violations.append((path + f".symbols.{lab}",
                                       "missing per-factor symbol"))
                    continue
                space = cfg.layout_factors.get(lab)
                d = space.d if hasattr(space, "d") else 1
                terms = _check_symbol_terms(sub, d, path + f".symbols.{lab}",
                                            violations)
                syms[lab] = HamiltonianSymbol(terms, d=d)
            coeff = float(cterm.get("coeff", 1.0))
            cfg.couplings.append((tuple(labels), syms, coeff))

    labels = tuple(cfg.layout_factors) if cfg.layout_factors else None
    cfg.initial_state = _check_state(raw.get("initial_state", {"type": "ground"}),
                                     "initial_state", violations, labels)

    run = dict(RUN_DEFAULTS)
    run.update(raw.get("run", {}))
    if run["dt"] <= 0:
        violations.append(("run.dt", "must be positive"))
    if run["t_end"] <= 0:
        violations.append(("run.t_end", "must be positive"))
    if int(run["stride"]) < 1:
        violations.append(("run.stride", "must be >= 1"))
    if run["derivative_scheme"] not in ("spectral", "finite_difference_4th"):
        violations.append(("run.derivative_scheme", "unknown scheme"))
    cfg.run = run

    out = dict(OUTPUT_DEFAULTS)
    section = raw.get("output", {})
    if isinstance(section, dict):
        out.update(section)
    else:
        violations.append(("output", "must be an object"))
    formats = out["formats"]
    if (not isinstance(formats, list)
            or any(f not in OUTPUT_FORMATS for f in formats)):
        violations.append(("output.formats",
                           f"must be a list of format names from {OUTPUT_FORMATS}"))
    cfg.output = out
    cfg.seed = int(raw.get("seed", 0))
    cfg.verify_level = raw.get("verify", {}).get("level", "quick")

    if violations:
        raise SchemaViolation(violations)
    return cfg
