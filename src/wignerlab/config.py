"""Scenario configuration: JSON schema, validation, domain-object assembly.

parse_config collects every schema violation (path, reason) before raising,
so a bad config reports all its problems at once.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadGridSize, BadSchedule, InsufficientDomain,
                     NonPositiveCovariance, NonSymmetricCovariance,
                     SchemaViolation, UnknownVersion, WignerLabError)
from .hilbert import LevelSpace
from .lattice import make_phase_space
from .moyal import MAX_BRACKET_ORDER
from .tolerances import DEFAULT_TOL
from .weyl import HamiltonianSymbol

SUPPORTED_VERSIONS = ("1",)

MAX_WIGNER_CELLS = 2 ** 24     # n^(2d): d = 1 up to n = 4096, d = 2 up to n = 64

RUN_DEFAULTS = {"dt": 1e-3, "t_end": 1.0, "stride": 10, "truncation_k": 3,
                "derivative_scheme": "spectral", "enforce_cfl": True,
                "compare_tolerance": 1e-3}

OUTPUT_DEFAULTS = {"directory": "out", "formats": ["csv"],
                   "write_plot_script": False}
OUTPUT_FORMATS = ("csv",)      # optional extras; binary fields are always written

STATE_KINDS = ("ground", "displaced", "cat", "thermal", "product",
               "random_mixed")
# the recipes a single system or a product's factor takes; a level factor
# takes only LEVEL_RECIPES, and a config with a layout alone only a product
FACTOR_RECIPES = tuple(k for k in STATE_KINDS if k != "product")
LEVEL_RECIPES = ("ground", "displaced", "thermal")


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


def _real(x):
    """A JSON number as a finite float, else None (booleans are not numbers)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return None
    try:
        x = float(x)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _integer(x):
    """A JSON integer (or integral float) as an int, else None."""
    if isinstance(x, bool):
        return None
    if isinstance(x, int):
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    return None


def _object(value, path, violations):
    """value when it is a JSON object, else {} and a violation at path."""
    if isinstance(value, dict):
        return value
    violations.append((path, "must be an object"))
    return {}


def _array(value, path, violations):
    """value when it is a JSON array, else [] and a violation at path."""
    if isinstance(value, list):
        return value
    violations.append((path, "must be a list"))
    return []


def _check_symbol_terms(raw_terms, d, path, violations):
    terms = []
    for i, item in enumerate(_array(raw_terms, path, violations)):
        here = f"{path}[{i}]"
        if not isinstance(item, dict):
            violations.append((here, "term must be an object"))
            continue
        missing = {"powers_q", "powers_p", "coeff"} - set(item)
        if missing:
            violations.append((here, f"missing key(s) {sorted(missing)}"))
            continue
        pq, pp = item["powers_q"], item["powers_p"]
        if not (isinstance(pq, list) and isinstance(pp, list)):
            violations.append((here, "powers must be lists"))
            continue
        if len(pq) != d or len(pp) != d:
            violations.append((here, f"powers must have length d={d}"))
            continue
        powers = [_integer(x) for x in pq + pp]
        if any(x is None or x < 0 for x in powers):
            violations.append((here, "powers must be nonnegative integers"))
            continue
        coeff = _real(item["coeff"])
        if coeff is None:
            violations.append((here + ".coeff", "not a real number"))
            continue
        terms.append((tuple(powers[:d]), tuple(powers[d:]), coeff))
    return tuple(terms)


def _build_phase_space(section, path, violations, tol):
    if not isinstance(section, dict):
        violations.append((path, "must be an object"))
        return None
    missing = [k for k in ("d", "n_per_axis", "half_width", "covariance")
               if k not in section]
    if missing:
        violations.append((path, f"missing key(s) {missing}"))
        return None
    d = _integer(section["d"])
    n = _integer(section["n_per_axis"])
    half_width = _real(section["half_width"])
    for key, value, reason in (
            ("d", d, "not an integer"), ("n_per_axis", n, "not an integer"),
            ("half_width", half_width, "not a real number")):
        if value is None:
            violations.append((f"{path}.{key}", reason))
    if None in (d, n, half_width):
        return None
    # checked on the numbers alone, before any grid is built
    if (d >= 1 and n >= 2
            and 2 * d * math.log2(n) > math.log2(MAX_WIGNER_CELLS)):
        violations.append((f"{path}.n_per_axis",
                           f"n_per_axis={n} with d={d} gives n^(2d) Wigner "
                           f"cells, above the cap {MAX_WIGNER_CELLS} (2^24)"))
        return None
    try:
        cov = np.asarray(section["covariance"], dtype=float)
        return make_phase_space(d, n, half_width, cov, tol)
    except (NonSymmetricCovariance, NonPositiveCovariance) as exc:
        violations.append((f"{path}.covariance", str(exc)))
    except InsufficientDomain as exc:
        violations.append((f"{path}.half_width", str(exc)))
    except BadGridSize as exc:
        violations.append((f"{path}.n_per_axis", str(exc)))
    except (TypeError, ValueError, OverflowError) as exc:
        violations.append((path, f"malformed section: {exc}"))
    return None


def _build_factor(section, path, violations, tol):
    if not isinstance(section, dict):
        violations.append((path, "must be an object"))
        return None
    kind = section.get("kind", "grid")
    if kind == "levels":
        dim = _integer(section.get("dim"))
        if dim is None or dim < 2:
            violations.append((f"{path}.dim", "level factor needs integer dim >= 2"))
            return None
        return LevelSpace(dim)
    if kind == "grid":
        return _build_phase_space(section, path, violations, tol)
    violations.append((f"{path}.kind", f"unknown factor kind {kind!r}"))
    return None


# recipe parameters read by the state builders, by kind of value
RECIPE_REALS = ("dq", "dp", "a", "beta")
RECIPE_COUNTS = ("rank", "max_quanta")


def _check_state(section, path, violations, factors=None,
                 kinds=STATE_KINDS):
    """Check a recipe; `factors` maps each layout role to its space."""
    if not isinstance(section, dict) or "type" not in section:
        violations.append((path, "initial_state needs a 'type'"))
        return None
    kind = section["type"]
    if kind not in STATE_KINDS:
        violations.append((f"{path}.type", f"unknown recipe {kind!r}"))
        return None
    if kind not in kinds:
        violations.append((f"{path}.type",
                           f"recipe {kind!r} does not fit here; use one of "
                           f"{kinds}"))
    for key in RECIPE_REALS:
        if key in section and _real(section[key]) is None:
            violations.append((f"{path}.{key}", "not a real number"))
    for key in RECIPE_COUNTS:
        if key in section and (_integer(section[key]) or 0) < 1:
            violations.append((f"{path}.{key}", "must be an integer >= 1"))
    if "alpha" in section:
        try:
            complex(section["alpha"])
        except (TypeError, ValueError, OverflowError):
            violations.append((f"{path}.alpha", "not a number"))
    if kind == "thermal" and "beta" not in section:
        violations.append((f"{path}.beta", "thermal recipe needs beta"))
    if kind == "cat" and section.get("parity", "even") not in ("even", "odd"):
        violations.append((f"{path}.parity", "must be 'even' or 'odd'"))
    if kind == "product":
        recipes = section.get("factors")
        if not isinstance(recipes, dict):
            violations.append((f"{path}.factors", "product recipe needs factors"))
            return None
        if factors is not None:
            for lab in recipes:
                if lab not in factors:
                    violations.append((f"{path}.factors.{lab}",
                                       f"unknown subsystem label {lab!r}"))
            for lab in factors:
                if lab not in recipes:
                    violations.append((f"{path}.factors",
                                       f"missing recipe for {lab!r}"))
        for lab, sub in recipes.items():
            level = isinstance((factors or {}).get(lab), LevelSpace)
            _check_state(sub, f"{path}.factors.{lab}", violations,
                         kinds=LEVEL_RECIPES if level else FACTOR_RECIPES)
    return section


def _check_run(section, violations):
    run = dict(RUN_DEFAULTS)
    run.update(_object(section, "run", violations))
    for key in ("dt", "t_end", "compare_tolerance"):
        x = _real(run[key])
        if x is None or x <= 0:
            violations.append((f"run.{key}", "must be a positive number"))
    for key in ("stride", "truncation_k"):
        x = _integer(run[key])
        if x is None or x < 1:
            violations.append((f"run.{key}", "must be an integer >= 1"))
        elif key == "truncation_k" and 2 * x - 1 > MAX_BRACKET_ORDER:
            violations.append((f"run.{key}", "must be at most "
                               f"{(MAX_BRACKET_ORDER + 1) // 2} (bracket "
                               f"order {MAX_BRACKET_ORDER})"))
    if run["derivative_scheme"] not in ("spectral", "finite_difference_4th"):
        violations.append(("run.derivative_scheme", "unknown scheme"))
    if not isinstance(run["enforce_cfl"], bool):
        violations.append(("run.enforce_cfl", "must be true or false"))
    return run


def _check_output(section, violations):
    out = dict(OUTPUT_DEFAULTS)
    out.update(_object(section, "output", violations))
    if not isinstance(out["directory"], str):
        violations.append(("output.directory", "must be a path string"))
    formats = out["formats"]
    if (not isinstance(formats, list)
            or any(f not in OUTPUT_FORMATS for f in formats)):
        violations.append(("output.formats",
                           f"must be a list of format names from {OUTPUT_FORMATS}"))
    if not isinstance(out["write_plot_script"], bool):
        violations.append(("output.write_plot_script", "must be true or false"))
    return out


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def parse_config(text, tol=DEFAULT_TOL):
    """Parse and validate a JSON scenario config; collects all violations.

    Every malformed value is reported as a (path, reason) violation of one
    SchemaViolation; an unsupported version raises UnknownVersion.
    """
    try:
        raw = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
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

    ham = _object(raw.get("hamiltonian", {}), "hamiltonian", violations)
    if has_ps:
        # validate symbol terms even when the phase-space section is bad,
        # so one parse reports every violation
        try:
            d = int(raw["phase_space"].get("d", 1))
        except (TypeError, ValueError, AttributeError, OverflowError):
            d = 1
        terms = _check_symbol_terms(ham.get("terms", []), d, "hamiltonian.terms",
                                    violations)
        schedule = None
        where = []          # the config position of each parsed segment
        if "schedule" in ham:
            schedule = []
            for i, seg in enumerate(_array(ham["schedule"], "hamiltonian.schedule",
                                           violations)):
                here = f"hamiltonian.schedule[{i}]"
                seg = _object(seg, here, violations)
                segterms = _check_symbol_terms(
                    seg.get("terms", []), d, f"{here}.terms", violations)
                t_start = _real(seg.get("t_start", 0.0))
                if t_start is None:
                    violations.append((f"{here}.t_start", "not a real number"))
                    continue
                schedule.append((t_start, segterms))
                where.append(i)
            schedule = tuple(schedule)
        try:
            cfg.hamiltonian = HamiltonianSymbol(terms, schedule=schedule, d=d)
        except BadSchedule as exc:
            i = where[exc.index] if where else 0
            violations.append((f"hamiltonian.schedule[{i}]", str(exc)))
        except WignerLabError as exc:
            violations.append(("hamiltonian", str(exc)))
    if has_layout:
        factors = cfg.layout_factors
        cfg.factor_hamiltonians = {}
        for role, sub in _object(ham.get("factors", {}), "hamiltonian.factors",
                                 violations).items():
            path = f"hamiltonian.factors.{role}"
            if role not in factors:
                violations.append((path, f"unknown subsystem label {role!r}"))
                continue
            d = getattr(factors[role], "d", 1)
            terms = _check_symbol_terms(_object(sub, path, violations).get(
                "terms", []), d, f"{path}.terms", violations)
            cfg.factor_hamiltonians[role] = HamiltonianSymbol(terms, d=d)
        cfg.couplings = []
        for i, cterm in enumerate(_array(ham.get("couplings", []),
                                         "hamiltonian.couplings", violations)):
            path = f"hamiltonian.couplings[{i}]"
            cterm = _object(cterm, path, violations)
            labels = cterm.get("factors")
            if not labels or not isinstance(labels, list) \
                    or not all(isinstance(lab, str) for lab in labels):
                violations.append((path + ".factors", "missing factor labels"))
                continue
            bad = [lab for lab in labels if lab not in factors]
            if bad:
                violations.append((path + ".factors",
                                   f"unknown subsystem label(s) {bad}"))
                continue
            if len(set(labels)) != len(labels):
                violations.append((path + ".factors",
                                   f"repeated subsystem label in {labels}"))
                continue
            symbols = _object(cterm.get("symbols", {}), path + ".symbols",
                              violations)
            syms = {}
            for lab in labels:
                sub = symbols.get(lab)
                if sub is None:
                    violations.append((path + f".symbols.{lab}",
                                       "missing per-factor symbol"))
                    continue
                d = getattr(factors[lab], "d", 1)
                terms = _check_symbol_terms(sub, d, path + f".symbols.{lab}",
                                            violations)
                syms[lab] = HamiltonianSymbol(terms, d=d)
            coeff = _real(cterm.get("coeff", 1.0))
            if coeff is None:
                violations.append((path + ".coeff", "not a real number"))
                continue
            cfg.couplings.append((tuple(labels), syms, coeff))

    cfg.initial_state = {"type": "ground"}
    if "initial_state" in raw:
        kinds = (STATE_KINDS if has_ps and has_layout
                 else FACTOR_RECIPES if has_ps else ("product",))
        cfg.initial_state = _check_state(raw["initial_state"], "initial_state",
                                         violations, cfg.layout_factors or None,
                                         kinds)
    cfg.run = _check_run(raw.get("run", {}), violations)
    cfg.output = _check_output(raw.get("output", {}), violations)
    seed = _integer(raw.get("seed", 0))
    if seed is None:
        violations.append(("seed", "must be an integer"))
    cfg.seed = seed
    cfg.verify_level = _object(raw.get("verify", {}), "verify",
                               violations).get("level", "quick")
    if cfg.verify_level not in ("quick", "full"):
        violations.append(("verify.level", "must be 'quick' or 'full'"))

    if violations:
        raise SchemaViolation(violations)
    return cfg
