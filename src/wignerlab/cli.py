"""Batch front end.

Commands: transform, evolve, oracle, compare, feedback, verify.
Exit codes: 0 pass, 2 declared tolerance violated, 1 error. Outputs are
deterministic for a fixed config and platform (fixed iteration orders, no
time-seeded randomness; every run writes a manifest with the config hash).
The BLAS thread count is fixed when numpy loads, so it is set in the
environment (OMP_NUM_THREADS, OPENBLAS_NUM_THREADS) before launching.
"""

import argparse
import os
import sys
import warnings

from . import runners, serialize, verify
from .config import parse_config
from .errors import SchemaViolation, SpecMismatch, WignerLabError
from .moyal import check_cfl
from .tolerances import DEFAULT_TOL

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TOLERANCE = 2

# each scenario command: its runner, the config sections it runs on, and
# whether its initial state is a `product` recipe (else a single-system one);
# a config with both a phase_space and a layout accepts either kind, so the
# command checks its own
COMMANDS = {
    "transform": (runners.cmd_transform, ("phase_space",), False),
    "evolve": (runners.cmd_evolve, ("phase_space",), False),
    "oracle": (runners.cmd_oracle, ("phase_space",), False),
    "compare": (runners.cmd_compare, ("phase_space",), False),
    "feedback": (runners.cmd_feedback, ("layout", "initial_state"), True),
}

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; keep 2 reserved for tolerance failures
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def build_parser():
    p = _Parser(
        prog="wignerlab",
        description="phase-space laboratory batch runner")
    p.add_argument("command", choices=[*COMMANDS, "verify"])
    p.add_argument("--config", help="path to a JSON scenario config")
    p.add_argument("--out", help="output directory (overrides the config)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as failures")
    p.add_argument("--level", choices=["quick", "full"],
                   help="verify suite size (default from config or quick)")
    return p


def _run_verify(cfg_text, level, out_dir):
    results = verify.run_suite(level)
    lines = []
    ok = True
    for name, residual, tol in results:
        passed = residual < tol
        ok = ok and passed
        line = f"{'PASS' if passed else 'FAIL'} {name} residual={residual:.3e} tol={tol:g}"
        lines.append(line)
        print(line)
    serialize.save_text("\n".join(lines) + "\n",
                        os.path.join(out_dir, "verify.txt"))
    serialize.write_manifest(out_dir, cfg_text, "verify", DEFAULT_TOL,
                             {"level": level})
    return EXIT_OK if ok else EXIT_TOLERANCE


def main(argv=None):
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        if args.strict:
            warnings.simplefilter("error")
        try:
            return _run(args)
        except Warning as exc:      # a warning raised as an error by --strict
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_TOLERANCE


def _config_errors(violations):
    """Print each (path, reason) violation; the error exit code."""
    for path, reason in violations:
        print(f"config error at {path}: {reason}", file=sys.stderr)
    return EXIT_ERROR


def _run(args):
    cfg_text = "{}"
    cfg = None
    if args.config:
        try:
            with open(args.config) as f:
                cfg_text = f.read()
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_ERROR
        try:
            cfg = parse_config(cfg_text)
        except SchemaViolation as exc:
            return _config_errors(exc.violations)
        except WignerLabError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_ERROR
    elif args.command != "verify":
        print("error: --config is required for this command", file=sys.stderr)
        return EXIT_ERROR

    if cfg is not None and args.seed is not None:
        cfg.seed = args.seed
    out_dir = args.out or (cfg.output["directory"] if cfg else "out")

    try:
        if args.command != "verify":
            handler, sections, product = COMMANDS[args.command]
            for section in sections:
                if section not in cfg.raw:
                    raise SpecMismatch(
                        f"{args.command} needs the {section!r} section")
            kind = cfg.initial_state["type"]
            if (kind == "product") != product:
                want = "a 'product'" if product else "a single-system"
                return _config_errors([("initial_state.type",
                                        f"{args.command} takes {want} "
                                        f"recipe, not {kind!r}")])
            # evolve's CFL guard, before any output; the warning that
            # enforce_cfl = false asks for stays with evolve
            if args.command in ("evolve", "compare") and \
                    cfg.run["enforce_cfl"]:
                check_cfl(cfg.hamiltonian, cfg.phase_space,
                          runners._make_run(cfg))
        serialize.make_out_dir(out_dir)
        if args.command == "verify":
            level = args.level or (cfg.verify_level if cfg else "quick")
            return _run_verify(cfg_text, level, out_dir)
        # looked up when the command runs, so a rebound runner is the one run
        failures = getattr(runners, handler.__name__)(cfg, out_dir)
        serialize.write_manifest(out_dir, cfg_text, args.command, DEFAULT_TOL)
    except WignerLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if failures:
        for msg in failures:
            print(f"tolerance violation: {msg}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
