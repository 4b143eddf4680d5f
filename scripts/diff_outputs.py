#!/usr/bin/env python3
"""Compare the CLI outputs of two revisions, run by run and value by value.

    python scripts/diff_outputs.py --base HEAD           # working tree vs HEAD
    python scripts/diff_outputs.py --base 03175b0 --head 9f035a1
    python scripts/diff_outputs.py --base HEAD --config feedback_levels.json

Each revision is extracted with `git archive` into a temporary directory (no
worktree is made and nothing is written under .git); the head defaults to
the working tree. The runs are every (command, config) pair that the head's
`cli.COMMANDS` admits on the head's configs (for an older CLI without it,
every command on every config), plus `verify --level full`; with --config,
only the named configs' pairs and no verify. Each tree runs its own copy of
a config, the file of the same name in its `configs/`, so a changed config
shows as a difference, and a config that only one tree has is reported as
such. Each run is a fresh process
with its own tree's `src` on PYTHONPATH, one BLAS thread unless
OMP_NUM_THREADS / OPENBLAS_NUM_THREADS say otherwise, and no bytecode
written. The runs' exit codes and file lists are compared. The numbers of a
file whose bytes differ are read as the dtype of its `.json` sidecar for a
`.bin` file, else as the numbers in its text, provided the text around them
is the same. For each such file the script prints the count of differing
values, the largest |d| and the largest relative d, and it exits 1 on any
difference, else 0.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# prints, as JSON, the (command, config path) pairs the tree's CLI admits
LIST_PAIRS = r"""
import json, sys
from wignerlab import cli
from wignerlab.config import parse_config
from wignerlab.errors import WignerLabError

commands = getattr(cli, "COMMANDS", None)
if commands is None:
    (choices,) = [a.choices for a in cli.build_parser()._actions
                  if a.dest == "command"]
    commands = {c: (None, ()) for c in choices if c != "verify"}
pairs = []
for path in sys.argv[1:]:
    with open(path) as f:
        try:
            cfg = parse_config(f.read())
        except WignerLabError:
            continue
    kind = (cfg.raw.get("initial_state") or {}).get("type")
    for name, (_, sections, *product) in commands.items():
        if all(s in cfg.raw for s in sections) and (
                not product or (kind == "product") == product[0]):
            pairs.append([name, path])
print(json.dumps(pairs))
"""

RUN_CLI = ("import sys; from wignerlab.cli import main; "
           "sys.exit(main(sys.argv[1:]))")
WHERE = "import wignerlab; print(wignerlab.__file__)"

NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    rb"|(?<![A-Za-z_])[-+]?(?:nan|inf(?:inity)?)(?![A-Za-z_])",
                    re.IGNORECASE)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def extract(rev, dest, paths):
    """The `paths` of revision `rev`, written under `dest` by `git archive`."""
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], check=True,
                   input=git("archive", rev, *paths), capture_output=True)
    return dest


def python(tree, args, cwd):
    """Run `python args` in a fresh process on `tree`'s src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        env.setdefault(var, "1")
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True)


def numbers(path, data):
    """(kind, values) of a file's bytes: its sidecar's dtype for a `.bin`,
    else ("text", the numbers in it) with the text around them."""
    sidecar = path.with_suffix(".json")
    if path.suffix == ".bin" and sidecar.exists():
        dtype = json.loads(sidecar.read_text())["dtype"]
        return dtype, np.frombuffer(data, dtype=dtype)
    skeleton = NUMBER.sub(b"#", data)
    values = [float(m) for m in NUMBER.findall(data)]
    return skeleton, np.array(values)


def compare_file(base, head):
    """None when the two files are byte-identical, else what differs."""
    a, b = base.read_bytes(), head.read_bytes()
    if a == b:
        return None
    (kind_a, x), (kind_b, y) = numbers(base, a), numbers(head, b)
    if kind_a != kind_b or x.shape != y.shape:
        return "differs outside its numbers"
    with np.errstate(all="ignore"):
        same = (x == y) | (np.isnan(x) & np.isnan(y))
        d = np.abs(x - y)[~same]
        rel = d / np.maximum(np.abs(x), np.abs(y))[~same]
    if not d.size:
        return "differs in how equal numbers are written"
    return (f"{d.size} of {x.size} values differ, largest |d| {d.max():.3g}, "
            f"largest relative d {rel.max():.3g}")


def files(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*")
                  if p.is_file())


def compare_run(trees, work, name, args, config=None):
    """Run one CLI command on both trees, each on its own copy of `config`
    (a file name in its configs/) if one is given; the lines that say what
    differs."""
    outs, codes = [], []
    for side, tree in trees.items():
        out = work / side / name
        own = ["--config", str(tree / "configs" / config)] if config else []
        proc = python(tree, ["-c", RUN_CLI, *args, *own, "--out", str(out)],
                      work)
        outs.append(out)
        codes.append(proc.returncode)
    lines = []
    if codes[0] != codes[1]:
        lines.append(f"exit code {codes[0]} != {codes[1]}")
    listed = [files(o) if o.exists() else [] for o in outs]
    for only, side in ((set(listed[0]) - set(listed[1]), "base"),
                       (set(listed[1]) - set(listed[0]), "head")):
        lines += [f"{f}: only in the {side} tree" for f in sorted(only)]
    for f in sorted(set(listed[0]) & set(listed[1])):
        what = compare_file(outs[0] / f, outs[1] / f)
        if what:
            lines.append(f"{f}: {what}")
    return codes[1], len(listed[1]), lines


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--base", required=True, help="base revision")
    ap.add_argument("--head", help="head revision (default: the working tree)")
    ap.add_argument("--config", action="append",
                    help="run only this config, by file name in each "
                         "tree's configs/, and not verify (repeatable)")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="diff_outputs-") as tmp:
        work = Path(tmp)
        try:
            base = extract(args.base, work / "base", ["src", "configs"])
            head = ROOT if args.head is None else \
                extract(args.head, work / "head", ["src", "configs"])
        except subprocess.CalledProcessError as exc:
            sys.exit(f"error: {exc.stderr.decode().strip()}")
        trees = {"base": base, "head": head}
        for side, tree in trees.items():
            where = python(tree, ["-c", WHERE], work).stdout.decode().strip()
            if not (where and Path(where).resolve().is_relative_to(
                    (tree / "src").resolve())):
                sys.exit(f"error: the {side} runs do not import wignerlab "
                         f"from that tree's src ({where or 'import failed'})")
        names = [Path(n).name for n in args.config] if args.config else \
            sorted({p.name for tree in trees.values()
                    for p in (tree / "configs").glob("*.json")})
        # a config that only one tree has is a difference, and is not run
        alone = {}
        for n in names:
            have = [side for side, tree in trees.items()
                    if (tree / "configs" / n).is_file()]
            if len(have) == 1:
                alone[n] = have[0]
        configs = [str(head / "configs" / n) for n in names if n not in alone]
        listed = python(head, ["-c", LIST_PAIRS, *configs], work)
        if listed.returncode:
            sys.exit(f"error: cannot list the head's commands:\n"
                     f"{listed.stderr.decode()}")
        runs = [(f"{cmd}-{Path(cfg).stem}", [cmd], Path(cfg).name)
                for cmd, cfg in json.loads(listed.stdout)]
        if not args.config:
            runs.append(("verify-full", ["verify", "--level", "full"], None))
        print(f"base {args.base}, head {args.head or 'working tree'}: "
              f"{len(runs)} runs")
        for n, side in alone.items():
            print(f"configs/{n}: only in the {side} tree")
        differing = 0
        for name, run, config in runs:
            code, count, lines = compare_run(trees, work, name, run, config)
            print(f"{name}: {'differs' if lines else 'identical'} "
                  f"(exit {code}, {count} files)")
            for line in lines:
                print(f"  {line}")
            differing += bool(lines)
    if differing or alone:
        print(f"{differing} of {len(runs)} runs differ"
              + (f", {len(alone)} configs in one tree only" if alone else ""))
        return 1
    print(f"all {len(runs)} output trees identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
