"""Deterministic output formats: CSV series, binary snapshots, plot scripts.

Binary snapshots are raw little-endian buffers (complex128 for operators,
float64 or complex128 for fields) with a JSON sidecar holding shape, dtype,
role and grid geometry. CSV floats use %.17g so reruns are byte-identical.

Field CSV contract (`save_field_csv`): a header `q1,..,qd,p1,..,pd,value`,
then one row per grid point in C order over the field axes (q1..qd, p1..pd),
so the last p axis varies fastest. Every cell is %.17g (`-0`, `nan`, `inf`
and `-inf` as Python prints them); a complex value is `re+imj`, which reads
`re+-imj` when the imaginary part is negative.
"""

import hashlib
import json
import os

import numpy as np

from . import __version__
from .engine import axis_coords
from .errors import IoFailure
from .hilbert import CompositeSystem
from .lattice import PhaseSpaceSpec
from .wigner import PhaseSpaceField


def _fmt(x):
    return f"{x:.17g}"


def _fmt_all(xs):
    return [f"{x:.17g}" for x in xs]


def _spec_meta(space):
    if isinstance(space, PhaseSpaceSpec):
        return {"kind": "grid", "d": space.d, "n_per_axis": space.n_per_axis,
                "half_width": space.half_width,
                "covariance": [[_fmt(v) for v in row] for row in space.covariance]}
    if isinstance(space, CompositeSystem):
        return {"kind": "composite",
                "factors": [[lab, _spec_meta(s)] for lab, s in space.factors]}
    return {"kind": "levels", "dim": space.dim}


def make_out_dir(path):
    """Create the output directory `path`, and its parents, unless it exists;
    a path that names a file, or cannot be made, raises IoFailure."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def save_text(text, path):
    """`text` written to the file `path`; an OSError raises IoFailure."""
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def save_json(obj, path):
    """obj as JSON, indented one space per level, keys sorted."""
    save_text(json.dumps(obj, indent=1, sort_keys=True), path)


def save_density(T, path_base):
    """Row-major complex128 little-endian buffer plus a JSON sidecar."""
    m = np.ascontiguousarray(T.matrix, dtype="<c16")
    try:
        with open(path_base + ".bin", "wb") as f:
            f.write(m.tobytes())
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    save_json({"dtype": "<c16", "shape": list(m.shape), "order": "C",
               "object": "density_operator", "rep": T.rep,
               "space": _spec_meta(T.space)}, path_base + ".json")


def save_field_binary(field, path_base):
    vals = np.asarray(field.values)
    dtype = "<c16" if np.iscomplexobj(vals) else "<f8"
    buf = np.ascontiguousarray(vals, dtype=dtype)
    try:
        with open(path_base + ".bin", "wb") as f:
            f.write(buf.tobytes())
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    save_json({"dtype": dtype, "shape": list(buf.shape), "order": "C",
               "object": "phase_space_field", "role": field.role,
               "measure": field.measure,
               "axes": [{"n": n, "half_width": L} for n, L in field.axes],
               "space": _spec_meta(field.space)}, path_base + ".json")


def load_field_binary(path_base, space, tol):
    try:
        with open(path_base + ".json") as f:
            meta = json.load(f)
        raw = np.fromfile(path_base + ".bin", dtype=meta["dtype"])
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    vals = raw.reshape(meta["shape"])
    return PhaseSpaceField(vals, meta["role"], space, meta["measure"], tol)


def save_field_csv(field, path):
    """One row per grid point: q-coordinates, p-coordinates, value.

    Written one block of rows along the last axis at a time: each coordinate
    is formatted once per file, the block's leading coordinates once per
    block, and the block goes out as one string, so the file is never held
    in memory whole.
    """
    d = len(field.axes)
    coords = [axis_coords(n, L) for n, L in field.axes]
    # q1..qd, then p1..pd: the field's axis order
    labels = [_fmt_all(c[k].tolist()) for k in (0, 1) for c in coords]
    header = ",".join([f"q{i + 1}" for i in range(d)]
                      + [f"p{i + 1}" for i in range(d)] + ["value"])
    vals = np.asarray(field.values)
    n = vals.shape[-1]
    # row j of a block is pieces[4j:4j+4]: leading coordinates, last
    # coordinate, value, newline. "".join sizes the block string exactly; a
    # %-template grown by reallocation raised peak RSS by ~1.5 MB.
    pieces = [None] * (4 * n)
    pieces[1::4] = [c + "," for c in labels[-1]]
    pieces[3::4] = ["\n"] * n
    try:
        with open(path, "w") as f:
            f.write(header + "\n")
            for idx in np.ndindex(vals.shape[:-1]):
                prefix = "".join(labels[a][i] + "," for a, i in enumerate(idx))
                pieces[0::4] = [prefix] * n
                row = vals[idx]
                if np.iscomplexobj(row):
                    pieces[2::4] = [f"{r:.17g}+{m:.17g}j" for r, m in
                                    zip(row.real.tolist(), row.imag.tolist())]
                else:
                    pieces[2::4] = _fmt_all(row.tolist())
                f.write("".join(pieces))
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def save_diagnostics_csv(diagnostics, path):
    cols = ["t", "mass", "l2", "energy", "min_w", "purity_est"]
    save_series_csv({c: diagnostics[c] for c in cols}, path)


def save_series_csv(columns, path):
    """Generic deterministic CSV from an ordered dict of equal-length columns."""
    names = list(columns)
    try:
        with open(path, "w") as f:
            f.write(",".join(names) + "\n")
            n = len(columns[names[0]])
            for i in range(n):
                f.write(",".join(_fmt(float(columns[c][i])) for c in names)
                        + "\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def gnuplot_script(csv_path, out_path, title="phase-space field"):
    """Heatmap script for a d = 1 field CSV (q, p, value columns)."""
    save_text(
        "set datafile separator ','\n"
        "set pm3d map\n"
        "set xlabel 'q'\n"
        "set ylabel 'p'\n"
        f"set title '{title}'\n"
        f"splot '{os.path.basename(csv_path)}' every ::1 using 1:2:3 with pm3d "
        "notitle\n", out_path)


def write_manifest(out_dir, config_text, command, tol, extra=None):
    """Config hash, tool version and tolerances; no timestamps (reproducible)."""
    manifest = {
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "tool_version": __version__,
        "command": command,
        "tolerances": {k: _fmt(v) for k, v in vars(tol).items()},
    }
    if extra:
        manifest.update(extra)
    path = os.path.join(out_dir, "manifest.json")
    save_json(manifest, path)
    return path
