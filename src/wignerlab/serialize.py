"""Deterministic output formats: CSV series, binary snapshots, plot scripts.

Binary snapshots are raw little-endian buffers (complex128 for operators,
float64 or complex128 for fields) with a JSON sidecar holding shape, dtype,
role and grid geometry. CSV floats use %.17g so reruns are byte-identical:
every array cell comes from one kernel, `_put_cells`, whose bytes are
exactly f"{x:.17g}"'s, with `_fmt` (that f-string) as its fallback for
rounding ties, decade edges, NaN and infinities and as the scalar path.

Field CSV contract (`save_field_csv`): a header `q1,..,qd,p1,..,pd,value`,
then one row per grid point in C order over the field axes (q1..qd, p1..pd),
so the last p axis varies fastest. Every cell is %.17g (`-0`, `nan`, `inf`
and `-inf` as Python prints them); a complex value is `re+imj`, which reads
`re+-imj` when the imaginary part is negative.
"""

import functools
import hashlib
import json
import math
import os

import numpy as np

from . import __version__
from .engine import _frozen, axis_coords
from .errors import IoFailure
from .hilbert import CompositeSystem
from .lattice import PhaseSpaceSpec
from .wigner import PhaseSpaceField


def _fmt(x):
    return f"{x:.17g}"


# Decimal cells. `_put_cells` writes the %.17g text of a float64 array, one
# 32-byte cell per value, as four little-endian uint64 words:
#   bytes  0-7   "-0.000" d0 "."   sign, the "0.000" of -4 <= X < 0, the
#                                  leading digit, the point after it
#   bytes  8-23  d1..d16           the other 16 significant digits
#   bytes 24-28  "e" sign h t u    the exponent of the e-form
#   bytes 29-31  the caller's tail (a separator, "\n")
# with a parallel mask of the bytes that are kept, so a block of rows becomes
# one boolean compaction. The digits come from x 10^(16 - e) formed in
# double-double float64 (docs/math-notes.md, "Decimal cells"); +-0 is "0"
# with its sign, and a value within _BAND of a rounding tie or a decade edge,
# NaN and +-inf go through _fmt instead, so every cell is exactly
# f"{x:.17g}".

_K_MIN, _K_MAX = -293, 342    # k = 16 - e for every finite nonzero float64
_X_MIN, _X_MAX = -324, 308    # the exponents of %.17g
_BAND = 2.0 ** -40            # >> the product's 2^-45 error in the decade
_SPLIT = 134217729.0          # 2^27 + 1: Veltkamp's split into 26-bit halves
_ZEROS = 0x3030303030303030   # eight ASCII "0"
_LEAD = int.from_bytes(b"-0.000\0.", "little")
# _PREFIX[j]: a word whose low j bytes are kept
_PREFIX = np.array([(1 << 8 * j) // 255 for j in range(9)], np.uint64)
# the kept bytes of words 1 and 2 when digits 0..K are written
_DIGITS_KEPT = (_PREFIX[np.minimum(np.arange(17), 8)],
                _PREFIX[np.maximum(np.arange(17) - 8, 0)])
_BLOCK_ROWS = 4096


@functools.cache
def _pow10_table():
    """(hi, lo, b) arrays with 10^k = (hi + lo) 2^b to 2^-105 relative,
    hi in [1, 2] and |lo| <= 2^-53, for k in [_K_MIN, _K_MAX]: built from
    exact integers on first use, never at import."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        b = num.bit_length() - den.bit_length()
        if (num << max(0, -b)) < (den << max(0, b)):
            b -= 1
        # floor(10^k 2^(116 - b)), in [2^116, 2^117)
        m = (num << max(0, 116 - b)) // (den << max(0, b - 116))
        hi = (m + (1 << 63)) >> 64
        rows.append((math.ldexp(hi, -52), math.ldexp(m - (hi << 64), -116), b))
    hi, lo, b = zip(*rows)
    return tuple(map(_frozen, (hi, lo, np.array(b, np.int32))))


@functools.cache
def _layout_table():
    """The %g layout of each exponent X in [_X_MIN, _X_MAX]: the e-form word
    "e" sign h t u and its kept bytes (none unless X < -4 or X >= 17), the
    kept bytes of word 0 ("0." and -X - 1 zeros for -4 <= X < 0, and the
    leading digit), the digit the point follows (X for 0 <= X < 17, else 0)
    and whether a point may follow it (not for -4 <= X < 0)."""
    X = np.arange(_X_MIN, _X_MAX + 1)
    aX = np.abs(X)
    expo = (X < -4) | (X >= 17)
    small = (X < 0) & ~expo
    word = (ord("e") | np.where(X < 0, ord("-"), ord("+")) << 8
            | (aX // 100 + 48) << 16 | (aX // 10 % 10 + 48) << 24
            | (aX % 10 + 48) << 32)
    kept = np.where(expo, np.where(aX >= 100, 0x0101010101, 0x0101000101), 0)
    lead = [(1 << 8 * (1 - x)) // 255 << 8 if s else 0
            for x, s in zip(X.tolist(), small.tolist())]
    lead = np.array(lead, np.uint64) | (1 << 48)
    return tuple(map(_frozen, (word.astype(np.uint64), kept.astype(np.uint64),
                               lead, np.where(expo | small, 0, X), ~small)))


def _scaled(f, E, k):
    """f 2^E 10^k as an unevaluated sum (hi, lo), for f in [0.5, 1): the
    product f * hi_k is exact (Dekker), so only f * lo_k, the sum and the
    table round."""
    th, tl, b = (np.take(t, k - _K_MIN) for t in _pow10_table())
    c = _SPLIT * f
    fh = c - (c - f)
    fl = f - fh
    c = _SPLIT * th
    hh = c - (c - th)
    hl = th - hh
    ph = f * th
    pl = ((fh * hh - ph) + fh * hl + fl * hh) + fl * hl
    s = E + b
    return np.ldexp(ph, s), np.ldexp(pl + f * tl, s)


def _decimal(ax):
    """Significand N in [10^16, 10^17) and exponent X of each positive finite
    value rounded half-even to 17 digits, ax ~ N 10^(X - 16), and a mask of
    the values whose product lies within _BAND of a tie or a decade edge.

    The decade is that of the unrounded product: e starts at
    floor(log10(ax)) and moves until 10^16 <= ax 10^(16 - e) < 10^17."""
    f, E = np.frexp(ax)
    e = np.floor(np.log10(ax)).astype(np.int64)
    yh, yl = _scaled(f, E, 16 - e)
    g17 = (yh - 1e17) + yl
    g16 = (yh - 1e16) + yl
    band = (np.abs(g17) <= _BAND) | (np.abs(g16) <= _BAND)
    off = np.flatnonzero((g17 > _BAND) | (g16 < -_BAND))
    while off.size:    # log10 rounded across a power of ten
        e[off] += np.where(g17[off] > _BAND, 1, -1)
        yh[off], yl[off] = _scaled(f[off], E[off], 16 - e[off])
        g17[off] = (yh[off] - 1e17) + yl[off]
        g16[off] = (yh[off] - 1e16) + yl[off]
        band[off] = (np.abs(g17[off]) <= _BAND) | (np.abs(g16[off]) <= _BAND)
        off = off[(g17[off] > _BAND) | (g16[off] < -_BAND)]
    # yh >= 2^53 is an integer, so the fraction of the product is yl's
    whole = np.rint(yl)
    band |= np.abs(yl - whole) >= 0.5 - _BAND
    N = yh.astype(np.int64) + whole.astype(np.int64)
    top = N == 10 ** 17
    N[top] = 10 ** 16
    return N, e + top, band


def _digit_word(v):
    """Values below 10^8 -> uint64 whose little-endian bytes are their eight
    decimal digits (0..9), most significant first: two 4-digit halves in
    32-bit lanes, then 2-digit quarters in 16-bit lanes, then digits in
    bytes, each lane's quotient by multiply and shift."""
    hi = v // 10000
    w = hi | ((v - hi * 10000) << 32)
    q = ((w * 5243) >> 19) & 0x0000007F0000007F
    w = q | ((w - q * 100) << 16)
    q = ((w * 103) >> 10) & 0x000F000F000F000F
    return q | ((w - q * 10) << 8)


def _last_byte(w):
    """Index of the highest nonzero byte of each word, -1 for zero."""
    return (np.frexp(w.astype(np.float64))[1] - 1) // 8


def _put_cells(x, cell, keep, tail):
    """Write f"{v:.17g}" + tail for each float64 v of `x` into the rows of
    `cell` (uint8, 32 columns, rows may be strided) and set the kept bytes
    of each row in `keep` (bool, same shape); `tail` has at most 3 bytes."""
    x = np.asarray(x, np.float64)
    finite = np.isfinite(x)
    zero = x == 0
    ax = np.abs(x)
    if zero.any() or not finite.all():
        ax[zero | ~finite] = 1.5
    N, X, band = _decimal(ax)
    if zero.any():
        # "0" (with the sign), written as the digit string "0" at X = 0
        N[zero] = 0
        X[zero] = 0
    expw, expk, lead, point, dot = (np.take(t, X - _X_MIN)
                                    for t in _layout_table())
    d0 = N // 10 ** 16
    r = (N - d0 * 10 ** 16).astype(np.uint64)
    halves = np.empty((2, x.size), np.uint64)
    np.floor_divide(r, 10 ** 8, out=halves[0])
    np.subtract(r, halves[0] * 10 ** 8, out=halves[1])
    digits = _digit_word(halves)
    # the last significant digit, the last digit written, and the point
    at = _last_byte(digits)
    last = np.where(digits[1] != 0, 9 + at[1], 1 + at[0])
    K = np.maximum(last, point)
    has_dot = (last > point) & dot
    words = cell.view("<u8")
    kw = keep.view("<u8")
    words[:, 0] = _LEAD | ((d0.astype(np.uint64) + 48) << 48)
    kw[:, 0] = lead | np.signbit(x) | (has_dot.astype(np.uint64) << 56)
    words[:, 1:3] = digits.T | _ZEROS
    kw[:, 1] = np.take(_DIGITS_KEPT[0], K)
    kw[:, 2] = np.take(_DIGITS_KEPT[1], K)
    words[:, 3] = expw | int.from_bytes(tail.ljust(3, b"\0"), "little") << 40
    kw[:, 3] = expk | int.from_bytes(b"\1" * len(tail), "little") << 40
    # a point after digit P >= 1: move digits 1..P down one byte
    g = np.flatnonzero(point >= 1)
    if g.size:
        P = point[g, None]
        j = np.arange(18)
        src = np.where(j == 0, 0, np.where(j <= P, j + 1,
                                           np.where(j == P + 1, 1, j)))
        cell[g, 6:24] = np.take_along_axis(cell[g, 6:24], src, axis=1)
        keep[g, 6:24] = (j < K[g, None] + 2) & ((j != P + 1)
                                                | has_dot[g, None])
    for i in np.flatnonzero(~finite | band).tolist():
        s = _fmt(float(x[i])).encode()
        cell[i, :len(s)] = np.frombuffer(s, np.uint8)
        keep[i, :29] = False
        keep[i, :len(s)] = True


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


def _cells(x, tail):
    """(cells, keep) of `x` from `_put_cells`, one 32-byte row per value."""
    cells = np.empty((x.size, 32), np.uint8)
    keep = np.empty((x.size, 32), bool)
    _put_cells(x, cells, keep, tail)
    return cells, keep


def _labels(axes):
    """The cells of each coordinate array in `axes`, with a comma, left-
    justified in a (size, w) byte matrix with its kept-byte mask, w the
    longest of that axis; one `_put_cells` call for all of them."""
    cells, keep = _cells(np.concatenate(axes), b",")
    lens = keep.sum(axis=1)
    kept = np.arange(32) < lens[:, None]
    text = np.zeros(kept.shape, np.uint8)
    text[kept] = cells[keep]
    labels, i = [], 0
    for x in axes:
        w = lens[i:i + x.size].max()
        labels.append((text[i:i + x.size, :w], kept[i:i + x.size, :w]))
        i += x.size
    return labels


def save_field_csv(field, path):
    """One row per grid point: q-coordinates, p-coordinates, value.

    Written a block of about _BLOCK_ROWS rows (whole runs of the last axis)
    at a time into one reused byte matrix: the coordinate labels are
    formatted once per file, the value cells by `_put_cells`, and each block
    goes out as one compaction of its kept bytes, so the working set does not
    grow with the field.
    """
    d = len(field.axes)
    coords = [axis_coords(n, L) for n, L in field.axes]
    # q1..qd, then p1..pd: the field's axis order
    labels = _labels([c[k] for k in (0, 1) for c in coords])
    header = ",".join([f"q{i + 1}" for i in range(d)]
                      + [f"p{i + 1}" for i in range(d)] + ["value"])
    vals = np.asarray(field.values)
    cplx = np.iscomplexobj(vals)
    n = vals.shape[-1]
    lead = vals.shape[:-1]
    runs = vals.reshape(-1, n)
    per = max(1, _BLOCK_ROWS // n)
    at = np.cumsum([0] + [text.shape[1] for text, _ in labels]).tolist()
    v0 = -(-at[-1] // 8) * 8     # the value cells' words are aligned
    width = v0 + (64 if cplx else 32)
    buf = np.empty((per, n, width), np.uint8)
    keep = np.zeros((per, n, width), bool)
    buf[:, :, at[-2]:at[-1]], keep[:, :, at[-2]:at[-1]] = labels[-1]
    try:
        with open(path, "wb") as f:
            f.write(header.encode() + b"\n")
            for g0 in range(0, runs.shape[0], per):
                c = min(per, runs.shape[0] - g0)
                idx = np.unravel_index(np.arange(g0, g0 + c), lead)
                for a, i in enumerate(idx):
                    text, mask = labels[a]
                    buf[:c, :, at[a]:at[a + 1]] = text[i, None]
                    keep[:c, :, at[a]:at[a + 1]] = mask[i, None]
                rows = buf[:c].reshape(c * n, width)
                kept = keep[:c].reshape(c * n, width)
                v = runs[g0:g0 + c].reshape(-1)
                if cplx:
                    _put_cells(v.real, rows[:, v0:v0 + 32],
                               kept[:, v0:v0 + 32], b"+")
                    _put_cells(v.imag, rows[:, v0 + 32:], kept[:, v0 + 32:],
                               b"j\n")
                else:
                    _put_cells(v, rows[:, v0:], kept[:, v0:], b"\n")
                f.write(rows[kept])
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def save_diagnostics_csv(diagnostics, path):
    cols = ["t", "mass", "l2", "energy", "min_w", "purity_est"]
    save_series_csv({c: diagnostics[c] for c in cols}, path)


def save_series_csv(columns, path):
    """Generic deterministic CSV from an ordered dict of equal-length columns,
    each column's cells from `_put_cells`, _BLOCK_ROWS rows at a time."""
    names = list(columns)
    cols = [np.asarray(columns[c], np.float64) for c in names]
    n = len(cols[0])
    tails = [b","] * (len(cols) - 1) + [b"\n"]
    buf = np.empty((min(n, _BLOCK_ROWS), 32 * len(cols)), np.uint8)
    keep = np.empty(buf.shape, bool)
    try:
        with open(path, "wb") as f:
            f.write((",".join(names) + "\n").encode())
            for r0 in range(0, n, _BLOCK_ROWS):
                m = min(_BLOCK_ROWS, n - r0)
                for j, (col, tail) in enumerate(zip(cols, tails)):
                    _put_cells(col[r0:r0 + m], buf[:m, 32 * j:32 * j + 32],
                               keep[:m, 32 * j:32 * j + 32], tail)
                f.write(buf[:m][keep[:m]])
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
