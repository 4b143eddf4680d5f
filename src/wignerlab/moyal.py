"""Moyal sine-series evolution of Wigner fields plus the density-operator oracle.

The right-hand side is the truncated sine series of iterated symplectic
contractions,

    dW/dt = sum_{j=1..K} 2 (-1)^j (1/2)^(2j-1) / (2j-1)! * {W, H}^(2j-1),

where {.,.}^(n) contracts the n-th derivative tensors through n copies of the
symplectic matrix (first order: the canonical Poisson bracket). For polynomial
H the series terminates, so K only matters beyond the terminating order. The
eta-density form acts on Phi through the Leibniz rule with Wick-formula
derivatives of the Gaussian reference measure, never dividing by the density.

The bracket sum has one kernel, BracketPlan.bind: the flat list of GEMM and
ufunc calls that writes the right-hand side over one set of buffers. A
generator builds the Wigner or the eta plan of its active segment on first
use (MoyalGenerator.plan). moyal_rhs and eta_moyal_rhs run it once per call,
into new arrays. One evolution run owns its buffers, binds the plan's two
stage programs on them once per segment, and runs each RK4 step as one
precomputed call list; snapshots are immutable copies.
"""

import itertools
import math
import numbers
import warnings
from dataclasses import dataclass, field as dc_field
from math import comb, factorial

import numpy as np

from .engine import (SpectralDifferentiator, axis_coords, derivative_matrix,
                     fd4_matrix, gemm_calls)
from .errors import (EscapeDetected, InvalidDensity, OrderOverflow,
                     SnapshotMismatch, SpecMismatch, UnstableStep)
from .hilbert import LEBESGUE, _lebesgue, propagate
from .tolerances import DEFAULT_TOL
from .wigner import ETA, SYMBOL, WIGNER, PhaseSpaceField
from .weyl import weyl_quantize

MAX_BRACKET_ORDER = 7
# grids up to this many points keep their bracket weights at full size: a
# broadcast multiply allocates a buffer of min(np.getbufsize(), size) values
# per call and is slower there, while at d = 2, n = 32 it is as fast as a
# full-size weight that would hold 8 MB (math-notes § Time stepping)
FULL_WEIGHT_POINTS = 1 << 16

SPECTRAL = "spectral"
FD4 = "finite_difference_4th"


# --- Wick polynomial engine --------------------------------------------------

def _poly_mul_linear(poly, linear):
    """Multiply a coefficient-dict polynomial by sum_i linear[i] x_i."""
    out = {}
    for alpha, c in poly.items():
        for i, li in enumerate(linear):
            if li == 0.0:
                continue
            beta = list(alpha)
            beta[i] += 1
            beta = tuple(beta)
            out[beta] = out.get(beta, 0.0) + c * li
    return out


def _poly_dir_derivative(poly, direction):
    out = {}
    for alpha, c in poly.items():
        for i, hi in enumerate(direction):
            if hi == 0.0 or alpha[i] == 0:
                continue
            beta = list(alpha)
            beta[i] -= 1
            beta = tuple(beta)
            out[beta] = out.get(beta, 0.0) + c * alpha[i] * hi
    return out


def _poly_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + v
    return out


def wick_polynomial(precision, directions):
    """Polynomial w with D_{h1..hk} g = g * w for the Gaussian density g.

    Built by the recursion w' = -<P h, x> w + D_h w, the derivative version
    of the Wick formulas (first order: -<B^-1 h, x>; second order adds the
    constant -<B^-1 h1, h2>).
    """
    dim = precision.shape[0]
    w = {(0,) * dim: 1.0}
    for h in directions:
        ph = precision @ np.asarray(h, dtype=float)
        w = _poly_add(_poly_mul_linear(w, -ph), _poly_dir_derivative(w, h))
    return w


def _poly_eval(poly, x):
    """A coefficient-dict polynomial at x: a point, or one broadcastable
    coordinate mesh per variable."""
    out = 0.0
    for alpha, c in poly.items():
        term = c
        for xi, ai in zip(x, alpha):
            if ai:
                term = term * xi ** ai
        out = out + term
    return out


def gaussian_measure_derivative(measure, directions, point):
    """k-th directional derivative of the Gaussian density at a point.

    Returns density(point) times the Wick polynomial value; k is capped at 4.
    """
    directions = list(directions)
    if len(directions) > 4:
        raise OrderOverflow(f"directional order {len(directions)} exceeds 4")
    x = np.asarray(point, dtype=float)
    w = wick_polynomial(measure.precision, directions)
    return measure.density(x) * _poly_eval(w, x)


# --- bracket contractions -----------------------------------------------------

def _count_vectors(total, dims):
    """All nonnegative integer vectors of the given length summing to total."""
    if dims == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _count_vectors(total - first, dims - 1):
            yield (first,) + rest


def bracket_pairs(n, d):
    """(k, m, multiplicity, sign) for {Psi, H}^(n) grouped by axis counts.

    Psi carries derivatives d_q^k d_p^m, H carries d_q^m d_p^k, the sign is
    (-1)^|m| and the multiplicity n!/(prod k! prod m!).
    """
    for km in _count_vectors(n, 2 * d):
        k, m = km[:d], km[d:]
        mult = factorial(n)
        for a in k:
            mult //= factorial(a)
        for a in m:
            mult //= factorial(a)
        yield k, m, mult, (-1) ** sum(m)


def _spacings(spec):
    """Grid spacing per phase axis: h on the q-axes, dp on the p-axes."""
    q, p, h, dp = axis_coords(spec.n_per_axis, spec.half_width)
    return [h] * spec.d + [dp] * spec.d


def _h_field(symbol, spec, dq, dp, sampled_diff=None):
    """Grid field of d_q^dq d_p^dp H, or None when identically zero.

    The polynomial part keeps its natural broadcast shape (a field of q_1
    alone is (n, 1, ...)); a sampled part is full size.
    """
    part = symbol.derivative(dq, dp)
    poly = None
    if part.terms:
        mesh = spec.grid.phase_mesh()
        poly = np.asarray(part.evaluate(mesh[:spec.d], mesh[spec.d:]), float)
    if symbol.sampled is not None and sampled_diff is not None:
        samp = sampled_diff.derivative(tuple(dq) + tuple(dp))
        poly = samp if poly is None else poly + samp
    return poly


def _derivative_fields(symbol, spec, orders):
    """{(k, m): d_q^m d_p^k H} over the bracket pairs of the given orders.

    Identically zero fields are pruned. A sampled part is differentiated
    through one SpectralDifferentiator shared by every order.
    """
    sampled = symbol.sampled_on(spec)
    sampled_diff = None
    if sampled is not None:
        sampled_diff = SpectralDifferentiator(sampled, _spacings(spec))
    fields = {}
    for n in orders:
        for k, m, _, _ in bracket_pairs(n, spec.d):
            f = _h_field(symbol, spec, m, k, sampled_diff)
            if f is not None:
                fields[(k, m)] = f
    return fields


def sine_coefficient(j):
    """Coefficient of {W, H}^(2j-1) in the sine series (alternating)."""
    n = 2 * j - 1
    return 2.0 * (-1) ** j * 0.5 ** n / factorial(n)


def _accumulate(weights, orders, field):
    weights[orders] = field if orders not in weights else weights[orders] + field


class BracketPlan:
    """rhs = sum_o D^o(field) * F_o for a fixed set of derivative orders o.

    `weights` maps an order tuple (q-axes, then p-axes) to its weight field
    F_o, kept in its natural broadcast shape; the all-zero order multiplies
    the field itself. Each one-axis derivative D_ax^o is a real n x n matrix
    built once here (engine.derivative_matrix, or engine.fd4_matrix for the
    fourth-order finite-difference scheme) and applied along its axis under
    engine.gemm_calls, on the field viewed as (n**ax, n, n**(last - ax)); a
    mixed order applies one matrix per axis it differentiates. A last-axis
    matrix is stored in Fortran order, so the M.T that the GEMM multiplies
    the rows by is C-contiguous. Each term keeps its last (axis, matrix)
    apart, the step that writes into the output or a scratch buffer. `buffers`
    counts the field-sized scratch buffers the plan works in: one for the
    terms, plus one or two for mixed-order heads. On a grid of at most
    FULL_WEIGHT_POINTS points the weights are stored at the field's full
    shape.

    `bind` is the one kernel: it lists every call of the sum over one set of
    buffers, and `apply` runs that list once over new ones.
    """

    def __init__(self, weights, spec, scheme=SPECTRAL):
        n = spec.n_per_axis
        spacings = _spacings(spec)
        last = len(spacings) - 1
        shape = (n,) * len(spacings)
        full = math.prod(shape) <= FULL_WEIGHT_POINTS
        self._views = [(n ** ax, n, n ** (last - ax)) for ax in range(last + 1)]
        kernel = fd4_matrix if scheme == FD4 else derivative_matrix
        matrices = {}
        self.zero = None
        self.terms = []         # ([(axis, matrix), ...], axis, matrix, weight)
        for orders, w in weights.items():
            w = np.asarray(w)
            if not w.any():
                continue
            if full:
                w = np.ascontiguousarray(np.broadcast_to(w, shape))
            steps = [(ax, o) for ax, o in enumerate(orders) if o]
            if not steps:
                self.zero = w
                continue
            for ax, o in steps:
                if (ax, o) not in matrices:
                    M = kernel(n, spacings[ax], o)
                    matrices[ax, o] = np.asfortranarray(M) if ax == last else M
            *head, (ax, o) = steps
            self.terms.append(([(a, matrices[a, k]) for a, k in head],
                               ax, matrices[ax, o], w))
        depth = max((len(head) for head, _, _, _ in self.terms), default=0)
        self.buffers = 1 + min(depth, 2) if self.terms else 0

    def bind(self, values, out, scratch):
        """The calls that write the right-hand side of `values` into `out`.

        Returns one flat tuple of (function, args) calls, a numpy ufunc or
        GEMM each with its output positional, over views of `values`, `out`,
        `scratch` and the plan made here; `for f, args in calls: f(*args)`
        runs the sum, as often as the buffers live. `out` must not overlap
        `values`, and `scratch` holds at least `buffers` float arrays of
        values' shape that overlap neither. The products read and write
        through reshaped views, so all of them must be C-contiguous
        (ValueError otherwise).

        The zero-order product, or else the first term, is written into
        `out`; a first term then takes `+ 0.0`, which is bitwise the sum
        started from +0.0 (IEEE addition commutes), so a -0.0 term leaves
        +0.0. Every later term is written into scratch[0], weighted and
        added. A mixed order's head products alternate between scratch[1]
        and scratch[2], so no product reads the buffer it writes.
        """
        for buf in (values, out, *scratch):
            if not buf.flags.c_contiguous:
                raise ValueError("values, out and scratch must be "
                                 "C-contiguous")
        calls = []
        if self.zero is not None:
            calls.append((np.multiply, (values, self.zero, out)))
        elif not self.terms:
            calls.append((out.fill, (0.0,)))
        for i, (head, last, M, weight) in enumerate(self.terms):
            first = i == 0 and self.zero is None
            dest = out if first else scratch[0]
            src = values
            for j, (ax, Mh) in enumerate(head):
                calls += self._gemm(Mh, ax, src, scratch[1 + j % 2])
                src = scratch[1 + j % 2]
            calls += self._gemm(M, last, src, dest)
            calls.append((np.multiply, (dest, weight, dest)))
            calls.append((np.add, (out, 0.0 if first else dest, out)))
        return tuple(calls)

    def _gemm(self, M, axis, src, dst):
        view = self._views[axis]
        return gemm_calls(M, src.reshape(view), dst.reshape(view))

    def apply(self, values):
        """The right-hand side of a float array `values`, as a new array.

        A non-contiguous `values` is read through a contiguous copy. The
        bound calls run once, over buffers allocated here.
        """
        out = np.empty(values.shape)
        scratch = [np.empty(values.shape) for _ in range(self.buffers)]
        for f, args in self.bind(np.ascontiguousarray(values), out, scratch):
            f(*args)
        return out


@dataclass
class MoyalGenerator:
    """Evolution generator: a symbol, a truncation count, precomputed fields.

    K counts the odd-order terms (term j uses bracket order 2j-1). For a
    polynomial symbol of degree deg, orders above deg vanish identically and
    the stored derivative fields are pruned to the exactly nonzero ones.
    The bracket plan of each route is built from the active fields on first
    use (`plan`) and dropped when they are rebuilt.
    """

    symbol: object
    spec: object
    truncation: int = 3
    scheme: str = SPECTRAL
    tol: object = DEFAULT_TOL
    _fields: dict = dc_field(default_factory=dict, repr=False)
    _wick: dict = dc_field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.truncation < 1:
            raise OrderOverflow("K must be >= 1")
        if 2 * self.truncation - 1 > MAX_BRACKET_ORDER:
            raise OrderOverflow(
                f"bracket order {2 * self.truncation - 1} exceeds {MAX_BRACKET_ORDER}")
        self._rebuild(self.symbol.terms_at(0.0))

    def _rebuild(self, terms):
        sym = self.symbol.segment(terms)
        orders = [2 * j - 1 for j in range(1, self.effective_truncation(sym) + 1)]
        self._fields = _derivative_fields(sym, self.spec, orders)
        # contiguous (copied only from a broadcast view), so evolve's energy
        # diagnostic multiplies without a broadcast buffer
        self._energy = np.ascontiguousarray(sym.evaluate_phase_grid(self.spec))
        self._plans = {}
        self._terms = terms

    def _bracket_terms(self):
        """(k, m, coefficient * multiplicity * sign, H-field) per nonzero term."""
        for j in range(1, self.truncation + 1):
            coef = sine_coefficient(j)
            for k, m, mult, sign in bracket_pairs(2 * j - 1, self.spec.d):
                hf = self._fields.get((k, m))
                if hf is not None:
                    yield k, m, coef * mult * sign, hf

    def plan(self, role):
        """The bracket plan of the active fields for a WIGNER or an ETA
        field, built on first use.

        On a Wigner field each term weights the order k + m by its H-field.
        On Phi the Leibniz rule d_q^k d_p^m (Phi g) / g = sum over sub-indices
        (bk, bm) of C(k, bk) C(m, bm) D^(bk, bm) Phi * w(k - bk, m - bm)
        adds each term's Wick-weighted H-field into the weight of (bk, bm).
        """
        if role not in self._plans:
            weights = {}
            for k, m, c, hf in self._bracket_terms():
                if role == WIGNER:
                    _accumulate(weights, k + m, c * hf)
                    continue
                for bk in _sub_multi(k):
                    for bm in _sub_multi(m):
                        cmul = 1
                        for a, b in zip(k + m, bk + bm):
                            cmul *= comb(a, b)
                        rest_q = tuple(a - b for a, b in zip(k, bk))
                        rest_p = tuple(a - b for a, b in zip(m, bm))
                        _accumulate(weights, bk + bm, (c * cmul)
                                    * self._wick_field(rest_q, rest_p) * hf)
            self._plans[role] = BracketPlan(weights, self.spec, self.scheme)
        return self._plans[role]

    def _wick_field(self, dq, dp):
        """Field w with d_q^dq d_p^dp g = g w for the spec's mu x nu density g."""
        key = (dq, dp)
        if key not in self._wick:
            spec = self.spec
            d = spec.d
            directions = []
            for ax, count in enumerate(dq + dp):
                e = [0.0] * (2 * d)
                e[ax] = 1.0
                directions.extend([e] * count)
            poly = wick_polynomial(spec.mu_nu.precision, directions)
            self._wick[key] = np.asarray(
                _poly_eval(poly, spec.grid.phase_mesh()), float)
        return self._wick[key]

    def effective_truncation(self, sym):
        """K capped at the last nonzero order of `sym` (a segment's symbol)."""
        if sym.sampled is not None:
            return self.truncation
        deg = sym.degree
        return min(self.truncation, max(1, (deg + 1) // 2))

    def energy_field(self):
        """H of the active schedule segment on the phase grid."""
        return self._energy

    def select(self, terms):
        """Rebuild the fields for one segment's terms, unless they are active."""
        if terms != self._terms:
            self._rebuild(terms)

    def gradient_max(self, terms):
        """max over the grid of |grad H| for one segment's terms (the CFL
        guard); the active fields are read, any other segment's first-order
        fields are built apart and the active ones kept."""
        fields = self._fields if terms == self._terms else _derivative_fields(
            self.symbol.segment(terms), self.spec, (1,))
        d = self.spec.d
        zero = (0,) * d
        grad_sq = 0.0
        for ax in range(d):
            e = tuple(1 if i == ax else 0 for i in range(d))
            for key in ((zero, e), (e, zero)):      # d_q H, then d_p H
                f = fields.get(key)
                if f is not None:
                    grad_sq = grad_sq + f ** 2
        return math.sqrt(float(np.max(grad_sq)))

    def min_spacing(self):
        q, p, h, dp = axis_coords(self.spec.n_per_axis, self.spec.half_width)
        return min(h, dp)


def poisson_power(psi, symbol, n, spec=None, scheme=SPECTRAL):
    """{Psi, H}^(n): full contraction of n-th derivative tensors through I^n.

    n = 1 is the canonical Poisson bracket dq Psi dp H - dp Psi dq H.
    Psi may be a PhaseSpaceField (grid derivatives through the chosen scheme)
    or a polynomial HamiltonianSymbol (derivatives taken analytically, exact
    for non-periodic polynomials like Psi = q).
    """
    if n > MAX_BRACKET_ORDER:
        raise OrderOverflow(f"bracket order {n} exceeds {MAX_BRACKET_ORDER}")
    if isinstance(psi, PhaseSpaceField):
        spec = psi.space
    fields = _derivative_fields(symbol, spec, (n,))
    terms = [(k, m, mult * sign, fields[(k, m)])
             for k, m, mult, sign in bracket_pairs(n, spec.d) if (k, m) in fields]
    if hasattr(psi, "terms"):
        out = np.zeros((spec.n_per_axis,) * (2 * spec.d))
        for k, m, c, hf in terms:
            pf = _h_field(psi, spec, k, m)
            if pf is not None:
                out = out + c * pf * hf
        return out
    weights = {}
    for k, m, c, hf in terms:
        _accumulate(weights, k + m, c * hf)
    values = psi.values if isinstance(psi, PhaseSpaceField) else psi
    out = BracketPlan(weights, spec, scheme).apply(np.asarray(values, float))
    if isinstance(psi, PhaseSpaceField):
        return PhaseSpaceField(out, SYMBOL, spec, "lebesgue", psi.tol)
    return out


def _grid_values(field, gen, role):
    """Values of a `role` field on the generator's grid, else SpecMismatch."""
    measure = {WIGNER: LEBESGUE, ETA: "mu_nu"}.get(role)
    if measure is None:
        raise SpecMismatch(f"the bracket acts on wigner and eta fields, not "
                           f"{role!r}")
    spec = gen.spec
    if isinstance(field, PhaseSpaceField):
        if field.space is not spec and field.space != spec:
            raise SpecMismatch("field lives on another phase space than the "
                               "generator")
        if field.measure != measure:
            raise SpecMismatch(f"field measure {field.measure!r} != {measure!r}")
        return field.values
    values = np.asarray(field, float)
    if values.shape != (spec.n_per_axis,) * (2 * spec.d):
        raise SpecMismatch(f"field shape {values.shape} does not match the "
                           "generator's grid")
    return values


def _rhs(field, gen, role):
    """The plan of `role` applied to a field or array on gen's grid: a new
    field like a PhaseSpaceField input, else a new array."""
    rhs = gen.plan(role).apply(_grid_values(field, gen, role))
    if not isinstance(field, PhaseSpaceField):
        return rhs
    return PhaseSpaceField(rhs, field.role, field.space, field.measure,
                           field.tol)


def moyal_rhs(W, gen):
    """Truncated sine-series right-hand side on a Wigner-density field."""
    return _rhs(W, gen, WIGNER)


def eta_moyal_rhs(phi, gen):
    """Sine-series action on an eta density through the Leibniz/Wick route.

    Expands every derivative of Phi * g by the Leibniz rule, replacing
    derivatives of the Gaussian reference density by Wick polynomials, and
    never multiplies or divides by the density itself. Equals
    eta_density(moyal_rhs(eta_to_wigner(Phi))) in exact arithmetic.
    """
    return _rhs(phi, gen, ETA)


def _sub_multi(alpha):
    ranges = [range(a + 1) for a in alpha]
    if not ranges:
        yield ()
        return
    yield from itertools.product(*ranges)


# --- time integration ---------------------------------------------------------

def _finite(x):
    """x is a real number (not a bool) and finite."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and math.isfinite(x))


@dataclass(frozen=True)
class EvolutionRun:
    """Fixed-step classical Runge-Kutta run description."""

    dt: float
    t_end: float
    stride: int = 10
    enforce_cfl: bool = True

    def __post_init__(self):
        dt, t_end, stride = self.dt, self.t_end, self.stride
        if not (_finite(dt) and dt > 0):
            raise UnstableStep(f"dt must be finite and positive, got {dt!r}")
        if not (_finite(t_end) and t_end >= 0):
            raise UnstableStep(f"t_end must be finite and >= 0, got {t_end!r}")
        if (isinstance(stride, bool) or not isinstance(stride, numbers.Integral)
                or stride < 1):
            raise UnstableStep(f"stride must be an integer >= 1, got "
                               f"{stride!r}")

    def snapshot_times(self):
        nfull = int(math.floor(self.t_end / self.dt + 1e-12))
        times = [k * self.dt for k in range(0, nfull + 1, self.stride)]
        if not times or abs(times[-1] - self.t_end) > 1e-12:
            times.append(self.t_end)
        return times


@dataclass
class EvolutionResult:
    snapshots: list
    diagnostics: dict
    final_field: object


def pair_snapshots(left, right):
    """Pair two (t, x) snapshot lists by time: [(t, x_left, x_right), ...].

    Raises SnapshotMismatch unless both lists hold the same times (to 1e-12),
    so a cross-check never compares fields taken at different times.
    """
    lt = [t for t, _ in left]
    rt = [t for t, _ in right]
    if len(lt) != len(rt) or any(abs(a - b) > 1e-12 for a, b in zip(lt, rt)):
        raise SnapshotMismatch(
            "snapshot times differ: [" + ", ".join(f"{t:.6g}" for t in lt)
            + "] vs [" + ", ".join(f"{t:.6g}" for t in rt) + "]")
    return [(t, x, y) for (t, x), (_, y) in zip(left, right)]


def _rk4_calls(h, to_acc, to_k, values, acc, k, stage):
    """The flat call list of one classical RK4 step of length h, in place.

    `to_acc` and `to_k` are the bound stage programs values -> acc and
    stage -> k (BracketPlan.bind). `acc` gathers k1 + 2 k2 + 2 k3 + k4, `k`
    holds the current stage slope and `stage` each stage input
    values + (h/2) k; 2 k2 and 2 k3 join the sum as soon as each slope has
    given its stage input. The arithmetic is that of
    values + (h/6) (k1 + 2 k2 + 2 k3 + k4), operation for operation and in
    the same order, so the step is bitwise that of the allocating form.
    """
    def stage_input(slope, c):
        return (np.multiply, (slope, c, stage)), (np.add, (stage, values, stage))

    double = (np.multiply, (k, 2.0, k)), (np.add, (acc, k, acc))
    return (*to_acc, *stage_input(acc, 0.5 * h),
            *to_k, *stage_input(k, 0.5 * h), *double,
            *to_k, *stage_input(k, h), *double,
            *to_k, (np.add, (acc, k, acc)), (np.multiply, (acc, h / 6.0, acc)),
            (np.add, (values, acc, values)))


def _boundary_ring(shape):
    """Flat indices of the grid's boundary ring, in C order."""
    mask = np.zeros(shape, dtype=bool)
    for ax in range(len(shape)):
        sl0 = [slice(None)] * len(shape)
        sl0[ax] = 0
        mask[tuple(sl0)] = True
        sl0[ax] = shape[ax] - 1
        mask[tuple(sl0)] = True
    return np.flatnonzero(mask)


def evolve(field0, gen, run):
    """Integrate a Wigner or eta field with fixed-step RK4.

    Snapshots are immutable copies taken at run.snapshot_times(), every
    `stride` steps and at t_end. The steps land exactly on every snapshot time
    and on the start of every later interval of HamiltonianSymbol.intervals,
    which rebuilds the fields (a fractional step closes a gap off the dt
    lattice), and t is set to that event time on arrival. Raises
    UnstableStep when dt exceeds the CFL guard of any interval the run
    reaches (a warning under enforce_cfl=False). Aborts with UnstableStep
    on per-step mass drift and EscapeDetected on boundary mass, a NaN drift
    or boundary mass included. Raises SpecMismatch, before the first step,
    when field0's role is neither WIGNER nor ETA, or it lives on another
    phase space than the generator or carries another measure than its
    role's, and InvalidDensity when it holds a NaN or infinite value.
    """
    role = field0.role
    _grid_values(field0, gen, role)
    # min and max carry any NaN or infinity, with no field-sized temporary
    v = field0.values
    if not (np.isfinite(v.min()) and np.isfinite(v.max())):
        bad = v.size - np.isfinite(v).sum()
        raise InvalidDensity(f"initial field has {bad} NaN or infinite values")
    spec = field0.space
    tol = field0.tol
    cell = field0.cell_volume()
    g = field0.reference_density() if role == ETA else None
    times = run.snapshot_times()
    intervals = gen.symbol.intervals(times[-1])
    # the terms of each later interval, by its start
    starts = {start: terms for start, _, terms in intervals[1:]}

    grad = max(0.0, *(gen.gradient_max(terms) for _, _, terms in intervals))
    limit = gen.min_spacing() / (4.0 * max(grad, 1e-300))
    if run.dt > limit:
        msg = (f"dt = {run.dt:g} exceeds the CFL guard {limit:g} "
               f"(= min spacing / (4 max|grad H|))")
        if run.enforce_cfl:
            raise UnstableStep(msg)
        warnings.warn(msg, RuntimeWarning, stacklevel=2)

    # the run starts on the first interval's fields
    gen.select(intervals[0][2])
    ring = _boundary_ring(field0.values.shape)
    diags = {k: [] for k in ("t", "mass", "l2", "energy", "min_w", "purity_est")}
    t_col, mass, l2, energy, min_w, purity = diags.values()
    snapshots = []
    hfield = gen.energy_field()
    purity_scale = (2 * math.pi) ** len(field0.axes)
    total, least = np.add.reduce, np.minimum.reduce

    # the run's buffers: the RK4 step's three, the plan's scratch and the
    # boundary ring's values
    values = np.array(field0.values, dtype=float)
    acc, k, stage = (np.empty_like(values) for _ in range(3))
    scratch = []
    edge = np.empty(ring.size)
    # the plan's two bound stage programs, and one RK4 call list per step
    # length; both bound again after a breakpoint rebuilds the fields
    programs = []
    step_calls = {}

    def bind():
        plan = gen.plan(role)
        scratch.extend(np.empty_like(values)
                       for _ in range(plan.buffers - len(scratch)))
        programs[:] = (plan.bind(values, acc, scratch),
                       plan.bind(stage, k, scratch))
        step_calls.clear()

    def record(t, vals):
        # w**2 and hfield*w go into stage, an eta run's w = vals*g into k;
        # each RK4 step writes both before it reads them
        w = vals if role == WIGNER else np.multiply(vals, g, out=k)
        sq = total(np.square(w, out=stage), axis=None)
        t_col.append(t)
        mass.append(float(total(w, axis=None) * cell))
        l2.append(float(math.sqrt(sq * cell)))
        energy.append(
            float(total(np.multiply(hfield, w, out=stage), axis=None) * cell))
        min_w.append(float(least(w, axis=None)))
        purity.append(float(purity_scale * sq * cell))
        return w

    def check(t, w):
        # `not value <= bound`, so that a NaN fails the guard
        drift = abs(mass[-1] - mass[-2])
        if not drift <= tol.mass_drift_step:
            raise UnstableStep(f"mass drifted by {drift:.3e} in one step at "
                               f"t={t:g}", diagnostics=diags)
        # mode "clip": the default "raise" copies through a temporary
        np.take(w, ring, out=edge, mode="clip")
        boundary = float(total(np.abs(edge, out=edge), axis=None) * cell)
        if not boundary <= tol.boundary_mass:
            raise EscapeDetected(
                f"boundary mass {boundary:.3e} at t={t:g}", diagnostics=diags)

    bind()
    t = 0.0
    record(0.0, values)
    snapshots.append((0.0, field0))

    for target in sorted(starts.keys() | times[1:]):
        start, steps = t, 0
        while t < target - 1e-12:
            # t counts full steps from the last event instead of summing dt,
            # so it does not drift; a step ending within 1e-12 of the target
            # lands on it
            gap = target - t
            h = run.dt if gap > run.dt - 1e-12 else gap
            if h not in step_calls:
                step_calls[h] = _rk4_calls(h, *programs, values, acc, k, stage)
            for f, args in step_calls[h]:
                f(*args)
            steps += 1
            t = start + steps * run.dt
            if t > target - 1e-12:
                t = target
            w = record(t, values)
            check(t, w)
        if target in starts:
            gen.select(starts[target])
            hfield = gen.energy_field()
            bind()
        if target in times:
            snapshots.append((t, PhaseSpaceField(values.copy(), role, spec,
                                                 field0.measure, tol)))
    diags = {k: np.asarray(v) for k, v in diags.items()}
    return EvolutionResult(snapshots, diags, snapshots[-1][1])


def von_neumann_oracle(T0, hamiltonian, run):
    """Exact density-operator evolution T(t) = e^{-iHt} T0 e^{iHt}.

    `hamiltonian` is a Hermitian matrix or a HamiltonianSymbol; each
    interval of the symbol (HamiltonianSymbol.intervals) is quantized on
    T0's space and propagated from its start by one `hilbert.propagate`
    call. Snapshots are taken at the same times evolve() would use. Trace
    and purity are conserved to eigensolver accuracy.
    """
    times = run.snapshot_times()
    if hasattr(hamiltonian, "terms"):
        segments = ((start, stop, weyl_quantize(hamiltonian.segment(terms),
                                                T0.space))
                    for start, stop, terms in hamiltonian.intervals(times[-1]))
    else:
        segments = [(0.0, times[-1], np.asarray(hamiltonian, dtype=complex))]
    out, T = [], _lebesgue(T0)
    for start, stop, H in segments:
        due = [t for t in times[len(out):] if t <= stop]
        steps = [t - start for t in due]
        if not due or due[-1] != stop:
            steps.append(stop - start)
        states = list(propagate(H, T, steps))
        out.extend(zip(due, states))
        T = states[-1]
    return out
