"""Weyl quantization, Weyl unitaries, and the Weyl (characteristic) function.

Polynomial symbols quantize term by term through symmetric (Weyl) ordering;
for a monomial q^a p^b on one axis that is McCoy's formula

    Op(q^a p^b) = 2^-a sum_k C(a, k) qhat^k phat^b qhat^(a-k),

and axes factorize because their operators commute. Sampled symbols quantize
through the exact lattice symbol calculus (engine), which sends the constant
symbol 1 to the identity exactly. The Weyl unitary of a phase point h = (a, b)
is exp(-i(a qhat + b phat)); with h on the dual lattice these unitaries obey
the exact Heisenberg group law up to the symplectic-area phase.
"""

import math
from dataclasses import dataclass
from math import comb

import numpy as np

from . import engine
from .errors import (BadSchedule, DegreeTooHigh, DomainOverflow,
                     GridMismatch, NonHermitianInput, SpecMismatch)
from .hilbert import LevelSpace, _lebesgue
from .lattice import PhaseSpaceSpec

MAX_DEGREE = 6


@dataclass(frozen=True)
class PhasePoint:
    """A point h = (q, p) of phase space."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.atleast_1d(np.asarray(self.q, float)))
        object.__setattr__(self, "p", np.atleast_1d(np.asarray(self.p, float)))

    def __neg__(self):
        return PhasePoint(-self.q, -self.p)

    def __add__(self, other):
        return PhasePoint(self.q + other.q, self.p + other.p)


def symplectic_area(h1, h2):
    """sym(h1, h2) = <q1, p2> - <p1, q2>."""
    return float(h1.q @ h2.p - h1.p @ h2.q)


@dataclass(frozen=True)
class HamiltonianSymbol:
    """Real polynomial in (q, p), optionally plus a sampled grid field.

    terms: tuple of (powers_q, powers_p, coeff) with integer multi-indices.
    sampled: optional real field on the phase grid (q-axes then p-axes).
    schedule: optional tuple of (t_start, terms) segments, piecewise constant
    in time. Segment k acts on the half-open interval [t_k, t_{k+1}); the
    first starts at t = 0 and the starts increase, else BadSchedule. The
    static `terms` are used when no schedule is given and ignored otherwise.
    """

    terms: tuple = ()
    sampled: np.ndarray = None
    schedule: tuple = None
    d: int = 1

    def __post_init__(self):
        norm = []
        for pq, pp, c in self.terms:
            pq = tuple(int(x) for x in np.atleast_1d(pq))
            pp = tuple(int(x) for x in np.atleast_1d(pp))
            if len(pq) != self.d or len(pp) != self.d:
                raise SpecMismatch(f"term multi-index length must be d={self.d}")
            if complex(c).imag != 0.0:
                raise NonHermitianInput("symbol coefficients must be real")
            norm.append((pq, pp, float(c)))
        object.__setattr__(self, "terms", tuple(norm))
        if self.sampled is not None:
            s = np.asarray(self.sampled)
            if np.iscomplexobj(s) and np.abs(s.imag).max() > 0:
                raise NonHermitianInput("sampled symbol must be real")
            object.__setattr__(self, "sampled", s.astype(float))
        if self.schedule is not None:
            seg = tuple((float(t), HamiltonianSymbol(ts, d=self.d).terms)
                        for t, ts in self.schedule)
            if not seg:
                raise BadSchedule("the schedule has no segment", 0)
            if seg[0][0] != 0.0:
                raise BadSchedule(
                    f"the first segment starts at t_start = {seg[0][0]:g}, "
                    "not 0", 0)
            for i in range(1, len(seg)):
                if not seg[i][0] > seg[i - 1][0]:
                    raise BadSchedule(
                        f"t_start = {seg[i][0]:g} does not follow the previous "
                        f"segment's {seg[i - 1][0]:g}", i)
            object.__setattr__(self, "schedule", seg)

    @property
    def degree(self):
        return max((sum(pq) + sum(pp) for pq, pp, _ in self.terms), default=0)

    def intervals(self, t_end):
        """[(t_k, t_{k+1}, terms)]: the interval [t_k, t_{k+1}) of each segment
        that starts before t_end (the first always), the last one ending at
        t_end. Without a schedule the static terms act on [0, t_end)."""
        segments = self.schedule or ((0.0, self.terms),)
        stops = [t for t, _ in segments[1:] if t < t_end] + [t_end]
        return [(start, stop, terms)
                for (start, terms), stop in zip(segments, stops)]

    def terms_at(self, t):
        """Terms of the segment whose interval holds t: the last one that
        starts at or before t (the first one before t = 0)."""
        return self.intervals(math.nextafter(t, math.inf))[-1][2]

    def segment(self, terms):
        """The symbol of one segment: `terms` with this sampled part."""
        return HamiltonianSymbol(terms, sampled=self.sampled, d=self.d)

    def derivative(self, dq, dp):
        """Partial derivative as a new polynomial symbol (polynomial part only)."""
        out = []
        for pq, pp, c in self.terms:
            powers, orders = pq + pp, tuple(dq) + tuple(dp)
            if any(k > a for a, k in zip(powers, orders)):
                continue
            for a, k in zip(powers, orders):
                for j in range(k):
                    c *= a - j
            if c != 0.0:
                rest = tuple(a - k for a, k in zip(powers, orders))
                out.append((rest[:self.d], rest[self.d:], c))
        return HamiltonianSymbol(tuple(out), d=self.d)

    def evaluate(self, q_mesh, p_mesh):
        """Polynomial part on broadcastable coordinate meshes."""
        out = 0.0
        for pq, pp, c in self.terms:
            term = c
            for ax in range(self.d):
                if pq[ax]:
                    term = term * q_mesh[ax] ** pq[ax]
                if pp[ax]:
                    term = term * p_mesh[ax] ** pp[ax]
            out = out + term
        return out

    def sampled_on(self, spec):
        """The sampled part, or None; DomainOverflow unless it has the shape
        of spec's phase grid."""
        shape = (spec.n_per_axis,) * (2 * spec.d)
        if self.sampled is not None and self.sampled.shape != shape:
            raise DomainOverflow(
                f"sampled symbol shape {self.sampled.shape} != grid {shape}")
        return self.sampled

    def evaluate_phase_grid(self, spec):
        sampled = self.sampled_on(spec)
        mesh = spec.grid.phase_mesh()
        vals = np.broadcast_to(
            np.asarray(self.evaluate(mesh[:spec.d], mesh[spec.d:]), float),
            (spec.n_per_axis,) * (2 * spec.d))
        if sampled is not None:
            vals = vals + sampled
        return vals


# --- grid operators ---------------------------------------------------------

def _axis_ops(n, L):
    q, p, h, dp = engine.axis_coords(n, L)
    F = engine.fourier_matrix(n)
    qhat = np.diag(q.astype(complex))
    phat = F.conj().T @ (p[:, None] * F)
    return qhat, phat


def _mccoy_axis(a, b, qhat, phat):
    """Weyl-ordered q^a p^b on one axis."""
    if a == 0 and b == 0:
        return np.eye(qhat.shape[0], dtype=complex)
    pb = np.linalg.matrix_power(phat, b)
    out = np.zeros_like(qhat)
    for k in range(a + 1):
        out += comb(a, k) * (np.linalg.matrix_power(qhat, k) @ pb
                             @ np.linalg.matrix_power(qhat, a - k))
    return out / 2 ** a


def quantize_polynomial_on(terms, axis_ops):
    """Weyl-order polynomial terms over per-axis (qhat, phat) operator pairs."""
    dim = int(np.prod([qh.shape[0] for qh, _ in axis_ops]))
    out = np.zeros((dim, dim), dtype=complex)
    for pq, pp, c in terms:
        m = np.eye(1, dtype=complex)
        for (qh, ph), aq, ap in zip(axis_ops, pq, pp):
            m = np.kron(m, _mccoy_axis(aq, ap, qh, ph))
        out += c * m
    return out


def weyl_quantize(symbol, spec):
    """Quantize a symbol to a Hermitian operator matrix on the grid space.

    Polynomial terms go through per-axis McCoy ordering (degree cap 6);
    the sampled part goes through the exact lattice symbol calculus.
    """
    if symbol.degree > MAX_DEGREE:
        raise DegreeTooHigh(f"degree {symbol.degree} exceeds cap {MAX_DEGREE}")
    if isinstance(spec, LevelSpace):
        ops = [(spec.position_op().astype(complex),
                spec.momentum_op().astype(complex))]
        return quantize_polynomial_on(symbol.terms, ops)
    if not isinstance(spec, PhaseSpaceSpec):
        raise SpecMismatch("weyl_quantize needs a PhaseSpaceSpec or LevelSpace")
    sampled = symbol.sampled_on(spec)
    axis_ops = [_axis_ops(spec.n_per_axis, spec.half_width)] * spec.d
    out = quantize_polynomial_on(symbol.terms, axis_ops)
    if sampled is not None:
        out = out + engine.wigner_to_density(sampled, spec.axis_geometry()) \
            / (2.0 * math.pi) ** spec.d
    return out


def weyl_unitary(h, spec):
    """W(h) = exp(-i(<q_h, qhat> + <p_h, phat>)), factorized per axis."""
    if not isinstance(spec, PhaseSpaceSpec):
        raise SpecMismatch("weyl_unitary needs a grid space")
    if h.q.shape != (spec.d,) or h.p.shape != (spec.d,):
        raise GridMismatch(f"phase point dimension != d={spec.d}")
    m = np.eye(1, dtype=complex)
    for ax in range(spec.d):
        m = np.kron(m, engine.weyl_unitary_axis(
            h.q[ax], h.p[ax], spec.n_per_axis, spec.half_width))
    return m


def weyl_function(T, h):
    """W_T(h) = tr(T W(h)); bounded by 1, equals 1 at h = 0."""
    return complex(np.trace(_lebesgue(T).matrix @ weyl_unitary(h, T.space)))


def expectation(T, symbol):
    """tr(T Ghat) for the quantized symbol; the imaginary residue is checked."""
    return operator_expectation(T, weyl_quantize(symbol, T.space))


def operator_expectation(T, G):
    """tr(T G) for a quantized operator G; the imaginary residue is checked."""
    val = complex(np.trace(_lebesgue(T).matrix @ G))
    scale = max(abs(val), 1.0)
    if abs(val.imag) > 1e-10 * scale:
        raise NonHermitianInput(f"expectation has imaginary residue {val.imag:g}")
    return val.real
