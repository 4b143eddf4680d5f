"""States, density operators, integral kernels, and composite systems.

Grid states are function-valued: a StateVector stores psi(q_j) with
sum |psi|^2 h^d = 1 in the Lebesgue representation. Operators are stored as
matrices in the orthonormal discrete basis, which absorbs the cell volume:
the plain matrix trace is the quadrature trace, and T = |psi><psi| becomes
outer(psi, conj(psi)) * h^d. The canonical internal representation is
Lebesgue; the Gaussian-weighted one is produced on demand by the
square-root-density isomorphism and differs only by a diagonal conjugation.

Values are read-only after construction and operations are pure functions.
An operator built from a writable array views that array without copying it
(only the view is frozen), so the caller must not write to the array after.
"""

import functools
import math
import string
from dataclasses import dataclass, field

import numpy as np

from .engine import _frozen
from .errors import (InvalidDensity, NonPositiveOperator, RepresentationMismatch,
                     SpecMismatch, UnknownSubsystem, UnnormalizedState,
                     WrongRepresentation)
from .lattice import PhaseSpaceSpec
from .tolerances import DEFAULT_TOL

LEBESGUE = "lebesgue"
GAUSSIAN = "gaussian"

FACTOR_DROP = 1e-15     # relative eigenvalue size below which a factor is dropped
CHEB_TAIL = 1e-16       # Chebyshev coefficient size that ends the series
HERMITIAN_TILE = 64     # 64 x 64 complex tiles: 64 KiB per operand
EIGH_COST = 10          # one D x D eigh ~ 10 D x D matrix products (9-17 measured)


@dataclass(frozen=True)
class LevelSpace:
    """Abstract k-level factor (truncated oscillator ladder)."""

    dim: int

    def ladder(self):
        return _frozen(np.diag(np.sqrt(np.arange(1, self.dim)), 1))

    def position_op(self):
        a = self.ladder()
        return _frozen((a + a.conj().T) / math.sqrt(2))

    def momentum_op(self):
        a = self.ladder()
        return _frozen(1j * (a.conj().T - a) / math.sqrt(2))

    def number_op(self):
        a = self.ladder()
        return _frozen(a.conj().T @ a)


def space_dim(space):
    if isinstance(space, PhaseSpaceSpec):
        return space.hilbert_dim
    if isinstance(space, (LevelSpace, CompositeSystem)):
        return space.dim
    raise SpecMismatch(f"unknown space type {type(space)!r}")


def _label_tuple(labels):
    """A label or a sequence of labels, as a tuple."""
    return (labels,) if isinstance(labels, str) else tuple(labels)


@dataclass(frozen=True)
class CompositeSystem:
    """Ordered, labeled tensor factors; ordering is fixed at construction.

    The system owns the map from labels to tensor axes: a D x D operator
    reshaped to `dims * 2` has one bra and one ket axis per factor
    (`einsum_subscripts`), and a field on the system has every grid factor's
    q axes in order, then their p axes (`phase_axes`).
    """

    factors: tuple  # of (label, space)

    def __post_init__(self):
        labels = [lab for lab, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise SpecMismatch(f"duplicate subsystem labels: {labels}")

    @property
    def labels(self):
        return tuple(lab for lab, _ in self.factors)

    @property
    def dims(self):
        return tuple(space_dim(s) for _, s in self.factors)

    @property
    def dim(self):
        return int(np.prod(self.dims))

    def index_of(self, label):
        for i, (lab, _) in enumerate(self.factors):
            if lab == label:
                return i
        raise UnknownSubsystem(f"no subsystem {label!r} in {self.labels}")

    def dim_of(self, labels):
        """Dimension of the factor subset `labels`."""
        return math.prod(space_dim(self.factors[self.index_of(lab)][1])
                         for lab in _label_tuple(labels))

    def _subset(self, labels):
        """The set of `labels`; UnknownSubsystem if one is not a factor."""
        chosen = set(_label_tuple(labels))
        missing = chosen - set(self.labels)
        if missing:
            raise UnknownSubsystem(f"unknown subsystem(s) {sorted(missing)}")
        return chosen

    def keep(self, labels):
        """Sub-composite of the kept factors, original order preserved."""
        chosen = self._subset(labels)
        return CompositeSystem(tuple((lab, s) for lab, s in self.factors
                                     if lab in chosen))

    def einsum_subscripts(self, labels):
        """einsum letters (operand, rest, bra, ket) of a factor subset.

        `operand` subscripts a D x D operator reshaped to `dims * 2`, with
        bra and ket sharing one letter on every factor outside the subset:
        it is the sub-array on which they agree there. `rest` lists those
        shared letters, `bra` and `ket` the subset's own, all in system
        order. `operand -> bra ket` sums it (the partial trace onto the
        subset); `operand -> rest bra ket` is a view of the entries of
        op (x) I_rest.
        """
        chosen = self._subset(labels)
        k = len(self.factors)
        bra = string.ascii_letters[:k]
        on = [lab in chosen for lab in self.labels]
        ket = "".join(string.ascii_letters[k + i] if o else c
                      for i, (c, o) in enumerate(zip(bra, on)))
        rest = "".join(c for c, o in zip(bra, on) if not o)
        return (bra + ket, rest, "".join(c for c, o in zip(bra, on) if o),
                "".join(c for c, o in zip(ket, on) if o))

    def _grid_factors(self):
        """The factors, after checking that each one has a phase-space grid."""
        for lab, s in self.factors:
            if not isinstance(s, PhaseSpaceSpec):
                raise SpecMismatch(f"subsystem {lab!r} has no phase-space grid")
        return self.factors

    def axis_geometry(self):
        """Concatenated per-axis (n, L) of all grid factors.

        Raises SpecMismatch if any factor is not grid-based.
        """
        return [ax for _, s in self._grid_factors() for ax in s.axis_geometry()]

    def phase_axes(self, labels):
        """Positions of the subset's q axes, then of its p axes, in a field
        on this system, all in system order."""
        chosen = self._subset(labels)
        q, pos = [], 0
        for lab, s in self._grid_factors():
            if lab in chosen:
                q.extend(range(pos, pos + s.d))
            pos += s.d
        return tuple(q) + tuple(pos + i for i in q)


def _collapse(space):
    """A one-factor composite collapses to its factor space."""
    if isinstance(space, CompositeSystem) and len(space.factors) == 1:
        return space.factors[0][1]
    return space


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over the position grid with a representation tag."""

    values: np.ndarray
    rep: str
    space: object
    tol: object = DEFAULT_TOL

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex).ravel()
        if v.size != space_dim(self.space):
            raise SpecMismatch(f"state length {v.size} != dim {space_dim(self.space)}")
        object.__setattr__(self, "values", _frozen(v))
        nrm = self.norm()
        if abs(nrm - 1.0) > self.tol.state_norm:
            raise UnnormalizedState(f"norm {nrm} deviates from 1 beyond tolerance")

    def _weights(self):
        spec = self.space
        if isinstance(spec, CompositeSystem):
            w = 1.0
            for _, s in spec.factors:
                if isinstance(s, PhaseSpaceSpec):
                    w *= s.grid.position_cell
            return w
        if not isinstance(spec, PhaseSpaceSpec):
            return 1.0
        w = spec.grid.position_cell
        if self.rep == GAUSSIAN:
            return w * spec.mu_density_grid().ravel()
        return w

    def norm(self):
        return math.sqrt(float(np.sum(np.abs(self.values) ** 2 * self._weights())))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian PSD trace-one matrix over the position basis.

    `parts`, when recorded, holds one Lebesgue-representation operator per
    factor of a composite space such that matrix is their Kronecker product
    (see `tensor_many`). A product built with `matrix=None` keeps only its
    parts: `matrix` is formed from them on first read, by the same `np.kron`
    chain, and kept read-only. The record is not compared, and no operator
    derived from this one inherits it. Two operators are equal when their
    matrices are equal by value and their rep, space and tol are equal; an
    operator is not hashable.

    A writable `matrix` argument is not copied: the operator holds a read-only
    view of it, and the caller must not write to that array afterwards.
    """

    matrix: np.ndarray
    rep: str
    space: object
    tol: object = DEFAULT_TOL
    parts: tuple = field(default=None, repr=False)

    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, DensityOperator):
            return NotImplemented
        return (self.rep == other.rep and self.space == other.space
                and self.tol == other.tol
                and np.array_equal(self.matrix, other.matrix))

    def __post_init__(self):
        if self.parts is not None:
            object.__setattr__(self, "parts", _checked_parts(self))
            if self.matrix is None:
                object.__delattr__(self, "matrix")    # see __getattr__
                return
        m = np.asarray(self.matrix, dtype=complex)
        N = space_dim(self.space)
        if m.shape != (N, N):
            raise SpecMismatch(f"matrix shape {m.shape} != ({N}, {N})")
        object.__setattr__(self, "matrix", _frozen(m))

    def __getattr__(self, name):
        """A product's `matrix`, on its first read: the kron of its parts."""
        parts = vars(self).get("parts")
        if name != "matrix" or parts is None:
            raise AttributeError(name)
        m = functools.reduce(np.kron, [op.matrix for op in parts])
        object.__setattr__(self, "matrix", _frozen(m))
        return self.matrix

    def validate(self):
        """Check Hermiticity, unit trace, PSD floor; raise on violation.

        The comparisons fail closed, so a NaN or infinite entry raises
        InvalidDensity. The PSD floor is checked by `certify_psd` on the
        Hermitian part of the Lebesgue-representation matrix.
        """
        herm = self._hermiticity_defect()
        if not herm <= self.tol.hermiticity:
            raise InvalidDensity(f"hermiticity defect {herm:.3e}")
        tr = self.trace()
        if not abs(tr - 1.0) <= self.tol.trace_one:
            raise InvalidDensity(f"trace {tr} deviates from 1")
        certify_psd(self._hermitian_part(), self.tol.psd_floor)
        return self

    def _hermiticity_defect(self):
        if self.rep == GAUSSIAN and isinstance(self.space, PhaseSpaceSpec):
            # self-adjointness in the mu-weighted inner product
            return float(np.abs(self.matrix - _gauss_adjoint(self)).max())
        return _hermitian_defect(self.matrix)

    def trace(self):
        return float(np.trace(self.matrix).real)

    def purity(self):
        return float(np.trace(self.matrix @ self.matrix).real)

    def _hermitian_part(self):
        """Hermitian part of the Lebesgue-representation matrix."""
        m = self.matrix
        if self.rep == GAUSSIAN and isinstance(self.space, PhaseSpaceSpec):
            m = to_lebesgue_rep(self).matrix
        return 0.5 * (m + m.conj().T)


def _checked_parts(T):
    """T.parts as a tuple, after checking it against T's factors."""
    parts = tuple(T.parts)
    factors = T.space.factors if isinstance(T.space, CompositeSystem) else ()
    if len(parts) != len(factors) or not all(
            isinstance(op, DensityOperator)
            and space_dim(op.space) == space_dim(s)
            for op, (_, s) in zip(parts, factors)):
        raise SpecMismatch("parts need one operator per factor, each of "
                           "its factor's dimension")
    if any(op.rep != LEBESGUE for op in (T, *parts)):
        raise RepresentationMismatch("parts are recorded for lebesgue "
                                     "operators only")
    return parts


def _hermitian_defect(m, with_peak=False):
    """max |m - m^H|, compared over upper-triangle tiles m[I, J] vs m[J, I]^H.

    |a - conj(b)| = |b - conj(a)|, so the tiles with J >= I see every pair;
    no full conjugate copy or transposed full view is read. A NaN in any tile
    makes the result NaN. with_peak=True returns (defect, max |m|), the peak
    read from the same rows of tiles, one row of 64 at a time, so no D x D
    |m| is formed.
    """
    t = HERMITIAN_TILE
    starts = range(0, m.shape[0], t)
    worst, peak = [], []
    with np.errstate(invalid="ignore"):     # inf - inf: the NaN is the answer
        for i in starts:
            if with_peak:
                peak.append(np.abs(m[i:i + t]).max())
            for j in starts[i // t:]:
                a, b = m[i:i + t, j:j + t], m[j:j + t, i:i + t]
                worst.append(np.abs(a - b.T.conj()).max())
    if with_peak:
        return float(np.max(worst)), float(np.max(peak))
    return float(np.max(worst))


def lowest_eigenvalue(H):
    """lambda_min of a Hermitian H by eigvalsh; nan if H has a non-finite entry."""
    return float(np.linalg.eigvalsh(H).min()) if np.isfinite(H).all() else math.nan


def certify_psd(H, floor):
    """Raise NonPositiveOperator unless the Hermitian H has lambda_min >= -floor.

    A Cholesky factorisation of H + floor I that succeeds certifies the bound
    up to its backward error (math-notes § Reality, residues and edge
    floors). Only when it fails does eigvalsh run, to report lambda_min and
    decide: the error is raised only if lambda_min really is below -floor.
    A NaN entry does not make cholesky raise but leaves a NaN on the
    factor's diagonal, so only a finite diagonal counts as a certificate.
    """
    shifted = np.array(H)
    shifted.flat[::len(shifted) + 1] += floor
    try:
        if np.isfinite(np.linalg.cholesky(shifted).diagonal()).all():
            return
    except np.linalg.LinAlgError:
        pass
    lam = lowest_eigenvalue(H)
    if not lam >= -floor:
        raise NonPositiveOperator(f"eigenvalue {lam:.3e} below the PSD floor")


def exact_propagate(T, evals, evecs, t):
    """e^{-iHt} T e^{iHt} for H = evecs diag(evals) evecs^H.

    U = (V e^{-i Lambda t}) V^H, then U T U^H. At t == 0 this is T itself:
    a copy is returned without the three matrix products.
    """
    if t == 0:
        return np.array(T)
    U = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
    return U @ T @ U.conj().T


def factorization(T):
    """(F, w) with T.matrix == F diag(w) F^H for a Lebesgue-representation T.

    One eigh of T; eigenpairs with |lambda| <= FACTOR_DROP * max|lambda|
    are dropped. The kept weights keep their sign, so a Hermitian T that is
    not PSD is factored exactly.
    """
    if T.rep != LEBESGUE:
        raise WrongRepresentation(
            f"factors need a lebesgue operator, got {T.rep}")
    lam, V = np.linalg.eigh(T.matrix)
    keep = np.abs(lam) > FACTOR_DROP * np.abs(lam).max(initial=0.0)
    return V[:, keep], lam[keep]


def spectral_interval(H):
    """Gershgorin bounds (lo, hi) that contain the spectrum of a Hermitian H.

    |H| is summed by blocks of HERMITIAN_TILE rows, each row as one sum in
    the same order as over the whole |H|, so no D x D |H| is formed.
    """
    centre = np.diagonal(H).real
    rows = np.concatenate([np.abs(H[i:i + HERMITIAN_TILE]).sum(axis=1)
                           for i in range(0, H.shape[0], HERMITIAN_TILE)])
    radius = rows - np.abs(np.diagonal(H))
    return float((centre - radius).min()), float((centre + radius).max())


def _chebyshev_coefficients(tau):
    """c_k with exp(-i tau x) = sum_k c_k T_k(x) on [-1, 1].

    The coefficients are the DCT of exp(-i tau cos theta), taken as an FFT
    over the whole circle (the integrand is even in theta), so no Bessel
    function is needed: c_k = 2 (-i)^k J_k(tau) for k >= 1. The series is
    cut at the first k >= tau with |c_k| < CHEB_TAIL * max(1, tau): past
    k = tau the |J_k(tau)| decrease monotonically, and the samples carry a
    phase error of order eps * tau, which sets the floor of the computed
    tail. 2 * (2 tau + 64) samples alias no kept coefficient above that floor.
    """
    m = 2 * (2 * int(math.ceil(tau)) + 64)
    c = np.fft.fft(np.exp(-1j * tau * np.cos(2 * np.pi * np.arange(m) / m))) / m
    c = c[:m // 2]
    c[1:] *= 2
    start = int(tau)
    tail = np.flatnonzero(np.abs(c[start:]) < CHEB_TAIL * max(1.0, tau))
    k = start + int(tail[0]) if tail.size else c.size
    return c[:max(k, 2)]


def _scaling(interval):
    """(a, b) with H = a Hs + b and Hs on [-1, 1]."""
    lo, hi = interval
    return 0.5 * (hi - lo) or 1.0, 0.5 * (hi + lo)   # hi == lo: H == b I


def chebyshev_terms(interval, t):
    """Number of H @ X products `chebyshev_propagate` makes for a step t."""
    if t == 0:
        return 0
    return len(_chebyshev_coefficients(_scaling(interval)[0] * t)) - 1


def chebyshev_propagate(H, X, t, interval):
    """e^{-iHt} X for a Hermitian H whose spectrum lies in `interval`.

    Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984): with H = a Hs + b,
    Hs on [-1, 1], e^{-iHt} = e^{-ibt} sum_k c_k T_k(Hs), and T_k(Hs) X
    follows the three-term recurrence T_{k+1} = 2 Hs T_k - T_{k-1}. Each
    term costs one H @ X product; about a t + O((a t)^(1/3)) terms are kept.
    H itself is neither copied nor shifted. At t == 0, X is returned as a
    copy.
    """
    X = np.asarray(X, dtype=complex)
    if t == 0:
        return X.copy()
    a, b = _scaling(interval)

    def scaled(Y):
        return (H @ Y - b * Y) / a

    c = _chebyshev_coefficients(a * t)
    prev, cur = X, scaled(X)
    out = c[0] * prev + c[1] * cur
    for ck in c[2:]:
        prev, cur = cur, 2 * scaled(cur) - prev
        out += ck * cur
    return np.exp(-1j * b * t) * out


def propagate(H, T0, times):
    """T(t) = e^{-iHt} T0 e^{iHt} at each of `times`, by the cheaper route.

    T0 is a Lebesgue-representation operator; each T(t) is yielded as an
    operator on T0's space, and at t == 0 it is T0 itself, whose matrix
    neither route reads. Costs are counted in H-column products (D^2
    complex multiply-adds each). Series route, for a T0 with `parts`: each
    part is factored, and their kron is T0 = F diag(w) F^H of rank r, the
    product of the parts' ranks. X = e^{-iHt} F by a Chebyshev series
    stepped from one snapshot to the next, then T(t) = X diag(w) X^H,
    r (terms + snapshots) in all. Eigh route: one eigh of H, about
    EIGH_COST D, then `exact_propagate`'s three D x D products per snapshot
    at t != 0. The series is taken when 2 r <= D, since F would otherwise
    take as much memory as T0, and its count is not larger; F is formed
    only then. A T0 without parts takes the eigh route: factoring it would
    need an eigh of its own.
    """
    D = H.shape[0]

    def evolved(m):
        return DensityOperator(m, LEBESGUE, T0.space, T0.tol)

    if T0.parts is not None:
        pairs = [factorization(op) for op in T0.parts]
        rank = math.prod(w.size for _, w in pairs)
        if 2 * rank <= D:
            steps = np.diff(times, prepend=0.0)
            interval = spectral_interval(H)
            terms = sum(chebyshev_terms(interval, dt) for dt in steps)
            if rank * (terms + len(times)) <= D * (
                    EIGH_COST + 3 * np.count_nonzero(times)):
                X, w = pairs[0]
                for Fo, wo in pairs[1:]:
                    X, w = np.kron(X, Fo), np.kron(w, wo)
                for t, dt in zip(times, steps):
                    X = chebyshev_propagate(H, X, dt, interval)
                    yield T0 if t == 0 else evolved((X * w) @ X.conj().T)
                return
    evals, evecs = np.linalg.eigh(H)
    for t in times:
        yield T0 if t == 0 else evolved(exact_propagate(T0.matrix, evals,
                                                        evecs, t))


def _gauss_adjoint(T):
    g = T.space.mu_density_grid().ravel()
    return (T.matrix.conj().T * g[None, :]) / g[:, None]


def pure_density(phi):
    """T = |phi><phi| for a normalized state."""
    nrm = phi.norm()
    if abs(nrm - 1.0) > phi.tol.state_norm:
        raise UnnormalizedState(f"norm {nrm} deviates from 1")
    if phi.rep == GAUSSIAN:
        return to_gaussian_rep(pure_density(to_lebesgue_rep(phi)))
    w = phi._weights()
    m = np.outer(phi.values, phi.values.conj()) * w
    return DensityOperator(m, phi.rep, phi.space, phi.tol)


def mix(weighted_ops):
    """Convex mixture of density operators."""
    pairs = list(weighted_ops)
    total = sum(w for w, _ in pairs)
    first = pairs[0][1]
    m = sum((w / total) * op.matrix for w, op in pairs)
    return DensityOperator(m, first.rep, first.space, first.tol)


def to_gaussian_rep(x):
    """Lebesgue -> Gaussian-weighted representation (division by sqrt density)."""
    if x.rep != LEBESGUE:
        raise WrongRepresentation(f"expected lebesgue input, got {x.rep}")
    spec = x.space
    if not isinstance(spec, PhaseSpaceSpec):
        raise WrongRepresentation("representation change needs a grid space")
    s = np.sqrt(spec.mu_density_grid().ravel())
    if isinstance(x, StateVector):
        return StateVector(x.values / s, GAUSSIAN, spec, x.tol)
    m = x.matrix * (s[None, :] / s[:, None])
    return DensityOperator(m, GAUSSIAN, spec, x.tol)


def to_lebesgue_rep(x):
    """Gaussian-weighted -> Lebesgue representation."""
    if x.rep != GAUSSIAN:
        raise WrongRepresentation(f"expected gaussian input, got {x.rep}")
    spec = x.space
    if not isinstance(spec, PhaseSpaceSpec):
        raise WrongRepresentation("representation change needs a grid space")
    s = np.sqrt(spec.mu_density_grid().ravel())
    if isinstance(x, StateVector):
        return StateVector(x.values * s, LEBESGUE, spec, x.tol)
    m = x.matrix * (s[:, None] / s[None, :])
    return DensityOperator(m, LEBESGUE, spec, x.tol)


def _lebesgue(x):
    """x itself in the Lebesgue representation, else to_lebesgue_rep(x)."""
    return x if x.rep == LEBESGUE else to_lebesgue_rep(x)


def tensor(a, b, sys):
    """Kronecker product of two density operators in the system's order."""
    if len(sys.factors) != 2:
        raise SpecMismatch("tensor(a, b, sys) needs a two-factor system")
    return tensor_many((a, b), sys)


def tensor_many(ops, sys):
    """Kronecker product of one density operator per factor, in order.

    Every operator must match its factor's dimension and the first operator's
    representation; the result keeps the first operator's tolerances. A
    Lebesgue product keeps only its `parts`, the operators themselves,
    which `wigner.wigner_from_density` maps factor by factor, `propagate`
    factors one by one and `partial_trace` reduces; its matrix is formed
    when first read. A Gaussian-representation product is formed here.
    """
    if len(ops) != len(sys.factors):
        raise SpecMismatch("one operator per factor required")
    first = ops[0]
    for op, (lab, s) in zip(ops, sys.factors):
        if space_dim(op.space) != space_dim(s):
            raise SpecMismatch(f"operator does not match factor {lab!r}")
        if op.rep != first.rep:
            raise RepresentationMismatch(f"{first.rep} vs {op.rep}")
    if first.rep == LEBESGUE:
        return DensityOperator(None, LEBESGUE, sys, first.tol, tuple(ops))
    m = functools.reduce(np.kron, [op.matrix for op in ops])
    return DensityOperator(m, first.rep, sys, first.tol)


def partial_trace(T, keep):
    """Reduced density operator on the kept factors (order preserved).

    A product that records its parts is reduced without its matrix: the
    kron of the kept parts, in system order, times the traces of the
    dropped ones. Every other operator is summed by einsum.
    """
    sys = T.space
    if not isinstance(sys, CompositeSystem):
        raise UnknownSubsystem("partial_trace needs an operator on a composite system")
    kept_sys = sys.keep(keep)
    nk = kept_sys.dim
    if T.parts is not None:
        chosen = set(kept_sys.labels)
        pairs = list(zip(sys.labels, T.parts))
        kept = [op.matrix for lab, op in pairs if lab in chosen]
        red = functools.reduce(np.kron, kept) if kept else np.ones((1, 1))
        dropped = [np.trace(op.matrix) for lab, op in pairs if lab not in chosen]
        if dropped:
            red = red * math.prod(dropped)
    else:
        operand, _, bra, ket = sys.einsum_subscripts(keep)
        red = np.einsum(f"{operand}->{bra}{ket}",
                        T.matrix.reshape(sys.dims * 2))
    return DensityOperator(red.reshape(nk, nk), T.rep, _collapse(kept_sys), T.tol)


# --- integral kernels -------------------------------------------------------

RHO1 = "rho1"
RHO2 = "rho2"


@dataclass(frozen=True)
class IntegralKernel:
    """Two-point kernel of a density operator with split Gaussian weights.

    rho1 splits the Gaussian weights symmetrically and integrates against mu;
    rho2 keeps a measure in its second argument, stored as density times cell
    volume. Both act on Gaussian-representation states.
    """

    values: np.ndarray
    kind: str
    space: object

    def apply(self, phi):
        """(T phi)(q) for a Gaussian-representation state, as raw grid values."""
        if phi.rep != GAUSSIAN:
            raise WrongRepresentation("kernels act on gaussian-representation states")
        spec = self.space
        Q = 0.25 * spec.mu.quadratic(spec.grid.position_mesh()).ravel()
        cell = spec.grid.position_cell
        g = spec.mu_density_grid().ravel()
        if self.kind == RHO1:
            return np.exp(Q) * (self.values @ (np.exp(Q) * phi.values * g * cell))
        return np.exp(Q) * (self.values @ (np.exp(-Q) * phi.values * cell))


def kernel_of(T, kind=RHO1):
    """Integral kernel of a density operator.

    rho1[u, v] = K[u, v] / c_mu with K the Lebesgue kernel (matrix / cell) and
    c_mu the Gaussian normalization constant; rho2's density equals K itself,
    so its measure values (density x cell) are the matrix entries.
    """
    spec = T.space
    if not isinstance(spec, PhaseSpaceSpec):
        raise SpecMismatch("kernels need a grid space")
    K = _lebesgue(T).matrix / spec.grid.position_cell
    if kind == RHO1:
        c_mu = math.exp(spec.mu.log_norm)
        return IntegralKernel(_frozen(K / c_mu), RHO1, spec)
    if kind == RHO2:
        return IntegralKernel(_frozen(K), RHO2, spec)
    raise SpecMismatch(f"unknown kernel kind {kind!r}")
