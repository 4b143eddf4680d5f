"""Wigner fields: transforms, Gaussian-relative densities, pairing, reduction.

wigner_from_density and inverse_wigner are exact mutual inverses (the direct
lattice maps of engine, which do not form the Weyl-function samples);
wigner_from_weyl_function maps supplied samples of the Weyl function on the
dual lattice.
The Gaussian-relative field (eta density) is produced by explicit pointwise
division at the end of the weight-invariant Lebesgue pipeline; all comparisons
between eta-relative objects use the total-variation metric, the natural norm
for densities relative to mu x nu.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import engine
from .errors import (GridMismatch, InvalidDensity, NotNormalized, SpecMismatch,
                     UnderflowRegion, UnknownSubsystem)
from .hilbert import (LEBESGUE, CompositeSystem, DensityOperator, _collapse,
                      _lebesgue, certify_psd, partial_trace)
from .lattice import PhaseSpaceSpec
from .tolerances import DEFAULT_TOL

WIGNER = "wigner_measure_density"
ETA = "eta_density"
SYMBOL = "symbol"
WEYL_SAMPLES = "weyl_function_samples"


def _space_axes(space):
    if isinstance(space, (PhaseSpaceSpec, CompositeSystem)):
        return space.axis_geometry()
    raise SpecMismatch("phase-space fields need grid-based spaces")


def _total_d(space):
    return len(_space_axes(space))


@dataclass(frozen=True, eq=False)
class PhaseSpaceField:
    """Scalar values on the phase grid, shape (q-axes, then p-axes).

    Two fields are equal when their values are equal by value and their
    role, space, measure and tol are equal; a field is not hashable.
    """

    values: np.ndarray
    role: str
    space: object
    measure: str = "lebesgue"
    tol: object = DEFAULT_TOL

    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, PhaseSpaceField):
            return NotImplemented
        return (self.role == other.role and self.space == other.space
                and self.measure == other.measure and self.tol == other.tol
                and np.array_equal(self.values, other.values))

    def __post_init__(self):
        axes = _space_axes(self.space)
        dims = tuple(n for n, _ in axes)
        v = np.asarray(self.values)
        if v.shape != dims + dims:
            raise GridMismatch(f"field shape {v.shape} != {dims + dims}")
        v = np.ascontiguousarray(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def axes(self):
        return _space_axes(self.space)

    def cell_volume(self):
        vol = 1.0
        for n, L in self.axes:
            vol *= (2.0 * L / n) * (math.pi / L)
        return vol

    def integrate(self):
        """Lebesgue quadrature over the phase grid."""
        return complex(self.values.sum() * self.cell_volume())

    def reference_density(self):
        """mu x nu density on this field's phase grid."""
        space = self.space
        if isinstance(space, PhaseSpaceSpec):
            return space.mu_nu_density_grid()
        # factorized product measure: broadcast each factor's density
        d = _total_d(space)
        out = 1.0
        for lab, s in space.factors:
            shape = [1] * (2 * d)
            for i in space.phase_axes(lab):
                shape[i] = s.n_per_axis
            out = out * s.mu_nu_density_grid().reshape(shape)
        return out

    def eta_integrate(self):
        """Quadrature against the mu x nu reference measure (eta role)."""
        g = self.reference_density()
        return complex((self.values * g).sum() * self.cell_volume())

    def mass(self):
        if self.role == ETA:
            return self.eta_integrate().real
        return self.integrate().real

    def _mesh(self, side):
        """Per-axis q (side 0) or p (side 1) coordinates, broadcastable over
        the field's axes."""
        axes = self.axes
        d = len(axes)
        grids = []
        for i, (n, L) in enumerate(axes):
            shape = [1] * (2 * d)
            shape[side * d + i] = n
            grids.append(engine.axis_coords(n, L)[side].reshape(shape))
        return grids

    def q_mesh(self):
        return self._mesh(0)

    def p_mesh(self):
        return self._mesh(1)


def _peak(x):
    """max |x| of a real array, read as max(max x, -min x): no |x| copy."""
    return max(float(x.max()), -float(x.min()))


def _real_with_residue_check(values, tol, what):
    """The real part of `values` as a contiguous array, with a warning when
    the imaginary part exceeds tol.imaginary_residue relative to it.

    A NaN or infinite entry makes the peak or the residue non-finite and
    raises InvalidDensity: such a field is never returned."""
    real = np.ascontiguousarray(values.real)
    scale = max(_peak(real), 1e-30)
    resid = _peak(values.imag) / scale
    if not (math.isfinite(scale) and math.isfinite(resid)):
        raise InvalidDensity(f"{what}: the field has non-finite values")
    if resid > tol.imaginary_residue:
        warnings.warn(f"{what}: relative imaginary residue {resid:.2e}",
                      RuntimeWarning, stacklevel=3)
    return real


def _product_field(T, ndim):
    """Complex Wigner field, with `ndim` axes, of a product T from its parts.

    The lattice map acts axis by axis, so the map of T_1 (x) ... (x) T_k is
    the product of each factor's map, broadcast onto the factor's
    `phase_axes` (docs/math-notes.md, "Products").
    """
    system = T.space
    W = None
    for (lab, s), op in zip(system.factors, T.parts):
        f = engine.density_to_wigner(op.matrix, s.axis_geometry())
        shape = [1] * ndim
        for ax, n in zip(system.phase_axes(lab), f.shape):
            shape[ax] = n
        f = f.reshape(shape)
        W = f if W is None else W * f
    return W


def wigner_from_density(T):
    """Wigner field of a density operator (exact lattice kernel transform).

    A Lebesgue product that records its parts (`hilbert.tensor_many`) is
    mapped factor by factor; every other operator by the full map.
    """
    Tl = _lebesgue(T)
    axes = _space_axes(T.space)
    # a non-finite entry is rejected by the residue check, not by a warning
    with np.errstate(invalid="ignore", over="ignore"):
        if Tl.parts is not None:
            W = _product_field(Tl, 2 * len(axes))
        else:
            W = engine.density_to_wigner(Tl.matrix, axes)
        vals = _real_with_residue_check(W, T.tol, "wigner_from_density")
    return PhaseSpaceField(vals, WIGNER, T.space, "lebesgue", T.tol)


def wigner_from_weyl_function(samples):
    """Wigner field from Weyl-function samples on the dual lattice.

    `samples` is a PhaseSpaceField with role weyl_function_samples (as
    `weyl_samples_field` makes); anything else, a raw array included, raises
    GridMismatch.
    """
    if not (isinstance(samples, PhaseSpaceField)
            and samples.role == WEYL_SAMPLES):
        raise GridMismatch(f"wigner_from_weyl_function needs a {WEYL_SAMPLES} "
                           "PhaseSpaceField")
    with np.errstate(invalid="ignore", over="ignore"):
        W = engine.chi_to_wigner(samples.values, samples.axes)
        out = _real_with_residue_check(W, samples.tol,
                                       "wigner_from_weyl_function")
    return PhaseSpaceField(out, WIGNER, samples.space, "lebesgue", samples.tol)


def weyl_samples_field(T):
    """Weyl-function samples of T as a dual-lattice field."""
    chi = engine.density_to_chi(_lebesgue(T).matrix, _space_axes(T.space))
    return PhaseSpaceField(chi, WEYL_SAMPLES, T.space, "lebesgue", T.tol)


def inverse_wigner(W, validate=True):
    """Density operator whose Wigner field is W (exact inverse transform).

    A field whose mass is not within normalization_input of 1, NaN and
    infinite masses included, raises NotNormalized. With validate=True the
    Hermitian part T is checked by `certify_psd`: a Cholesky factorisation
    of T + psd_floor I certifies it, and only a failed one runs eigvalsh,
    raising NonPositiveOperator if the eigenvalue is below -psd_floor. With
    validate=False the operator is returned as is, never silently fixed; its
    `validate()` raises NonPositiveOperator naming lambda_min.
    """
    # an inf - inf sum is a NaN mass, reported below, not a numpy warning
    with np.errstate(invalid="ignore", over="ignore"):
        mass = W.integrate().real
    if not abs(mass - 1.0) <= W.tol.normalization_input:
        raise NotNormalized(f"field integrates to {mass}, expected 1")
    axes = W.axes
    T = engine.wigner_to_density(W.values, axes)
    T = 0.5 * (T + T.conj().T)
    out = DensityOperator(T, LEBESGUE, W.space, W.tol)
    if validate:
        certify_psd(T, W.tol.psd_floor)
    return out


def symplectic_fourier(field_values, axes, sign=+1):
    """Symplectic Fourier transform with kernel exp(sign*i(<p,q'> + <p',q>)).

    Normalized by (2 pi)^-d per application; applying with sign and then -sign
    returns the input exactly (discrete duality of the grids). One centered
    DFT over every axis, then the q-block and p-block of axes swap places: the
    input's p-axes become the output's q'-axes and its q-axes the p'-axes.
    """
    d = len(axes)
    X = engine.centered_dft(field_values, range(2 * d), sign)
    X /= math.prod(n for n, _ in axes)            # (h dp/(2 pi))^d = n^-d
    return X.transpose([*range(d, 2 * d), *range(d), *range(2 * d, X.ndim)])


def eta_density(W):
    """Gaussian-relative density: Phi = W / density(mu x nu), pointwise.

    Raises UnderflowRegion if the reference density falls below the underflow
    floor where |W| is non-negligible (domain too small); where both are
    negligible the quotient is set to zero. A NaN or infinite value in W
    raises InvalidDensity.
    """
    if W.role != WIGNER:
        raise GridMismatch(f"eta_density expects a {WIGNER} field")
    if not math.isfinite(_peak(W.values)):
        raise InvalidDensity("eta_density: the field has non-finite values")
    g = W.reference_density()
    floor = W.tol.underflow_floor
    low = g < floor
    if not low.any():
        return PhaseSpaceField(W.values / g, ETA, W.space, "mu_nu", W.tol)
    bad = low & (np.abs(W.values) > W.tol.underflow_field)
    if bad.any():
        raise UnderflowRegion(
            f"reference density below {floor:g} at {int(bad.sum())} points "
            "with non-negligible W; enlarge the domain")
    vals = np.where(low, 0.0, W.values / np.where(low, 1.0, g))
    return PhaseSpaceField(vals, ETA, W.space, "mu_nu", W.tol)


def eta_to_wigner(phi):
    """Inverse of eta_density: multiply by the reference density."""
    if phi.role != ETA:
        raise GridMismatch(f"expected an {ETA} field")
    return PhaseSpaceField(phi.values * phi.reference_density(), WIGNER,
                           phi.space, "lebesgue", phi.tol)


def pair_expectation(field, symbol):
    """Integral of a symbol against W (Lebesgue) or Phi (against mu x nu)."""
    space = field.space
    d = _total_d(space)
    if isinstance(space, PhaseSpaceSpec):
        G = symbol.evaluate_phase_grid(space)
    else:
        G = symbol.evaluate(field.q_mesh(), field.p_mesh())
        G = np.broadcast_to(G, field.values.shape)
    if field.role == WIGNER:
        return float((G * field.values).sum() * field.cell_volume())
    if field.role == ETA:
        g = field.reference_density()
        return float((G * field.values * g).sum() * field.cell_volume())
    raise GridMismatch(f"cannot pair against a {field.role} field")


def _reduction(space, keep):
    """(dropped phase axes, their cell volume, kept space) of a marginal."""
    if not isinstance(space, CompositeSystem):
        raise UnknownSubsystem("reduction needs a composite-system field")
    kept = space.keep(keep)
    drop = space.phase_axes([lab for lab in space.labels
                             if lab not in kept.labels])
    axes = space.axis_geometry()
    cell = math.prod((2.0 * L / n) * (math.pi / L)
                     for n, L in (axes[i] for i in drop[:len(drop) // 2]))
    return drop, cell, _collapse(kept)


def reduce_wigner(W, keep):
    """Marginal Wigner field of the kept subsystem (quadrature over the rest)."""
    drop, cell, kept_space = _reduction(W.space, keep)
    vals = W.values.sum(axis=drop) * cell
    return PhaseSpaceField(vals, WIGNER, kept_space, "lebesgue", W.tol)


def reduction_square(T, keep, W_kept=None):
    """The reduction commuting square: max |reduce(W[T]) - W[Tr T]|, with
    Tr the partial trace onto `keep`. `W_kept`, when given, is W[Tr T]
    already mapped. The composite field and its reduction are freed on
    return, so a caller looping over snapshots does not hold them."""
    if W_kept is None:
        W_kept = wigner_from_density(partial_trace(T, keep))
    Wred = reduce_wigner(wigner_from_density(T), keep)
    return float(np.abs(Wred.values - W_kept.values).max())


def reduce_eta(phi, keep):
    """Gaussian-relative reduction: eta-average over the dropped factors.

    Phi_1 = integral of Phi against the dropped factors' mu x nu measure,
    the weight-invariant form of the reduced-density display; it equals
    eta_density(reduce_wigner(eta_to_wigner(Phi))) by construction.
    """
    if phi.role != ETA:
        raise GridMismatch(f"expected an {ETA} field")
    drop, cell, kept_space = _reduction(phi.space, keep)
    num = (phi.values * phi.reference_density()).sum(axis=drop) * cell
    reduced_w = PhaseSpaceField(num, WIGNER, kept_space, "lebesgue", phi.tol)
    return eta_density(reduced_w)


def purity_estimate(W):
    """(2 pi)^d integral of W^2; equals tr T^2 for faithful states."""
    d = _total_d(W.space)
    return float((2.0 * math.pi) ** d * (W.values ** 2).sum() * W.cell_volume())


def total_variation(phi_a, phi_b):
    """TV distance between two eta densities: integral |a - b| d(mu x nu)."""
    g = phi_a.reference_density()
    diff = np.abs(np.asarray(phi_a.values) - np.asarray(phi_b.values))
    return float((diff * g).sum() * phi_a.cell_volume())
