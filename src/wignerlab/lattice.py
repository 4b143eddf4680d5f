"""Discretized phase spaces, position/momentum grids, Gaussian reference measures.

A `PhaseSpaceSpec` fixes Q = R^d sampled on a uniform periodic grid of n points
per axis over [-L, L), together with the Gaussian reference measures mu (on Q),
nu (on P, same covariance) and mu x nu (on Q x P). All other modules consume
this geometry. Everything here is immutable after construction and all
operations are pure functions, so values are safe to share across threads.
A spec's density grids are the one exception to "built at construction": each
is computed on first use and then kept, read-only, on that spec instance (so
it is freed with the spec). Two threads may both compute one; both get equal
values.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import _frozen, axis_coords
from .errors import (BadGridSize, InsufficientDomain, NonPositiveCovariance,
                     NonSymmetricCovariance)
from .tolerances import DEFAULT_TOL, TolerancePolicy


@dataclass(frozen=True)
class Grid:
    """Uniform position grid and its discrete-Fourier-dual momentum grid.

    Positions per axis: q_j = -L + j*h with h = 2L/n. Momenta per axis:
    p_m = (m - n/2)*pi/L, centered at zero. h*dp = 2*pi/n, so the unitary
    centered DFT pairs the two grids exactly.
    """

    d: int
    n: int
    L: float

    @property
    def h(self):
        return 2.0 * self.L / self.n

    @property
    def dp(self):
        return math.pi / self.L

    @property
    def positions(self):
        return _frozen(axis_coords(self.n, self.L)[0])

    @property
    def momenta(self):
        return _frozen(axis_coords(self.n, self.L)[1])

    @property
    def position_cell(self):
        return self.h ** self.d

    def position_mesh(self):
        """d arrays broadcastable over the position grid (q1, ..., qd)."""
        axes = [self.positions] * self.d
        return np.meshgrid(*axes, indexing="ij", sparse=True)

    def phase_mesh(self):
        """2d sparse arrays broadcastable over the phase grid (q-axes, p-axes)."""
        axes = [self.positions] * self.d + [self.momenta] * self.d
        return np.meshgrid(*axes, indexing="ij", sparse=True)


@dataclass(frozen=True)
class GaussianMeasure:
    """Centered Gaussian measure with covariance B and normalized density."""

    dim: int
    covariance: np.ndarray
    precision: np.ndarray = field(repr=False)
    log_norm: float

    @classmethod
    def from_covariance(cls, B):
        B = np.asarray(B, dtype=float)
        prec = np.linalg.inv(B)
        sign, logdet = np.linalg.slogdet(B)
        if sign <= 0:
            raise NonPositiveCovariance("covariance must be positive definite")
        log_norm = -0.5 * (B.shape[0] * math.log(2 * math.pi) + logdet)
        return cls(B.shape[0], _frozen(B), _frozen(prec), log_norm)

    def density(self, point):
        """Normalized Gaussian density at one point (shape (dim,))."""
        x = np.asarray(point, dtype=float)
        return math.exp(self.log_norm - 0.5 * float(x @ self.precision @ x))

    def density_mesh(self, mesh):
        """Density over broadcastable coordinate arrays (one per dimension)."""
        quad = 0.0
        for i in range(self.dim):
            for j in range(self.dim):
                quad = quad + self.precision[i, j] * mesh[i] * mesh[j]
        return np.exp(self.log_norm - 0.5 * quad)


@dataclass(frozen=True)
class PhaseSpaceSpec:
    """Validated discretized phase space with its reference measures."""

    d: int
    n_per_axis: int
    half_width: float
    covariance: np.ndarray
    grid: Grid
    mu: GaussianMeasure
    nu: GaussianMeasure
    mu_nu: GaussianMeasure
    tol: TolerancePolicy = DEFAULT_TOL

    @property
    def hilbert_dim(self):
        return self.n_per_axis ** self.d

    def axis_geometry(self):
        """(n, L) per position axis; composite systems concatenate these."""
        return [(self.n_per_axis, self.half_width)] * self.d

    def _kept_grid(self, name, measure, mesh):
        """measure's density over mesh(), computed once per spec, read-only."""
        grid = self.__dict__.get(name)
        if grid is None:
            grid = _frozen(measure.density_mesh(mesh()))
            self.__dict__[name] = grid
        return grid

    def mu_density_grid(self):
        return self._kept_grid("_mu_grid", self.mu, self.grid.position_mesh)

    def mu_nu_density_grid(self):
        return self._kept_grid("_mu_nu_grid", self.mu_nu, self.grid.phase_mesh)

    def __eq__(self, other):
        return (isinstance(other, PhaseSpaceSpec)
                and self.d == other.d
                and self.n_per_axis == other.n_per_axis
                and self.half_width == other.half_width
                and np.array_equal(self.covariance, other.covariance))

    def __hash__(self):
        return hash((self.d, self.n_per_axis, self.half_width,
                     self.covariance.tobytes()))


def box_tail_mass(B, L):
    """Union bound on the Gaussian mass outside [-L, L)^d (marginal tails)."""
    B = np.asarray(B, dtype=float)
    return float(sum(math.erfc(L / math.sqrt(2.0 * B[i, i]))
                     for i in range(B.shape[0])))


def make_phase_space(d, n_per_axis, half_width, covariance, tol=DEFAULT_TOL):
    """Build a validated PhaseSpaceSpec.

    Parameters
    ----------
    d : int
        Degrees of freedom (>= 1).
    n_per_axis : int
        Grid points per position axis; must be a power of two.
    half_width : float
        Position grid spans [-half_width, half_width) per axis.
    covariance : array_like, shape (d, d)
        Covariance B of the reference Gaussian mu; nu uses the same B.

    Raises
    ------
    BadGridSize, NonSymmetricCovariance, NonPositiveCovariance,
    InsufficientDomain
    """
    if d < 1:
        raise BadGridSize(f"d must be >= 1, got {d}")
    n = int(n_per_axis)
    if n < 2 or (n & (n - 1)) != 0:
        raise BadGridSize(f"n_per_axis must be a power of two >= 2, got {n}")
    L = float(half_width)
    if not (L > 0):
        raise InsufficientDomain("half_width must be positive")

    B = np.atleast_2d(np.asarray(covariance, dtype=float))
    if B.shape != (d, d):
        raise NonSymmetricCovariance(f"covariance must be {d}x{d}, got {B.shape}")
    if not np.isfinite(B).all():
        raise NonPositiveCovariance("covariance entries must be finite numbers")
    scale = max(np.abs(B).max(), 1.0)
    # halved first, so that entries near the float maximum cannot overflow
    if np.abs(0.5 * B - 0.5 * B.T).max() > 0.5 * tol.covariance_symmetry * scale:
        raise NonSymmetricCovariance("covariance is not symmetric")
    B = 0.5 * B + 0.5 * B.T
    eigs = np.linalg.eigvalsh(B)
    if eigs.min() <= 0:
        raise NonPositiveCovariance(
            f"covariance must be positive definite (min eigenvalue {eigs.min():g})")

    tail = box_tail_mass(B, L)
    if tail >= tol.domain_tail_mass:
        raise InsufficientDomain(
            f"Gaussian tail mass outside the box is {tail:.3e} "
            f">= {tol.domain_tail_mass:g}; enlarge half_width")
    # nu lives on the momentum box [-n pi/(2L), n pi/(2L)) with the same B
    p_edge = (n // 2 - 1) * math.pi / L
    tail_p = box_tail_mass(B, p_edge)
    if tail_p >= tol.domain_tail_mass:
        raise InsufficientDomain(
            f"momentum-side Gaussian tail mass is {tail_p:.3e} "
            f">= {tol.domain_tail_mass:g}; increase n_per_axis")

    grid = Grid(d, n, L)
    mu = GaussianMeasure.from_covariance(B)
    nu = GaussianMeasure.from_covariance(B)
    B2 = np.zeros((2 * d, 2 * d))
    B2[:d, :d] = B
    B2[d:, d:] = B
    mu_nu = GaussianMeasure.from_covariance(B2)
    return PhaseSpaceSpec(d, n, L, _frozen(B), grid, mu, nu, mu_nu, tol)
