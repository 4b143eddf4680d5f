"""State factory: oscillator-based recipes on grids and level spaces.

Grid recipes build unit-frequency oscillator states (vacuum, displaced, cat,
thermal) and smooth random mixtures drawn from the low oscillator modes, so
every produced state is localized and band-limited on a well-sized grid.
Analytic Wigner and eta fields for Gaussian recipes double as test oracles
and as well-conditioned initial data for eta-space evolution.
"""

import math

import numpy as np

from . import wigner as wig
from .errors import SpecMismatch
from .hilbert import LEBESGUE, DensityOperator, StateVector, mix, \
    pure_density
from .weyl import HamiltonianSymbol, weyl_quantize

_BASIS_CACHE = {}


def oscillator_basis(spec, count):
    """Lowest eigenstates of the quantized unit oscillator, as grid columns."""
    key = (spec.d, spec.n_per_axis, spec.half_width, spec.covariance.tobytes())
    if key not in _BASIS_CACHE:
        terms = []
        for ax in range(spec.d):
            pq = [0] * spec.d
            pp = [0] * spec.d
            pq[ax] = 2
            terms.append((tuple(pq), tuple([0] * spec.d), 0.5))
            pp[ax] = 2
            terms.append((tuple([0] * spec.d), tuple(pp), 0.5))
        H = weyl_quantize(HamiltonianSymbol(tuple(terms), d=spec.d), spec)
        evals, evecs = np.linalg.eigh(H)
        # read-only: a caller's write would reach every later draw
        evals.flags.writeable = evecs.flags.writeable = False
        _BASIS_CACHE[key] = (evals, evecs)
    evals, evecs = _BASIS_CACHE[key]
    return evals[:count], evecs[:, :count]


def _normalize(values, spec):
    cell = spec.grid.position_cell
    return values / math.sqrt(float(np.sum(np.abs(values) ** 2) * cell))


def ground_state(spec):
    """Unit-oscillator vacuum: psi(q) = pi^(-d/4) exp(-|q|^2 / 2)."""
    mesh = spec.grid.position_mesh()
    quad = sum(np.broadcast_to(m ** 2, (spec.n_per_axis,) * spec.d)
               for m in mesh)
    psi = math.pi ** (-spec.d / 4) * np.exp(-quad / 2.0)
    return StateVector(_normalize(psi.ravel(), spec), LEBESGUE, spec, spec.tol)


def _displacement(spec, x):
    """One displacement per axis: a number is the same on every axis, and a
    vector of another length than d raises SpecMismatch."""
    x = np.asarray(x, float)
    if x.ndim and x.shape != (spec.d,):
        raise SpecMismatch(f"displacement {x.tolist()} has {x.size} "
                           f"component(s), not d = {spec.d}")
    return np.broadcast_to(x, (spec.d,))


def displaced_state(spec, dq, dp):
    """Vacuum displaced to <q> = dq, <p> = dp (a number: on every axis)."""
    dq, dp = _displacement(spec, dq), _displacement(spec, dp)
    mesh = spec.grid.position_mesh()
    quad = 0.0
    phase = 0.0
    for ax in range(spec.d):
        quad = quad + (mesh[ax] - dq[ax]) ** 2
        phase = phase + dp[ax] * mesh[ax]
    psi = math.pi ** (-spec.d / 4) * np.exp(-quad / 2.0 + 1j * phase)
    psi = np.broadcast_to(psi, (spec.n_per_axis,) * spec.d)
    return StateVector(_normalize(psi.ravel(), spec), LEBESGUE, spec, spec.tol)


def cat_state(spec, a, parity="even"):
    """Superposition of +/- a position displacements of the vacuum (d = 1)."""
    if spec.d != 1:
        raise SpecMismatch("cat states are built on one degree of freedom")
    q = spec.grid.positions
    sign = 1.0 if parity == "even" else -1.0
    psi = (np.exp(-(q - a) ** 2 / 2.0) + sign * np.exp(-(q + a) ** 2 / 2.0))
    return StateVector(_normalize(psi.astype(complex), spec), LEBESGUE, spec,
                       spec.tol)


def thermal_state(spec, beta):
    """Gibbs state of the unit oscillator at inverse temperature beta."""
    evals, evecs = oscillator_basis(spec, spec.hilbert_dim)
    w = np.exp(-beta * (evals - evals.min()))
    w /= w.sum()
    T = (evecs * w) @ evecs.conj().T
    return DensityOperator(T, LEBESGUE, spec, spec.tol)


def random_pure(spec, rng, max_quanta=2):
    """Random unit combination of the lowest oscillator modes.

    The default cap of two quanta keeps every draw grid-faithful at the
    default laboratory size: position-side self-correlations at separation
    2L must stay below the strict transform tolerances, which richer
    ensembles only satisfy on larger boxes.
    """
    count = _mode_count(spec, max_quanta)
    _, modes = oscillator_basis(spec, count)
    c = rng.normal(size=count) + 1j * rng.normal(size=count)
    v = modes @ c
    v /= np.linalg.norm(v)
    psi = v / math.sqrt(spec.grid.position_cell)
    return StateVector(psi, LEBESGUE, spec, spec.tol)


def random_mixed(spec, rng, rank=4, max_quanta=2):
    """Random mixture of smooth pure states (grid-faithful by construction)."""
    weights = rng.random(rank) + 0.1
    parts = [(w, pure_density(random_pure(spec, rng, max_quanta)))
             for w in weights]
    return mix(parts)


def _mode_count(spec, max_quanta):
    if spec.d == 1:
        return max_quanta + 1
    # all modes with total quanta <= max_quanta
    return sum(math.comb(k + spec.d - 1, spec.d - 1) for k in range(max_quanta + 1))


# --- level-space recipes ----------------------------------------------------

def level_ground(space):
    v = np.zeros(space.dim, dtype=complex)
    v[0] = 1.0
    return v


def level_coherent(space, alpha):
    """Truncated coherent state exp(alpha a^dagger)|0>, renormalized."""
    k = np.arange(space.dim)
    v = alpha ** k / np.sqrt([math.factorial(int(i)) for i in k])
    v = v.astype(complex)
    return v / np.linalg.norm(v)


def level_thermal(space, beta):
    w = np.exp(-beta * np.arange(space.dim))
    w /= w.sum()
    return np.diag(w).astype(complex)


# --- analytic fields (oracles and eta-evolution initial data) ---------------

def analytic_gaussian_wigner(spec, dq=0.0, dp=0.0):
    """W of a displaced vacuum: pi^-d exp(-|q - dq|^2 - |p - dp|^2)."""
    dq, dp = _displacement(spec, dq), _displacement(spec, dp)
    mesh = spec.grid.phase_mesh()
    quad = 0.0
    for ax in range(spec.d):
        quad = quad + (mesh[ax] - dq[ax]) ** 2 + (mesh[spec.d + ax] - dp[ax]) ** 2
    vals = math.pi ** (-spec.d) * np.exp(-quad)
    vals = np.broadcast_to(vals, (spec.n_per_axis,) * (2 * spec.d))
    return wig.PhaseSpaceField(vals, wig.WIGNER, spec, "lebesgue", spec.tol)


def analytic_gaussian_eta(spec, dq=0.0, dp=0.0):
    """Tame closed form of W/density(mu x nu) for a displaced vacuum, B = I.

    Requires the identity covariance (the closed form below assumes it);
    well-conditioned everywhere, unlike pointwise division of a noisy W.
    """
    if not np.allclose(spec.covariance, np.eye(spec.d)):
        raise SpecMismatch("analytic eta field assumes identity covariance")
    dq, dp = _displacement(spec, dq), _displacement(spec, dp)
    mesh = spec.grid.phase_mesh()
    quad = 0.0
    for ax in range(spec.d):
        quad = quad + (mesh[ax] - 2 * dq[ax]) ** 2 + (mesh[spec.d + ax] - 2 * dp[ax]) ** 2
    amp = 2.0 ** spec.d * math.exp(float(dq @ dq + dp @ dp))
    vals = amp * np.exp(-quad / 2.0)
    vals = np.broadcast_to(vals, (spec.n_per_axis,) * (2 * spec.d))
    return wig.PhaseSpaceField(vals, wig.ETA, spec, "mu_nu", spec.tol)
