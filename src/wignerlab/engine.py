"""Exact lattice transforms between density matrices, Weyl-function samples,
and Wigner fields.

Conventions (one degree of freedom; axes factorize independently):

    W(h) = exp(-i (a qhat + b phat)),  h = (a, b)
         = exp(i a b / 2) M(exp(-i a q)) S_b          (BCH, [qhat, phat] = i)

where M is pointwise multiplication and S_b translates position by b. On the
lattice a runs over the momentum grid and b over the position grid; there the
operators obey the Heisenberg group law exactly and the n^2 unitaries form an
orthogonal matrix basis, so every map below is an exact linear bijection:

    chi[alpha, beta] = tr(T W(h))                       (density -> samples)
    W = (2 pi)^-2 sum chi exp(+i(a q + b p)) da db      (samples -> Wigner)

with cell volumes da = pi/L, db = 2L/n. The sample tensor lives on the dual
lattice P x Q: the a-axis carries momentum values, the b-axis position values.

Every exp(+-i p q) sum runs through one kernel, centered_dft: on this lattice
p_a q_l = (2 pi/n)(a - n/2)(l - n/2), so each sum is an FFT and a map costs
n^(2d) log n rather than the n^(2d+1) of dense phase matrices.
"""

import math

import numpy as np


def axis_coords(n, L):
    h = 2.0 * L / n
    dp = math.pi / L
    q = -L + h * np.arange(n)
    p = (np.arange(n) - n // 2) * dp
    return q, p, h, dp


def centered_dft(x, axes, sign):
    """sum_k x[..k..] exp(sign i p_j q_k) along each of `axes` (even lengths).

    With p_j q_k = (2 pi/n)(j - n/2)(k - n/2), the kernel factors as
    (-1)^(j + k + n/2) exp(sign 2 pi i jk/n): a plain DFT between two
    checkerboards (the sign form of fftshift/ifftshift), exact for every even
    n. The transform runs in place on one complex copy of x.
    """
    axes = tuple(axes)
    shape = np.shape(x)
    c = np.ones((1,) * len(shape))
    for ax in axes:
        s = np.ones(shape[ax])
        s[1::2] = -1.0
        c = c * s.reshape([-1 if i == ax else 1 for i in range(len(shape))])
    y = np.multiply(x, c, dtype=complex)
    if sign < 0:
        np.fft.fftn(y, axes=axes, out=y)
    else:
        np.fft.ifftn(y, axes=axes, norm="forward", out=y)
    if sum(shape[ax] // 2 for ax in axes) % 2:
        c *= -1.0
    y *= c
    return y


def fourier_matrix(n):
    """Unitary centered DFT: F[m, j] = exp(-i p_m q_j)/sqrt(n)."""
    return centered_dft(np.eye(n), (0,), -1) / math.sqrt(n)


def _diag_index(n):
    """Index pair of the (l, beta) <-> (bra, ket) diagonal gather.

    Entry (l, beta) is T[l - (beta - n/2), l], the entry that S_b with
    b = q_beta connects; the DFT along l then leaves the (a, b) layout.
    """
    l = np.arange(n)[:, None]
    return (l - np.arange(n) + n // 2) % n, l


def _cocycle(ndim, i, n, sign):
    """exp(sign i p_a q_b / 2) on the (a, b) axes (i, ndim/2 + i) of a tensor.

    p_a q_b / 2 = (pi/n)(a - n/2)(b - n/2): the phase is read from a table of
    the 2n distinct values, not evaluated n^2 times.
    """
    j = np.arange(n) - n // 2
    table = np.exp(sign * 1j * math.pi / n * np.arange(2 * n))
    shape = [1] * ndim
    shape[i] = shape[ndim // 2 + i] = n
    return table[np.outer(j, j) % (2 * n)].reshape(shape)


def _cell(axes):
    """Phase-space cell volume da db = 2 pi/n, multiplied over the axes."""
    return math.prod(2.0 * math.pi / n for n, _ in axes)


def density_to_chi(T, axes):
    """Weyl-function samples of a density tensor.

    Per axis: gather the diagonals T[l - (beta - n/2), l], DFT along l, then
    multiply by the cocycle exp(i p_a q_b / 2).

    Parameters
    ----------
    T : ndarray, shape (N, N) or (n1..nd, n1..nd)
        Operator matrix (orthonormal discrete basis) or its tensor reshape.
    axes : list of (n, L)
        Geometry per position axis.

    Returns
    -------
    ndarray, shape (n1..nd, n1..nd)
        chi with a-axes first (momentum-valued), b-axes second.
    """
    d = len(axes)
    dims = [n for n, _ in axes]
    X = np.asarray(T, dtype=complex).reshape(dims + dims)
    for i, (n, _) in enumerate(axes):
        A = np.moveaxis(X, (i, d + i), (0, 1))[_diag_index(n)]    # (l, beta, rest)
        X = np.moveaxis(A, (0, 1), (i, d + i))
    chi = centered_dft(X, range(d), -1)                           # l -> a
    for i, (n, _) in enumerate(axes):
        chi *= _cocycle(2 * d, i, n, +1)
    return chi


def chi_to_density(chi, axes):
    """Inverse of density_to_chi (exact lattice completeness)."""
    d = len(axes)
    C = np.multiply(chi, 1.0 / math.prod(n for n, _ in axes), dtype=complex)
    for i, (n, _) in enumerate(axes):
        C *= _cocycle(2 * d, i, n, -1)
    G = centered_dft(C, range(d), +1)                             # a -> l
    del C                       # release it before the scatter allocates T
    for i, (n, _) in enumerate(axes):
        G = np.moveaxis(G, (i, d + i), (0, 1))                    # (l, beta, rest)
        T = np.empty_like(G)
        T[_diag_index(n)] = G
        G = np.moveaxis(T, (0, 1), (i, d + i))
    return G


def chi_to_wigner(chi, axes):
    """Wigner field from Weyl-function samples; exact inverse of wigner_to_chi.

    One centered DFT over every axis: a-axes go to q, b-axes go to p.
    """
    W = centered_dft(chi, range(2 * len(axes)), +1)
    W *= _cell(axes) / (2.0 * math.pi) ** (2 * len(axes))
    return W


def wigner_to_chi(W, axes):
    C = centered_dft(W, range(2 * len(axes)), -1)
    C *= _cell(axes)
    return C


def density_to_wigner(T, axes):
    return chi_to_wigner(density_to_chi(T, axes), axes)


def wigner_to_density(W, axes):
    dims = [n for n, _ in axes]
    N = int(np.prod(dims))
    return chi_to_density(wigner_to_chi(W, axes), axes).reshape(N, N)


def weyl_unitary_axis(a, b, n, L):
    """exp(-i(a qhat + b phat)) on one axis, spectral translation by b."""
    q, p, h, dp = axis_coords(n, L)
    F = fourier_matrix(n)
    Sb = F.conj().T @ (np.exp(-1j * p * b)[:, None] * F)
    return np.exp(0.5j * a * b) * (np.exp(-1j * a * q)[:, None] * Sb)


def wavenumbers(n, spacing):
    """Spectral wavenumbers matching numpy's fft layout."""
    return 2.0 * math.pi * np.fft.fftfreq(n, d=spacing)


def derivative_multiplier(n, spacing, order):
    """(i k)^order on numpy's rfft layout (k = 0 .. pi/spacing, even n).

    The Nyquist bin of a real field's rfft is real, so an odd-order
    derivative would make it purely imaginary: it is set to zero, which is
    what taking `.real` of a full complex inverse transform does (irfft
    discards that imaginary part too, so the zero only states the rule).
    """
    m = (1j * 2.0 * math.pi * np.fft.rfftfreq(n, d=spacing)) ** order
    if order % 2:
        m[-1] = 0.0
    return m


class SpectralDifferentiator:
    """Mixed partial derivatives of a periodic field via one cached FFT."""

    def __init__(self, field, spacings):
        self.hat = np.fft.fftn(np.asarray(field, dtype=complex))
        self.k = [wavenumbers(field.shape[i], s) for i, s in enumerate(spacings)]
        self.ndim = field.ndim

    def derivative(self, orders):
        out_hat = self.hat
        for ax, o in enumerate(orders):
            if o == 0:
                continue
            shape = [1] * self.ndim
            shape[ax] = -1
            out_hat = out_hat * (1j * self.k[ax]).reshape(shape) ** o
        return np.fft.ifftn(out_hat).real


def derivative_matrix(n, spacing, order):
    """Real n x n matrix D with D @ x the spectral order-th derivative of x.

    Column j is the derivative of the unit vector e_j through rfft, the
    multiplier (i k)^order and irfft, so D applies the same linear operator as
    that transform pair, Nyquist rule included.
    """
    hat = np.fft.rfft(np.eye(n), axis=0)
    return np.fft.irfft(derivative_multiplier(n, spacing, order)[:, None] * hat,
                        n, axis=0)


_FD4_STENCIL = {-2: 1.0 / 12.0, -1: -8.0 / 12.0, 1: 8.0 / 12.0, 2: -1.0 / 12.0}


def fd4_matrix(n, spacing, order):
    """The periodic 4th-order central first difference, to the power order.

    Row i holds (x[i-2] - 8 x[i-1] + 8 x[i+1] - x[i+2]) / (12 spacing), the
    indices taken mod n (stencil entries that wrap onto one index add up).
    """
    S = sum(w * np.roll(np.eye(n), shift, axis=1)
            for shift, w in _FD4_STENCIL.items())
    return np.linalg.matrix_power(S / spacing, order)


def apply_along_axis(M, x, axis):
    """M applied to every 1-D slice of x along `axis`: one (batched) GEMM.

    The last axis is one product x.reshape(-1, n) @ M.T (a C-contiguous
    operand when M is stored in Fortran order); any other axis is
    M @ x.reshape(pre, n, post), a single GEMM when the axis is the first.
    x is an ndarray.
    """
    shape = x.shape
    n = shape[axis]
    if axis == x.ndim - 1:
        return (x.reshape(-1, n) @ M.T).reshape(shape)
    pre = math.prod(shape[:axis])
    return np.matmul(M, x.reshape(pre, n, -1)).reshape(shape)
