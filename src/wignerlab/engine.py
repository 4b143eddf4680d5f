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

Every exp(+-i p q) sum is an FFT: on this lattice
p_a q_l = (2 pi/n)(a - n/2)(l - n/2), so centered_dft is a plain DFT between
two checkerboards and a map costs n^(2d) log n rather than the n^(2d+1) of
dense phase matrices.

density_to_wigner and wigner_to_density do not pass through chi. Along each
axis the DFT l -> a, the cocycle and the DFT a -> q collapse: for an even
translation s = beta - n/2 they are one gather, T[m - s/2, m + s/2], and for
an odd s a half-cell shift of the gathered column; one DFT over the beta axes
finishes the map (docs/math-notes.md, "The direct map"). The per-n index and
phase tables are built once, on first use, and are read-only.
"""

import functools
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


def _frozen(a):
    a.flags.writeable = False
    return a


def _pairs(d):
    """Axis order (x1, y1, ..., xd, yd) of an (x1..xd, y1..yd) tensor."""
    return [k for i in range(d) for k in (i, d + i)]


def _unpairs(d):
    """Axis order (x1..xd, y1..yd) of an (x1, y1, ..., xd, yd) tensor."""
    return [*range(0, 2 * d, 2), *range(1, 2 * d, 2)]


def _paired_copy(x, dims, scale):
    """scale * x as a new complex tensor with its axes in pair order."""
    out = np.empty([k for n in dims for k in (n, n)], dtype=complex)
    np.multiply(np.reshape(x, dims + dims), scale,
                out=out.transpose(_unpairs(len(dims))))
    return out


@functools.lru_cache(maxsize=None)
def _diag_index(n):
    """Flat (bra n + ket) index of the (l, beta) diagonal gather.

    Column beta holds the translation s = beta - n/2 (b = s h): the diagonal
    T[u, u + s] that S_b connects. Row l reads
    T[l - ceil(s/2), l + floor(s/2)], so an even-s column is centred,
    T[l - s/2, l + s/2].
    """
    s = np.arange(n) - n // 2
    lo = (s + 1) // 2
    l = np.arange(n)[:, None]
    return _frozen((((l - lo) % n) * n + (l + s - lo) % n).ravel())


@functools.lru_cache(maxsize=None)
def _scatter_index(n):
    """The inverse permutation of _diag_index(n): the scatter, as a gather."""
    inv = np.empty(n * n, dtype=np.intp)
    inv[_diag_index(n)] = np.arange(n * n)
    return _frozen(inv)


@functools.lru_cache(maxsize=None)
def _half_cell(n):
    """exp(i pi j / n) for the centered momentum index j = -n/2 .. n/2 - 1.

    The cocycle exp(i p_a q_b / 2) = exp(i pi j s / n) is a shift of
    floor(s/2) cells along l, which the gather makes, times this phase on
    the odd-s columns: the half cell no integer shift can make.
    """
    return _frozen(np.exp(1j * math.pi / n * (np.arange(n) - n // 2)))


def _take_pairs(X, dims, inverse=False):
    """Gather every (row, column) axis pair of the paired tensor X.

    Output pair i at (l, beta) is input pair i at flat index
    _diag_index(n_i)[l n_i + beta]; inverse=True reads at the inverse
    permutation instead, which undoes the gather.
    """
    for i, n in enumerate(dims):
        index = _scatter_index(n) if inverse else _diag_index(n)
        X = X.reshape(math.prod(dims[:i]) ** 2, n * n, -1).take(index, axis=1)
    return X.reshape([k for n in dims for k in (n, n)])


def _odd_columns(V, dims, i):
    """Writable view of pair i's odd-s columns in the paired tensor V."""
    n = dims[i]
    V = V.reshape((math.prod(dims[:i]) ** 2, n, n, -1), copy=False)
    return V[:, :, (n // 2 + 1) % 2::2]


def _shift_odd_columns(V, dims, sign):
    """Shift the odd-s columns of every (l, beta) pair of V by half a cell
    along l and negate them, in place; sign = -1 applies the inverse.

    The negation is the (-1)^s that the centered DFT over beta puts on
    these columns."""
    for i, n in enumerate(dims):
        odd = _odd_columns(V, dims, i)
        phase = -np.fft.ifftshift(_half_cell(n))
        np.fft.fft(odd, axis=1, out=odd)
        odd *= (phase if sign > 0 else phase.conj())[:, None, None]
        np.fft.ifft(odd, axis=1, out=odd)


def _checkers(dims, scale):
    """scale * prod_i (-1)^(k_i) on the (k1..kd) grid."""
    c = np.asarray(scale)
    for n in dims:
        c = np.multiply.outer(c, 1.0 - 2.0 * (np.arange(n) % 2))
    return c


def _cell(axes):
    """Phase-space cell volume da db = 2 pi/n, multiplied over the axes."""
    return math.prod(2.0 * math.pi / n for n, _ in axes)


def density_to_chi(T, axes):
    """Weyl-function samples of a density tensor.

    Per axis: the diagonal gather, the DFT along l, and the half-cell phase
    on the odd-s columns; with the gather's shift of floor(s/2) cells that
    is the cocycle exp(i p_a q_b / 2).

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
    dims = [n for n, _ in axes]
    d = len(dims)
    X = np.asarray(T, dtype=complex).reshape(dims + dims).transpose(_pairs(d))
    chi = centered_dft(_take_pairs(X, dims), range(0, 2 * d, 2), -1)  # l -> a
    for i, n in enumerate(dims):
        odd = _odd_columns(chi, dims, i)
        odd *= _half_cell(n)[:, None, None]
    return chi.transpose(_unpairs(d))


def chi_to_wigner(chi, axes):
    """Wigner field from Weyl-function samples (an exact bijection).

    One centered DFT over every axis: a-axes go to q, b-axes go to p.
    """
    W = centered_dft(chi, range(2 * len(axes)), +1)
    W *= _cell(axes) / (2.0 * math.pi) ** (2 * len(axes))
    return W


def density_to_wigner(T, axes):
    """Wigner field of a density tensor: chi_to_wigner(density_to_chi(T)),
    without the Weyl samples in between.

    Along each axis the DFT l -> a, the cocycle and the DFT a -> q collapse:
    an even-s column of the diagonal gather is already the row m = l, and an
    odd-s column needs only a half-cell shift along l. Then one DFT over the
    beta axes; its checkerboards are folded into the odd-s shift and into
    the final scale (-1)^k.
    """
    dims = [n for n, _ in axes]
    d = len(dims)
    X = np.asarray(T, dtype=complex).reshape(dims + dims).transpose(_pairs(d))
    V = _take_pairs(X, dims)
    _shift_odd_columns(V, dims, +1)
    W = np.empty(dims + dims, dtype=complex)
    np.fft.ifftn(V, axes=range(1, 2 * d, 2), norm="forward",
                 out=W.transpose(_pairs(d)))
    W *= _checkers(dims, (2.0 * math.pi) ** -d)
    return W


def wigner_to_density(W, axes):
    """Inverse of density_to_wigner, as an (N, N) matrix: the DFT over p,
    the inverse half-cell shift of the odd-s columns, then the scatter."""
    dims = [n for n, _ in axes]
    d = len(dims)
    V = _paired_copy(W, dims, _checkers(dims, (2.0 * math.pi) ** d))
    np.fft.fftn(V, axes=range(1, 2 * d, 2), norm="forward", out=V)
    _shift_odd_columns(V, dims, -1)
    T = _take_pairs(V, dims, inverse=True)
    N = math.prod(dims)
    return T.transpose(_unpairs(d)).reshape(N, N)


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


def apply_along_axis(M, x, axis, out=None):
    """M applied to every 1-D slice of x along `axis`: one (batched) GEMM.

    The last axis is one product x.reshape(-1, n) @ M.T (a C-contiguous
    operand when M is stored in Fortran order), the first one product
    M @ x.reshape(n, -1), and any other axis M @ x.reshape(pre, n, post).
    x is an ndarray. `out`, when given, is a C-contiguous array of x's shape
    that does not overlap x; the product is written there and it is returned.
    """
    shape = x.shape
    n = shape[axis]
    if axis == x.ndim - 1:
        x = x.reshape(-1, n)
        a, b = x, M.T
    else:
        # a 2-D operand skips matmul's batch loop (math-notes § Time stepping)
        x = (x.reshape(n, -1) if axis == 0
             else x.reshape(math.prod(shape[:axis]), n, -1))
        a, b = M, x
    if out is None:
        return np.matmul(a, b).reshape(shape)
    np.matmul(a, b, out=out.reshape(x.shape, copy=False))
    return out
