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

Every exp(+-i p q) sum is a DFT: on this lattice
p_a q_l = (2 pi/n)(a - n/2)(l - n/2), so centered_dft is a plain DFT between
two checkerboards. The Weyl-sample maps run on it alone: density_to_chi is
the diagonal gathers, one centered DFT over the l axes and the half-cell
phase on the odd-s rows, and chi_to_wigner is one centered DFT over all 2d
axes times the cell factor.

density_to_wigner and wigner_to_density do not pass through chi. Along each
axis the DFT l -> a, the cocycle and the DFT a -> q collapse: for an even
translation s = beta - n/2 they are one gather, T[m - s/2, m + s/2], and for
an odd s a half-cell shift of the gathered row; one DFT over each beta axis
finishes the map (docs/math-notes.md, "The direct map").

This direct pair is a chain of per-axis stages: the gather (a permutation),
the half-cell shift of the odd-s rows, and a DFT. Every stage is written as
its FFTs, and _apply runs it under one size rule: for n <= DENSE_MAX (32)
it is one GEMM with the n x n matrix those FFTs make of the unit vectors,
above it the FFTs themselves. The gather lays every axis pair out as
(beta, l), and the beta passes move each transformed axis to the back, so
every GEMM is a 2-D product or a batch over leading axes, and the field ends
in (q.., p..) order with no transpose copy. The two kernels agree to
roundoff, not bit for bit. The per-n index, phase and matrix tables are
built once, on first use, and are read-only.

gemm_calls is the one GEMM rule, of at most _ROWS rows per call: it lists
the matmul calls of these dense stages, which apply_matrix runs at once, and
of every derivative matrix of the bracket plan (moyal.BracketPlan), which
the plan binds once per buffer set and runs many times.
"""

import functools
import itertools
import math

import numpy as np


def axis_coords(n, L):
    h = 2.0 * L / n
    dp = math.pi / L
    q = -L + h * np.arange(n)
    p = (np.arange(n) - n // 2) * dp
    return q, p, h, dp


def centered_dft(x, axes, sign, out=None):
    """sum_k x[..k..] exp(sign i p_j q_k) along each of `axes` (even lengths).

    With p_j q_k = (2 pi/n)(j - n/2)(k - n/2), the kernel factors as
    (-1)^(j + k + n/2) exp(sign 2 pi i jk/n): a plain DFT between two
    checkerboards (the sign form of fftshift/ifftshift), exact for every even
    n. The transform runs in place on one complex copy of x, made in `out`
    when given (any array of x's shape, x itself included).
    """
    x = np.asarray(x)
    axes = tuple(axes)
    y = np.empty(x.shape, dtype=complex) if out is None else out
    _checkerboard(x, y, axes, 0)
    if sign < 0:
        np.fft.fftn(y, axes=axes, out=y)
    else:
        np.fft.ifftn(y, axes=axes, norm="forward", out=y)
    _checkerboard(y, y, axes, sum(x.shape[ax] // 2 for ax in axes))
    return y


def _checkerboard(src, dst, axes, flip):
    """dst = src (-1)^(flip + the index sum over `axes`), one complex product
    with +-1 per entry.

    The leading axes of `axes` are cut into parity classes, one strided view
    each, and the last takes its signs from an n-vector, so no sign table of
    the field's shape is built. (Parity views of the last axis as well, rows
    with a stride of two, read 0.2-0.3 MB more peak RSS in transform_d1.)
    """
    *lead, last = axes
    signs = _checker(dst.shape[last]).reshape(
        [-1 if i == last else 1 for i in range(dst.ndim)])
    for parity in itertools.product((0, 1), repeat=len(lead)):
        at = [slice(None)] * dst.ndim
        for ax, odd in zip(lead, parity):
            at[ax] = slice(odd, None, 2)
        s = (-signs if (flip + sum(parity)) % 2 else signs).astype(complex)
        np.multiply(src[tuple(at)], s, dtype=complex, out=dst[tuple(at)])


def _checker(n):
    """(-1)^j for j = 0 .. n - 1."""
    return 1.0 - 2.0 * (np.arange(n) % 2)


def fourier_matrix(n):
    """Unitary centered DFT: F[m, j] = exp(-i p_m q_j)/sqrt(n)."""
    return centered_dft(np.eye(n), (0,), -1) / math.sqrt(n)


def _frozen(a):
    """a as a read-only C-contiguous array, made without a copy when a is one.

    A read-only one is returned itself. A writable one is viewed and only the
    view is frozen, so the caller's own array stays writable.
    """
    a = np.ascontiguousarray(a)
    if a.flags.writeable:
        a = a.view()
        a.flags.writeable = False
    return a


# --- per-axis stages of the direct pair --------------------------------------
#
# Each stage is one n-point linear map along axis 1 of (B, n, P) views,
# written as its FFTs: stage(src, dst, n) reads src and writes dst (the two
# may be one array). _apply runs it, dense or by FFT, under the one size rule.

DENSE_MAX = 32  # largest per-axis n whose stages run as one dense GEMM
# Rows per GEMM call. OpenBLAS's threaded GEMM packs the whole tall operand
# of a call; in blocks of 4096 rows that copy stays at 2 MB for n = 32.
_ROWS = 4096


def _shift(src, dst, n):
    """Half a cell along l, negated: the odd-s rows of the direct map.

    The negation is the (-1)^s that the centered DFT over beta puts on these
    rows; _to_p leaves it out.
    """
    np.fft.fft(src, axis=1, out=dst)
    dst *= -np.fft.ifftshift(_half_cell(n))[:, None]
    np.fft.ifft(dst, axis=1, out=dst)


def _unshift(src, dst, n):
    """The inverse of _shift."""
    np.fft.fft(src, axis=1, out=dst)
    dst *= -np.fft.ifftshift(_half_cell(n)).conj()[:, None]
    np.fft.ifft(dst, axis=1, out=dst)


def _to_p(src, dst, n):
    """beta -> p of the direct map: exp(+2 pi i beta k/n) (-1)^k / (2 pi)."""
    np.fft.ifft(src, axis=1, norm="forward", out=dst)
    dst *= (_checker(n) * (2.0 * math.pi) ** -1)[:, None]


def _from_p(src, dst, n):
    """p -> beta, the inverse of _to_p."""
    np.multiply(src, (_checker(n) * (2.0 * math.pi))[:, None], out=dst)
    np.fft.fft(dst, axis=1, norm="forward", out=dst)


@functools.lru_cache(maxsize=None)
def _matrix(stage, n):
    """The n x n matrix of `stage`, its FFTs applied to the unit vectors."""
    M = np.empty((1, n, n), dtype=complex)
    stage(np.eye(n, dtype=complex)[None], M, n)
    return _frozen(M[0])


def gemm_calls(M, src, dst):
    """The GEMM calls of dst = M applied along axis 1 of the (B, n, P) views
    src and dst, which must not overlap: the one GEMM rule, of the lattice
    stages and of the bracket plan's derivatives.

    Returns a tuple of (np.matmul, (a, b, out)) calls over views of src, dst
    and M, valid for as long as those arrays are: bound once, they run any
    number of times. One 2-D product when B or P is 1 (src @ M.T by rows
    when P is 1), else a batch over B. Each call takes at most _ROWS rows of
    the tall operand (the B rows when P is 1, else the P columns), so a
    longer operand is cut into blocks. A block changes no entry's dot
    product: the result is bitwise the one-call product.
    """
    B, n, P = src.shape
    if P == 1:
        src, dst, Mt = src[..., 0], dst[..., 0], M.T
        return tuple((np.matmul, (src[r:r + _ROWS], Mt, dst[r:r + _ROWS]))
                     for r in range(0, B, _ROWS))
    if B == 1:
        src, dst = src[0], dst[0]
    return tuple((np.matmul, (M, src[..., r:r + _ROWS], dst[..., r:r + _ROWS]))
                 for r in range(0, P, _ROWS))


def apply_matrix(M, src, dst):
    """dst = M applied along axis 1 of the (B, n, P) views src and dst: the
    calls of gemm_calls, run once."""
    for f, args in gemm_calls(M, src, dst):
        f(*args)


def _apply(stage, src, dst):
    """dst = stage(src) along axis 1 of the (B, n, P) views src and dst.

    The one size rule of the direct pair: for n <= DENSE_MAX a GEMM with the
    stage's cached matrix (apply_matrix), above it the stage's FFTs.
    """
    n = src.shape[1]
    if n > DENSE_MAX:
        stage(src, dst, n)
    else:
        apply_matrix(_matrix(stage, n), src, dst)


# --- the lattice maps -------------------------------------------------------


def _pairs(d):
    """Axis order (x1, y1, ..., xd, yd) of an (x1..xd, y1..yd) tensor."""
    return [k for i in range(d) for k in (i, d + i)]


def _unpairs(d):
    """Axis order (x1..xd, y1..yd) of an (x1, y1, ..., xd, yd) tensor."""
    return [*range(0, 2 * d, 2), *range(1, 2 * d, 2)]


def _pair_shape(dims):
    """Shape (n1, n1, n2, n2, ...) of a paired tensor."""
    return [k for n in dims for k in (n, n)]


def _targets(out, count):
    """Destinations of `count` out-of-place passes in a row: out and one
    work buffer of its size alternate, so that the last pass writes out."""
    work = np.empty_like(out) if count > 1 else out
    return iter([out if (count - k) % 2 else work for k in range(count)])


def _dense(dims):
    """How many of the axes run their stages as GEMMs."""
    return sum(n <= DENSE_MAX for n in dims)


def _paired(T, dims, targets):
    """T as a complex tensor with its axes in pair order (x1, y1, x2, ...);
    from d = 2 on a copy into the next target."""
    X = np.asarray(T, dtype=complex) if len(dims) == 1 else np.asarray(T)
    X = X.reshape(dims + dims).transpose(_pairs(len(dims)))
    if len(dims) == 1:
        return X
    Y = next(targets)
    np.copyto(Y.reshape(X.shape), X)
    return Y


@functools.lru_cache(maxsize=None)
def _diag_index(n):
    """Flat (bra n + ket) index of the (beta, l) diagonal gather.

    Row beta holds the translation s = beta - n/2 (b = s h): the diagonal
    T[u, u + s] that S_b connects. Column l reads
    T[l - ceil(s/2), l + floor(s/2)], so an even-s row is centred,
    T[l - s/2, l + s/2].
    """
    s = np.arange(n)[:, None] - n // 2
    lo = (s + 1) // 2
    l = np.arange(n)
    table = (((l - lo) % n) * n + (l + s - lo) % n).reshape(-1).copy()
    return _frozen(table)


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
    the odd-s rows: the half cell no integer shift can make.
    """
    return _frozen(np.exp(1j * math.pi / n * (np.arange(n) - n // 2)))


def _take(X, Y, dims, i, index):
    """Y = pair i of the paired tensor X gathered through index(n_i).

    The index tables are read-only views, and numpy's take copies a
    read-only index on every call, so it reads the writable base. mode="clip"
    lets it write into Y directly; every index is in range.
    """
    n = dims[i]
    shape = (math.prod(dims[:i]) ** 2, n * n, -1)
    X.reshape(shape).take(index(n).base, axis=1, out=Y.reshape(shape),
                          mode="clip")
    return Y


def _even_odd(X, dims, i):
    """Views (B, n, P) of pair i's even-s and odd-s rows in the paired
    (beta, l) tensor X."""
    n = dims[i]
    V = X.reshape(math.prod(dims[:i]) ** 2 * (n // 2), 2, n, -1)
    odd = (n // 2 + 1) % 2
    return V[:, 1 - odd], V[:, odd]


def _shift_odd(X, Y, dims, i, stage):
    """Y = X with `stage` applied along l to pair i's odd-s rows. Above
    DENSE_MAX the FFTs run in place and Y is X."""
    even, odd = _even_odd(X, dims, i)
    if Y is not X:
        np.copyto(_even_odd(Y, dims, i)[0], even)
    _apply(stage, odd, _even_odd(Y, dims, i)[1])
    return Y


def _to_back(X, targets, dims, stage):
    """`stage` along every beta axis of the paired (beta, l) tensor X.

    Pass i reads beta_i at the front of what follows l_1 .. l_(i-1) and
    writes its image at the back, so that every GEMM is one 2-D product
    (pass 1) or a batch over l_1 .. l_(i-1), and after d passes the tensor
    is in (l1..ld, k1..kd) order with no transpose copy.
    """
    for i, n in enumerate(dims):
        Y = next(targets)
        B = math.prod(dims[:i])
        _apply(stage, X.reshape(B, n, -1),
               Y.reshape(B, -1, n).transpose(0, 2, 1))
        X = Y
    return X


def density_to_chi(T, axes):
    """Weyl-function samples of a density tensor.

    Per axis: the diagonal gather, the DFT along l, and the half-cell phase
    on the odd-s rows; with the gather's shift of floor(s/2) cells that is
    the cocycle exp(i p_a q_b / 2).

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
    out = np.empty(_pair_shape(dims), dtype=complex)
    targets = _targets(out, (d > 1) + d)
    X = _paired(T, dims, targets)
    for i in range(d):
        X = _take(X, next(targets), dims, i, _diag_index)
    centered_dft(X, range(1, 2 * d, 2), -1, out=X)            # l -> a
    for i, n in enumerate(dims):
        odd = _even_odd(X, dims, i)[1]
        odd *= _half_cell(n)[:, None]
    return X.transpose([*range(1, 2 * d, 2), *range(0, 2 * d, 2)])


def chi_to_wigner(chi, axes):
    """Wigner field from Weyl-function samples (an exact bijection).

    One centered DFT over every axis, the a-axes to q and the b-axes to p,
    times the cell volume da db = 2 pi/n of each axis over (2 pi)^(2d).
    """
    d = len(axes)
    W = centered_dft(chi, range(2 * d), +1)
    W *= (math.prod(2.0 * math.pi / n for n, _ in axes)
          / (2.0 * math.pi) ** (2 * d))
    return W


def density_to_wigner(T, axes):
    """Wigner field of a density tensor: chi_to_wigner(density_to_chi(T)),
    without the Weyl samples in between.

    Along each axis the DFT l -> a, the cocycle and the DFT a -> q collapse:
    an even-s row of the diagonal gather is already the column m = l, and an
    odd-s row needs only a half-cell shift along l. Then one DFT over each
    beta axis. The gather lays every pair out as (beta, l), so pass i of the
    beta transforms reads beta_i at the front of what follows l_1..l_(i-1)
    and writes p_i at the back: after d passes the field is in (q.., p..)
    order.
    """
    dims = [n for n, _ in axes]
    d = len(dims)
    W = np.empty(dims + dims, dtype=complex)
    # the pair-order copy, then per axis a gather, a dense shift, a beta pass
    targets = _targets(W, (d > 1) + 2 * d + _dense(dims))
    X = _paired(T, dims, targets)
    for i in range(d):
        X = _take(X, next(targets), dims, i, _diag_index)
    for i, n in enumerate(dims):
        X = _shift_odd(X, next(targets) if n <= DENSE_MAX else X, dims, i,
                       _shift)
    return _to_back(X, targets, dims, _to_p)


def wigner_to_density(W, axes):
    """Inverse of density_to_wigner, as an (N, N) matrix: the DFT over each
    p axis, last first, the inverse half-cell shift of the odd-s rows, then
    the scatter."""
    dims = [n for n, _ in axes]
    d = len(dims)
    N = math.prod(dims)
    T = np.empty((N, N), dtype=complex)
    targets = _targets(T, (d > 1) + 2 * d + _dense(dims))
    X = np.asarray(W)
    for i in reversed(range(d)):
        n = dims[i]
        Y = next(targets)
        B = math.prod(dims[:i])
        _apply(_from_p, X.reshape(B, -1, n).transpose(0, 2, 1),
               Y.reshape(B, n, -1))
        X = Y
    for i, n in enumerate(dims):
        X = _shift_odd(X, next(targets) if n <= DENSE_MAX else X, dims, i,
                       _unshift)
    for i in range(d):
        X = _take(X, next(targets), dims, i, _scatter_index)
    if d > 1:
        Y = next(targets)
        np.copyto(Y.reshape(dims + dims),
                  X.reshape(_pair_shape(dims))
                  .transpose(_unpairs(d)))
    return T


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
