"""Independent oracles: finite differences of analytic functions, explicit
Weyl unitaries, the centered DFT by one sign table, the lattice maps through
the Weyl samples, permutation-matrix and Kronecker-product embeddings, and a
partial trace with hand-built einsum letters.
Deliberately written with different machinery than the library paths they
check."""

import math

import numpy as np

from wignerlab.engine import (SpectralDifferentiator, axis_coords,
                              chi_to_wigner)
from wignerlab.errors import FactorMismatch, UnknownSubsystem
from wignerlab.feedback import FEEDBACK, GENERAL, NO_FEEDBACK, FeedbackVerdict
from wignerlab.hilbert import (LEBESGUE, DensityOperator, _lebesgue,
                               exact_propagate, space_dim)
from wignerlab.moyal import (FD4, bracket_pairs, eta_moyal_rhs, moyal_rhs,
                             sine_coefficient, wick_polynomial)
from wignerlab.states import oscillator_basis
from wignerlab.tolerances import DEFAULT_TOL
from wignerlab.weyl import HamiltonianSymbol, weyl_quantize
from wignerlab.wigner import ETA


def fd_partial(fun, point, orders, eps):
    """Mixed partial derivative of an analytic function by nested central
    4th-order differences, one axis at a time."""
    point = np.asarray(point, dtype=float)

    def d_axis(g, axis, order):
        if order == 0:
            return g

        def g1(x):
            e = np.zeros_like(x)
            e[axis] = eps
            return (g(x - 2 * e) - 8 * g(x - e) + 8 * g(x + e)
                    - g(x + 2 * e)) / (12 * eps)

        return d_axis(g1, axis, order - 1)

    g = fun
    for ax, o in enumerate(orders):
        g = d_axis(g, ax, o)
    return g(point)


def fd_bracket(psi_fun, h_fun, n, d, points, eps=0.015):
    """{Psi, H}^(n) at phase points via finite differences of the analytic
    functions, using the multinomial contraction expansion directly."""
    out = []
    for x in points:
        total = 0.0
        for k, m, mult, sign in bracket_pairs(n, d):
            dpsi = fd_partial(psi_fun, x, tuple(k) + tuple(m), eps)
            dh = fd_partial(h_fun, x, tuple(m) + tuple(k), eps)
            total += mult * sign * dpsi * dh
        out.append(total)
    return np.asarray(out)


def term_by_term_rhs(values, gen, eta=False):
    """The Moyal right-hand side one bracket term at a time.

    One full complex fftn of the field, then one full ifftn per derivative
    (SpectralDifferentiator), summed term by term; on the finite-difference
    scheme each derivative is fd4_by_rolls, axis by axis. With eta=True every
    derivative of Phi g / g is expanded by the Leibniz rule with Wick fields
    evaluated from their polynomials. No bracket plan is involved.
    """
    spec = gen.spec
    d = spec.d
    q, p, h, dp = axis_coords(spec.n_per_axis, spec.half_width)
    spacings = [h] * d + [dp] * d
    if gen.scheme == FD4:
        def derivative(orders):
            out = np.asarray(values, float)
            for ax, o in enumerate(orders):
                if o:
                    out = fd4_by_rolls(out, ax, spacings[ax], o)
            return out
    else:
        derivative = SpectralDifferentiator(np.asarray(values, float),
                                            spacings).derivative
    mesh = spec.grid.phase_mesh()

    def wick(rest):
        directions = []
        for ax, count in enumerate(rest):
            directions += [list(np.eye(2 * d)[ax])] * count
        poly = wick_polynomial(spec.mu_nu.precision, directions)
        return sum(c * math.prod(x ** a for x, a in zip(mesh, alpha))
                   for alpha, c in poly.items())

    out = np.zeros(np.shape(values))
    for j in range(1, gen.truncation + 1):
        for k, m, mult, sign in bracket_pairs(2 * j - 1, d):
            hf = gen._fields.get((k, m))
            if hf is None:
                continue
            if not eta:
                dpsi = derivative(k + m)
            else:
                dpsi = 0.0
                for sub in np.ndindex(*[a + 1 for a in k + m]):
                    cmul = np.prod([math.comb(a, b) for a, b in zip(k + m, sub)])
                    rest = tuple(a - b for a, b in zip(k + m, sub))
                    dpsi = dpsi + cmul * derivative(sub) * wick(rest)
            out = out + sine_coefficient(j) * mult * sign * dpsi * hf
    return out


def textbook_rk4(field0, gen, run):
    """evolve() as the textbook RK4 loop, every stage and update allocating.

    Each step is values + (dt/6)(k1 + 2 k2 + 2 k3 + k4) over moyal_rhs, or
    eta_moyal_rhs for an eta field, called on bare arrays. The event times
    are evolve's: steps land on every snapshot time and on the start of
    every later segment interval, a fractional step closing each gap. The
    diagnostics are written out in their defining formulas. No guard is
    checked. Returns ([(t, values)], {column: array}).
    """
    eta = field0.role == ETA
    rhs = eta_moyal_rhs if eta else moyal_rhs
    g = field0.reference_density() if eta else None
    cell = field0.cell_volume()
    d = len(field0.axes)
    times = run.snapshot_times()
    intervals = gen.symbol.intervals(times[-1])
    starts = {start: terms for start, _, terms in intervals[1:]}
    gen.select(intervals[0][2])
    diags = {k: [] for k in ("t", "mass", "l2", "energy", "min_w",
                             "purity_est")}

    def record(t, vals):
        w = vals * g if eta else vals
        diags["t"].append(t)
        diags["mass"].append(float(w.sum() * cell))
        diags["l2"].append(float(math.sqrt((w ** 2).sum() * cell)))
        diags["energy"].append(float((gen.energy_field() * w).sum() * cell))
        diags["min_w"].append(float(w.min()))
        diags["purity_est"].append(
            float((2 * math.pi) ** d * (w ** 2).sum() * cell))

    values = np.array(field0.values, dtype=float)
    snapshots = [(0.0, values.copy())]
    record(0.0, values)
    t = 0.0
    for target in sorted(starts.keys() | times[1:]):
        start, steps = t, 0
        while t < target - 1e-12:
            gap = target - t
            dt = run.dt if gap > run.dt - 1e-12 else gap
            k1 = rhs(values, gen)
            k2 = rhs(values + 0.5 * dt * k1, gen)
            k3 = rhs(values + 0.5 * dt * k2, gen)
            k4 = rhs(values + dt * k3, gen)
            values = values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            steps += 1
            t = start + steps * run.dt
            if t > target - 1e-12:
                t = target
            record(t, values)
        if target in starts:
            gen.select(starts[target])
        if target in times:
            snapshots.append((t, values.copy()))
    return snapshots, {k: np.asarray(v) for k, v in diags.items()}


def stepping_oracle(T0, symbol, run):
    """von_neumann_oracle for a scheduled symbol, stepped from event to
    event: the events are the snapshot times and the segment starts in
    (0, t_end), the segment of each step is the last one started by its
    midpoint, its H gets one eigh, and T steps by exact_propagate. Returns
    [(t, DensityOperator)] at the snapshot times."""
    times = run.snapshot_times()
    bounds = {t0 for t0, _ in symbol.schedule if 0.0 < t0 < run.t_end}
    out = []
    T, t_prev, terms = _lebesgue(T0).matrix, 0.0, None
    for t in sorted(set(times) | bounds):
        mid = 0.5 * (t_prev + t)
        active = [ts for t0, ts in symbol.schedule if t0 <= mid][-1]
        if active != terms:
            terms = active
            evals, evecs = np.linalg.eigh(weyl_quantize(
                HamiltonianSymbol(terms, d=symbol.d), T0.space))
        T = exact_propagate(T, evals, evecs, t - t_prev)
        t_prev = t
        if t in times:
            out.append((t, DensityOperator(T, LEBESGUE, T0.space, T0.tol)))
    return out


def gemm_along_axis(M, x, axis, out=None):
    """M along `axis` of x as the fill-and-scratch kernel multiplied, before
    engine.apply_matrix and its blocks of engine._ROWS: the last axis as one
    x.reshape(-1, n) @ M.T, any other as one batched
    M @ x.reshape(pre, n, post), the first with a batch of one."""
    shape = x.shape
    n = shape[axis]
    if axis == x.ndim - 1:
        x = x.reshape(-1, n)
        a, b = x, M.T
    else:
        x = x.reshape(math.prod(shape[:axis]), n, -1)
        a, b = M, x
    if out is None:
        return np.matmul(a, b).reshape(shape)
    np.matmul(a, b, out=out.reshape(x.shape, copy=False))
    return out


def fill_and_scratch_apply(plan, values, out):
    """BracketPlan.apply in its fill-and-scratch form: `out` starts from
    fill(0.0), or from the zero-order product, and every term is computed in
    one scratch field allocated per call, weighted and added to `out`."""
    if plan.zero is None:
        out.fill(0.0)
    else:
        np.multiply(values, plan.zero, out=out)
    scratch = np.empty(values.shape) if plan.terms else None
    for head, last, M, weight in plan.terms:
        dv = values
        for ax, Mh in head:
            dv = gemm_along_axis(Mh, dv, ax)
        gemm_along_axis(M, dv, last, out=scratch)
        scratch *= weight
        out += scratch
    return out


def rfft_derivative(x, axis, spacing, order):
    """One-axis spectral derivative by an rfft/irfft pair: the multiplier
    (i k)^order on the rfft layout, its Nyquist bin zeroed for odd orders.
    This is the bracket plan's derivative from before it became a dense
    matrix, kept as the reference for engine.derivative_matrix."""
    n = np.shape(x)[axis]
    m = (1j * 2.0 * math.pi * np.fft.rfftfreq(n, d=spacing)) ** order
    if order % 2:
        m[-1] = 0.0
    shape = [1] * np.ndim(x)
    shape[axis] = -1
    return np.fft.irfft(np.fft.rfft(x, axis=axis) * m.reshape(shape), n,
                        axis=axis)


_FD4_STENCIL = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0


def fd4_by_rolls(field, axis, spacing, order):
    """Repeated 4th-order periodic central first differences along one axis,
    one np.roll per stencil entry: the reference for engine.fd4_matrix."""
    out = np.asarray(field, dtype=float)
    for _ in range(order):
        acc = np.zeros_like(out)
        for shift, w in zip((-2, -1, 1, 2), (_FD4_STENCIL[0], _FD4_STENCIL[1],
                                             _FD4_STENCIL[3], _FD4_STENCIL[4])):
            acc += w * np.roll(out, -shift, axis=axis)
        out = acc / spacing
    return out


def chi_by_explicit_unitaries(T, spec):
    """Weyl-function samples via explicit matrix products (independent of the
    library's diagonal-gather fast path)."""
    n = spec.n_per_axis
    q = spec.grid.positions
    p = spec.grid.momenta
    chi = np.zeros((n, n), dtype=complex)
    eye = np.eye(n)
    for beta in range(n):
        k = beta - n // 2
        S = np.roll(eye, -k, axis=1)          # S[l, l-k] = 1: shift by q_beta
        for alpha in range(n):
            a = p[alpha]
            U = np.exp(0.5j * a * q[beta]) * np.diag(np.exp(-1j * a * q)) @ S
            chi[alpha, beta] = np.sum(T * U.T)
    return chi


# --- the centered DFT with its checkerboards as one sign table ------------

def centered_dft_by_table(x, axes, sign):
    """The centered DFT with both checkerboards as one +-1 table over the
    transformed axes, applied by a broadcast product: the reference that
    engine.centered_dft matches bit for bit without building the table.
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


# --- the lattice maps through the Weyl samples, as they were before the
# direct map: per-call diagonal index pairs and an n x n cocycle table ---

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


def density_to_chi_by_cocycle(T, axes):
    """Weyl-function samples: per axis the diagonal gather, the DFT along l
    and the full cocycle table exp(i p_a q_b / 2)."""
    d = len(axes)
    dims = [n for n, _ in axes]
    X = np.asarray(T, dtype=complex).reshape(dims + dims)
    for i, (n, _) in enumerate(axes):
        A = np.moveaxis(X, (i, d + i), (0, 1))[_diag_index(n)]    # (l, beta, rest)
        X = np.moveaxis(A, (0, 1), (i, d + i))
    chi = centered_dft_by_table(X, range(d), -1)                  # l -> a
    for i, (n, _) in enumerate(axes):
        chi *= _cocycle(2 * d, i, n, +1)
    return chi


def chi_to_density_by_cocycle(chi, axes):
    """Inverse of density_to_chi_by_cocycle."""
    d = len(axes)
    C = np.multiply(chi, 1.0 / math.prod(n for n, _ in axes), dtype=complex)
    for i, (n, _) in enumerate(axes):
        C *= _cocycle(2 * d, i, n, -1)
    G = centered_dft_by_table(C, range(d), +1)                    # a -> l
    del C                       # release it before the scatter allocates T
    for i, (n, _) in enumerate(axes):
        G = np.moveaxis(G, (i, d + i), (0, 1))                    # (l, beta, rest)
        T = np.empty_like(G)
        T[_diag_index(n)] = G
        G = np.moveaxis(T, (0, 1), (i, d + i))
    return G


def wigner_to_chi(W, axes):
    """Weyl-function samples of a Wigner field: the inverse of
    engine.chi_to_wigner, one centered DFT over every axis."""
    C = centered_dft_by_table(W, range(2 * len(axes)), -1)
    C *= math.prod(2.0 * math.pi / n for n, _ in axes)
    return C


def density_to_wigner_by_chi(T, axes):
    """The Wigner field through the Weyl samples: the reference for the
    direct map engine.density_to_wigner."""
    return chi_to_wigner(density_to_chi_by_cocycle(T, axes), axes)


def wigner_to_density_by_chi(W, axes):
    """The inverse through the Weyl samples: the reference for
    engine.wigner_to_density."""
    dims = [n for n, _ in axes]
    N = int(np.prod(dims))
    return chi_to_density_by_cocycle(wigner_to_chi(W, axes), axes).reshape(N, N)


def operator_with_min_eigenvalue(spec, lam_min):
    """Unit-trace V diag(lam) V^H on the four lowest oscillator modes, with
    lam = (0.6, 0.3, 0.1 - lam_min, lam_min) and zero on the rest of the grid.

    The modes are orthonormal eigh columns, so lam_min is the operator's
    smallest eigenvalue to round-off; no PSD check is made on the way.
    """
    _, V = oscillator_basis(spec, 4)
    lam = np.array([0.6, 0.3, 0.1 - lam_min, lam_min])
    return DensityOperator((V * lam) @ V.conj().T, LEBESGUE, spec, spec.tol)


def state_inner(a, b):
    """<a, b> of two grid states in one representation: the grid sum of
    conj(a) b weighted by the position cell, times the reference density mu
    in the Gaussian representation."""
    assert a.rep == b.rep
    spec = a.space
    w = spec.grid.position_cell
    if a.rep == "gaussian":
        w = w * spec.mu_density_grid().ravel()
    return complex(np.sum(np.conj(a.values) * b.values * w))


def reported_eigenvalue(exc):
    """The eigenvalue a NonPositiveOperator message carries."""
    return float(str(exc).split("eigenvalue ")[1].split()[0])


def embed_by_permutation(op, positions, dims):
    """Identity-padded embedding built from an explicit permutation matrix."""
    k = len(dims)
    rest = [i for i in range(k) if i not in positions]
    order = list(positions) + rest
    d_rest = int(np.prod([dims[i] for i in rest])) if rest else 1
    big = np.kron(op, np.eye(d_rest, dtype=complex))
    D = int(np.prod(dims))
    perm = np.zeros(D, dtype=int)
    for flat in range(D):
        idx = [0] * k
        r = flat
        for i in reversed(range(k)):
            idx[i] = r % dims[i]
            r //= dims[i]
        pos = 0
        for i in order:
            pos = pos * dims[i] + idx[i]
        perm[flat] = pos
    P = np.zeros((D, D))
    P[np.arange(D), perm] = 1.0
    return P @ big @ P.T


def kron_embed_operator(op, on_labels, layout):
    """Identity padding by a Kronecker product with I_rest, then a transposed
    copy into layout order: the reference for the in-place embedding."""
    if isinstance(on_labels, str):
        on_labels = (on_labels,)
    labels = layout.labels
    missing = set(on_labels) - set(labels)
    if missing:
        raise UnknownSubsystem(f"unknown subsystem(s) {sorted(missing)}")
    dims = {r: space_dim(layout.roles[r]) for r in labels}
    d_on = int(np.prod([dims[r] for r in on_labels]))
    op = np.asarray(op, dtype=complex)
    if op.shape != (d_on, d_on):
        raise FactorMismatch(
            f"operator shape {op.shape} != ({d_on}, {d_on}) for {on_labels}")
    rest = [r for r in labels if r not in set(on_labels)]
    d_rest = int(np.prod([dims[r] for r in rest])) if rest else 1
    big = np.kron(op, np.eye(d_rest, dtype=complex))
    # permute from (on_labels..., rest...) order to layout order
    order = list(on_labels) + rest
    perm = [order.index(r) for r in labels]
    k = len(labels)
    shaped = big.reshape([dims[r] for r in order] * 2)
    shaped = shaped.transpose(perm + [k + i for i in perm])
    D = layout.dim
    return shaped.reshape(D, D)


def letter_loop_partial_trace(T, keep):
    """Partial trace with its einsum letters built in a loop over the
    factors: the reference for `CompositeSystem.einsum_subscripts`."""
    sys = T.space
    if isinstance(keep, str):
        keep = (keep,)
    kept_sys = sys.keep(keep)
    dims = sys.dims
    k = len(dims)
    m = T.matrix.reshape(dims + dims)
    keep_idx = [sys.index_of(lab) for lab in sys.labels if lab in set(keep)]
    letters = "abcdefghijklmnopqrstuvwxyz"
    bra = list(letters[:k])
    ket = []
    out_bra, out_ket = [], []
    for i in range(k):
        if i in keep_idx:
            ket.append(letters[k + i])
            out_bra.append(bra[i])
            out_ket.append(letters[k + i])
        else:
            ket.append(bra[i])
    expr = "".join(bra) + "".join(ket) + "->" + "".join(out_bra) + "".join(out_ket)
    red = np.einsum(expr, m)
    nk = int(np.prod([dims[i] for i in keep_idx]))
    space = kept_sys.factors[0][1] if len(kept_sys.factors) == 1 else kept_sys
    return DensityOperator(red.reshape(nk, nk), T.rep, space, T.tol)


def kron_sum_block(cfg, layout, labels):
    """Sum of the factor Hamiltonians on `labels` as Kronecker sums
    kron(out, I) + kron(I, h), a zero block for a factor without one: the
    reference for the embedded plant and controller blocks."""
    out = None
    for lab in labels:
        space = layout.roles[lab]
        sym = cfg.factor_hamiltonians.get(lab)
        h = (weyl_quantize(sym, space) if sym is not None
             else np.zeros((space_dim(space),) * 2, dtype=complex))
        out = h if out is None else (np.kron(out, np.eye(h.shape[0]))
                                     + np.kron(np.eye(out.shape[0]), h))
    return out


def _kron_cut_permuted(K, layout):
    """Reorder the composite so the cut reads (P1 C1) x (P2 C2)."""
    labels = list(layout.labels)
    want = [r for r in ("P1", "C1") if r in labels] + \
           [r for r in ("P2", "C2") if r in labels] + \
           [r for r in labels if r not in ("P1", "P2", "C1", "C2")]
    dims = [space_dim(layout.roles[r]) for r in labels]
    k = len(labels)
    perm = [labels.index(r) for r in want]
    shaped = K.reshape(dims * 2).transpose(perm + [k + i for i in perm])
    d_a = layout.dim_of([r for r in ("P1", "C1") if r in labels])
    d_b = layout.dim // d_a
    return shaped.reshape(layout.dim, layout.dim), d_a, d_b


def kron_classify_coupling(K, layout, tol=DEFAULT_TOL):
    """Least-squares verdict with the fit A (x) I + I (x) B formed by
    Kronecker products and D x D identities: the reference for the one-copy
    classifier. K is taken as given (no hermiticity check)."""
    K = np.asarray(K, dtype=complex)
    Kp, d_a, d_b = _kron_cut_permuted(K, layout)
    D = layout.dim
    K0 = Kp - (np.trace(Kp) / D) * np.eye(D)
    scale = float(np.linalg.norm(K0))
    if scale < 1e-14 * max(float(np.linalg.norm(Kp)), 1.0):
        zero_a = np.zeros((d_a, d_a), dtype=complex)
        zero_b = np.zeros((d_b, d_b), dtype=complex)
        return FeedbackVerdict(NO_FEEDBACK, zero_a, zero_b, 0.0)
    Kn = K0 / scale
    Kt = Kn.reshape(d_a, d_b, d_a, d_b)
    A = np.einsum('ibjb->ij', Kt) / d_b
    B = np.einsum('aiaj->ij', Kt) / d_a
    A -= (np.trace(A) / d_a) * np.eye(d_a)
    B -= (np.trace(B) / d_b) * np.eye(d_b)
    fit = np.kron(A, np.eye(d_b)) + np.kron(np.eye(d_a), B)
    residual = float(np.linalg.norm(Kn - fit))
    a_active = float(np.linalg.norm(A)) > tol.classifier_nonscalar
    b_active = float(np.linalg.norm(B)) > tol.classifier_nonscalar
    if residual < tol.classifier_residual:
        kind = FEEDBACK if (a_active and b_active) else NO_FEEDBACK
    else:
        kind = GENERAL
    return FeedbackVerdict(kind, A * scale, B * scale, residual)


def _fmt(x):
    return f"{x:.17g}"


def field_csv_by_cells(field, path):
    """The field CSV written one grid cell at a time (`np.ndindex` over every
    cell, each coordinate formatted again on every row): the reference for the
    row-block writer's bytes."""
    d = len(field.axes)
    coords = [axis_coords(n, L) for n, L in field.axes]
    qs = [c[0] for c in coords]
    ps = [c[1] for c in coords]
    header = ",".join([f"q{i + 1}" for i in range(d)]
                      + [f"p{i + 1}" for i in range(d)] + ["value"])
    vals = np.asarray(field.values)
    with open(path, "w") as f:
        f.write(header + "\n")
        for idx in np.ndindex(vals.shape):
            row = [qs[i][idx[i]] for i in range(d)]
            row += [ps[i][idx[d + i]] for i in range(d)]
            v = vals[idx]
            cells = [_fmt(x) for x in row]
            if np.iscomplexobj(vals):
                cells.append(_fmt(v.real) + "+" + _fmt(v.imag) + "j")
            else:
                cells.append(_fmt(v))
            f.write(",".join(cells) + "\n")


def diagnostics_csv_by_rows(diagnostics, path):
    """The evolution diagnostics CSV written by its own row loop, in its
    fixed column order: the reference for the series writer's bytes."""
    cols = ["t", "mass", "l2", "energy", "min_w", "purity_est"]
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        n = len(diagnostics["t"])
        for i in range(n):
            f.write(",".join(_fmt(float(diagnostics[c][i])) for c in cols)
                    + "\n")
