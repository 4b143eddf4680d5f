import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import wigner_to_density_by_chi
from wignerlab import (HamiltonianSymbol, PhasePoint, expectation,
                       make_phase_space, pure_density, symplectic_area,
                       weyl_function, weyl_quantize, weyl_unitary)
from wignerlab.errors import (BadSchedule, DegreeTooHigh, DomainOverflow,
                              NonHermitianInput)
from wignerlab.states import displaced_state, ground_state, random_mixed
from wignerlab.tolerances import TolerancePolicy
from wignerlab.weyl import _axis_ops
from wignerlab.wigner import weyl_samples_field


def sym(terms):
    return HamiltonianSymbol(terms, d=1)


def test_quantize_position_is_diagonal(lab64):
    G = weyl_quantize(sym((((1,), (0,), 1.0),)), lab64)
    assert np.abs(G - np.diag(lab64.grid.positions)).max() < 1e-12


def test_quantize_momentum_is_spectral_derivative(lab64):
    G = weyl_quantize(sym((((0,), (1,), 1.0),)), lab64)
    qh, ph = _axis_ops(lab64.n_per_axis, lab64.half_width)
    assert np.abs(G - ph).max() < 1e-10
    # acting on a smooth state it is -i d/dq
    psi = ground_state(lab64).values
    q = lab64.grid.positions
    deriv = -1j * (-q) * psi
    assert np.abs(G @ psi - deriv).max() < 1e-10


def test_quantize_qp_symmetric_ordering(lab64):
    G = weyl_quantize(sym((((1,), (1,), 1.0),)), lab64)
    qh, ph = _axis_ops(lab64.n_per_axis, lab64.half_width)
    assert np.abs(G - (qh @ ph + ph @ qh) / 2).max() < 1e-10


def test_oscillator_spectrum(lab64):
    G = weyl_quantize(sym((((2,), (0,), 0.5), ((0,), (2,), 0.5))), lab64)
    ev = np.linalg.eigvalsh(G)
    assert abs(ev[0] - 0.5) < 1e-6
    gaps = np.diff(ev[:10])
    assert np.abs(gaps - 1.0).max() < 1e-6


_LIN_SPEC = None


def _lin_spec():
    global _LIN_SPEC
    if _LIN_SPEC is None:
        from wignerlab import make_phase_space
        from wignerlab.tolerances import TolerancePolicy
        _LIN_SPEC = make_phase_space(
            1, 32, 7.0, [[1.0]], TolerancePolicy(domain_tail_mass=1e-10))
    return _LIN_SPEC


@settings(max_examples=10, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_quantize_linearity(alpha, beta):
    spec = _lin_spec()
    s1 = sym((((2,), (0,), 1.0),))
    s2 = sym((((0,), (1,), 1.0), ((1,), (0,), 0.5)))
    combined = sym((((2,), (0,), alpha), ((0,), (1,), beta),
                    ((1,), (0,), 0.5 * beta)))
    lhs = weyl_quantize(combined, spec)
    rhs = alpha * weyl_quantize(s1, spec) + beta * weyl_quantize(s2, spec)
    assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, abs(alpha), abs(beta))


def test_quantized_real_symbols_hermitian(lab64, rng):
    for _ in range(5):
        terms = []
        for _ in range(4):
            a, b = rng.integers(0, 4, size=2)
            terms.append(((int(a),), (int(b),), float(rng.normal())))
        G = weyl_quantize(sym(tuple(terms)), lab64)
        scale = max(np.abs(G).max(), 1.0)
        assert np.abs(G - G.conj().T).max() < 1e-10 * scale


def test_degree_cap(lab64):
    with pytest.raises(DegreeTooHigh):
        weyl_quantize(sym((((7,), (0,), 1.0),)), lab64)


def test_sampled_symbol_roundtrip_and_shape_guard(lab64):
    n = lab64.n_per_axis
    mesh = lab64.grid.phase_mesh()
    S = np.broadcast_to(np.exp(-(mesh[0] ** 2 + mesh[1] ** 2)), (n, n))
    G = weyl_quantize(HamiltonianSymbol(sampled=S, d=1), lab64)
    assert np.abs(G - G.conj().T).max() < 1e-10
    one = weyl_quantize(HamiltonianSymbol(
        sampled=np.ones((n, n)), d=1), lab64)
    assert np.abs(one - np.eye(n)).max() < 1e-12
    with pytest.raises(DomainOverflow):
        weyl_quantize(HamiltonianSymbol(sampled=np.ones((n, n // 2)), d=1),
                      lab64)


def test_sampled_symbol_matches_the_weyl_sample_route(rng):
    # the sampled part is wigner_to_density / (2 pi)^d; the reference is the
    # composition through the Weyl samples it replaced
    for spec in (make_phase_space(1, 64, 10.0, [[1.0]]),
                 make_phase_space(2, 16, 5.0, [[1.0, 0.0], [0.0, 1.0]],
                                  TolerancePolicy(domain_tail_mass=1e-3))):
        S = rng.normal(size=(spec.n_per_axis,) * (2 * spec.d))
        G = weyl_quantize(HamiltonianSymbol(sampled=S, d=spec.d), spec)
        ref = wigner_to_density_by_chi(S, spec.axis_geometry()) \
            / (2.0 * math.pi) ** spec.d
        assert np.abs(G - ref).max() <= 1e-14 * np.abs(ref).max()


def test_complex_symbol_rejected():
    with pytest.raises(NonHermitianInput):
        HamiltonianSymbol((((1,), (0,), 1.0 + 1.0j),), d=1)


FREE = (((0,), (2,), 0.5),)
OSC = (((2,), (0,), 0.5), ((0,), (2,), 0.5))


@pytest.mark.parametrize("schedule, index", [
    ((), 0),                                    # no segment
    (((0.05, OSC), (0.0, FREE)), 0),            # out of order: a late start
    (((0.1, OSC),), 0),                         # a late start
    (((0.0, FREE), (0.2, OSC), (0.1, FREE)), 2),  # out of order
    (((0.0, FREE), (0.0, OSC)), 1),             # a repeated start
    (((0.0, FREE), (math.nan, OSC)), 1),
])
def test_bad_schedule_rejected_at_its_segment(schedule, index):
    with pytest.raises(BadSchedule) as err:
        HamiltonianSymbol(schedule=schedule, d=1)
    assert err.value.index == index


def test_schedule_intervals_are_half_open_and_clipped():
    s = HamiltonianSymbol(schedule=((0, FREE), (0.1, OSC), (0.3, FREE)), d=1)
    assert s.intervals(0.5) == [(0.0, 0.1, FREE), (0.1, 0.3, OSC),
                                (0.3, 0.5, FREE)]
    assert s.intervals(0.2) == [(0.0, 0.1, FREE), (0.1, 0.2, OSC)]
    # a segment starting at t_end is not reached; the first always is
    assert s.intervals(0.1) == [(0.0, 0.1, FREE)]
    assert s.intervals(0.0) == [(0.0, 0.0, FREE)]
    assert [s.terms_at(t) for t in (-1.0, 0.0, 0.0999, 0.1, 0.3, 9.0)] == [
        FREE, FREE, FREE, OSC, FREE, FREE]
    static = HamiltonianSymbol(OSC, d=1)
    assert static.intervals(0.5) == [(0.0, 0.5, OSC)]
    assert static.terms_at(0.7) == OSC


def test_weyl_unitary_identity_and_dagger(lab64):
    n = lab64.n_per_axis
    U0 = weyl_unitary(PhasePoint([0.0], [0.0]), lab64)
    assert np.abs(U0 - np.eye(n)).max() < 1e-12
    # matrix-level identities are exact on the dual lattice
    h = PhasePoint([lab64.grid.momenta[37]], [lab64.grid.positions[29]])
    U = weyl_unitary(h, lab64)
    assert np.abs(U @ U.conj().T - np.eye(n)).max() < 1e-10
    assert np.abs(weyl_unitary(-h, lab64) - U.conj().T).max() < 1e-10
    # off-lattice points: unitary exactly, dagger exact on faithful states
    ho = PhasePoint([0.7], [-1.1])
    Uo = weyl_unitary(ho, lab64)
    assert np.abs(Uo @ Uo.conj().T - np.eye(n)).max() < 1e-10
    psi = displaced_state(lab64, 1.0, 0.5).values
    diff = (weyl_unitary(-ho, lab64) - Uo.conj().T) @ psi
    assert np.abs(diff).max() < 1e-10


def test_weyl_unitary_pure_phase_preserves_modulus(lab64):
    # h = (a, 0): multiplication by a position phase
    U = weyl_unitary(PhasePoint([1.3], [0.0]), lab64)
    psi = displaced_state(lab64, 0.5, 0.7).values
    assert np.abs(np.abs(U @ psi) - np.abs(psi)).max() < 1e-12


def test_group_law_on_dual_lattice(lab64, rng):
    q = lab64.grid.positions
    p = lab64.grid.momenta
    n = lab64.n_per_axis
    for _ in range(5):
        i1, i2, j1, j2 = rng.integers(n // 2 - 6, n // 2 + 6, size=4)
        h1 = PhasePoint([p[i1]], [q[j1]])
        h2 = PhasePoint([p[i2]], [q[j2]])
        U1 = weyl_unitary(h1, lab64)
        U2 = weyl_unitary(h2, lab64)
        U12 = weyl_unitary(h1 + h2, lab64)
        # W(h1) W(h2) = exp(i theta) W(h1 + h2), theta = -sym(h1, h2)/2
        theta = -0.5 * symplectic_area(h1, h2)
        assert np.abs(U1 @ U2 - np.exp(1j * theta) * U12).max() < 1e-8


def test_weyl_function_properties(lab64, rng):
    T = random_mixed(lab64, rng)
    assert abs(weyl_function(T, PhasePoint([0.0], [0.0])) - 1.0) < 1e-10
    for _ in range(5):
        h = PhasePoint(rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1))
        val = weyl_function(T, h)
        assert abs(val) <= 1.0 + 1e-10
        assert abs(weyl_function(T, -h) - np.conj(val)) < 1e-10


def test_weyl_function_ground_state_closed_form(lab64):
    T = pure_density(ground_state(lab64))
    for (a, b) in [(0.5, 0.0), (0.0, 1.0), (1.2, -0.7), (2.0, 2.0)]:
        val = weyl_function(T, PhasePoint([a], [b]))
        assert abs(val - math.exp(-(a ** 2 + b ** 2) / 4)) < 1e-6


def test_weyl_function_representation_independent(lab64):
    from wignerlab import to_gaussian_rep
    T = pure_density(displaced_state(lab64, 1.0, 0.5))
    h = PhasePoint([0.8], [-0.3])
    v1 = weyl_function(T, h)
    v2 = weyl_function(to_gaussian_rep(T), h)
    assert abs(v1 - v2) < 1e-10


def test_weyl_function_is_trace_against_unitary(lab64, rng):
    T = random_mixed(lab64, rng)
    field = weyl_samples_field(T)
    p = lab64.grid.momenta
    q = lab64.grid.positions
    for _ in range(4):
        i, j = rng.integers(0, lab64.n_per_axis, size=2)
        h = PhasePoint([p[i]], [q[j]])
        direct = np.trace(T.matrix @ weyl_unitary(h, lab64))
        assert abs(field.values[i, j] - direct) < 1e-10


def test_expectation_examples(lab64):
    T = pure_density(ground_state(lab64))
    assert expectation(T, sym((((0,), (0,), 1.0),))) == pytest.approx(1.0, abs=1e-10)
    osc = sym((((2,), (0,), 0.5), ((0,), (2,), 0.5)))
    assert expectation(T, osc) == pytest.approx(0.5, abs=1e-6)
    Ta = pure_density(displaced_state(lab64, 1.7, 0.0))
    assert expectation(Ta, sym((((1,), (0,), 1.0),))) == pytest.approx(1.7, abs=1e-6)
