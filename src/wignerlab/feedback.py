"""Composite plant/controller Hamiltonians, the feedback classifier, scenarios.

Every composite Hamiltonian on H = P (x) C is one `assemble` over a list of
Hermitian terms (labels, op), each extended by identity on the other factors;
the feedback, general and refined forms are such term lists. The classifier
decides whether a coupling K splits as A (x) I + I (x) B across the
(P1 C1) | (P2 C2) cut with both witnesses non-scalar (feedback), as a
one-sided block (no feedback), or not at all (general). The decision
procedure normalizes K to a traceless unit-Frobenius representative first,
so verdicts are invariant under K -> alpha K + c I with alpha > 0.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (DimensionCap, FactorMismatch, NonHermitianInput,
                     SpecMismatch, UnknownSubsystem, WrongRepresentation)
from .hilbert import (CompositeSystem, DensityOperator, LEBESGUE,
                      _hermitian_defect, _label_tuple, partial_trace,
                      propagate)
from .lattice import PhaseSpaceSpec, make_phase_space
from .moyal import MoyalGenerator, evolve
from .tolerances import DEFAULT_TOL
from .wigner import (PhaseSpaceField, purity_estimate, reduce_wigner,
                     reduction_square, wigner_from_density)

LAYOUT_DIM_CAP = 65536
RUN_DIM_CAP = 4096

ROLE_ORDER = ("P1", "P2", "C1", "C2", "W")
PLANT_ROLES = ("P1", "P2")
CONTROLLER_ROLES = ("C1", "C2")


@dataclass(frozen=True, init=False)
class SubsystemLayout(CompositeSystem):
    """A composite whose labels are roles, in the fixed order P1, P2, C1, C2, W.

    Built from a role -> space dict; P1 and C1 are required, P2, C2 and the
    perturbation factor W are optional.
    """

    def __init__(self, roles):
        unknown = set(roles) - set(ROLE_ORDER)
        if unknown:
            raise UnknownSubsystem(f"unknown role label(s) {sorted(unknown)}")
        for need in ("P1", "C1"):
            if need not in roles:
                raise FactorMismatch(f"role {need} is required")
        object.__setattr__(self, "factors", tuple(
            (r, roles[r]) for r in ROLE_ORDER if r in roles))
        if self.dim > LAYOUT_DIM_CAP:
            raise DimensionCap(
                f"total dimension {self.dim} exceeds the cap {LAYOUT_DIM_CAP}")

    @property
    def roles(self):
        return dict(self.factors)

    def system(self):
        return CompositeSystem(self.factors)

    def plant_labels(self):
        return tuple(r for r in PLANT_ROLES if r in self.labels)

    def controller_labels(self):
        return tuple(r for r in CONTROLLER_ROLES if r in self.labels)

    def total_grid_d(self):
        if all(isinstance(s, PhaseSpaceSpec) for _, s in self.factors):
            return sum(s.d for _, s in self.factors)
        return None


class _Checked(np.ndarray):
    """The read-only view `assemble` returns, carrying its check record.

    `record` is (defect bound, peak) on that view only: every array numpy
    derives from it (a view, slice, transpose, copy, ufunc result or
    unpickled copy) starts with None, so it takes the full pass.
    """

    def __array_finalize__(self, obj):
        self.record = None


def _hermitian_record(m, what, tol=DEFAULT_TOL):
    """(m as a complex array, (defect, peak)), or raise unless m is finite
    and Hermitian.

    An operator made by `assemble` keeps its record while it and its base
    stay read-only; when the defect bound is at most tol.hermiticity, it is
    returned as a plain ndarray view with that record and not read again:
    that is the full check's own bound at peak <= 1, so nothing it would
    reject passes. Every other array takes the full tiled pass. Its
    comparisons fail closed: a NaN or infinite entry is rejected, never
    waved through by a comparison that is False on NaN.
    """
    if (isinstance(m, _Checked) and m.record is not None
            and not m.flags.writeable and not m.base.flags.writeable
            and m.record[0] <= tol.hermiticity):
        return m.view(np.ndarray), m.record
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonHermitianInput(f"{what} is not a square matrix")
    defect, peak = _hermitian_defect(m, with_peak=True)
    if not math.isfinite(peak):
        raise NonHermitianInput(f"{what} has non-finite entries")
    if not defect <= tol.hermiticity * max(peak, 1.0):
        raise NonHermitianInput(f"{what} is not Hermitian")
    return m, (defect, peak)


def _check_hermitian(m, what, tol=DEFAULT_TOL):
    """m as a complex array, checked by `_hermitian_record`."""
    return _hermitian_record(m, what, tol)[0]


def _add_embedded(out, op, on_labels, system):
    """Add op (x) I_rest into the C-contiguous D x D array `out`.

    op, a complex array, acts on the label tuple `on_labels` in the order
    given. The add goes through the writable einsum view of `out` on which
    bra and ket agree on every factor outside `on_labels`, so it writes
    D * d_on entries, not D^2.
    """
    operand, rest, bra, ket = system.einsum_subscripts(on_labels)
    if len(set(on_labels)) != len(on_labels):
        raise FactorMismatch(f"repeated subsystem in {on_labels}")
    d_on = system.dim_of(on_labels)
    if op.shape != (d_on, d_on):
        raise FactorMismatch(
            f"operator shape {op.shape} != ({d_on}, {d_on}) for {on_labels}")
    view = np.einsum(f"{operand}->{rest}{bra}{ket}",
                     out.reshape(system.dims * 2))
    # op's axes from on_labels order to system order
    perm = [on_labels.index(r) for r in system.labels if r in on_labels]
    shaped = op.reshape([system.dim_of(r) for r in on_labels] * 2)
    view += shaped.transpose(perm + [len(perm) + i for i in perm])


def assemble(terms, system):
    """Sum of Hermitian terms on `system`, each extended by identity.

    `terms` is ((labels, op), ...), op acting on `labels` in the order
    given. Each op is checked (`_hermitian_record`) and added as
    op (x) I_rest (`_add_embedded`), in the order of `terms`, into one zeroed
    D x D array; a term on every label in system order adds op itself.
    The sum is frozen and returned as a read-only `_Checked` view with
    record (bound, sum(peak)) over the k terms' (defect, peak): its defect
    stays below bound = sum(defect) + 4 k eps sum(peak) (math-notes § Check
    record).
    """
    D = system.dim
    out = np.zeros((D, D), dtype=complex)
    records = []
    for labels, op in terms:
        labels = _label_tuple(labels)
        op, record = _hermitian_record(op, f"term on {labels}")
        _add_embedded(out, op, labels, system)
        records.append(record)
    k = len(records)
    peak = sum(p for _, p in records)
    bound = sum(d for d, _ in records) + 4 * k * np.finfo(float).eps * peak
    out.flags.writeable = False
    view = out.view(_Checked)
    view.record = (bound, peak)
    return view


def embed_operator(op, on_labels, layout):
    """Extend a Hermitian op on a factor subset by identity on the rest.

    A one-term `assemble`: a non-Hermitian op raises NonHermitianInput, and
    the result is a read-only view.
    """
    return assemble(((on_labels, op),), layout)


def build_general_hamiltonian(h_plant, h_controller, coupling, layout):
    """H_P (x) I + I (x) H_C + K with K Hermitian on the full space."""
    return assemble(((layout.plant_labels(), h_plant),
                     (layout.controller_labels(), h_controller),
                     (layout.labels, coupling)), layout)


def _four_roles(layout, form):
    """Raise FactorMismatch unless `layout` has P1, P2, C1 and C2."""
    for need in PLANT_ROLES + CONTROLLER_ROLES:
        if need not in layout.labels:
            raise FactorMismatch(
                f"{form} form needs all four roles, missing {need}")


def build_feedback_hamiltonian(h_plant, h_controller, k1, k2, layout):
    """H_P (x) I_C + I_P (x) H_C + K1 on P1C1 + K2 on P2C2 (embedded)."""
    _four_roles(layout, "feedback")
    return assemble(((PLANT_ROLES, h_plant), (CONTROLLER_ROLES, h_controller),
                     (("P1", "C1"), k1), (("P2", "C2"), k2)), layout)


@dataclass(frozen=True)
class RefinedParts:
    """Eight-term refinement: per-part Hamiltonians and internal couplings."""

    h_p1: np.ndarray
    h_p2: np.ndarray
    h_c1: np.ndarray
    h_c2: np.ndarray
    k_p1p2: np.ndarray
    k_c1c2: np.ndarray
    k_p1c1: np.ndarray
    k_p2c2: np.ndarray


# the factor subset of each RefinedParts field, in field order
REFINED_LABELS = (("P1",), ("P2",), ("C1",), ("C2",), ("P1", "P2"),
                  ("C1", "C2"), ("P1", "C1"), ("P2", "C2"))


def build_refined_hamiltonian(parts, layout):
    """Refined composite Hamiltonian with internal plant/controller couplings."""
    _four_roles(layout, "refined")
    return assemble(((labels, getattr(parts, f.name)) for labels, f
                     in zip(REFINED_LABELS, fields(RefinedParts))), layout)


# --- classifier ---------------------------------------------------------------

FEEDBACK = "feedback"
NO_FEEDBACK = "no_feedback"
GENERAL = "general"


@dataclass(frozen=True)
class FeedbackVerdict:
    kind: str
    witness_a: np.ndarray
    witness_b: np.ndarray
    residual: float


def _cut_permuted(K, layout):
    """A copy of K reordered so the cut reads (P1 C1) x (P2 C2)."""
    labels = list(layout.labels)
    want = [r for r in ("P1", "C1") if r in labels] + \
           [r for r in ("P2", "C2") if r in labels] + \
           [r for r in labels if r not in ("P1", "P2", "C1", "C2")]
    k = len(labels)
    perm = [labels.index(r) for r in want]
    shaped = K.reshape(layout.dims * 2).transpose(perm + [k + i for i in perm])
    d_a = layout.dim_of([r for r in ("P1", "C1") if r in labels])
    d_b = layout.dim // d_a
    return shaped.copy().reshape(layout.dim, layout.dim), d_a, d_b


def classify_coupling(K, layout, tol=DEFAULT_TOL):
    """Least-squares verdict on the coupling structure across the cut.

    The identity component is quotiented away and K is scaled to unit
    Frobenius norm before projecting onto the span {A (x) I, I (x) B}; the
    witnesses are returned at the original scale of K. All of it runs on one
    working copy of K, which ends as the residual K - A (x) I - I (x) B.
    """
    K = _check_hermitian(K, "coupling")
    if K.shape[0] != layout.dim:
        raise FactorMismatch("coupling must act on the full composite space")
    Kn, d_a, d_b = _cut_permuted(K, layout)
    D = layout.dim
    trace = np.trace(Kn)
    Kn.flat[::D + 1] -= trace / D
    scale = float(np.linalg.norm(Kn))
    # ||K||^2 = ||K0||^2 + |tr K|^2 / D, since K0 is traceless
    if scale < 1e-14 * max(math.hypot(scale, abs(trace) / math.sqrt(D)), 1.0):
        zero_a = np.zeros((d_a, d_a), dtype=complex)
        zero_b = np.zeros((d_b, d_b), dtype=complex)
        return FeedbackVerdict(NO_FEEDBACK, zero_a, zero_b, 0.0)
    Kn /= scale
    Kt = Kn.reshape(d_a, d_b, d_a, d_b)
    A = np.einsum('ibjb->ij', Kt) / d_b
    B = np.einsum('aiaj->ij', Kt) / d_a
    A.flat[::d_a + 1] -= np.trace(A) / d_a
    B.flat[::d_b + 1] -= np.trace(B) / d_b
    on_a = np.einsum('ibjb->ibj', Kt)     # writable views: the entries of
    on_a -= A[:, None, :]                  # A (x) I and I (x) B
    on_b = np.einsum('aiaj->aij', Kt)
    on_b -= B
    residual = float(np.linalg.norm(Kn))
    a_active = float(np.linalg.norm(A)) > tol.classifier_nonscalar
    b_active = float(np.linalg.norm(B)) > tol.classifier_nonscalar
    if residual < tol.classifier_residual:
        kind = FEEDBACK if (a_active and b_active) else NO_FEEDBACK
    else:
        kind = GENERAL
    A *= scale
    B *= scale
    return FeedbackVerdict(kind, A, B, residual)


# --- scenario runner -----------------------------------------------------------

@dataclass
class ScenarioResult:
    times: np.ndarray
    plant_purity: np.ndarray
    plant_energy: np.ndarray
    plant_states: list
    plant_wigner: list          # list of (t, PhaseSpaceField) or empty
    square_residuals: np.ndarray  # reduction commuting-square cross-check, empty when skipped


def run_scenario(layout, hamiltonian, T0, run, h_plant=None,
                 classical_feedback=False, hamiltonian_symbol=None):
    """Evolve the composite and observe the plant through reduction.

    The composite is propagated exactly, by the cheaper of two routes (see
    `hilbert.propagate`); T0 must be a Lebesgue-representation operator, and
    it is T(0) itself, so the series route never forms a product's matrix
    (`partial_trace` and `wigner_from_density` reduce and map its parts). The
    dimension cap is 4096. When every factor is grid-based with total
    d <= 2, reduced plant Wigner snapshots are produced and the reduction
    commuting square (composite reduction vs reduced transform) is
    cross-checked at every snapshot.
    classical_feedback=True instead evolves the composite Wigner field with
    the first-order (Liouville) generator built from `hamiltonian_symbol`.
    """
    check_run_cap(layout)
    H = _check_hermitian(hamiltonian, "scenario Hamiltonian")
    system = layout.system()
    plant = layout.plant_labels()
    grid_d = layout.total_grid_d()
    times = np.asarray(run.snapshot_times())

    if classical_feedback:
        if hamiltonian_symbol is None or grid_d is None or grid_d > 2:
            raise SpecMismatch(
                "classical feedback mode needs grid factors with total d <= 2 "
                "and a Hamiltonian symbol")
        return _run_classical(layout, hamiltonian_symbol, T0, run)

    if T0.rep != LEBESGUE:
        raise WrongRepresentation(
            f"the exact scenario needs a lebesgue T0, got {T0.rep}")
    purity, energy, states, wigners, squares = [], [], [], [], []
    for t, Tt in zip(times, propagate(H, T0, times)):
        # T(0) is T0 itself, so a product's parts stand in for its matrix;
        # an operator on another space of dimension D is read on `system`
        if Tt.space != system:
            Tt = DensityOperator(Tt.matrix, LEBESGUE, system, T0.tol)
        TP = partial_trace(Tt, plant)
        states.append((t, TP))
        purity.append(TP.purity())
        if h_plant is not None:
            energy.append(float(np.trace(TP.matrix @ h_plant).real))
        if grid_d is not None and grid_d <= 2:
            WP = wigner_from_density(TP)
            wigners.append((t, WP))
            squares.append(reduction_square(Tt, plant, WP))
    return ScenarioResult(times, np.asarray(purity), np.asarray(energy),
                          states, wigners, np.asarray(squares))


def check_run_cap(layout):
    """Raise DimensionCap when the composite is too large to run a scenario on."""
    if layout.dim > RUN_DIM_CAP:
        raise DimensionCap(
            f"composite dimension {layout.dim} exceeds run cap {RUN_DIM_CAP}")


def _run_classical(layout, symbol, T0, run):
    """Classical-feedback mode: Liouville flow of the composite Wigner field."""
    system = layout.system()
    W0 = wigner_from_density(T0)
    spec = _merged_spec(layout)
    gen = MoyalGenerator(symbol, spec, truncation=1)
    res = evolve(_refield(W0, spec), gen, run)
    plant = layout.plant_labels()
    wigners = []
    purity = []
    for t, f in res.snapshots:
        fc = _refield(f, system)
        Wred = reduce_wigner(fc, plant)
        wigners.append((t, Wred))
        purity.append(purity_estimate(Wred))
    times = np.asarray([t for t, _ in res.snapshots])
    return ScenarioResult(times, np.asarray(purity), np.asarray([]),
                          [], wigners, np.asarray([]))


def _merged_spec(layout):
    """Single PhaseSpaceSpec covering all (identical) grid factors."""
    specs = [s for _, s in layout.factors]
    first = specs[0]
    for s in specs[1:]:
        if (s.n_per_axis, s.half_width) != (first.n_per_axis, first.half_width):
            raise SpecMismatch(
                "classical mode needs identical per-axis grids across factors")
    d = sum(s.d for s in specs)
    B = np.zeros((d, d))
    pos = 0
    for s in specs:
        B[pos:pos + s.d, pos:pos + s.d] = s.covariance
        pos += s.d
    return make_phase_space(d, first.n_per_axis, first.half_width, B, first.tol)


def _refield(field, space):
    return PhaseSpaceField(field.values, field.role, space, field.measure,
                           field.tol)
