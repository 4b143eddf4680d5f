"""One tolerance policy object; every constructor check reads from here."""

from dataclasses import dataclass


@dataclass(frozen=True)
class TolerancePolicy:
    covariance_symmetry: float = 1e-12   # relative asymmetry of B
    domain_tail_mass: float = 1e-12      # Gaussian mass allowed outside the box
    state_norm: float = 1e-10
    hermiticity: float = 1e-10           # max-abs of T - T^dagger
    trace_one: float = 1e-8
    psd_floor: float = 1e-8              # min eigenvalue >= -psd_floor
    imaginary_residue: float = 1e-8      # tolerated relative imag part of real fields
    field_mass: float = 1e-8
    route_equivalence: float = 1e-6
    roundtrip: float = 1e-8
    mass_drift_run: float = 1e-6
    mass_drift_step: float = 1e-4
    boundary_mass: float = 1e-8
    normalization_input: float = 1e-6    # inverse_wigner input mass check
    underflow_floor: float = 1e-300
    underflow_field: float = 1e-12       # |W| above this where density underflows -> error
    classifier_residual: float = 1e-8
    classifier_nonscalar: float = 1e-8


DEFAULT_TOL = TolerancePolicy()
