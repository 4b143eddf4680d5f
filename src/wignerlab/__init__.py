"""wignerlab: a finite-dimensional phase-space laboratory.

Weyl quantization, Wigner fields relative to Lebesgue and Gaussian reference
measures, Moyal sine-series evolution with a density-operator oracle,
subsystem reduction, and coherent-feedback Hamiltonian construction and
classification.
"""

__version__ = "0.1.0"

from .errors import WignerLabError
from .lattice import GaussianMeasure, Grid, PhaseSpaceSpec, make_phase_space
from .hilbert import (CompositeSystem, DensityOperator, IntegralKernel,
                      LevelSpace, StateVector, kernel_of, mix, partial_trace,
                      pure_density, tensor, to_gaussian_rep, to_lebesgue_rep)
from .weyl import (HamiltonianSymbol, PhasePoint, expectation, symplectic_area,
                   weyl_function, weyl_quantize, weyl_unitary)
from .wigner import (PhaseSpaceField, eta_density, eta_to_wigner,
                     inverse_wigner, pair_expectation, purity_estimate,
                     reduce_eta, reduce_wigner, symplectic_fourier,
                     total_variation, weyl_samples_field, wigner_from_density,
                     wigner_from_weyl_function)
from .moyal import (EvolutionRun, MoyalGenerator, evolve, moyal_rhs,
                    poisson_power, eta_moyal_rhs, von_neumann_oracle)
from .feedback import (FeedbackVerdict, RefinedParts, SubsystemLayout,
                       assemble, build_feedback_hamiltonian,
                       build_general_hamiltonian, build_refined_hamiltonian,
                       classify_coupling, embed_operator, run_scenario)
from .tolerances import DEFAULT_TOL, TolerancePolicy
