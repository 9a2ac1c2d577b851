"""Numerical toolkit for Fourier integral operators with quadratic phases.

Modules:
    symplectic   symplectic matrices, Lagrangian subspaces, principal angles
    phases       quadratic phase functions and fiber reduction
    grids        sampled functions and dense operator matrices
    weyl         Weyl quantization, symbol recovery, Moyal product
    metaplectic  metaplectic operators via elementary factorizations
    gabor        Gabor/FBI transforms, decay profiles, wave front sets
    symbols      Shubin symbol classes and decay certification
    fio          oscillatory-integral operators, factorization, composition
    lagdist      Lagrangian distributions: synthesis and membership tests
    serialize    CSV/JSON/PGM artifact writers with manifest support
    acceptance   release-gating property checks
"""

from .symplectic import (
    SymplecticMatrix,
    LagrangianSubspace,
    standard_j,
    symplectic_inverse,
    is_symplectic,
    is_free,
    chirp_matrix,
    rotation_embedding,
    scaling_matrix,
    twisted_graph_lagrangian,
    lagrangian_from_yf,
    lagrangian_with_param,
    principal_angles,
    random_symplectic,
)
from .phases import (
    QuadraticPhase,
    reduce_phase,
    ReductionRecord,
    lagrangian_of_phase,
    chi_from_phase,
    phase_from_free_matrix,
    helffer_conditions,
    check_nondegeneracy,
    random_nondegenerate_phase,
    phase_to_dict,
    phase_from_dict,
)
from .grids import GridSpec, GridFunction, OperatorMatrix, gaussian_window
from .weyl import weyl_kernel, symbol_from_kernel, weyl_product, symbol_callable
from .metaplectic import (
    MetaplecticOperator,
    mu_general,
    mu_factors,
    homomorphism_residual,
    unitarity_defect,
    egorov_residual,
    fbi_covariance_residual,
)
from .gabor import (
    Field4D,
    gabor_transform,
    wavefront_estimate,
    sweep_kernel_field,
    decay_profile,
)
from .symbols import (
    ShubinSymbol,
    constant_symbol,
    polynomial_symbol,
    harmonic_oscillator_symbol,
    gaussian_symbol,
    custom_symbol,
    shubin_decay_test,
)
from .fio import (
    FioSpec,
    fio_kernel,
    fio_operator,
    fio_factorize,
    fio_compose,
    fio_adjoint,
    kernel_characterization_check,
    wf_kernel_check,
    wf_propagation_check,
)
from .lagdist import (
    LagrangianDistSpec,
    lagrangian_synthesize,
    lagrangian_membership_test,
    kernel_membership_check,
    kernel_equals_lagrangian_check,
)

__version__ = "0.1.0"
