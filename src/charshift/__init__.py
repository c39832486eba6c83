"""Exact desk-scale simulation of hidden-shift algorithms over quadratic characters.

The package splits into integer-side number theory, finite-field arithmetic,
an arbitrary-dimension statevector simulator, query-counting shift oracles,
the end-to-end solvers with their exact verifiers, and a batch CLI.
"""

from .algorithms import (
    DistributionComparison,
    SolveReport,
    best_convergent_denominator,
    best_convergent_fraction,
    prepare_character_state,
    repeated_sampling_comparison,
    sjsp_attempt_analysis,
    slsp_attempt_analysis,
    solve_sjsp,
    solve_sjsp_unknown_n,
    solve_slsp,
    solve_sqcp,
    sqcp_attempt_analysis,
    tft_matrix_deviation,
    verify_jacobi_qft_lemma,
)
from .finite_field import (
    FieldElement,
    FieldSpec,
    character_table,
    element_from_index,
    element_to_index,
    ff_arith,
    ff_neg,
    ff_pow,
    format_poly,
    is_irreducible,
    make_field,
    one,
    parse_poly,
    quadratic_character,
    trace,
    trace_coordinates,
)
from .number_theory import (
    FactoredOddSquarefree,
    GaussSum,
    convergents,
    crt_compose,
    euler_phi,
    factor_trial,
    gauss_sum_bruteforce,
    gauss_sum_closed_form,
    is_prime,
    jacobi,
    legendre,
)
from .oracles import (
    ShiftOracle,
    field_oracle,
    jacobi_oracle,
    jacobi_unknown_oracle,
    legendre_oracle,
)
from .qsim import (
    RegisterLayout,
    StateVector,
    apply_phase,
    basis_state,
    distribution,
    measure,
    normalized,
    permute_basis,
    project,
    qft,
    qft_factor,
    trace_fourier_transform,
)

__version__ = "0.1.0"
