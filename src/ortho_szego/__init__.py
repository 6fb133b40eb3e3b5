"""Orthogonal-polynomial coefficient transforms on the real line and the
unit circle, linked by the Szego map, with every perturbation family
cross-validated against a brute-force route."""

from . import errors
from .oprl import (
    JacobiMatrix,
    RealRecurrence,
    chebyshev_t,
    chebyshev_u,
    jacobi_matrix,
    oprl_eval,
    oprl_polys,
    orthonormal_scale,
    prepend_coefficients,
    shift_coefficients,
)
from .opuc import (
    VerblunskySeq,
    kappa,
    opuc_eval,
    opuc_polys,
    prepend_verblunsky,
    reversed_poly_check,
    second_kind,
    shift_verblunsky,
)
from .perturb import (
    AntiAssociated,
    Associated,
    CoDilated,
    CoRecursive,
    KModification,
    Sieve,
    antiassoc_oprl_to_verblunsky,
    antiassoc_opuc_to_recurrence,
    assoc_oprl_to_verblunsky,
    assoc_opuc_to_recurrence,
    coprl_apply,
    coprl_verblunsky,
    copuc_apply,
    path_discrepancy_report,
    perturbed_alpha_lu,
    perturbed_v,
    sieve,
    sieve2_recurrence,
    sieved_kmod_recurrence,
    symmetric_codilated_verblunsky,
    symmetric_verblunsky,
)
from .polyhom import Poly, PolyMatrix2, homography_apply, matmul2, poly_eval
from .spectral import (
    CFunctionHandle,
    SFunctionHandle,
    corollary_fixtures,
    corollary_rows,
    f_convergent,
    fs_bridge_check,
    matrix_B_antiassoc,
    matrix_B_assoc,
    matrix_Upsilon_antiassoc,
    matrix_Upsilon_assoc,
    s_convergent,
    szego_conjugate_check,
)
from .szego import (
    VSeq,
    alpha_from_v,
    check_rel,
    geronimus_forward,
    geronimus_inverse,
    invert_from,
    lu_check,
    map_x_to_z,
    map_z_to_x,
    v_from_alpha,
    v_from_recurrence,
)

__version__ = "0.1.0"
