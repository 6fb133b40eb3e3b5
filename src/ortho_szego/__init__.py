"""Orthogonal-polynomial coefficient transforms on the real line and the
unit circle, linked by the Szego map, with every perturbation family
cross-validated against a brute-force route.

The package namespace is lazy (PEP 562): ``import ortho_szego`` loads no
submodule, and each exported name imports its module on first access.  A
CLI run therefore compiles only the modules its command uses.
"""

import importlib

__version__ = "0.1.0"

# The module each public name comes from.
_SOURCES = {
    "oprl": (
        "RealRecurrence",
        "chebyshev_t",
        "chebyshev_u",
        "oprl_eval",
        "orthonormal_scale",
        "prepend_coefficients",
        "shift_coefficients",
    ),
    "opuc": (
        "VerblunskySeq",
        "kappa",
        "opuc_eval",
        "prepend_verblunsky",
        "second_kind",
        "shift_verblunsky",
    ),
    "perturb": (
        "AntiAssociated",
        "Associated",
        "CoDilated",
        "CoRecursive",
        "KModification",
        "Sieve",
        "antiassoc_oprl_to_verblunsky",
        "antiassoc_opuc_to_recurrence",
        "assoc_oprl_to_verblunsky",
        "assoc_opuc_to_recurrence",
        "coprl_apply",
        "coprl_verblunsky",
        "copuc_apply",
        "path_discrepancy_report",
        "perturbed_alpha_lu",
        "perturbed_v",
        "sieve",
        "sieve2_recurrence",
        "sieved_kmod_recurrence",
        "symmetric_codilated_verblunsky",
        "symmetric_verblunsky",
    ),
    "polyhom": ("homography_apply",),
    "spectral": (
        "CFunctionHandle",
        "SFunctionHandle",
        "antiassoc_order1_cfun_secondkind",
        "antiassoc_order2_sfun_matrix",
        "assoc_order1_cfun",
        "assoc_order2_sfun_matrix",
        "f_convergent",
        "fs_bridge_check",
        "matrix_B_antiassoc",
        "matrix_B_assoc",
        "matrix_Upsilon_antiassoc",
        "matrix_Upsilon_assoc",
        "s_convergent",
        "szego_conjugate_check",
    ),
    "szego": (
        "VSeq",
        "alpha_from_v",
        "check_rel",
        "geronimus_forward",
        "geronimus_inverse",
        "invert_from",
        "lu_check",
        "map_x_to_z",
        "v_from_alpha",
        "v_from_recurrence",
    ),
}

_EXPORTS = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = ["errors", *sorted(_EXPORTS)]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name == "errors" or name in _SOURCES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
