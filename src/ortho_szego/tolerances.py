"""The package's numerical tolerances, in one table.

`DEFAULT_TOLS`, the default tolerance of each `verify` suite, lives here
and not in `suites` so that the CLI can list the suite names and their
defaults without importing the suites themselves.
"""

from .errors import UnknownSuite

# A computed circle coefficient with |a| >= 1 - SUPPORT_TOL is rejected:
# downstream formulas divide by 1 -/+ a, so near-boundary values are
# garbage anyway.
SUPPORT_TOL = 1e-12

# A divisor of the bridge recursions (1 - a, an LU pivot) below this,
# scaled where the caller says so, counts as zero.
PIVOT_TOL = 1e-13

# A homography or convergent denominator at most POLE_TOL * (1 + |numerator|)
# counts as a pole.
POLE_TOL = 1e-13

# Relative tolerance of the identity check the package ships (the LU
# factorization) and of the tie between the two roots of z^2 - 2xz + 1 on
# the unit circle.
CHECK_TOL = 1e-12

# An evaluation point within SUPPORT_MARGIN of [-1, 1] (line side) or of
# the unit circle (circle side) is refused: the convergents converge ever
# more slowly as the point nears the support.
SUPPORT_MARGIN = 1e-6

# Values the suites know in closed form (fixture spot values, the
# documented path discrepancy) must be matched to this.
EXACT_TOL = 1e-13

# The default of path_discrepancy_report and of the discrepancy suite: two
# pivot entries agree when they differ by at most DISCREPANCY_TOL (1 + |v|)
# plus their rounding bounds.
DISCREPANCY_TOL = 1e-11

# The conjugation suite checks the order-2 corollary at x = 2 against its
# closed form to max(tol, COROLLARY_TOL_FLOOR): a smaller --tol does not
# tighten that one check.
COROLLARY_TOL_FLOOR = 1e-9

DEFAULT_TOLS = {
    "roundtrip": 1e-11,
    "rel": 1e-10,
    "bridge": 1e-8,
    "transfer": 1e-9,
    "conjugation": 1e-8,
    "theorems": 1e-10,
    "lu": 1e-11,
    "discrepancy": DISCREPANCY_TOL,
}


def max_residual(*residuals: float) -> float:
    """The largest residual, or NaN if any is NaN: max keeps a NaN only when
    it comes first, and a NaN residual must fail its check."""
    return float("nan") if any(r != r for r in residuals) else max(residuals)


def check_suite(name: str) -> None:
    """Raise UnknownSuite unless `name` is a verify suite."""
    if name not in DEFAULT_TOLS:
        raise UnknownSuite(f"unknown suite {name!r}; pick from {sorted(DEFAULT_TOLS)}")
