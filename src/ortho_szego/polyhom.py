"""The linear-fractional (homography) action of a 2x2 transfer matrix.

A transfer matrix is a function of the point: m(t) returns its entries
(a, b, c, d) at t, row-major.  The builders in `spectral` evaluate them
with the recurrences `oprl_eval` and `opuc_eval`; no caller needs the
entries as polynomials, only their values at the one point a homography
is applied at.  Scalars are complex doubles; real call sites pass floats.
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import DenominatorVanishes
from .tolerances import POLE_TOL

Scalar = complex

# t -> (a(t), b(t), c(t), d(t))
Matrix = Callable[[Scalar], tuple[Scalar, Scalar, Scalar, Scalar]]


def homography_apply(m: Matrix, g: Scalar, t: Scalar) -> Scalar:
    """Return (a(t)*g + b(t)) / (c(t)*g + d(t)).

    Raises DenominatorVanishes when the denominator is below the
    scale-aware tolerance POLE_TOL * (1 + |numerator|).
    """
    a, b, c, d = m(t)
    num = a * g + b
    den = c * g + d
    if abs(den) <= POLE_TOL * (1.0 + abs(num)):
        raise DenominatorVanishes(f"homography pole at t={t!r}, g={g!r}")
    return num / den
