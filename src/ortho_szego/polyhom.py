"""Dense univariate polynomials, 2x2 polynomial matrices, and their
linear-fractional (homography) action.

Scalars are complex doubles throughout; real call sites simply pass zero
imaginary parts.  Degrees stay small in this package, so everything is
plain dense arithmetic.
"""

from __future__ import annotations

from ._value import Value
from .errors import DenominatorVanishes
from .tolerances import POLE_TOL

Scalar = complex


def _trim(coeffs) -> tuple[Scalar, ...]:
    cs = [complex(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class Poly(Value):
    """Polynomial with coefficients in ascending degree; () is the zero polynomial."""

    __slots__ = ("coeffs",)
    coeffs: tuple[Scalar, ...]

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    def __call__(self, t: Scalar) -> Scalar:
        return poly_eval(self, t)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Poly(tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                          for i in range(n)))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def scale(self, s: Scalar) -> "Poly":
        return Poly(tuple(s * c for c in self.coeffs))

    def shift_up(self) -> "Poly":
        """Multiply by the variable."""
        if not self.coeffs:
            return self
        return Poly((0,) + self.coeffs)


P_ZERO = Poly()
P_ONE = Poly((1,))


def poly_eval(p: Poly, t: Scalar) -> Scalar:
    """Evaluate p at t by Horner's scheme."""
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * t + c
    return acc


class PolyMatrix2(Value):
    """Row-major 2x2 matrix of polynomials acting on values by homography."""

    __slots__ = ("a", "b", "c", "d")
    a: Poly
    b: Poly
    c: Poly
    d: Poly

    def __init__(self, a, b, c, d):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def at(self, t: Scalar) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.a(t), self.b(t), self.c(t), self.d(t))


def homography_apply(m: PolyMatrix2, g: Scalar, t: Scalar) -> Scalar:
    """Return (a(t)*g + b(t)) / (c(t)*g + d(t)).

    Raises DenominatorVanishes when the denominator is below the
    scale-aware tolerance POLE_TOL * (1 + |numerator|).
    """
    a, b, c, d = m.at(t)
    num = a * g + b
    den = c * g + d
    if abs(den) <= POLE_TOL * (1.0 + abs(num)):
        raise DenominatorVanishes(f"homography pole at t={t!r}, g={g!r}")
    return num / den
