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

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __call__(self, t: Scalar) -> Scalar:
        return poly_eval(self, t)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Poly(tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                          for i in range(n)))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0j] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(tuple(out))

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

    def det(self) -> Poly:
        return self.a * self.d - self.b * self.c

    def at(self, t: Scalar) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.a(t), self.b(t), self.c(t), self.d(t))


M2_IDENTITY = PolyMatrix2(P_ONE, P_ZERO, P_ZERO, P_ONE)


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


def matmul2(m: PolyMatrix2, n: PolyMatrix2) -> PolyMatrix2:
    """Polynomial matrix product; homography of the product composes the homographies."""
    return PolyMatrix2(
        m.a * n.a + m.b * n.c,
        m.a * n.b + m.b * n.d,
        m.c * n.a + m.d * n.c,
        m.c * n.b + m.d * n.d,
    )
