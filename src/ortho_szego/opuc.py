"""Monic orthogonal polynomial machinery on the unit circle.

The coupled recurrences

    Phi_{n+1}(z)  = z Phi_n(z) - conj(a_n) Phi*_n(z)
    Phi*_{n+1}(z) = Phi*_n(z) - a_n z Phi_n(z)

with Phi_0 = Phi*_0 = 1 are driven by the reflection coefficients
a_0, a_1, ... (all of modulus < 1).  The sequence is complex in general;
only the real-line bridge (szego module) restricts it to (-1, 1).

Negative-index conventions do not live here: this module only ever sees
indices >= 0.
"""

from __future__ import annotations

import math

from ._value import Value
from .errors import (
    AlphaOutOfRange,
    ComplexAlpha,
    InsufficientCoefficients,
    InvalidXi,
    ZeroArgument,
)
from .polyhom import P_ONE, Poly
from .tolerances import CHECK_TOL

Scalar = complex


class VerblunskySeq(Value):
    """Reflection coefficients alpha_0, alpha_1, ..., each of modulus < 1.

    Storage rule: when every entry given is a float, ``alpha`` is that
    tuple of floats, so real data (all the bridge produces or reads) stays
    real; otherwise every entry is coerced to complex.  The repr prints a
    float entry a as complex(a), as complex storage of the same input
    would, so the storage kind does not show.  CPython before 3.14
    promotes a float a to complex(a, 0.0) in mixed arithmetic, so the
    recurrences give the same bits as on complex storage.
    """

    __slots__ = ("alpha",)
    alpha: tuple[float, ...] | tuple[complex, ...]

    def __init__(self, alpha):
        alpha = tuple(alpha)
        if set(map(type, alpha)) != {float}:
            alpha = tuple(map(complex, alpha))
        object.__setattr__(self, "alpha", alpha)
        # max skips a NaN that is not first; the sum carries it (NaN != NaN)
        total = sum(alpha)
        if not (max(map(abs, alpha), default=0.0) < 1.0 and total == total):
            for n, a in enumerate(alpha):
                if not abs(a) < 1.0:
                    raise AlphaOutOfRange(f"|alpha_{n}| = {abs(a)} >= 1")

    def __repr__(self):
        return f"{type(self).__qualname__}(alpha={tuple(map(complex, self.alpha))!r})"

    def __len__(self) -> int:
        return len(self.alpha)

    def at(self, n: int) -> Scalar:
        if not 0 <= n < len(self.alpha):
            raise InsufficientCoefficients(n + 1, len(self.alpha), "alpha coefficients")
        return self.alpha[n]

    def require(self, n: int) -> None:
        if len(self.alpha) < n:
            raise InsufficientCoefficients(n, len(self.alpha), "alpha coefficients")

    def real_view(self) -> tuple[float, ...]:
        """The coefficients as floats; rejects any nonzero imaginary part."""
        if not self.alpha or type(self.alpha[0]) is float:
            return self.alpha
        out = []
        for n, a in enumerate(self.alpha):
            if a.imag != 0.0:
                raise ComplexAlpha(f"alpha_{n} = {a} has nonzero imaginary part")
            if not -1.0 < a.real < 1.0:
                raise AlphaOutOfRange(f"alpha_{n} = {a.real} outside (-1, 1)")
            out.append(a.real)
        return tuple(out)


def opuc_eval(vs: VerblunskySeq, n: int, z: Scalar) -> tuple[list[Scalar], list[Scalar]]:
    """Values ([Phi_0..Phi_n], [Phi*_0..Phi*_n]) at z."""
    vs.require(n)
    phi = [1.0 + 0j]
    star = [1.0 + 0j]
    for k in range(n):
        a = vs.at(k)
        p, s = phi[-1], star[-1]
        phi.append(z * p - a.conjugate() * s)
        star.append(s - a * z * p)
    return phi, star


def opuc_polys(vs: VerblunskySeq, n: int) -> tuple[list[Poly], list[Poly]]:
    """Coefficient-form ([Phi_0..Phi_n], [Phi*_0..Phi*_n])."""
    vs.require(n)
    phi = [P_ONE]
    star = [P_ONE]
    for k in range(n):
        a = vs.at(k)
        p, s = phi[-1], star[-1]
        phi.append(p.shift_up() - s.scale(a.conjugate()))
        star.append(s - p.shift_up().scale(a))
    return phi, star


def reversed_poly_check(vs: VerblunskySeq, n: int, z: Scalar, rtol: float = CHECK_TOL) -> bool:
    """Diagnostic: does Phi*_n(z) equal z^n conj(Phi_n(1/conj(z))) to rtol?"""
    if z == 0:
        raise ZeroArgument("reversed-polynomial identity needs z != 0")
    phi_at_inv, _ = opuc_eval(vs, n, 1.0 / z.conjugate() if isinstance(z, complex) else 1.0 / z)
    _, star = opuc_eval(vs, n, z)
    lhs = star[n]
    rhs = z**n * phi_at_inv[n].conjugate()
    scale = max(abs(lhs), abs(rhs), 1.0)
    return abs(lhs - rhs) <= rtol * scale


def second_kind(vs: VerblunskySeq) -> VerblunskySeq:
    """Coefficients {-alpha_n}; generating from them yields the second-kind family."""
    return VerblunskySeq(tuple(-a for a in vs.alpha))


def shift_verblunsky(vs: VerblunskySeq, k: int) -> VerblunskySeq:
    """Coefficients {alpha_{n+k}} of the order-k associated family on the circle."""
    if k < 0:
        raise ValueError("shift order must be >= 0")
    vs.require(k)
    return VerblunskySeq(vs.alpha[k:])


def prepend_verblunsky(vs: VerblunskySeq, xi) -> VerblunskySeq:
    """Coefficients {xi_0, ..., xi_{k-1}, alpha_0, alpha_1, ...} of the
    order-k anti-associated family on the circle."""
    xi = tuple(xi)
    check_xi(xi)
    return VerblunskySeq(xi + vs.alpha)


def check_xi(xi) -> None:
    """Reject a prepended circle coefficient of modulus >= 1 (or NaN)."""
    for i, x in enumerate(xi):
        if not abs(x) < 1.0:
            raise InvalidXi(f"|xi_{i}| = {abs(x)} >= 1")


def kappa(vs: VerblunskySeq, n: int) -> float:
    """Orthonormal leading coefficient kappa_n = prod_{j<n} (1 - |alpha_j|^2)^{-1/2}."""
    vs.require(n)
    acc = 1.0
    for j in range(n):
        acc *= 1.0 - abs(vs.at(j)) ** 2
    return math.sqrt(1.0 / acc)
