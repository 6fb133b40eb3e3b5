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

from ._value import Value, _unchecked
from .errors import AlphaOutOfRange, ComplexAlpha, InsufficientCoefficients, InvalidXi

Scalar = complex


class VerblunskySeq(Value):
    """Reflection coefficients alpha_0, alpha_1, ..., each of modulus < 1.

    Storage rule (``_stored``, which the transforms that build a sequence
    from checked entries apply too): when every entry given is a float,
    ``alpha`` is that tuple of floats, so real data (all the bridge
    produces or reads) stays real; otherwise every entry is coerced to
    complex.  The repr prints a float entry a as complex(a), as complex
    storage of the same input would, so the storage kind does not show.
    CPython before 3.14 promotes a float a to complex(a, 0.0) in mixed
    arithmetic, so the recurrences give the same bits as on complex
    storage.
    """

    __slots__ = ("alpha",)
    alpha: tuple[float, ...] | tuple[complex, ...]

    def __init__(self, alpha):
        alpha = _stored(alpha)
        object.__setattr__(self, "alpha", alpha)
        _check_moduli(alpha)

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
        """The coefficients as floats; rejects any nonzero imaginary part
        (each stored modulus is < 1, so each real part is in (-1, 1))."""
        if not self.alpha or type(self.alpha[0]) is float:
            return self.alpha
        for n, a in enumerate(self.alpha):
            if a.imag != 0.0:
                raise ComplexAlpha(f"alpha_{n} = {a} has nonzero imaginary part")
        return tuple([a.real for a in self.alpha])


def _stored(alpha) -> tuple:
    """The storage rule of VerblunskySeq: a tuple of the entries when every
    one is a float, otherwise of every entry coerced to complex."""
    alpha = tuple(alpha)
    if set(map(type, alpha)) != {float}:
        return tuple(map(complex, alpha))
    return alpha


def _check_moduli(alpha, start: int = 0) -> None:
    """Raise AlphaOutOfRange at the first stored entry of modulus >= 1 or
    NaN, naming it as alpha_{start + its position}."""
    # max skips a NaN that is not first; the sum carries it (NaN != NaN)
    total = sum(alpha)
    if not (max(map(abs, alpha), default=0.0) < 1.0 and total == total):
        for n, a in enumerate(alpha, start):
            if not abs(a) < 1.0:
                raise AlphaOutOfRange(f"|alpha_{n}| = {abs(a)} >= 1")


def opuc_eval(vs: VerblunskySeq, n: int, z: Scalar) -> tuple[list[Scalar], list[Scalar]]:
    """Values ([Phi_0..Phi_n], [Phi*_0..Phi*_n]) at z."""
    vs.require(n)
    alpha = vs.alpha
    p = s = 1.0 + 0j
    phi, star = [p], [s]
    for k in range(n):
        a = alpha[k]
        p, s = z * p - a.conjugate() * s, s - a * z * p
        phi.append(p)
        star.append(s)
    return phi, star


def second_kind(vs: VerblunskySeq) -> VerblunskySeq:
    """Coefficients {-alpha_n}; generating from them yields the second-kind family."""
    return VerblunskySeq(tuple(-a for a in vs.alpha))


def shift_verblunsky(vs: VerblunskySeq, k: int) -> VerblunskySeq:
    """Coefficients {alpha_{n+k}} of the order-k associated family on the circle."""
    if k < 0:
        raise ValueError("shift order must be >= 0")
    vs.require(k)
    # a slice of checked entries keeps its storage kind
    return _unchecked(VerblunskySeq, vs.alpha[k:])


def prepend_verblunsky(vs: VerblunskySeq, xi) -> VerblunskySeq:
    """Coefficients {xi_0, ..., xi_{k-1}, alpha_0, alpha_1, ...} of the
    order-k anti-associated family on the circle."""
    xi = tuple(xi)
    check_xi(xi)
    alpha = _stored(xi + vs.alpha)
    # vs was checked when built; check_xi read each xi_i itself, and a type
    # that reaches modulus 1 only as a complex is caught here
    _check_moduli(alpha[:len(xi)])
    return _unchecked(VerblunskySeq, alpha)


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
