"""Monic orthogonal polynomial machinery on the real line.

The three-term recurrence

    P_{n+1}(x) = (x - b_{n+1}) P_n(x) - d_n P_{n-1}(x),   P_{-1} = 0, P_0 = 1,

with d_0 = 1 fixed by convention, evaluates every family here: each
perturbed family is a transform of the coefficient sequences (b, d).
``oprl_eval`` runs it as written; ``spectral.s_value`` runs a rescaled
copy for the convergents of the Stieltjes function at large depth.

Indexing follows the recurrence exactly: b and d are 1-based, and d_0 = 1
is never stored.
"""

from __future__ import annotations

from ._value import Value, _unchecked
from .errors import InsufficientCoefficients, InvalidPrepend, NonPositiveD

Scalar = complex


class RealRecurrence(Value):
    """Recurrence coefficient pair (b_1..b_N, d_1..d_N), both 1-based."""

    __slots__ = ("b", "d")
    b: tuple[float, ...]
    d: tuple[float, ...]

    def __init__(self, b, d):
        Value.__init__(self, tuple(map(float, b)), tuple(map(float, d)))
        if 0.0 in self.d:
            raise NonPositiveD(f"d_{self.d.index(0.0) + 1} = 0 is not allowed")

    def __len__(self) -> int:
        return min(len(self.b), len(self.d))

    def d_at(self, n: int) -> float:
        """d_n, 1-based; d_0 = 1 by convention."""
        if n == 0:
            return 1.0
        if not 1 <= n <= len(self.d):
            raise InsufficientCoefficients(n, len(self.d), "d coefficients")
        return self.d[n - 1]

    def require(self, nb: int, nd: int) -> None:
        if len(self.b) < nb:
            raise InsufficientCoefficients(nb, len(self.b), "b coefficients")
        if len(self.d) < nd:
            raise InsufficientCoefficients(nd, len(self.d), "d coefficients")


def chebyshev_t(n: int = 64) -> "RealRecurrence":
    """First-kind Chebyshev coefficients b == 0, d_1 = 1/2, d_n = 1/4: the
    standard test fixture."""
    return RealRecurrence((0.0,) * n, (0.5,) + (0.25,) * (n - 1))


def chebyshev_u(n: int = 64) -> "RealRecurrence":
    """Second-kind Chebyshev coefficients b == 0, d == 1/4."""
    return RealRecurrence((0.0,) * n, (0.25,) * n)


def oprl_eval(rc: RealRecurrence, n: int, x: Scalar) -> list[Scalar]:
    """Values [P_0(x), ..., P_n(x)] of the monic polynomials at x."""
    if n >= 1:
        rc.require(n, n - 1)
    b, d = rc.b, rc.d  # require covers b_1..b_n and d_1..d_{n-1}; d_0 = 1
    vals = [1.0 + 0j]
    prev, cur = 0j, 1.0 + 0j
    for k in range(n):
        prev, cur = cur, (x - b[k]) * cur - (d[k - 1] if k else 1.0) * prev
        vals.append(cur)
    return vals


def shift_coefficients(rc: RealRecurrence, k: int) -> RealRecurrence:
    """Coefficients of the order-k associated family: b_{n+k}, d_{n+k}."""
    if k < 0:
        raise ValueError("shift order must be >= 0")
    if k > min(len(rc.b), len(rc.d)):
        raise InsufficientCoefficients(k, min(len(rc.b), len(rc.d)))
    # slices of checked float tuples with no d == 0
    return _unchecked(RealRecurrence, rc.b[k:], rc.d[k:])


def prepend_coefficients(rc: RealRecurrence, pre_b, pre_d) -> RealRecurrence:
    """Coefficients of the order-k anti-associated family.

    The k new pairs occupy indices 1..k (pre_b[0] becomes the new b_1) and
    the original ones follow at indices k+1, k+2, ...
    """
    pre_b = tuple(float(x) for x in pre_b)
    pre_d = tuple(float(x) for x in pre_d)
    if len(pre_b) != len(pre_d):
        raise InvalidPrepend("prepended b and d lists must have equal length")
    for dn in pre_d:
        if dn == 0.0:
            raise InvalidPrepend("prepended d entries must be nonzero")
    # float tuples: the new d entries were just checked nonzero, rc's were on construction
    return _unchecked(RealRecurrence, pre_b + rc.b, pre_d + rc.d)


def orthonormal_scale(rc: RealRecurrence, n: int) -> float:
    """Leading coefficient gamma_n = (d_1 ... d_n)^{-1/2} of the orthonormal
    polynomial p_n = gamma_n P_n (gamma_0 = 1)."""
    rc.require(0, n)
    acc = 1.0
    for m in range(1, n + 1):
        dm = rc.d_at(m)
        if dm <= 0.0:
            raise NonPositiveD(f"d_{m} = {dm} must be positive")
        acc *= dm
    return acc ** -0.5
