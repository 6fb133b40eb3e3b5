"""The bridge between coefficient data on [-1, 1] and on the unit circle.

A probability measure on [-1, 1] maps to one on the circle by folding,
and the two coefficient sequences determine each other:

    d_{n+1} = (1/4) (1 - a_{2n-1}) (1 - a_{2n}^2) (1 + a_{2n+1})
    b_{n+1} = (1/2) [a_{2n} (1 - a_{2n-1}) - a_{2n-2} (1 + a_{2n-1})]

with the conventions a_{-1} = -1 and a_{-2} = 0 (the latter is always
multiplied by 1 + a_{-1} = 0, so any finite value would do; 0 keeps the
code total).  The inverse direction solves the same pair for the a's.

The auxiliary sequence v_k = (1/2)(1 + a_k)(1 - a_{k-1}) carries the LU
factorization of J + I and a continued-fraction route from (b, d) to the
circle coefficients that bypasses the quadratic inversion entirely.
"""

from __future__ import annotations

import cmath

from ._value import Value
from .errors import (
    DivisionDegenerate,
    InsufficientCoefficients,
    SupportViolation,
    ZeroArgument,
)
from .oprl import RealRecurrence, jacobi_matrix, oprl_eval, orthonormal_scale
from .opuc import VerblunskySeq, kappa, opuc_eval
from .tolerances import CHECK_TOL, PIVOT_TOL, SUPPORT_TOL

Scalar = complex


def _alpha_conv(alpha, n: int) -> float:
    """alpha_n with the bridge conventions at negative indices."""
    if n == -1:
        return -1.0
    if n == -2:
        return 0.0
    return alpha[n]


def _emit_checked(value: float, index: int) -> float:
    if not abs(value) < 1.0 - SUPPORT_TOL:  # written so that NaN fails too
        raise SupportViolation(index, value)
    return value


class VSeq(Value):
    """LU pivot sequence v_0, v_1, ...; v_{-1} = 0 is implied."""

    __slots__ = ("v",)
    v: tuple[float, ...]

    def __init__(self, v):
        object.__setattr__(self, "v", tuple(map(float, v)))

    def __len__(self) -> int:
        return len(self.v)

    def at(self, k: int) -> float:
        if k == -1:
            return 0.0
        if not 0 <= k < len(self.v):
            raise InsufficientCoefficients(k + 1, len(self.v), "v entries")
        return self.v[k]


# The loops below read the coefficient tuples directly and carry the
# previous coefficients in locals, seeded with a_{-2} = 0 and a_{-1} = -1;
# each guard is written `not abs(x) < bound` (or `not abs(x) >= bound`) so
# that a NaN fails it at the first coefficient it reaches.


def geronimus_forward(vs: VerblunskySeq, n: int) -> RealRecurrence:
    """Recurrence pairs (b_1..b_n, d_1..d_n) of the folded measure on [-1, 1].

    Needs the real coefficients a_0 .. a_{2n-1}.
    """
    alpha = vs.real_view()
    if len(alpha) < 2 * n:
        raise InsufficientCoefficients(2 * n, len(alpha), "alpha coefficients")
    b, d = [], []
    am2, am1 = 0.0, -1.0  # a_{2m-2}, a_{2m-1}
    for m in range(n):
        a_even, a_next = alpha[2 * m], alpha[2 * m + 1]
        d.append(0.25 * (1.0 - am1) * (1.0 - a_even**2) * (1.0 + a_next))
        b.append(0.5 * (a_even * (1.0 - am1) - am2 * (1.0 + am1)))
        am2, am1 = a_even, a_next
    return RealRecurrence(b, d)


def geronimus_inverse(rc: RealRecurrence, n: int) -> VerblunskySeq:
    """Circle coefficients a_0 .. a_{2n-1} of the unfolded measure
    (invert_from with an empty prefix)."""
    return invert_from(rc, (), n)


def invert_from(rc: RealRecurrence, prefix, n: int) -> VerblunskySeq:
    """Continue the inversion from a_{len(prefix)} up to a_{2n-1}.

    prefix holds a_0 .. a_{j-1} for any j <= 2n (odd j included).  Each
    further coefficient solves the forward relations, with a_{-1} = -1 and
    a_{-2} = 0:

        a_{2m}   = (2 b_{m+1} + (1 + a_{2m-1}) a_{2m-2}) / (1 - a_{2m-1})
        a_{2m+1} = -1 + 4 d_{m+1} / ((1 - a_{2m-1}) (1 - a_{2m}^2))

    Raises SupportViolation as soon as a coefficient leaves (-1, 1): the
    line measure then cannot sit inside [-1, 1].
    """
    rc.require(n, n)
    alpha = list(prefix)
    j = len(alpha)
    b, d = rc.b, rc.d
    bound = 1.0 - SUPPORT_TOL
    m = j // 2
    am2, am1 = (alpha[2 * m - 2], alpha[2 * m - 1]) if m else (0.0, -1.0)
    given_even = j % 2  # the prefix ends inside pair m, after a_{2m}
    if given_even:
        a_even = alpha[j - 1]
    for m in range(m, n):
        den = 1.0 - am1
        if not abs(den) >= PIVOT_TOL:
            raise DivisionDegenerate(f"1 - a_{2 * m - 1} vanished")
        if given_even:
            given_even = 0
        else:
            a_even = (2.0 * b[m] + (1.0 + am1) * am2) / den
            if not abs(a_even) < bound:
                raise SupportViolation(2 * m, a_even)
            alpha.append(a_even)
        den2 = den * (1.0 - a_even**2)
        if not abs(den2) >= PIVOT_TOL:
            raise DivisionDegenerate(f"(1 - a_{2 * m - 1})(1 - a_{2 * m}^2) vanished")
        a_odd = -1.0 + 4.0 * d[m] / den2
        if not abs(a_odd) < bound:
            raise SupportViolation(2 * m + 1, a_odd)
        alpha.append(a_odd)
        am2, am1 = a_even, a_odd
    return VerblunskySeq(alpha)


def v_from_alpha(vs: VerblunskySeq, n: int | None = None) -> VSeq:
    """v_k = (1/2)(1 + a_k)(1 - a_{k-1}) for k = 0..n-1 (so v_0 = 1 + a_0)."""
    alpha = vs.real_view()
    if n is None:
        n = len(alpha)
    if len(alpha) < n:
        raise InsufficientCoefficients(n, len(alpha), "alpha coefficients")
    return VSeq([0.5 * (1.0 + a) * (1.0 - prev)
                 for a, prev in zip(alpha[:max(n, 0)], (-1.0,) + alpha)])


def alpha_from_v(v: VSeq, n: int | None = None) -> VerblunskySeq:
    """Invert v_from_alpha: a_k = -1 + 2 v_k / (1 - a_{k-1}), a_{-1} = -1."""
    vals = v.v
    if n is None:
        n = len(vals)
    bound = 1.0 - SUPPORT_TOL
    prev = -1.0
    alpha = []
    for k, vk in enumerate(vals[:max(n, 0)]):
        den = 1.0 - prev
        if not abs(den) >= PIVOT_TOL:
            raise DivisionDegenerate(f"1 - a_{k - 1} vanished")
        prev = -1.0 + 2.0 * vk / den
        if not abs(prev) < bound:
            raise SupportViolation(k, prev)
        alpha.append(prev)
    if n > len(vals):
        # the next divisor 1 - a_{k-1} > SUPPORT_TOL > PIVOT_TOL: its guard cannot fire first
        raise InsufficientCoefficients(len(vals) + 1, len(vals), "v entries")
    return VerblunskySeq(alpha)


def v_from_recurrence(rc: RealRecurrence, n: int) -> VSeq:
    """v_0 .. v_{n-1} straight from (b, d) by peeling the continued fraction:

        v_{2k} = b_{k+1} + 1 - v_{2k-1},    v_{2k+1} = d_{k+1} / v_{2k}.

    DivisionDegenerate signals a vanishing pivot, i.e. J + I has no LU
    factorization and the support is not admissible.
    """
    b, d = rc.b, rc.d
    # pairs (v_{2k}, v_{2k+1}) that both n and the data cover
    pairs = max(min(n // 2, len(b), len(d)), 0)
    out: list[float] = []
    v_odd = 0.0  # v_{2k-1}
    for k in range(pairs):
        v_even = b[k] + 1.0 - v_odd
        dk = d[k]
        if not abs(v_even) >= PIVOT_TOL * (1.0 + abs(dk)):
            raise DivisionDegenerate(f"pivot v_{2 * k} vanished")
        v_odd = dk / v_even
        out += (v_even, v_odd)
    # at most one more even entry, or the first entry the data cannot give
    if 2 * pairs < n:
        if pairs >= len(b):
            raise InsufficientCoefficients(pairs + 1, len(b), "b coefficients")
        out.append(b[pairs] + 1.0 - v_odd)
        if 2 * pairs + 1 < n:
            raise InsufficientCoefficients(pairs + 1, len(d), "d coefficients")
    return VSeq(out)


class LuCheckResult(Value):
    """Entrywise comparison of J + I against the bidiagonal product."""

    __slots__ = ("ok", "max_abs_error", "mismatches")
    ok: bool
    max_abs_error: float
    mismatches: tuple[tuple[int, int, float, float], ...]  # (row, col, got, want)

    def __init__(self, ok, max_abs_error, mismatches):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "max_abs_error", max_abs_error)
        object.__setattr__(self, "mismatches", mismatches)

    def __bool__(self) -> bool:
        return self.ok


def lu_check(rc: RealRecurrence, v: VSeq, n: int, tol: float = CHECK_TOL) -> LuCheckResult:
    """Verify (J + I)_n = L_n U_n entrywise.

    L is unit lower bidiagonal with subdiagonal v_1, v_3, v_5, ...; U is
    upper bidiagonal with diagonal v_0, v_2, v_4, ... and unit superdiagonal.
    Their product is tridiagonal: diagonal v_{2i} + v_{2i-1} (v_0 at i = 0),
    superdiagonal 1 and subdiagonal v_{2j+1} v_{2j}, against b_{i+1} + 1, 1
    and d_{j+1}.  Both sides are exactly 0 off the band and exactly 1 on the
    superdiagonal, so only the diagonal and subdiagonal are compared.
    """
    if len(v) < 2 * n - 1:
        raise InsufficientCoefficients(2 * n - 1, len(v), "v entries")
    jm = jacobi_matrix(rc, n)
    cells = []  # (row, col, got, want), row-major
    for i in range(n):
        if i:
            cells.append((i, i - 1, v.at(2 * i - 1) * v.at(2 * i - 2), jm.subdiagonal[i - 1]))
        diag = v.at(2 * i) + v.at(2 * i - 1) if i else v.at(0)
        cells.append((i, i, diag, jm.diagonal[i] + 1.0))
    errs = [abs(got - want) for _, _, got, want in cells]
    mism = tuple(cell for cell, err in zip(cells, errs) if not err <= tol)
    return LuCheckResult(not mism, max(errs, default=0.0), mism)


def map_x_to_z(x: Scalar) -> Scalar:
    """The root z of z^2 - 2xz + 1 = 0 inside the closed unit disc.

    On the cut x in (-1, 1) both roots sit on the circle; the one with
    nonnegative imaginary part is returned.
    """
    x = complex(x)
    w = cmath.sqrt(x - 1.0) * cmath.sqrt(x + 1.0)
    z1, z2 = x - w, x + w
    if abs(abs(z1) - abs(z2)) <= CHECK_TOL * (abs(z1) + abs(z2)):
        return z1 if z1.imag >= z2.imag else z2
    return z1 if abs(z1) < abs(z2) else z2


def map_z_to_x(z: Scalar) -> Scalar:
    """x = (z + 1/z) / 2."""
    z = complex(z)
    if z == 0:
        raise ZeroArgument("z = 0 has no finite image")
    return 0.5 * (z + 1.0 / z)


def check_rel(rc: RealRecurrence, vs: VerblunskySeq, n: int, theta: float) -> float:
    """Residual of the line/circle polynomial identity at z = e^{i theta}:

        gamma_n P_n(cos theta)
            = kappa_{2n} / sqrt(2 (1 - a_{2n-1})) * (z^{-n} Phi_{2n}(z)
                                                     + z^n Phi_{2n}(1/z)).

    The pair (rc, vs) must describe the same measure (vs from
    geronimus_inverse(rc)); a_{-1} = -1 covers the n = 0 case.
    """
    alpha = vs.real_view()
    if len(alpha) < 2 * n:
        raise InsufficientCoefficients(2 * n, len(alpha), "alpha coefficients")
    z = cmath.exp(1j * theta)
    x = z.real  # cos(theta)
    lhs = orthonormal_scale(rc, n) * oprl_eval(rc, n, x)[n]
    a_prev = _alpha_conv(alpha, 2 * n - 1)
    factor = kappa(vs, 2 * n) / cmath.sqrt(2.0 * (1.0 - a_prev))
    phi_z, _ = opuc_eval(vs, 2 * n, z)
    phi_zinv, _ = opuc_eval(vs, 2 * n, 1.0 / z)
    rhs = factor * (z ** (-n) * phi_z[2 * n] + z**n * phi_zinv[2 * n])
    return abs(lhs - rhs)
