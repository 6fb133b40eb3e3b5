"""The bridge between coefficient data on [-1, 1] and on the unit circle.

A probability measure on [-1, 1] maps to one on the circle by folding,
and the two coefficient sequences determine each other:

    d_{n+1} = (1/4) (1 - a_{2n-1}) (1 - a_{2n}^2) (1 + a_{2n+1})
    b_{n+1} = (1/2) [a_{2n} (1 - a_{2n-1}) - a_{2n-2} (1 + a_{2n-1})]

with the conventions a_{-1} = -1 and a_{-2} = 0 (the latter is always
multiplied by 1 + a_{-1} = 0, so any finite value would do; 0 keeps the
code total).  The inverse direction solves the same pair for the a's.

The pivots v_k = (1/2)(1 + a_k)(1 - a_{k-1}), a plain tuple of floats
v_0, v_1, ... (v_{-1} = 0 is implied), are the LU factorization of J + I
and a continued-fraction route from (b, d) to the circle coefficients that
bypasses the quadratic inversion entirely.
"""

from __future__ import annotations

import sys

from ._value import Value, _unchecked
from .errors import DivisionDegenerate, InsufficientCoefficients, SupportViolation
from .oprl import RealRecurrence, oprl_eval, orthonormal_scale
from .opuc import VerblunskySeq, kappa, opuc_eval
from .tolerances import CHECK_TOL, PIVOT_TOL, SUPPORT_TOL, max_residual

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


# The loops below read the coefficient tuples directly and carry the
# previous coefficients in locals, seeded with a_{-2} = 0 and a_{-1} = -1;
# each per-step guard is written `not lo < x < hi` (or, for a divisor,
# `not (x >= bound or x <= -bound)`) so that a NaN, which fails every
# comparison, fails it at the first coefficient it reaches; a square is a * a.


def geronimus_forward(vs: VerblunskySeq, n: int) -> RealRecurrence:
    """Recurrence pairs (b_1..b_n, d_1..d_n) of the folded measure on [-1, 1].

    Needs the real coefficients a_0 .. a_{2n-1}.
    """
    alpha = vs.real_view()
    if len(alpha) < 2 * n:
        raise InsufficientCoefficients(2 * n, len(alpha), "alpha coefficients")
    b, d = [], []
    am2, am1 = 0.0, -1.0  # a_{2m-2}, a_{2m-1}
    stop = 2 * max(n, 0)
    for a_even, a_next in zip(alpha[0:stop:2], alpha[1:stop:2]):
        d.append(0.25 * (1.0 - am1) * (1.0 - a_even * a_even) * (1.0 + a_next))
        b.append(0.5 * (a_even * (1.0 - am1) - am2 * (1.0 + am1)))
        am2, am1 = a_even, a_next
    # real_view gives floats in (-1, 1), so each factor of d is >= 2^-53 and d > 0
    return _unchecked(RealRecurrence, tuple(b), tuple(d))


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

    The prefix is read first, as VerblunskySeq(prefix).real_view() reads it
    (AlphaOutOfRange, ComplexAlpha).  Raises SupportViolation as soon as a
    computed coefficient leaves (-1, 1): the line measure then cannot sit
    inside [-1, 1].
    """
    alpha = list(VerblunskySeq(prefix).real_view()) if prefix else []
    rc.require(n, n)
    j = len(alpha)
    lo, hi = SUPPORT_TOL - 1.0, 1.0 - SUPPORT_TOL
    m = j // 2
    am2, am1 = (alpha[2 * m - 2], alpha[2 * m - 1]) if m else (0.0, -1.0)
    # Only a prefix can make 1 - a_{2m-1} vanish: a computed a_{2m-1} passed
    # the support guard, so 1 - a_{2m-1} > SUPPORT_TOL > PIVOT_TOL.
    if m < n:
        if not abs(1.0 - am1) >= PIVOT_TOL:
            raise DivisionDegenerate(f"1 - a_{2 * m - 1} vanished")
        if j % 2:  # the prefix ends after a_{2m}: finish pair m
            am2 = alpha[-1]
            den2 = (1.0 - am1) * (1.0 - am2 * am2)
            if not abs(den2) >= PIVOT_TOL:
                raise DivisionDegenerate(f"(1 - a_{2 * m - 1})(1 - a_{2 * m}^2) vanished")
            am1 = -1.0 + 4.0 * rc.d[m] / den2
            if not lo < am1 < hi:
                raise SupportViolation(2 * m + 1, am1)
            alpha.append(am1)
            m += 1
    # pair m starts at a_{2m} = a_{len(alpha)}; max(n, m): no slice from the end
    for bm, dm in zip(rc.b[m:max(n, m)], rc.d[m:max(n, m)]):
        den = 1.0 - am1
        a_even = (2.0 * bm + (1.0 + am1) * am2) / den
        if not lo < a_even < hi:
            raise SupportViolation(len(alpha), a_even)
        den2 = den * (1.0 - a_even * a_even)
        if not (den2 >= PIVOT_TOL or den2 <= -PIVOT_TOL):
            raise DivisionDegenerate(f"(1 - a_{len(alpha) - 1})(1 - a_{len(alpha)}^2) vanished")
        a_odd = -1.0 + 4.0 * dm / den2
        if not lo < a_odd < hi:
            raise SupportViolation(len(alpha) + 1, a_odd)
        alpha.append(a_even)
        alpha.append(a_odd)
        am2, am1 = a_even, a_odd
    # real_view gave the prefix as floats in (-1, 1); the support guard put
    # every computed entry there
    return _unchecked(VerblunskySeq, tuple(alpha))


def v_from_alpha(vs: VerblunskySeq) -> tuple[float, ...]:
    """v_k = (1/2)(1 + a_k)(1 - a_{k-1}) for every k (so v_0 = 1 + a_0)."""
    alpha = vs.real_view()
    return tuple([0.5 * (1.0 + a) * (1.0 - prev) for a, prev in zip(alpha, (-1.0,) + alpha)])


def alpha_from_v(v) -> VerblunskySeq:
    """Invert v_from_alpha: a_k = -1 + 2 v_k / (1 - a_{k-1}), a_{-1} = -1."""
    lo, hi = SUPPORT_TOL - 1.0, 1.0 - SUPPORT_TOL
    prev = -1.0
    alpha = []
    # no pivot guard: 1 - a_{k-1} is 2, or > SUPPORT_TOL > PIVOT_TOL by the support guard
    for vk in v:
        prev = -1.0 + 2.0 * vk / (1.0 - prev)
        if not lo < prev < hi:
            raise SupportViolation(len(alpha), prev)
        alpha.append(prev)
    # every entry is a float the support guard put inside (-1, 1)
    return _unchecked(VerblunskySeq, tuple(alpha))


def v_from_recurrence(rc: RealRecurrence, n: int) -> tuple[float, ...]:
    """v_0 .. v_{n-1} straight from (b, d) by peeling the continued fraction:

        v_{2k} = b_{k+1} + 1 - v_{2k-1},    v_{2k+1} = d_{k+1} / v_{2k}.

    DivisionDegenerate signals a vanishing pivot, i.e. J + I has no LU
    factorization and the support is not admissible.
    """
    return _peel_from(rc, (), n)


def _peel_from(rc: RealRecurrence, head, n: int) -> tuple[float, ...]:
    """Continue the peel of v_from_recurrence from v_{len(head)} up to v_{n-1}.

    head is empty or holds v_0 .. v_{2k}; an n within it gives its first n
    entries.  Past it, v_{2k+1} comes first, under the loop's pivot guard,
    and the loop runs on.
    """
    if len(head) >= n:
        return tuple(head[:max(n, 0)])
    b, d = rc.b, rc.d
    out = list(head)
    start = len(out) // 2
    v_odd = 0.0  # v_{2k-1}
    if out:  # the head ends at v_{2k}, k = start: finish pair k
        if start >= len(d):
            raise InsufficientCoefficients(start + 1, len(d), "d coefficients")
        v_even, dk = out[-1], d[start]
        tol = PIVOT_TOL * (1.0 + (dk if dk >= 0.0 else -dk))
        if not (v_even >= tol or v_even <= -tol):
            raise DivisionDegenerate(f"pivot v_{2 * start} vanished")
        v_odd = dk / v_even
        out.append(v_odd)
        start += 1
    # pairs (v_{2k}, v_{2k+1}) that both n and the data cover
    pairs = max(min(n // 2, len(b), len(d)), start)
    for k in range(start, pairs):
        v_even = b[k] + 1.0 - v_odd
        dk = d[k]
        tol = PIVOT_TOL * (1.0 + (dk if dk >= 0.0 else -dk))  # d may be negative
        if not (v_even >= tol or v_even <= -tol):
            raise DivisionDegenerate(f"pivot v_{2 * k} vanished")
        v_odd = dk / v_even
        out.append(v_even)
        out.append(v_odd)
    # at most one more even entry, or the first entry the data cannot give
    if 2 * pairs < n:
        if pairs >= len(b):
            raise InsufficientCoefficients(pairs + 1, len(b), "b coefficients")
        out.append(b[pairs] + 1.0 - v_odd)
        if 2 * pairs + 1 < n:
            raise InsufficientCoefficients(pairs + 1, len(d), "d coefficients")
    return tuple(out)


def _peel_error(b, v) -> list[float]:
    """Running first-order forward-error bound of each pivot of the peel
    v_{2j} = b_{j+1} + 1 - v_{2j-1}, v_{2j+1} = d_{j+1} / v_{2j}: an even
    pivot adds u (|b_{j+1}| + 1 + |v_{2j-1}|) of absolute error, an odd one
    carries the relative error e_{2j} / |v_{2j}| + u."""
    u = sys.float_info.epsilon / 2
    out: list[float] = []
    prev_v = prev_e = 0.0
    for j, vj in enumerate(v):
        if j % 2 == 0:
            e = prev_e + u * (abs(b[j // 2]) + 1.0 + abs(prev_v))
        else:
            e = abs(vj) * (prev_e / abs(prev_v) + u)
        out.append(e)
        prev_v, prev_e = vj, e
    return out


class LuCheckResult(Value):
    """Entrywise comparison of J + I against the bidiagonal product."""

    __slots__ = ("ok", "max_abs_error", "mismatches")
    ok: bool
    max_abs_error: float
    mismatches: tuple[tuple[int, int, float, float], ...]  # (row, col, got, want)

    def __bool__(self) -> bool:
        return self.ok


def lu_check(rc: RealRecurrence, v, n: int) -> LuCheckResult:
    """Verify (J + I)_n = L_n U_n entrywise.

    L is unit lower bidiagonal with subdiagonal v_1, v_3, v_5, ...; U is
    upper bidiagonal with diagonal v_0, v_2, v_4, ... and unit superdiagonal.
    Their product is tridiagonal: diagonal v_{2i} + v_{2i-1} (v_0 at i = 0),
    superdiagonal 1 and subdiagonal v_{2j+1} v_{2j}, against b_{i+1} + 1, 1
    and d_{j+1}.  Both sides are exactly 0 off the band and exactly 1 on the
    superdiagonal, so only the diagonal and subdiagonal are compared, each
    to CHECK_TOL.
    """
    if len(v) < 2 * n - 1:
        raise InsufficientCoefficients(2 * n - 1, len(v), "v entries")
    rc.require(n, max(n - 1, 0))
    cells = []  # (row, col, got, want), row-major
    for i in range(n):
        if i:
            cells.append((i, i - 1, v[2 * i - 1] * v[2 * i - 2], rc.d[i - 1]))
        diag = v[2 * i] + v[2 * i - 1] if i else v[0]
        cells.append((i, i, diag, rc.b[i] + 1.0))
    errs = [abs(got - want) for _, _, got, want in cells]
    mism = tuple(cell for cell, err in zip(cells, errs) if not err <= CHECK_TOL)
    return LuCheckResult(not mism, max_residual(0.0, *errs), mism)


def map_x_to_z(x: Scalar) -> Scalar:
    """The root z of z^2 - 2xz + 1 = 0 inside the closed unit disc.

    On the cut x in (-1, 1) both roots sit on the circle; the one with
    nonnegative imaginary part is returned.
    """
    import cmath

    x = complex(x)
    w = cmath.sqrt(x - 1.0) * cmath.sqrt(x + 1.0)
    z1, z2 = x - w, x + w
    if abs(abs(z1) - abs(z2)) <= CHECK_TOL * (abs(z1) + abs(z2)):
        return z1 if z1.imag >= z2.imag else z2
    return z1 if abs(z1) < abs(z2) else z2


def check_rel(rc: RealRecurrence, vs: VerblunskySeq, n: int, theta: float) -> float:
    """Residual of the line/circle polynomial identity at z = e^{i theta}:

        gamma_n P_n(cos theta)
            = kappa_{2n} / sqrt(2 (1 - a_{2n-1})) * (z^{-n} Phi_{2n}(z)
                                                     + z^n Phi_{2n}(1/z)).

    The pair (rc, vs) must describe the same measure (vs from
    geronimus_inverse(rc)); a_{-1} = -1 covers the n = 0 case.
    """
    import cmath

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
