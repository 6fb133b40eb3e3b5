import math
from fractions import Fraction

import pytest

from ortho_szego.errors import InsufficientCoefficients, InvalidPrepend, NonPositiveD
from ortho_szego.oprl import (
    RealRecurrence,
    _check_finite,
    chebyshev_t,
    chebyshev_u,
    oprl_eval,
    orthonormal_scale,
    prepend_coefficients,
    shift_coefficients,
)

from conftest import random_admissible_rc


def _exact_det(a: list[list[Fraction]]) -> float:
    """Exact determinant of a rational matrix: fraction-free Bareiss
    elimination, rounded once at the end."""
    n, sign, prev = len(a), 1, Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0.0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    return float(sign * a[-1][-1])


def test_eval_initial_condition():
    rc = RealRecurrence((0.3,), (0.5,))
    assert oprl_eval(rc, 0, 1.7) == [1]


def test_eval_keeps_the_sign_of_a_zero():
    # the k = 0 step multiplies the zero P_{-1} by d_0 = 1, so at x = -0.0
    # P_1 = -0.0; a d_0 read from the data (-0.5 here) would give +0.0
    p1 = oprl_eval(RealRecurrence((0.0,), (-0.5,)), 1, -0.0)[1]
    assert p1 == 0 and math.copysign(1.0, p1.real) == -1.0


def test_eval_chebyshev_t():
    vals = oprl_eval(chebyshev_t(), 2, 2.0)
    assert vals == [1, 2, 3.5]  # P_2 = x^2 - 1/2


def test_parity_when_diagonal_vanishes(rng):
    rc = chebyshev_t()
    for _ in range(10):
        x = rng.uniform(-2, 2)
        plus = oprl_eval(rc, 5, x)
        minus = oprl_eval(rc, 5, -x)
        for k in range(6):
            assert minus[k] == pytest.approx((-1) ** k * plus[k], abs=1e-14)


def test_monic_leading_coefficient():
    # fit the leading coefficient from two large evaluation points
    rc = random_admissible_rc(__import__("random").Random(3), 8)
    for n in (3, 5, 8):
        p1 = oprl_eval(rc, n, 1e6)[n]
        assert abs(p1 / 1e6**n - 1.0) < 1e-4


def _x_minus_jacobi(rc, n: int, x: float) -> list[list[Fraction]]:
    """xI - J_n in exact rationals: diagonal x - b_i, superdiagonal -1,
    subdiagonal -d_i."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = Fraction(x) - Fraction(rc.b[i])
        if i + 1 < n:
            m[i][i + 1] = Fraction(-1)
            m[i + 1][i] = -Fraction(rc.d[i])
    return m


def test_characteristic_polynomial_is_pn(rng):
    rc = random_admissible_rc(rng, 8)
    for n in (2, 5, 8):
        for x in (2.0, -1.7, 3.5, 0.4, -2.2):
            det = _exact_det(_x_minus_jacobi(rc, n, x))
            pn = oprl_eval(rc, n, x)[n].real
            assert det == pytest.approx(pn, rel=1e-10, abs=1e-10)


def test_shift_identity_and_chebyshev():
    rc = chebyshev_t()
    assert shift_coefficients(rc, 0) == rc
    shifted = shift_coefficients(rc, 1)
    assert shifted.d[:4] == (0.25,) * 4 and shifted.b[:4] == (0.0,) * 4
    again = shift_coefficients(rc, 2)
    assert again.d[:4] == (0.25,) * 4


def test_prepend_identity_and_layout():
    rc = chebyshev_u()
    assert prepend_coefficients(rc, (), ()) == rc
    pre = prepend_coefficients(rc, (0.1,), (0.2,))
    assert pre.b[:2] == (0.1, 0.0) and pre.d[:2] == (0.2, 0.25)


def test_prepend_rejects_zero_d():
    with pytest.raises(InvalidPrepend):
        prepend_coefficients(chebyshev_u(), (0.1,), (0.0,))


@pytest.mark.parametrize("build, message", [
    (lambda: RealRecurrence((0.1,), (math.inf,)), "d_1 = inf is not finite"),
    (lambda: RealRecurrence((0.1, math.nan), (0.25, 0.25)), "b_2 = nan is not finite"),
    (lambda: RealRecurrence((-math.inf, 0.0), (0.25, math.nan)), "b_1 = -inf is not finite"),
    (lambda: prepend_coefficients(chebyshev_u(), (math.nan,), (0.5,)), "b_1 = nan is not finite"),
    (lambda: prepend_coefficients(chebyshev_u(), (0.1, 0.2), (0.5, -math.inf)),
     "d_2 = -inf is not finite"),
])
def test_non_finite_entries_are_refused_by_name(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError and str(info.value) == message


def test_finite_entries_pass_the_finite_check():
    # a sum that overflows is no refusal by itself; Fractions pass
    rc = RealRecurrence((1e308, 1e308, -1e308), (1e308, 1e308, 0.25))
    assert rc.b == (1e308, 1e308, -1e308) and rc.d == (1e308, 1e308, 0.25)
    _check_finite((Fraction(1, 3), Fraction(-2, 7)), "d")
    with pytest.raises(ValueError, match=r"^d_5 = inf is not finite$"):
        _check_finite((Fraction(1, 3), math.inf), "d", 4)


def test_shift_undoes_prepend(rng):
    rc = random_admissible_rc(rng, 6)
    pb = tuple(rng.uniform(-0.5, 0.5) for _ in range(3))
    pd = tuple(rng.uniform(0.1, 0.6) for _ in range(3))
    assert shift_coefficients(prepend_coefficients(rc, pb, pd), 3) == rc


def test_orthonormal_scale_values():
    assert orthonormal_scale(chebyshev_t(), 0) == 1.0
    assert orthonormal_scale(chebyshev_t(), 2) == pytest.approx(2 * math.sqrt(2), rel=1e-15)
    assert orthonormal_scale(chebyshev_u(), 3) == pytest.approx(8.0, rel=1e-15)


def test_orthonormal_scale_rejects_nonpositive():
    rc = RealRecurrence((0.0, 0.0), (0.5, -0.25))
    with pytest.raises(NonPositiveD):
        orthonormal_scale(rc, 2)


def test_insufficient_coefficients():
    rc = RealRecurrence((0.0,), (0.5,))
    with pytest.raises(InsufficientCoefficients):
        oprl_eval(rc, 3, 1.0)
