import math

import pytest

from ortho_szego.errors import DenominatorVanishes
from ortho_szego.polyhom import P_ONE, P_ZERO, Poly, PolyMatrix2, homography_apply, poly_eval


def test_trailing_zeros_trimmed():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly((0, 0)).coeffs == ()


def test_eval_constant():
    assert poly_eval(Poly((1,)), 5) == 1


def test_eval_quadratic():
    # x^2 - 1/2 at x = 2
    assert poly_eval(Poly((-0.5, 0, 1)), 2) == 3.5


def test_eval_at_surd():
    # 1 - t^2 at t = 2 - sqrt(3); direct algebra gives 4*sqrt(3) - 6
    t = 2 - math.sqrt(3)
    expect = 4 * math.sqrt(3) - 6
    assert poly_eval(Poly((1, 0, -1)), t) == pytest.approx(expect, rel=1e-14)


def test_homography_identity():
    identity = PolyMatrix2(P_ONE, P_ZERO, P_ZERO, P_ONE)
    assert homography_apply(identity, 0.7, 123.0) == 0.7


def test_homography_reciprocal():
    m = PolyMatrix2(P_ZERO, P_ONE, P_ONE, P_ZERO)
    assert homography_apply(m, 4.0, 0.3) == 0.25


def test_homography_fixed_point():
    # [[x, -1], [1 - x^2, x]] at x = 2 fixes 1/sqrt(3):
    # (2g - 1) / (-3g + 2) = g  when g = 1/sqrt(3).
    m = PolyMatrix2(Poly((0, 1)), Poly((-1,)), Poly((1, 0, -1)), Poly((0, 1)))
    g = 1 / math.sqrt(3)
    assert homography_apply(m, g, 2.0) == pytest.approx(g, rel=1e-14)


def test_homography_pole():
    # c(t) g + d(t) = 0 at g = 1, t anything
    m = PolyMatrix2(P_ONE, P_ONE, P_ONE, Poly((-1,)))
    with pytest.raises(DenominatorVanishes):
        homography_apply(m, 1.0, 0.5)
