import math

import pytest

from ortho_szego.errors import DenominatorVanishes
from ortho_szego.polyhom import homography_apply


def test_homography_identity():
    assert homography_apply(lambda t: (1.0, 0.0, 0.0, 1.0), 0.7, 123.0) == 0.7


def test_homography_reciprocal():
    assert homography_apply(lambda t: (0.0, 1.0, 1.0, 0.0), 4.0, 0.3) == 0.25


def test_homography_fixed_point():
    # [[x, -1], [1 - x^2, x]] at x = 2 fixes 1/sqrt(3):
    # (2g - 1) / (-3g + 2) = g  when g = 1/sqrt(3).
    g = 1 / math.sqrt(3)
    got = homography_apply(lambda x: (x, -1.0, 1.0 - x * x, x), g, 2.0)
    assert got == pytest.approx(g, rel=1e-14)


def test_homography_evaluates_at_the_point():
    # the entries are read at t, not at a fixed point: [[t, 0], [0, 1]] scales g by t
    def m(t):
        return t, 0.0, 0.0, 1.0
    assert homography_apply(m, 0.5, 3.0) == 1.5
    assert homography_apply(m, 0.5, -2.0) == -1.0


def test_homography_pole():
    # c(t) g + d(t) = 0 at g = 1, t anything
    with pytest.raises(DenominatorVanishes):
        homography_apply(lambda t: (1.0, 1.0, 1.0, -1.0), 1.0, 0.5)
