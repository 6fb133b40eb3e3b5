"""The transfer-matrix builders refuse bad orders and short data when they
are built, not when the matrix is first evaluated, each with its own
exception and message.

The grid is b, d and alpha lengths 0-3 and k from -1 to 3.  For the
anti-associated builders k is the number of prepended entries, and k = -1
stands for an invalid prepend: b and d lists of unequal length on the
line, xi_0 = 1.5 on the circle.
"""

import pytest

from ortho_szego.errors import InsufficientCoefficients, InvalidPrepend, InvalidXi
from ortho_szego.oprl import RealRecurrence
from ortho_szego.opuc import VerblunskySeq
from ortho_szego.spectral import (
    matrix_B_antiassoc,
    matrix_B_assoc,
    matrix_Upsilon_antiassoc,
    matrix_Upsilon_assoc,
)

ORDERS = (-1, 0, 1, 2, 3)
LENGTHS = (0, 1, 2, 3)


def _short(needed, have, what):
    return InsufficientCoefficients, f"need {needed} {what}, have {have}"


_NB = "b coefficients"
_ND = "d coefficients"
_NA = "alpha coefficients"

# matrix_B_assoc at k = 1, 2, 3 for each (len b, len d); None builds.
# k = -1 and k = 0 refuse the order before looking at the data.
B_ASSOC = {
    (0, 0): (_short(1, 0, _NB), _short(2, 0, _NB), _short(3, 0, _NB)),
    (0, 1): (_short(1, 0, _NB), _short(2, 0, _NB), _short(3, 0, _NB)),
    (0, 2): (_short(1, 0, _NB), _short(2, 0, _NB), _short(3, 0, _NB)),
    (0, 3): (_short(1, 0, _NB), _short(2, 0, _NB), _short(3, 0, _NB)),
    (1, 0): (_short(1, 0, "coefficients"), _short(2, 1, _NB), _short(3, 1, _NB)),
    (1, 1): (None, _short(2, 1, _NB), _short(3, 1, _NB)),
    (1, 2): (None, _short(2, 1, _NB), _short(3, 1, _NB)),
    (1, 3): (None, _short(2, 1, _NB), _short(3, 1, _NB)),
    (2, 0): (_short(1, 0, "coefficients"), _short(1, 0, _ND), _short(3, 2, _NB)),
    (2, 1): (None, _short(2, 1, _ND), _short(3, 2, _NB)),
    (2, 2): (None, None, _short(3, 2, _NB)),
    (2, 3): (None, None, _short(3, 2, _NB)),
    (3, 0): (_short(1, 0, "coefficients"), _short(1, 0, _ND), _short(2, 0, _ND)),
    (3, 1): (None, _short(2, 1, _ND), _short(2, 1, _ND)),
    (3, 2): (None, None, _short(3, 2, _ND)),
    (3, 3): (None, None, None),
}

# matrix_Upsilon_assoc at k = 0, 1, 2, 3 for each len alpha; None builds.
UPSILON_ASSOC = {
    0: (None, _short(1, 0, _NA), _short(2, 0, _NA), _short(3, 0, _NA)),
    1: (None, None, _short(2, 1, _NA), _short(3, 1, _NA)),
    2: (None, None, None, _short(3, 2, _NA)),
    3: (None, None, None, None),
}


def _line_cases():
    for nb in LENGTHS:
        for nd in LENGTHS:
            for k in ORDERS:
                yield pytest.param(nb, nd, k, id=f"b{nb}-d{nd}-k{k}")


def _circle_cases():
    for na in LENGTHS:
        for k in ORDERS:
            yield pytest.param(na, k, id=f"a{na}-k{k}")


def _outcome(build):
    try:
        build()
    except Exception as exc:  # the class is part of what is pinned
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("nb, nd, k", _line_cases())
def test_b_assoc_construction(nb, nd, k):
    rc = RealRecurrence((0.1,) * nb, (0.3,) * nd)
    want = (ValueError, "association order must be >= 1") if k < 1 else B_ASSOC[nb, nd][k - 1]
    assert _outcome(lambda: matrix_B_assoc(rc, k)) == want


@pytest.mark.parametrize("nb, nd, k", _line_cases())
def test_b_antiassoc_construction(nb, nd, k):
    # the matrix reads only the prepended pairs, so short base data builds
    rc = RealRecurrence((0.1,) * nb, (0.3,) * nd)
    pre_b, pre_d = ((0.2,), ()) if k < 0 else ((0.2,) * k, (0.4,) * k)
    want = {-1: (InvalidPrepend, "prepended b and d lists must have equal length"),
            0: (ValueError, "anti-association order must be >= 1")}.get(k)
    assert _outcome(lambda: matrix_B_antiassoc(rc, pre_b, pre_d)) == want


def test_b_antiassoc_zero_prepended_d():
    rc = RealRecurrence((0.1,), (0.3,))
    assert _outcome(lambda: matrix_B_antiassoc(rc, (0.2, 0.2), (0.4, 0.0))) == (
        InvalidPrepend, "prepended d entries must be nonzero")


@pytest.mark.parametrize("na, k", _circle_cases())
def test_upsilon_assoc_construction(na, k):
    vs = VerblunskySeq((0.3,) * na)
    want = (ValueError, "association order must be >= 0") if k < 0 else UPSILON_ASSOC[na][k]
    assert _outcome(lambda: matrix_Upsilon_assoc(vs, k)) == want


@pytest.mark.parametrize("na, k", _circle_cases())
def test_upsilon_antiassoc_construction(na, k):
    # the matrix reads only the prepended sequence's first k entries
    vs = VerblunskySeq((0.3,) * na)
    xi = (1.5,) if k < 0 else (0.2,) * k
    want = (InvalidXi, "|xi_0| = 1.5 >= 1") if k < 0 else None
    assert _outcome(lambda: matrix_Upsilon_antiassoc(vs, xi)) == want
