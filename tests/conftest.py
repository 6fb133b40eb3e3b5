import random

import pytest
from hypothesis import settings

from ortho_szego.opuc import VerblunskySeq
from ortho_szego.szego import geronimus_forward

# No example database: a stored failure would replay in every later run of
# the checkout, and the tests must not depend on what an earlier run left.
settings.register_profile("no_database", database=None)
settings.load_profile("no_database")


def _forward(a, n):
    """The forward relations (b_1..b_n, d_1..d_n), with a_{-1} = -1 and
    a_{-2} = 0, written with int constants: exact on Fraction input, and
    on floats bit-identical to szego.geronimus_forward (scaling by a power
    of two commutes with rounding)."""
    b, d = [], []
    am2, am1 = 0, -1
    for m in range(n):
        a0, a1 = a[2 * m], a[2 * m + 1]
        d.append((1 - am1) * (1 - a0 ** 2) * (1 + a1) / 4)
        b.append((a0 * (1 - am1) - am2 * (1 + am1)) / 2)
        am2, am1 = a0, a1
    return b, d


def random_alpha(rng: random.Random, n: int, bound: float = 0.9) -> VerblunskySeq:
    """Real coefficients drawn uniformly from (-bound, bound)."""
    return VerblunskySeq(tuple(rng.uniform(-bound, bound) for _ in range(n)))


def random_admissible_rc(rng: random.Random, pairs: int, bound: float = 0.9):
    """Recurrence data guaranteed to come from a measure inside [-1, 1]."""
    return geronimus_forward(random_alpha(rng, 2 * pairs, bound), pairs)


@pytest.fixture
def rng():
    return random.Random(20260810)
