import random

import pytest
from hypothesis import settings

from ortho_szego.opuc import VerblunskySeq
from ortho_szego.szego import geronimus_forward

# No example database: a stored failure would replay in every later run of
# the checkout, and the tests must not depend on what an earlier run left.
settings.register_profile("no_database", database=None)
settings.load_profile("no_database")


def random_alpha(rng: random.Random, n: int, bound: float = 0.9) -> VerblunskySeq:
    """Real coefficients drawn uniformly from (-bound, bound)."""
    return VerblunskySeq(tuple(rng.uniform(-bound, bound) for _ in range(n)))


def random_admissible_rc(rng: random.Random, pairs: int, bound: float = 0.9):
    """Recurrence data guaranteed to come from a measure inside [-1, 1]."""
    return geronimus_forward(random_alpha(rng, 2 * pairs, bound), pairs)


@pytest.fixture
def rng():
    return random.Random(20260810)
