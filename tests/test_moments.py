"""The Szego bridge as an identity of moments, in exact arithmetic.

The line measure is the image of the circle measure under theta -> cos
theta, so its k-th Chebyshev moment, the integral of T_k(x), equals the
k-th moment c_k of the circle measure.  Both sides are computed here in
``fractions.Fraction`` by code that shares nothing with the bridge
kernels:

* circle side: c_0 .. c_m from a_0 .. a_{m-1} through the orthogonality of
  the monic Szego polynomials, Phi_{k+1} = z Phi_k - a_k Phi_k^* and
  <Phi_k, 1> = 0, so c_k = -sum_{i<k} [z^i]Phi_k c_i;
* line side: the monomial moments m_j = (J^j)_{00}, as weighted walks on
  the monic Jacobi matrix of (b, d), moved to the T_k basis.

A mistake made the same way in the forward and the inverse kernel passes
every round trip; it does not pass these checks.
"""

import random
import sys
from fractions import Fraction

from ortho_szego.oprl import chebyshev_t, chebyshev_u
from ortho_szego.opuc import VerblunskySeq
from ortho_szego.perturb import sieve, sieve2_recurrence
from ortho_szego.szego import geronimus_forward, geronimus_inverse

from conftest import _forward

U = sys.float_info.epsilon / 2


def circle_moments(a):
    """c_0 .. c_{len(a)} of the circle measure with real coefficients a."""
    phi, c = [Fraction(1)], [Fraction(1)]  # Phi_k, lowest power first
    for ak in a:
        # real coefficients: Phi_k^* lists those of Phi_k in reverse
        phi = [p - ak * s for p, s in zip([0] + phi, phi[::-1] + [0])]
        c.append(-sum(p * ci for p, ci in zip(phi, c)))
    return c


def chebyshev_moments(b, d):
    """The integrals of T_0 .. T_{2n} against the line measure of the
    pairs (b_1..b_n, d_1..d_n).

    m_j = (J^j)_{00} for J with b_{i+1} on the diagonal, 1 above it and
    d_{i+1} below it (x P_i = P_{i+1} + b_{i+1} P_i + d_i P_{i-1}).  A walk
    of length <= 2n from level 0 back to it never stays at level n, so the
    last diagonal entry, 0 here, changes none of them.
    """
    n = len(b)
    diag = list(b) + [0]
    walks = [Fraction(1)] + [Fraction(0)] * n  # walks from level 0, by the level they end at
    m = []
    for _ in range(2 * n + 1):
        m.append(walks[0])
        walks = [(walks[i - 1] if i else 0) + diag[i] * walks[i]
                 + (d[i] * walks[i + 1] if i < n else 0) for i in range(n + 1)]
    ts = [[1], [0, 1]]  # coefficients of T_k, lowest power first
    while len(ts) < len(m):
        ts.append([2 * x - y for x, y in zip([0] + ts[-1], ts[-2] + [0, 0])])
    return [sum(t * mj for t, mj in zip(tk, m)) for tk in ts[:len(m)]]


def _exact(xs):
    return [Fraction(x) for x in xs]


def _draws(seed, count):
    """count float draws of 2n coefficients, n = 1..8, |a| <= 0.9."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        yield n, tuple(rng.uniform(-0.9, 0.9) for _ in range(2 * n))


def _within_rounding(got, want):
    """|got_k - want_k| <= 4 k^2 u for every k.  Each b and d is within a
    few ulp of its exact value, and by Markov's inequality |T_k'| <= k^2
    on [-1, 1]; at n <= 8 the kernels stay below 0.3 k^2 u."""
    assert len(got) == len(want)
    for k, (x, y) in enumerate(zip(got, want)):
        assert abs(x - y) <= 4 * k * k * U, (k, float(x - y))


def test_the_maps_on_hand_values():
    # Phi_1 = z - 1/2 and Phi_2 = z^2 - z/3 - 1/3 give c_1 = c_2 = 1/2
    assert circle_moments([Fraction(1, 2), Fraction(1, 3)]) == [1, Fraction(1, 2), Fraction(1, 2)]
    # the arcsine measure (T) has no Chebyshev moment past T_0, the
    # semicircle (U) only -1/2 at T_2
    assert chebyshev_moments(_exact(chebyshev_t(8).b), _exact(chebyshev_t(8).d)) == [1] + [0] * 16
    assert chebyshev_moments(_exact(chebyshev_u(8).b), _exact(chebyshev_u(8).d)) == (
        [1, 0, Fraction(-1, 2)] + [0] * 14)


def test_chebyshev_moments_are_circle_moments_exactly():
    rng = random.Random(20261019)
    for _ in range(150):
        n = rng.randint(1, 8)
        a = [Fraction(rng.randint(-900, 900), 1000) for _ in range(2 * n)]
        assert chebyshev_moments(*_forward(a, n)) == circle_moments(a), a


def test_geronimus_forward():
    for n, a in _draws(1, 100):
        rc = geronimus_forward(VerblunskySeq(a), n)
        _within_rounding(chebyshev_moments(_exact(rc.b), _exact(rc.d)), circle_moments(_exact(a)))


def test_geronimus_inverse():
    # admissible line data: the forward image of drawn coefficients
    for n, a in _draws(2, 100):
        rc = geronimus_forward(VerblunskySeq(a), n)
        got = geronimus_inverse(rc, n).alpha
        _within_rounding(circle_moments(_exact(got)), chebyshev_moments(_exact(rc.b), _exact(rc.d)))


def _stride(c, ell, count):
    """The moments of the stride-ell sieved measure: c_{j/ell} when ell
    divides j, 0 otherwise, for j < count."""
    return [c[j // ell] if j % ell == 0 else 0 for j in range(count)]


def test_sieve():
    # sieve only moves entries, so its moments are exact
    rng = random.Random(3)
    for _ in range(40):
        a = tuple(rng.uniform(-0.9, 0.9) for _ in range(rng.randint(0, 6)))
        c = circle_moments(_exact(a))
        for ell in range(1, 5):
            sieved = sieve(VerblunskySeq(a), ell).alpha
            assert circle_moments(_exact(sieved)) == _stride(c, ell, len(sieved) + 1), (a, ell)


def test_sieve2_recurrence():
    # n pairs of the stride-2 sieved family read a_0 .. a_{n-1}
    for n, a in _draws(4, 100):
        rc = sieve2_recurrence(VerblunskySeq(a[:n]), n)
        c = circle_moments(_exact(a[:n]))
        _within_rounding(chebyshev_moments(_exact(rc.b), _exact(rc.d)), _stride(c, 2, 2 * n + 1))
