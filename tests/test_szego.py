import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ortho_szego.errors import (
    DivisionDegenerate,
    InsufficientCoefficients,
    SupportViolation,
)
from ortho_szego.oprl import RealRecurrence, chebyshev_t, chebyshev_u
from ortho_szego.opuc import VerblunskySeq
from ortho_szego.szego import (
    alpha_from_v,
    check_rel,
    geronimus_forward,
    geronimus_inverse,
    lu_check,
    map_x_to_z,
    v_from_alpha,
    v_from_recurrence,
)
from ortho_szego.tolerances import PIVOT_TOL, SUPPORT_TOL

from conftest import random_admissible_rc, random_alpha
from test_opuc import u_pattern


def exact_inverse(b: list[Fraction], d: list[Fraction]) -> list[Fraction]:
    """Independent oracle: the coefficient inversion in exact rational
    arithmetic, written directly from the defining relations."""
    alpha: list[Fraction] = []

    def a(j):
        if j == -1:
            return Fraction(-1)
        if j == -2:
            return Fraction(0)
        return alpha[j]

    for m in range(len(d)):
        even = (2 * b[m] + (1 + a(2 * m - 1)) * a(2 * m - 2)) / (1 - a(2 * m - 1))
        alpha.append(even)
        odd = -1 + 4 * d[m] / ((1 - a(2 * m - 1)) * (1 - even**2))
        alpha.append(odd)
    return alpha


def exact_forward(alpha: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    def a(j):
        if j == -1:
            return Fraction(-1)
        if j == -2:
            return Fraction(0)
        return alpha[j]

    n = len(alpha) // 2
    d = [Fraction(1, 4) * (1 - a(2 * m - 1)) * (1 - a(2 * m) ** 2) * (1 + a(2 * m + 1))
         for m in range(n)]
    b = [Fraction(1, 2) * (a(2 * m) * (1 - a(2 * m - 1)) - a(2 * m - 2) * (1 + a(2 * m - 1)))
         for m in range(n)]
    return b, d


class TestGeronimusForward:
    def test_zero_alpha_gives_chebyshev_t(self):
        rc = geronimus_forward(VerblunskySeq((0.0,) * 24), 12)
        assert rc.b == (0.0,) * 12
        assert rc.d[0] == 0.5
        assert rc.d[1:] == (0.25,) * 11

    def test_u_pattern_gives_chebyshev_u(self):
        rc = geronimus_forward(u_pattern(24), 12)
        for bn in rc.b:
            assert bn == pytest.approx(0.0, abs=1e-15)
        for dn in rc.d:
            assert dn == pytest.approx(0.25, abs=1e-15)

    def test_matches_exact_arithmetic(self, rng):
        fr = [Fraction(rng.randint(-8, 8), 10) for _ in range(12)]
        vs = VerblunskySeq(tuple(float(f) for f in fr))
        rc = geronimus_forward(vs, 6)
        eb, ed = exact_forward(fr)
        for m in range(6):
            assert rc.b[m] == pytest.approx(float(eb[m]), abs=1e-14)
            assert rc.d[m] == pytest.approx(float(ed[m]), abs=1e-14)

    def test_even_alpha_zero_iff_b_zero(self, rng):
        # odd-only sequence: every even entry zero forces b == 0
        alphas = tuple(0.0 if k % 2 == 0 else rng.uniform(-0.8, 0.8) for k in range(16))
        rc = geronimus_forward(VerblunskySeq(alphas), 8)
        assert all(abs(bn) < 1e-15 for bn in rc.b)
        # and conversely a nonzero even entry shows up in some b
        bumped = list(alphas)
        bumped[4] = 0.3
        rc2 = geronimus_forward(VerblunskySeq(tuple(bumped)), 8)
        assert any(abs(bn) > 1e-3 for bn in rc2.b)


class TestGeronimusInverse:
    def test_chebyshev_t_gives_zero_alpha(self):
        vs = geronimus_inverse(chebyshev_t(), 12)
        assert vs.alpha == (0.0,) * 24

    def test_chebyshev_u_gives_u_pattern(self):
        # oracle: run the recursion in exact arithmetic
        exact = exact_inverse([Fraction(0)] * 12, [Fraction(1, 4)] * 12)
        assert exact[1] == Fraction(-1, 2)
        assert exact[3] == Fraction(-1, 3)
        assert exact[5] == Fraction(-1, 4)
        vs = geronimus_inverse(chebyshev_u(), 12)
        for k in range(24):
            assert vs.alpha[k].real == pytest.approx(float(exact[k]), abs=1e-14)

    def test_boundary_support_violation(self):
        rc = RealRecurrence((0.0,), (1.0,))
        with pytest.raises(SupportViolation) as exc:
            geronimus_inverse(rc, 1)
        assert exc.value.index == 1

    def test_matches_exact_arithmetic(self, rng):
        fr = [Fraction(rng.randint(-7, 7), 10) for _ in range(10)]
        eb, ed = exact_forward(fr)
        rc = RealRecurrence(tuple(float(x) for x in eb), tuple(float(x) for x in ed))
        vs = geronimus_inverse(rc, 5)
        back = exact_inverse(eb, ed)
        for k in range(10):
            assert back[k] == fr[k]  # exact oracle is self-consistent
            assert vs.alpha[k].real == pytest.approx(float(fr[k]), abs=1e-12)


def _jitter_spread(rc: RealRecurrence, n: int, trials: int = 4) -> float:
    """Largest change of the inverse when every input entry moves by one
    ulp in a seeded random direction: the draw's own conditioning."""
    rng = random.Random(n)
    base = geronimus_inverse(rc, n).real_view()

    def jitter(xs):
        return tuple(math.nextafter(x, rng.choice((-math.inf, math.inf))) for x in xs)

    spread = 0.0
    for _ in range(trials):
        moved = geronimus_inverse(RealRecurrence(jitter(rc.b), jitter(rc.d)), n).real_view()
        spread = max(spread, max(abs(x - y) for x, y in zip(moved, base)))
    return spread


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-85, max_value=85), min_size=2, max_size=24)
       .filter(lambda xs: len(xs) % 2 == 0))
@example(ints=[0, 8, 3, 79, 0, 0, 41, 85, 85, 85, 82, 82])
def test_roundtrip_inverse_of_forward(ints):
    # hypothesis hunts corner sequences (runs of +/-0.85) whose inversion is
    # badly conditioned (the example loses 1e-10), so the tolerance is 10x
    # the draw's spread under 1-ulp input jitter, not a fixed number; the
    # seeded acceptance suite pins 1e-11 on the uniform (-0.9, 0.9) draws.
    vs = VerblunskySeq(tuple(i / 100.0 for i in ints))
    n = len(ints) // 2
    rc = geronimus_forward(vs, n)
    tol = 10.0 * _jitter_spread(rc, n) + 1e-15
    back = geronimus_inverse(rc, n)
    for k in range(2 * n):
        assert back.alpha[k].real == pytest.approx(vs.alpha[k].real, abs=tol)


def test_roundtrip_forward_of_inverse(rng):
    for _ in range(25):
        rc = random_admissible_rc(rng, 20)
        again = geronimus_forward(geronimus_inverse(rc, 20), 20)
        for m in range(20):
            assert again.b[m] == pytest.approx(rc.b[m], abs=1e-11)
            assert again.d[m] == pytest.approx(rc.d[m], rel=1e-11)


class TestVSequence:
    def test_lebesgue(self):
        v = v_from_alpha(VerblunskySeq((0.0,) * 6))
        assert v == (1.0,) + (0.5,) * 5

    def test_u_pattern_values(self):
        v = v_from_alpha(u_pattern(6))
        expect = (1.0, 0.25, 0.75, 1 / 3, 2 / 3, 0.375)
        assert v == pytest.approx(expect, rel=1e-15)

    def test_product_and_sum_identities(self, rng):
        # d_{k+1} = v_{2k} v_{2k+1}  and  b_{k+1} + 1 = v_{2k-1} + v_{2k}
        vs = random_alpha(rng, 16)
        v = v_from_alpha(vs)
        rc = geronimus_forward(vs, 8)
        for k in range(8):
            assert v[2 * k] * v[2 * k + 1] == pytest.approx(rc.d[k], rel=1e-12)
            assert (v[2 * k - 1] if k else 0.0) + v[2 * k] == pytest.approx(rc.b[k] + 1, rel=1e-12)

    def test_alpha_from_v_examples(self):
        assert alpha_from_v((1.0, 0.5, 0.5, 0.5)).alpha == (0.0,) * 4
        vs = alpha_from_v((1.0, 0.25, 0.75, 1 / 3))
        expect = (0.0, -0.5, 0.0, -1 / 3)
        for k in range(4):
            assert vs.alpha[k].real == pytest.approx(expect[k], abs=1e-15)

    def test_alpha_v_roundtrip(self):
        rng = random.Random(7)
        for _ in range(100):
            vs = random_alpha(rng, 10)
            back = alpha_from_v(v_from_alpha(vs))
            for k in range(10):
                assert back.alpha[k].real == pytest.approx(vs.alpha[k].real, abs=1e-11)

    def test_v_from_recurrence_chebyshev(self):
        vt = v_from_recurrence(chebyshev_t(), 3)
        assert vt == (1.0, 0.5, 0.5)
        vu = v_from_recurrence(chebyshev_u(), 4)
        assert vu[:3] == (1.0, 0.25, 0.75)
        assert vu[3] == pytest.approx(1 / 3, rel=1e-15)

    def test_v_path_independence(self, rng):
        for _ in range(20):
            vs = random_alpha(rng, 12)
            rc = geronimus_forward(vs, 6)
            via_cf = v_from_recurrence(rc, 12)
            via_alpha = v_from_alpha(vs)
            assert via_cf == pytest.approx(via_alpha, rel=1e-11, abs=1e-11)

    def test_short_b_names_the_count(self):
        # v_2 = b_2 + 1 - v_1 needs b_2, which one pair lacks
        with pytest.raises(InsufficientCoefficients, match=r"^need 2 b coefficients, have 1$"):
            v_from_recurrence(RealRecurrence((0.0,), (0.25,)), 3)

    def test_division_degenerate(self):
        rc = RealRecurrence((-1.0, 0.0), (0.25, 0.25))  # b_1 + 1 = 0 pivot
        with pytest.raises(DivisionDegenerate):
            v_from_recurrence(rc, 2)

    def test_v_from_recurrence_pivot_bound(self):
        # b = (0, -1) gives v_0 = 1, v_1 = d_1 and v_2 = -d_1 exactly.  At the
        # bound PIVOT_TOL (1 + |d_2|) the pivot v_2 passes, one float nearer
        # 0 it has vanished; a negative d_2 scales the bound as a positive one
        for d2 in (-3.0, 2.0, -1.0):
            tol = PIVOT_TOL * (1.0 + abs(d2))
            for d1 in (tol, -tol):
                rc = RealRecurrence((0.0, -1.0), (d1, d2))
                assert v_from_recurrence(rc, 4) == (1.0, d1, -d1, d2 / -d1)
                rc = RealRecurrence((0.0, -1.0), (math.nextafter(d1, 0.0), d2))
                with pytest.raises(DivisionDegenerate, match="^pivot v_2 vanished$"):
                    v_from_recurrence(rc, 4)


class TestNanInput:
    """A NaN fails the first guard it reaches instead of flowing through:
    each guard is written `not lo < x < hi` or `not x >= bound`, which NaN
    does not pass."""

    NAN_PAIRS = RealRecurrence((math.nan,) * 3, (0.25,) * 3)

    def test_inverse_raises_at_first_coefficient(self):
        with pytest.raises(SupportViolation) as exc:
            geronimus_inverse(self.NAN_PAIRS, 3)
        assert exc.value.index == 0 and math.isnan(exc.value.value)

    def test_inverse_nan_d(self):
        # a_2 = 0 is computed from b_2; the NaN d_2 then fails a_3's guard
        rc = RealRecurrence((0.0,) * 3, (0.25, math.nan, 0.25))
        with pytest.raises(SupportViolation) as exc:
            geronimus_inverse(rc, 3)
        assert exc.value.index == 3 and math.isnan(exc.value.value)

    def test_pivot_peel_raises_at_first_pivot(self):
        # a NaN pivot is reported the way a vanished one is
        with pytest.raises(DivisionDegenerate, match=r"pivot v_0 vanished"):
            v_from_recurrence(self.NAN_PAIRS, 6)

    def test_alpha_from_v_raises_at_first_coefficient(self):
        for v, index in (((math.nan, 1.0), 0), ((1.0, 0.5, math.nan, 1.0), 2)):
            with pytest.raises(SupportViolation) as exc:
                alpha_from_v(v)
            assert exc.value.index == index and math.isnan(exc.value.value)


def test_pivot_tol_is_below_support_tol():
    # geronimus_inverse and alpha_from_v never check 1 - a_{k-1}: every
    # a_{k-1} they divide by passed the support guard, so 1 - a_{k-1} >
    # SUPPORT_TOL, and that guard could not fire
    assert PIVOT_TOL < SUPPORT_TOL


def test_divisor_guards_at_the_bound():
    # d_1 gives a_1 just inside 1 - SUPPORT_TOL, and b_2 then gives the a_2
    # below, which puts the divisor (1 - a_1)(1 - a_2^2) on PIVOT_TOL
    # exactly.  There the guard passes, and a_3 = -1 + d_2 / PIVOT_TOL
    # leaves (-1, 1); two floats up on b_2 the divisor has vanished
    b2, d1 = 4.772767222327177e-13, 0.9999999999994971
    a1, a2 = 0.9999999999989941, 0.9489904054745604
    assert geronimus_inverse(RealRecurrence((0.0,), (d1,)), 1).real_view() == (0.0, a1)
    assert a1 < 1.0 - SUPPORT_TOL and 2.0 * b2 / (1.0 - a1) == a2
    assert (1.0 - a1) * (1.0 - a2 * a2) == PIVOT_TOL
    with pytest.raises(SupportViolation, match=r"^coefficient at index 3 left"):
        geronimus_inverse(RealRecurrence((0.0, b2), (d1, 0.25)), 2)
    b2_up = math.nextafter(math.nextafter(b2, 1.0), 1.0)
    with pytest.raises(DivisionDegenerate, match=r"^\(1 - a_1\)\(1 - a_2\^2\) vanished$"):
        geronimus_inverse(RealRecurrence((0.0, b2_up), (d1, 0.25)), 2)


class TestExactSquares:
    """The kernels square a coefficient as a * a, the correctly rounded
    square; a**2 goes through pow, which can be an ulp off (it is at A0
    with glibc)."""

    A0 = -0.7597202166547182

    def test_forward(self):
        d = geronimus_forward(VerblunskySeq((self.A0, 0.1)), 1).d[0]
        assert d == 0.25 * 2.0 * (1.0 - float(Fraction(self.A0) ** 2)) * 1.1
        assert d == 0.23255385582335938

    def test_inverse(self):
        rc = RealRecurrence((self.A0,), (0.23255385582335938,))
        assert geronimus_inverse(rc, 1).real_view() == (self.A0, 0.10000000000000009)


class TestLuCheck:
    def test_chebyshev_t(self):
        rc = chebyshev_t()
        assert lu_check(rc, v_from_recurrence(rc, 8), 4)

    def test_random_admissible(self, rng):
        rc = random_admissible_rc(rng, 8)
        res = lu_check(rc, v_from_recurrence(rc, 12), 6)
        assert res and res.max_abs_error < 1e-12

    def test_detects_corruption(self):
        rc = chebyshev_t()
        clean = v_from_recurrence(rc, 8)
        # v_3 enters (L U)_{2,1} = v_3 v_2 and (L U)_{2,2} = v_4 + v_3;
        # v_6 enters only the last diagonal entry (L U)_{3,3} = v_6 + v_5
        for k, cells in ((3, [(2, 1), (2, 2)]), (6, [(3, 3)])):
            v = list(clean)
            v[k] += 1e-3
            res = lu_check(rc, tuple(v), 4)
            assert not res
            assert [(row, col) for row, col, *_ in res.mismatches] == cells
            row, col, got, want = res.mismatches[-1]
            assert want == 1.0 and got - want == pytest.approx(1e-3, rel=1e-9)
            assert res.max_abs_error == pytest.approx(1e-3, rel=1e-9)


    def test_nan_pivot_is_the_worst_error(self):
        # max keeps a NaN only when it comes first; the NaN cell is the last
        v = v_from_recurrence(chebyshev_t(), 8)[:6] + (math.nan,)
        res = lu_check(chebyshev_t(), v, 4)
        assert not res and math.isnan(res.max_abs_error)
        assert [(row, col) for row, col, *_ in res.mismatches] == [(3, 3)]


class TestConformalMaps:
    def test_x_two(self):
        assert map_x_to_z(2.0) == pytest.approx(2 - math.sqrt(3), rel=1e-15)

    def test_fixed_endpoint(self):
        assert map_x_to_z(1.0) == pytest.approx(1.0)

    def test_inverse_relation(self, rng):
        for _ in range(20):
            x = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
            if abs(x.imag) < 0.1:
                continue
            z = map_x_to_z(x)
            assert abs(z) <= 1 + 1e-12
            assert 0.5 * (z + 1 / z) == pytest.approx(x, rel=1e-12)

    def test_cut_branch_has_nonneg_imag(self):
        z = map_x_to_z(0.3)
        assert abs(abs(z) - 1) < 1e-12 and z.imag >= 0


class TestRelIdentity:
    def test_chebyshev_t_degree_one(self):
        rc = chebyshev_t()
        vs = geronimus_inverse(rc, 12)
        assert check_rel(rc, vs, 1, math.pi / 3) < 1e-14

    def test_degree_zero(self):
        rc = chebyshev_t()
        vs = geronimus_inverse(rc, 12)
        assert check_rel(rc, vs, 0, 0.77) < 1e-14

    def test_chebyshev_u(self):
        rc = chebyshev_u()
        vs = geronimus_inverse(rc, 12)
        assert check_rel(rc, vs, 2, 1.1) < 1e-12

    def test_random_pairs(self, rng):
        for _ in range(50):
            rc = random_admissible_rc(rng, 8)
            vs = geronimus_inverse(rc, 8)
            n = rng.randint(0, 6)
            theta = rng.uniform(0.05, math.pi - 0.05)
            assert check_rel(rc, vs, n, theta) < 1e-10


class TestLoopErrors:
    """The inversion loop names an error's index from the length of its
    output so far.  On Chebyshev-T-like data every a_k is 0 up to the pair
    that fails, pair 3 (a_6, a_7)."""

    # a_5 = 1 - 1e-11 once a_3 = a_4 = 0; then a_6 = 1 - 4e-12 makes
    # (1 - a_5)(1 - a_6^2) ~ 8e-23, below PIVOT_TOL
    D3 = (2 - 1e-11) / 4
    B4 = (1 - 4e-12) * 1e-11 / 2

    @pytest.mark.parametrize("b, d, exc, message", [
        ((0.0, 0.0, 0.0, 0.6), (0.5, 0.25, 0.25, 0.25),
         SupportViolation, "coefficient at index 6 left (-1, 1): 1.2"),
        ((0.0,) * 4, (0.5, 0.25, 0.25, 0.6),
         SupportViolation, "coefficient at index 7 left (-1, 1): 1.4"),
        ((0.0, 0.0, 0.0, B4), (0.5, 0.25, D3, 0.25),
         DivisionDegenerate, "(1 - a_5)(1 - a_6^2) vanished"),
    ])
    def test_index_from_the_output_length(self, b, d, exc, message):
        with pytest.raises(exc) as info:
            geronimus_inverse(RealRecurrence(b, d), 4)
        assert str(info.value) == message
        if exc is SupportViolation:
            assert info.value.index == int(message.split()[3])

    def test_alpha_from_v_index(self):
        # v_3 = 1 sends a_3 to 1 after a_0 = a_1 = a_2 = 0
        with pytest.raises(SupportViolation) as info:
            alpha_from_v((1.0, 0.5, 0.5, 1.0, 0.5))
        assert info.value.index == 3 and info.value.value == 1.0


class TestShortN:
    """An n <= 0 computes no entry and reads nothing from the end of the
    data: the NaN there would raise if it were read."""

    RC = RealRecurrence((0.0, 0.0, math.nan), (0.25, 0.25, math.nan))

    @pytest.mark.parametrize("n", [-1, -2, 0])
    def test_inverse(self, n):
        assert geronimus_inverse(self.RC, n).alpha == ()
