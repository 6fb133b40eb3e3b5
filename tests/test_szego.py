import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ortho_szego.errors import (
    DivisionDegenerate,
    SupportViolation,
    ZeroArgument,
)
from ortho_szego.oprl import RealRecurrence, chebyshev_t, chebyshev_u
from ortho_szego.opuc import VerblunskySeq
from ortho_szego.szego import (
    VSeq,
    alpha_from_v,
    check_rel,
    geronimus_forward,
    geronimus_inverse,
    invert_from,
    lu_check,
    map_x_to_z,
    map_z_to_x,
    v_from_alpha,
    v_from_recurrence,
)

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

    def test_invert_from_any_prefix_is_bit_identical(self, rng):
        for n in (1, 4, 9):
            rc = random_admissible_rc(rng, n)
            full = geronimus_inverse(rc, n)
            want = [a.real.hex() for a in full.alpha]
            for j in range(2 * n + 1):
                got = invert_from(rc, full.real_view()[:j], n)
                assert [a.real.hex() for a in got.alpha] == want


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
        assert v.v == (1.0,) + (0.5,) * 5

    def test_u_pattern_values(self):
        v = v_from_alpha(u_pattern(6))
        expect = (1.0, 0.25, 0.75, 1 / 3, 2 / 3, 0.375)
        for k in range(6):
            assert v.at(k) == pytest.approx(expect[k], rel=1e-15)

    def test_product_and_sum_identities(self, rng):
        # d_{k+1} = v_{2k} v_{2k+1}  and  b_{k+1} + 1 = v_{2k-1} + v_{2k}
        vs = random_alpha(rng, 16)
        v = v_from_alpha(vs)
        rc = geronimus_forward(vs, 8)
        for k in range(8):
            assert v.at(2 * k) * v.at(2 * k + 1) == pytest.approx(rc.d[k], rel=1e-12)
            assert v.at(2 * k - 1) + v.at(2 * k) == pytest.approx(rc.b[k] + 1, rel=1e-12)

    def test_alpha_from_v_examples(self):
        assert alpha_from_v(VSeq((1.0, 0.5, 0.5, 0.5))).alpha == (0.0,) * 4
        vs = alpha_from_v(VSeq((1.0, 0.25, 0.75, 1 / 3)))
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
        assert vt.v == (1.0, 0.5, 0.5)
        vu = v_from_recurrence(chebyshev_u(), 4)
        assert vu.at(0) == 1.0
        assert vu.at(1) == 0.25
        assert vu.at(2) == 0.75
        assert vu.at(3) == pytest.approx(1 / 3, rel=1e-15)

    def test_v_path_independence(self, rng):
        for _ in range(20):
            vs = random_alpha(rng, 12)
            rc = geronimus_forward(vs, 6)
            via_cf = v_from_recurrence(rc, 12)
            via_alpha = v_from_alpha(vs, 12)
            for k in range(12):
                assert via_cf.at(k) == pytest.approx(via_alpha.at(k), rel=1e-11, abs=1e-11)

    def test_division_degenerate(self):
        rc = RealRecurrence((-1.0, 0.0), (0.25, 0.25))  # b_1 + 1 = 0 pivot
        with pytest.raises(DivisionDegenerate):
            v_from_recurrence(rc, 2)


class TestNanInput:
    """A NaN fails the first guard it reaches instead of flowing through:
    each guard is written `not abs(x) < bound`, which NaN does not pass."""

    NAN_PAIRS = RealRecurrence((math.nan,) * 3, (0.25,) * 3)

    def test_inverse_raises_at_first_coefficient(self):
        with pytest.raises(SupportViolation) as exc:
            geronimus_inverse(self.NAN_PAIRS, 3)
        assert exc.value.index == 0 and math.isnan(exc.value.value)

    def test_invert_from_nan_d(self):
        rc = RealRecurrence((0.0,) * 3, (0.25, math.nan, 0.25))
        with pytest.raises(SupportViolation) as exc:
            invert_from(rc, (0.0,), 3)
        assert exc.value.index == 3

    def test_pivot_peel_raises_at_first_pivot(self):
        # a NaN pivot is reported the way a vanished one is
        with pytest.raises(DivisionDegenerate, match=r"pivot v_0 vanished"):
            v_from_recurrence(self.NAN_PAIRS, 6)

    def test_alpha_from_v_raises_at_first_coefficient(self):
        with pytest.raises(SupportViolation) as exc:
            alpha_from_v(VSeq((math.nan, 1.0)))
        assert exc.value.index == 0


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
        clean = v_from_recurrence(rc, 8).v
        # v_3 enters (L U)_{2,1} = v_3 v_2 and (L U)_{2,2} = v_4 + v_3;
        # v_6 enters only the last diagonal entry (L U)_{3,3} = v_6 + v_5
        for k, cells in ((3, [(2, 1), (2, 2)]), (6, [(3, 3)])):
            v = list(clean)
            v[k] += 1e-3
            res = lu_check(rc, VSeq(tuple(v)), 4)
            assert not res
            assert [(row, col) for row, col, *_ in res.mismatches] == cells
            row, col, got, want = res.mismatches[-1]
            assert want == 1.0 and got - want == pytest.approx(1e-3, rel=1e-9)
            assert res.max_abs_error == pytest.approx(1e-3, rel=1e-9)


class TestConformalMaps:
    def test_x_two(self):
        assert map_x_to_z(2.0) == pytest.approx(2 - math.sqrt(3), rel=1e-15)

    def test_circle_to_segment(self):
        for theta in (0.3, 1.2, 2.9):
            z = cmath.exp(1j * theta)
            assert map_z_to_x(z) == pytest.approx(math.cos(theta), rel=1e-15)

    def test_fixed_endpoint(self):
        assert map_x_to_z(1.0) == pytest.approx(1.0)

    def test_inverse_relation(self, rng):
        for _ in range(20):
            x = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
            if abs(x.imag) < 0.1:
                continue
            z = map_x_to_z(x)
            assert abs(z) <= 1 + 1e-12
            assert map_z_to_x(z) == pytest.approx(x, rel=1e-12)

    def test_cut_branch_has_nonneg_imag(self):
        z = map_x_to_z(0.3)
        assert abs(abs(z) - 1) < 1e-12 and z.imag >= 0

    def test_zero_argument(self):
        with pytest.raises(ZeroArgument):
            map_z_to_x(0.0)


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
