import math
import random

import pytest

from ortho_szego import spectral
from ortho_szego.errors import EvaluationDomain, PoleHit
from ortho_szego.oprl import (
    RealRecurrence,
    chebyshev_t,
    chebyshev_u,
    prepend_coefficients,
    shift_coefficients,
)
from ortho_szego.opuc import VerblunskySeq, prepend_verblunsky, shift_verblunsky
from ortho_szego.polyhom import homography_apply
from ortho_szego.spectral import (
    CFunctionHandle,
    SFunctionHandle,
    antiassoc_order1_cfun_secondkind,
    antiassoc_order2_sfun_matrix,
    assoc_order1_cfun,
    assoc_order2_sfun_matrix,
    f_convergent,
    f_value,
    fs_bridge_check,
    matrix_B_antiassoc,
    matrix_B_assoc,
    matrix_Upsilon_antiassoc,
    matrix_Upsilon_assoc,
    s_convergent,
    s_value,
    szego_conjugate_check,
)
from ortho_szego.szego import geronimus_forward, geronimus_inverse, map_x_to_z

from conftest import random_alpha


def long_random_alpha(seed: int, n: int = 100, bound: float = 0.6) -> VerblunskySeq:
    return random_alpha(random.Random(seed), n, bound)


class TestSConvergent:
    def test_chebyshev_t_closed_form(self):
        h = SFunctionHandle(chebyshev_t(), 30)
        assert s_convergent(h, 2.0) == pytest.approx(1 / math.sqrt(3), abs=1e-9)

    def test_chebyshev_u_closed_form(self):
        h = SFunctionHandle(chebyshev_u(), 30)
        assert s_convergent(h, 2.0) == pytest.approx(2 * (2 - math.sqrt(3)), abs=1e-9)

    def test_depth_one(self):
        h = SFunctionHandle(RealRecurrence((0.7,), ()), 1)
        assert s_convergent(h, 2.0) == pytest.approx(1 / 1.3, rel=1e-15)

    def test_large_x_decay(self):
        # S ~ 1/x for a probability measure
        h = SFunctionHandle(chebyshev_t(), 40)
        assert s_convergent(h, 1e4) == pytest.approx(1e-4, rel=1e-6)

    def test_forbidden_zone(self):
        h = SFunctionHandle(chebyshev_t(), 10)
        with pytest.raises(EvaluationDomain):
            s_convergent(h, 0.5)
        with pytest.raises(EvaluationDomain):
            s_convergent(h, 1.0 + 1e-9j)

    def test_plateau_stability(self):
        vs = long_random_alpha(11, 120)
        rc = geronimus_forward(vs, 60)
        for x in (1.5, -1.5, 2.0, 3.0):
            a = s_convergent(SFunctionHandle(rc, 40), x)
            b = s_convergent(SFunctionHandle(rc, 50), x)
            assert abs(a - b) < 1e-9

    def test_value_and_error_estimate(self):
        val, err = s_value(SFunctionHandle(chebyshev_t(), 40), 2.0)
        assert val == pytest.approx(1 / math.sqrt(3), abs=1e-10)
        assert err < 1e-10


def naive_s_convergent(rc, depth, x):
    """The line-side recurrence with no rescaling, as a reference where it
    stays finite."""
    p_prev, p_cur, q_prev, q_cur = 1.0 + 0j, x - rc.b[0], 0j, 1.0 + 0j
    for k in range(1, depth):
        xb = x - rc.b[k]
        p_prev, p_cur = p_cur, xb * p_cur - rc.d[k - 1] * p_prev
        q_prev, q_cur = q_cur, xb * q_cur - rc.d[k - 1] * q_prev
    return q_cur / p_cur


def naive_f_states(vs, depth, z):
    """Phi*_depth(z), Omega*_depth(z) and the largest state modulus seen,
    with no rescaling."""
    phi = phis = om = oms = 1.0 + 0j
    top = 1.0
    for a in vs.alpha[:depth]:
        phi, phis = z * phi - a.conjugate() * phis, phis - a * z * phi
        om, oms = z * om + a.conjugate() * oms, oms + a * z * om
        top = max(top, abs(phis), abs(oms))
    return phis, oms, top


class TestLargeStates:
    """The convergent states grow like |x|^k on the line and up to 2^k on
    the circle; they are rescaled by powers of two before they overflow."""

    @pytest.mark.parametrize("x", [1e8, 1e10, 1e200, 1e300, -1e300, 1e300j, 1e200 - 1e200j])
    def test_huge_line_point_is_finite(self, x):
        val, err = s_value(SFunctionHandle(chebyshev_t(), 40), x)
        assert val == pytest.approx(1 / x, rel=1e-12)
        assert err <= 1e-12 * abs(val)

    def test_rescaling_keeps_every_bit(self):
        # at x = 3e7 the states pass the rescaling trigger (~2^935) by
        # order 38 but stay finite unscaled through order 40
        rc = geronimus_forward(long_random_alpha(2, 120, 0.35), 60)
        for x in (3e7, -3e7, 2e7 + 2e7j):
            assert abs(naive_s_convergent(rc, 40, x).real) < math.inf
            assert s_convergent(SFunctionHandle(rc, 40), x) == naive_s_convergent(rc, 40, x)

    def test_circle_rescaling_keeps_every_bit(self):
        # the states grow ~2^0.45 per step: past the trigger (2^960) near
        # order 2130, unscaled overflow near order 2270
        vs = VerblunskySeq((0.99, -0.99) * 1200)
        z = 0.95j
        checked = 0
        for depth in range(2100, 2270, 13):
            phis, oms, top = naive_f_states(vs, depth, z)
            if top > 2.0 ** 960:
                assert f_convergent(CFunctionHandle(vs, depth), z) == oms / phis
                checked += 1
        assert checked

    @pytest.mark.parametrize("z", [0.95j, -0.95])
    def test_deep_circle_data_is_finite(self, z):
        # 3000 coefficients of modulus 0.99: unscaled, 0.95j overflowed
        # (OverflowError) and -0.95 gave nan
        vs = VerblunskySeq((0.99, -0.99) * 1500)
        deep, err = f_value(CFunctionHandle(vs, 3000), z)
        shallow = f_convergent(CFunctionHandle(vs, 700), z)
        assert deep == pytest.approx(shallow, rel=1e-12)
        assert err < 1e-12


class TestRealStates:
    """Real data at a real point keep real convergent states; the results
    are complex all the same, and a message prints a circle point as
    complex(z) and a line point as given."""

    def test_results_are_complex(self):
        sh = SFunctionHandle(chebyshev_t(), 20)
        ch = CFunctionHandle(long_random_alpha(5, 40, 0.5), 40)
        for x in (2.0, -1.5, 3):
            assert type(s_convergent(sh, x)) is complex
            assert type(s_value(sh, x)[0]) is complex
        for z in (0.3, -0.5, 0.0, 0):
            assert type(f_convergent(ch, z)) is complex
            assert type(f_value(ch, z)[0]) is complex

    def test_imaginary_part_is_positive_zero(self):
        rc = geronimus_forward(long_random_alpha(7, 40, 0.5), 20)
        vs = long_random_alpha(8, 40, 0.5)
        for depth in (1, 2, 20):
            for x in (2.0, -2.0, -1.5, 3.0):
                val = s_value(SFunctionHandle(rc, depth), x)[0]
                assert math.copysign(1.0, val.imag) == 1.0, (depth, x, val)
            for z in (0.3, -0.5, -0.9):
                val = f_value(CFunctionHandle(vs, depth), z)[0]
                assert math.copysign(1.0, val.imag) == 1.0, (depth, z, val)

    def test_messages_print_the_point_as_given(self, monkeypatch):
        sh = SFunctionHandle(chebyshev_t(), 10)
        ch = CFunctionHandle(VerblunskySeq((0.2,) * 5), 3)
        with pytest.raises(EvaluationDomain, match=r"^x = 0\.5 is within 1e-06 of \[-1, 1\]$"):
            s_value(sh, 0.5)
        with pytest.raises(EvaluationDomain, match=r"^\|z\| = 1\.0 is not inside"):
            f_value(ch, 1)
        # a pole test that always fires pins the message at order 1
        monkeypatch.setattr(spectral, "POLE_TOL", 10.0)
        with pytest.raises(PoleHit) as exc:
            f_value(ch, 0.3)
        assert str(exc.value) == "convergent denominator vanished at z = (0.3+0j) (order 1)"
        with pytest.raises(PoleHit) as exc:
            s_value(sh, -2)
        assert str(exc.value) == "convergent denominator vanished at x = -2 (order 1)"


class TestFConvergent:
    def test_lebesgue_is_one(self):
        h = CFunctionHandle(VerblunskySeq((0.0,) * 25), 20)
        for z in (0.0, 0.4, -0.3 + 0.2j):
            assert f_convergent(h, z) == 1.0

    def test_u_pattern_closed_form(self):
        vs = geronimus_inverse(chebyshev_u(), 20)
        h = CFunctionHandle(vs, 30)
        assert f_convergent(h, 0.3) == pytest.approx(0.91, abs=1e-9)

    def test_value_at_origin_every_depth(self):
        vs = long_random_alpha(3, 30)
        for depth in (1, 7, 25):
            assert f_convergent(CFunctionHandle(vs, depth), 0.0) == 1.0

    def test_forbidden_zone(self):
        h = CFunctionHandle(VerblunskySeq((0.0,) * 5), 3)
        with pytest.raises(EvaluationDomain):
            f_convergent(h, 1.0)

    def test_plateau_stability(self):
        vs = long_random_alpha(17, 120)
        for z in (0.5, -0.45, 0.3 + 0.3j):
            a = f_convergent(CFunctionHandle(vs, 40), z)
            b = f_convergent(CFunctionHandle(vs, 50), z)
            assert abs(a - b) < 1e-9

    def test_value_and_error_estimate(self):
        vs = geronimus_inverse(chebyshev_u(), 25)
        val, err = f_value(CFunctionHandle(vs, 40), 0.3)
        assert val == pytest.approx(0.91, abs=1e-10)
        assert err < 1e-10


class TestPlateauError:
    """s_value and f_value return c_D and |c_D - c_{max(D-10, 1)}|, each
    convergent as s_convergent / f_convergent give it on its own handle,
    at depths the kernel digest does not reach."""

    DEPTHS = (1, 10, 11, 12, 40, 60)

    def test_line(self):
        rc = geronimus_forward(long_random_alpha(23, 120, 0.8), 60)
        for x in (1.05, -1.3 + 0.1j, 2.5):
            for depth in self.DEPTHS:
                val, err = s_value(SFunctionHandle(rc, depth), x)
                back = s_convergent(SFunctionHandle(rc, max(depth - 10, 1)), x)
                assert val == s_convergent(SFunctionHandle(rc, depth), x)
                assert err == abs(val - back)
                assert err > 0.0 or depth == 1

    def test_circle(self):
        vs = long_random_alpha(29, 60, 0.8)
        for z in (0.9, -0.6 + 0.3j, 0.2j):
            for depth in self.DEPTHS:
                val, err = f_value(CFunctionHandle(vs, depth), z)
                back = f_convergent(CFunctionHandle(vs, max(depth - 10, 1)), z)
                assert val == f_convergent(CFunctionHandle(vs, depth), z)
                assert err == abs(val - back)
                assert err > 0.0 or depth == 1

    def test_pole_below_the_kept_orders_still_raises(self):
        # P_1(2) = 0: the order-1 denominator vanishes, 39 orders before
        # the first convergent s_value reads
        rc = RealRecurrence((2.0,) + (0.0,) * 39, (0.25,) * 40)
        with pytest.raises(PoleHit, match=r"\(order 1\)"):
            s_value(SFunctionHandle(rc, 40), 2.0)


class TestBridge:
    def test_chebyshev_pairs(self):
        # T at x=2: (1-z^2)/(2z) = sqrt(3), S = 1/sqrt(3), F = 1
        assert fs_bridge_check(chebyshev_t(), 2.0, 40) < 1e-12
        assert fs_bridge_check(chebyshev_u(), 2.0, 40) < 1e-12

    def test_standard_points_random_pairs(self):
        for seed in range(20):
            vs = long_random_alpha(seed, 120)
            rc = geronimus_forward(vs, 60)
            for x in (1.5, -1.5, 2.0, -2.0, 3.0):
                assert fs_bridge_check(rc, x, 40) < 1e-8


class TestTransferMatrices:
    def test_b_assoc_maps_convergents(self):
        vs = long_random_alpha(5, 120)
        rc = geronimus_forward(vs, 60)
        for k in (1, 2, 3):
            m = matrix_B_assoc(rc, k)
            for x in (1.8, -2.1, 2.5):
                s0 = s_convergent(SFunctionHandle(rc, 40), x)
                sk = s_convergent(SFunctionHandle(shift_coefficients(rc, k), 40), x)
                assert abs(homography_apply(m, s0, x) - sk) < 1e-8

    def test_b_assoc_det_nonzero(self):
        a, b, c, d = matrix_B_assoc(chebyshev_t(), 2)(1.3)
        assert abs(a * d - b * c) > 1e-12

    def test_b_antiassoc_maps_convergents(self):
        vs = long_random_alpha(6, 120)
        rc = geronimus_forward(vs, 60)
        rng = random.Random(8)
        for k in (1, 2, 3):
            pb = tuple(rng.uniform(-0.4, 0.4) for _ in range(k))
            pd = tuple(rng.uniform(0.1, 0.5) for _ in range(k))
            m = matrix_B_antiassoc(rc, pb, pd)
            a, b, c, d = m(2.0)
            assert abs(a * d - b * c) > 1e-12
            for x in (1.7, -2.4, 3.0):
                s0 = s_convergent(SFunctionHandle(rc, 40), x)
                sk = s_convergent(
                    SFunctionHandle(prepend_coefficients(rc, pb, pd), 40), x)
                assert abs(homography_apply(m, s0, x) - sk) < 1e-8

    def test_upsilon_assoc_k0_is_identity_homography(self):
        m = matrix_Upsilon_assoc(VerblunskySeq((0.3, -0.2)), 0)
        for z in (0.5, -0.3 + 0.2j):
            assert m(z) == (2, 0, 0, 2)
        assert homography_apply(m, 0.37, 0.5) == pytest.approx(0.37)

    def test_upsilon_assoc_lebesgue_k2_fixes_one(self):
        m = matrix_Upsilon_assoc(VerblunskySeq((0.0,) * 4), 2)
        for z in (0.3, 0.5j, -0.2 + 0.1j):
            assert homography_apply(m, 1.0, z) == pytest.approx(1.0, rel=1e-14)

    def test_upsilon_assoc_maps_convergents(self):
        vs = long_random_alpha(7, 120)
        for k in (1, 2, 3):
            m = matrix_Upsilon_assoc(vs, k)
            for z in (0.45, -0.38, 0.3 + 0.25j):
                f0 = f_convergent(CFunctionHandle(vs, 40), z)
                fk = f_convergent(CFunctionHandle(shift_verblunsky(vs, k), 40), z)
                assert abs(homography_apply(m, f0, z) - fk) < 1e-8

    def test_upsilon_antiassoc_maps_convergents(self):
        vs = long_random_alpha(9, 120)
        rng = random.Random(10)
        for k in (1, 2, 3):
            xi = tuple(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4))
                       for _ in range(k))
            m = matrix_Upsilon_antiassoc(vs, xi)
            for z in (0.42, -0.31, 0.2 - 0.35j):
                f0 = f_convergent(CFunctionHandle(vs, 40), z)
                fk = f_convergent(CFunctionHandle(prepend_verblunsky(vs, xi), 40), z)
                assert abs(homography_apply(m, f0, z) - fk) < 1e-8


class TestConjugation:
    def test_identity_matrix_zero_residual(self):
        rc = chebyshev_u()
        r = szego_conjugate_check(lambda x: (1.0, 0.0, 0.0, 1.0), rc, rc, 0.2,
                                  side="line", depth=40)
        assert r < 1e-14

    def test_b1_of_chebyshev_t(self):
        rc = chebyshev_t()
        m = matrix_B_assoc(rc, 1)
        r = szego_conjugate_check(m, rc, shift_coefficients(rc, 1), 0.2,
                                  side="line", depth=40)
        assert r < 1e-8

    def test_upsilon2_circle_direction_at_x2(self):
        vs = geronimus_inverse(chebyshev_u(64), 42)
        m = matrix_Upsilon_assoc(vs, 2)
        z = map_x_to_z(2.0)
        r = szego_conjugate_check(m, vs, shift_verblunsky(vs, 2), z,
                                  side="circle", depth=40)
        assert r < 1e-8

    def test_every_matrix_kind_sounds(self):
        vs = long_random_alpha(13, 130, bound=0.5)
        rc = geronimus_forward(vs, 65)
        rng = random.Random(14)
        zs = (0.2, -0.15, 0.1 + 0.2j)
        for k in (1, 2):
            m = matrix_B_assoc(rc, k)
            for z in zs:
                assert szego_conjugate_check(
                    m, rc, shift_coefficients(rc, k), z, side="line", depth=40) < 1e-8
            xi = tuple(rng.uniform(-0.4, 0.4) for _ in range(k))
            mu = matrix_Upsilon_assoc(vs, k)
            for z in (0.25, 0.18):
                assert szego_conjugate_check(
                    mu, vs, shift_verblunsky(vs, k), z, side="circle", depth=40) < 1e-8
            ma = matrix_Upsilon_antiassoc(vs, xi)
            for z in (0.25, 0.18):
                assert szego_conjugate_check(
                    ma, vs, prepend_verblunsky(vs, xi), z, side="circle", depth=40) < 1e-8


class TestCorollaryFixtures:
    def test_assoc_order1_on_chebyshev_t(self):
        vs_u = geronimus_inverse(chebyshev_u(), 41)
        for i in range(10):
            z = 0.05 + 0.04 * i
            pred = assoc_order1_cfun(z, 1.0, 0.0, 0.5)  # F of T data is 1
            assert pred == pytest.approx(1 - z * z, abs=1e-9)
            direct = f_convergent(CFunctionHandle(vs_u, 40), z)
            assert abs(pred - direct) < 1e-9

    def test_antiassoc_order1_reciprocal_relation(self):
        base = chebyshev_u()
        pb, pd = 0.3, 0.2
        vs0 = geronimus_inverse(base, 41)
        vs_pre = geronimus_inverse(prepend_coefficients(base, (pb,), (pd,)), 41)
        for z in (0.2, 0.35, -0.3, 0.1 + 0.2j):
            f0 = f_convergent(CFunctionHandle(vs0, 40), z)
            f_pre = f_convergent(CFunctionHandle(vs_pre, 40), z)
            assert abs(antiassoc_order1_cfun_secondkind(z, f0, pb, pd) - 1.0 / f_pre) < 1e-9

    def test_assoc_order2_matrix_on_lebesgue(self):
        # shift of the zero sequence is the zero sequence: the homography
        # must fix the first-kind transform
        m = assoc_order2_sfun_matrix(0.0, 0.0)
        s_t = s_convergent(SFunctionHandle(chebyshev_t(), 40), 2.0)
        assert abs(homography_apply(m, s_t, 2.0) - s_t) < 1e-9

    def test_assoc_order2_matrix_on_chebyshev_u(self):
        vs = geronimus_inverse(chebyshev_u(), 42)
        m = assoc_order2_sfun_matrix(0.0, vs.at(1).real)
        h_u = SFunctionHandle(chebyshev_u(), 40)
        # continued-fraction oracle: 1/(2 - (1/3) * S_tail) with the all-1/4 tail
        tail = 2 * (2 - math.sqrt(3))
        want = 1.0 / (2.0 - tail / 3.0)
        assert homography_apply(m, s_convergent(h_u, 2.0), 2.0).real == pytest.approx(
            want, abs=1e-9)
        shifted = SFunctionHandle(RealRecurrence((0.0,) * 45, (1 / 3,) + (0.25,) * 44), 40)
        for x in (2.0, -1.8, 2.5):
            got = homography_apply(m, s_convergent(h_u, x), x)
            assert abs(got - s_convergent(shifted, x)) < 1e-9

    def test_antiassoc_order2_matrix(self):
        xi0, xi1 = 0.3, -0.5
        vs0 = VerblunskySeq((0.0,) * 90)
        m = antiassoc_order2_sfun_matrix(xi0, xi1)
        h_t = SFunctionHandle(chebyshev_t(), 40)
        rc_pre = geronimus_forward(prepend_verblunsky(vs0, (xi0, xi1)), 42)
        h_pre = SFunctionHandle(rc_pre, 40)
        for x in (2.0, -1.8, 2.5):
            got = homography_apply(m, s_convergent(h_t, x), x)
            assert abs(got - s_convergent(h_pre, x)) < 1e-9


def test_handles_default_to_depth_40():
    circle = geronimus_inverse(chebyshev_t(), 64)
    assert SFunctionHandle(chebyshev_t()).depth == CFunctionHandle(circle).depth == 40
