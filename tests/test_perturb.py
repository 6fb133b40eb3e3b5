import math
import random
from fractions import Fraction
from functools import reduce

import pytest

from ortho_szego._value import Value, _unchecked
from ortho_szego.cli import main
from ortho_szego.errors import (
    AlphaOutOfRange,
    ComplexAlpha,
    DivisionDegenerate,
    InsufficientCoefficients,
    InvalidEta,
    InvalidXi,
    OrthoError,
    SupportViolation,
)
from ortho_szego.oprl import RealRecurrence, chebyshev_t, chebyshev_u, shift_coefficients
from ortho_szego.opuc import VerblunskySeq
from ortho_szego.perturb import (
    ORACLE,
    SHORTCUT,
    CLOSED_FORM,
    DEFAULT,
    MAX_SIEVE_LENGTH,
    SPECS,
    AntiAssociated,
    Associated,
    CoDilated,
    CoRecursive,
    KModification,
    Sieve,
    _symmetric_from,
    antiassoc_oprl_to_verblunsky,
    antiassoc_opuc_to_recurrence,
    assoc_oprl_to_verblunsky,
    assoc_opuc_to_recurrence,
    coprl_apply,
    coprl_verblunsky,
    copuc_apply,
    max_deviation,
    path_discrepancy_report,
    perturbed_alpha_lu,
    perturbed_v,
    sieve,
    sieve2_recurrence,
    sieved_kmod_recurrence,
    symmetric_codilated_verblunsky,
    symmetric_verblunsky,
)
from ortho_szego.serialize import dumps_recurrence
from ortho_szego.szego import geronimus_forward, geronimus_inverse
from ortho_szego.tolerances import PIVOT_TOL

from conftest import random_admissible_rc, random_alpha
from test_opuc import u_pattern


def assert_rc_close(got, want, tol=1e-10):
    for m in range(min(len(got), len(want))):
        assert got.b[m] == pytest.approx(want.b[m], abs=tol)
        assert got.d[m] == pytest.approx(want.d[m], rel=tol, abs=tol)


def assert_vs_close(got, want, tol=1e-10, upto=None):
    n = min(len(got), len(want)) if upto is None else upto
    for j in range(n):
        assert got.alpha[j] == pytest.approx(want.alpha[j], abs=tol)


class TestSpecValidation:
    def test_codilated_rejects_index_zero(self):
        with pytest.raises(ValueError):
            CoDilated(0, 0.5)

    def test_codilated_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            CoDilated(1, 0.0)

    @pytest.mark.parametrize("lam, tau, message", [
        (math.inf, 0.0, "co-dilation factor must be finite"),
        (1.0, math.nan, "co-recursion shift must be finite"),
        (1.0, math.inf, "co-recursion shift must be finite"),
        (1.0, -math.inf, "co-recursion shift must be finite"),
    ])
    def test_non_finite_parameters_are_refused_on_every_path(self, lam, tau, message):
        # the families once reported these as properties of the data: a
        # SupportViolation at index 2, or a pivot v_0 that vanished
        rc = chebyshev_u(8)
        runs = [lambda p=p: perturbed_v(rc, 1, lam, tau, 4, p) for p in (DEFAULT, SHORTCUT)]
        runs += [lambda p=p: coprl_verblunsky(rc, 1, lam, tau, 4, p) for p in (CLOSED_FORM, ORACLE)]
        runs.append(lambda: CoDilated(1, lam) if lam != 1.0 else CoRecursive(1, tau))
        for run in runs:
            with pytest.raises(ValueError) as info:
                run()
            assert str(info.value) == message

    def test_exact_and_complex_parameters_keep_their_errors(self):
        assert CoDilated(1, Fraction(1, 3)).lam == Fraction(1, 3)
        assert CoRecursive(1, Fraction(-1, 5)).tau == Fraction(-1, 5)
        assert CoRecursive(1, 0.5j).tau == 0.5j
        with pytest.raises(TypeError):
            CoDilated(1, 0.5j)

    def test_kmod_rejects_large_eta(self):
        with pytest.raises(InvalidEta):
            KModification(0, 1.2)

    def test_misc_constructors(self):
        Associated(0), AntiAssociated(xi=(0.1,)), Sieve(2), CoRecursive(0, 0.3)
        with pytest.raises(ValueError):
            Sieve(0)


# kind -> (a minimal valid file entry, the sides of apply, the sides of paths)
REGISTRY = {
    "co_dilated": ({"k": 1, "lambda": 0.5}, {"line"}, {"line"}),
    "co_recursive": ({"k": 0, "tau": 0.3}, {"line"}, {"line"}),
    "k_modification": ({"k": 0, "eta": 0.3}, {"circle"}, set()),
    "associated": ({"k": 1}, {"line", "circle"}, {"line", "circle"}),
    "anti_associated": ({"xi": [0.2]}, {"line", "circle"}, {"line", "circle"}),
    "sieve": ({"ell": 2}, {"circle"}, set()),
}


class TestRegistry:
    def test_every_kind_is_registered(self):
        assert set(SPECS) == set(REGISTRY)

    @pytest.mark.parametrize("kind", sorted(REGISTRY))
    def test_entry_is_its_spec_class(self, kind):
        cls = SPECS[kind]
        entry, apply_sides, path_sides = REGISTRY[kind]
        assert cls.kind == kind and issubclass(cls, Value)
        assert type(cls.read({"kind": kind, **entry})) is cls
        assert set(cls.apply) == apply_sides
        assert set(cls.paths) == path_sides

    @pytest.mark.parametrize("kind, side, entry, pairs", [
        ("co_dilated", "line", {"k": 1, "lambda": 0.5}, 8),
        ("co_recursive", "line", {"k": 9, "tau": 0.1}, 11),
        ("associated", "line", {"k": 2}, 8),
        ("associated", "line", {"k": 20}, 4),
        ("anti_associated", "line", {"pre_b": [0.0], "pre_d": [0.25]}, 8),
        ("associated", "circle", {"k": 3}, 7),
        ("anti_associated", "circle", {"xi": [0.2]}, 9),
    ])
    def test_both_paths_window(self, kind, side, entry, pairs):
        # 24 line pairs or 20 circle coefficients; pairs is the output length
        # of both routes, in line pairs or circle pairs
        data = chebyshev_u(24) if side == "line" else VerblunskySeq((0.0,) * 20)
        cls = SPECS[kind]
        spec = cls.read({"kind": kind, **entry})
        order, run = cls.paths[side](data, spec)
        assert order == (1 if kind == "anti_associated" else spec.k)
        for path in (CLOSED_FORM, ORACLE):
            out = run(path=path)
            assert (len(out) if side == "circle" else len(out.alpha) // 2) == pairs


class TestCoprlApply:
    def test_dilation_turns_t_into_u(self):
        out = coprl_apply(chebyshev_t(32), CoDilated(1, 0.5))
        assert out.d == (0.25,) * 32 and out.b == (0.0,) * 32

    def test_corecursive_shifts_one_b(self):
        out = coprl_apply(chebyshev_t(32), CoRecursive(0, 0.3))
        assert out.b[0] == 0.3 and out.b[1:] == (0.0,) * 31
        assert out.d == chebyshev_t(32).d

    def test_identity_specs(self):
        rc = chebyshev_u()
        for spec in (CoDilated(2, 1.0), CoRecursive(1, 0.0)):
            assert coprl_apply(rc, spec) == rc

    def test_a_repeated_index_composes_as_perturb_does(self, tmp_path):
        # a spec list folds in order, in the library as in a spec file
        rc = chebyshev_u(8)
        out = reduce(coprl_apply, [CoDilated(1, 0.5), CoDilated(1, 3.0)], rc)
        assert out.d == (1.5 * rc.d[0],) + rc.d[1:] and out.b == rc.b
        src, spec, dest = (tmp_path / name for name in ("u.json", "spec.json", "out.json"))
        src.write_text(dumps_recurrence(rc))
        spec.write_text('[{"kind": "co_dilated", "k": 1, "lambda": 0.5},'
                        ' {"kind": "co_dilated", "k": 1, "lambda": 3.0}]')
        assert main(["perturb", "--in", str(src), "--spec", str(spec),
                     "--side", "line", "--out", str(dest)]) == 0
        assert dest.read_text() == dumps_recurrence(out)


class TestCoprlVerblunsky:
    def test_t_to_u_with_half_dilation(self):
        # M = 4 (lam-1) d_1 / ((1 - a_{-1})(1 - a_0^2)) = 2(lam-1)d_1 = -1/2
        got = coprl_verblunsky(chebyshev_t(), 1, 0.5, 0.0, 12)
        assert_vs_close(got, u_pattern(24), 1e-12)

    def test_boundary_dilation_violates_support(self):
        with pytest.raises(SupportViolation) as exc:
            coprl_verblunsky(chebyshev_t(), 1, 2.0, 0.0, 6)
        assert exc.value.index == 1

    def test_identity(self):
        rc = chebyshev_u()
        got = coprl_verblunsky(rc, 2, 1.0, 0.0, 10)
        assert_vs_close(got, u_pattern(20), 1e-13)

    def test_prefix_bit_preserved(self):
        rc = chebyshev_u()
        base = coprl_verblunsky(rc, 4, 1.0, 0.0, 12)  # = plain inversion
        got = coprl_verblunsky(rc, 4, 1.1, 0.05, 12)
        assert got.alpha[: 2 * 4 - 1] == base.alpha[: 2 * 4 - 1]
        assert got.alpha[2 * 4 - 1] != base.alpha[2 * 4 - 1]

    def test_theorem_matches_oracle(self, rng):
        # the paper's shifted head, evaluated on the unperturbed head, against
        # the map; a head that leaves (-1, 1) is outside the formula's domain
        checked = 0
        for _ in range(50):
            rc = random_admissible_rc(rng, 14)
            k = rng.randint(1, 4)
            lam = rng.uniform(0.6, 1.4)
            tau = rng.uniform(-0.2, 0.2)
            try:
                got = coprl_verblunsky(rc, k, lam, tau, 12)
                a = geronimus_inverse(rc, k + 1).alpha
            except SupportViolation:
                continue
            want = _co_shifted_head(a, rc.d[k - 1], k, lam, tau)
            assert list(got.alpha[:2 * k + 1]) == pytest.approx(want, abs=1e-10)
            checked += 1
        assert checked >= 10

    def test_statement_is_the_inversion_on_the_perturbed_data_exactly(self):
        # the paper's statement in exact arithmetic: the forward relations on
        # the shifted head a-hat_0 .. a-hat_{2k} give every pair up to b_{k+1}
        # back, with d_k -> lam d_k and b_{k+1} -> b_{k+1} + tau; so the map,
        # which inverts the perturbed data, gives that head too
        rng = random.Random(3032)
        checked = 0
        for _ in range(40):
            n = rng.randint(1, 6)
            k = rng.randint(0, n - 1)
            a = [Fraction(rng.randint(-90, 90), 100) for _ in range(2 * n)]
            lam = 1 + Fraction(rng.choice((-1, 1)) * rng.randint(1, 70), 100) if k else 1
            tau = Fraction(rng.choice((-1, 1)) * rng.randint(1, 20), 100)
            b, d = _forward(a, n)
            head = _co_shifted_head(a, d[k - 1] if k else 0, k, lam, tau)
            b_hat, d_hat = _forward(head + [0], k + 1)  # d_{k+1} reads the padding
            assert b_hat == b[:k] + [b[k] + tau]
            assert d_hat[:k] == [lam * x if j == k - 1 else x for j, x in enumerate(d[:k])]
            rc = geronimus_forward(VerblunskySeq(tuple(map(float, a))), n)
            try:
                got = coprl_verblunsky(rc, k, float(lam), float(tau), n)
            except SupportViolation:
                continue
            assert list(got.alpha[:2 * k + 1]) == pytest.approx(list(map(float, head)), abs=1e-9)
            checked += 1
        assert checked >= 20

    def test_closed_form_ignores_the_unperturbed_tail(self):
        # the unperturbed a_6 leaves (-1, 1), the perturbed one does not;
        # the closed form inverted all 4 unperturbed pairs and raised there
        rc = RealRecurrence(
            (0.42473098610721627, -0.43896276684019947, 0.301601330614018, -0.1442824515915935),
            (0.6506698554957292, 0.10604163639236465, 0.25779957701120076, 0.44049948814593204))
        with pytest.raises(SupportViolation):
            geronimus_inverse(rc, 4)
        lam = 0.5441900611295434
        th = coprl_verblunsky(rc, 1, lam, 0.0, 4, path=CLOSED_FORM)
        br = coprl_verblunsky(rc, 1, lam, 0.0, 4, path=ORACLE)
        assert len(th) == len(br) == 8
        assert_vs_close(th, br, 1e-14)

    def test_continuity_at_identity(self, rng):
        rc = random_admissible_rc(rng, 10, bound=0.6)
        base = coprl_verblunsky(rc, 2, 1.0, 0.0, 10)
        for lam, tau in ((1 + 1e-8, 0.0), (1 - 1e-8, 0.0), (1.0, 1e-8), (1.0, -1e-8)):
            near = coprl_verblunsky(rc, 2, lam, tau, 10)
            for j in range(20):
                assert abs(near.alpha[j] - base.alpha[j]) < 1e-6


class TestCopucApply:
    def test_overwrite_semantics(self):
        vs = random_alpha(random.Random(5), 8)
        same = copuc_apply(vs, KModification(3, vs.at(3)))
        assert same == vs
        changed = copuc_apply(vs, KModification(3, 0.77))
        assert copuc_apply(changed, KModification(3, vs.at(3))) == vs

    def test_single_entry_changes(self):
        vs = VerblunskySeq((0.0,) * 6)
        out = copuc_apply(vs, KModification(0, 0.3))
        assert out.alpha == (0.3, 0, 0, 0, 0, 0)

    def test_rejects_large_eta(self):
        with pytest.raises(InvalidEta):
            copuc_apply(VerblunskySeq((0.0,)), KModification(0, 1.0))

    def test_rejects_negative_index(self):
        # a negative k must not overwrite an entry counted from the end
        with pytest.raises(ValueError, match="^modification index must be >= 0$"):
            copuc_apply(VerblunskySeq((0.1, 0.2)), KModification(-1, 0.3))

    def test_rejects_eta_of_modulus_one_once_stored(self):
        # |eta| < 1 as a Fraction, but 1.0 once stored as a complex
        eta = Fraction(10**20 - 1, 10**20)
        with pytest.raises(AlphaOutOfRange) as info:
            copuc_apply(VerblunskySeq((0.1, -0.2, 0.3)), KModification(1, eta))
        assert str(info.value) == "|alpha_1| = 1.0 >= 1"


class TestAssociatedLine:
    def test_k0_is_plain_inversion(self, rng):
        # the forward relations must give back the unshifted pairs
        rc = random_admissible_rc(rng, 10)
        for path in (CLOSED_FORM, ORACLE):
            got = assoc_oprl_to_verblunsky(rc, 0, 10, path=path)
            assert_rc_close(geronimus_forward(got, 10), rc)
            assert got.alpha[0] == pytest.approx(rc.b[0], abs=1e-15)

    def test_chebyshev_t_shift_one(self):
        got = assoc_oprl_to_verblunsky(chebyshev_t(), 1, 12)
        assert_vs_close(got, u_pattern(24), 1e-12)

    def test_theorem_matches_oracle(self, rng):
        # both paths run the inversion kernel; the forward relations, which
        # are independent code, must give back the shifted pairs
        for _ in range(50):
            rc = random_admissible_rc(rng, 18)
            k = rng.randint(0, 4)
            for path in (CLOSED_FORM, ORACLE):
                try:
                    got = assoc_oprl_to_verblunsky(rc, k, 12, path=path)
                except SupportViolation:
                    continue
                assert_rc_close(geronimus_forward(got, 12), shift_coefficients(rc, k))


class TestAntiAssociatedLine:
    def test_k0_is_plain_inversion(self, rng):
        # an empty prepend: the forward relations must give back the pairs
        rc = random_admissible_rc(rng, 10)
        for path in (CLOSED_FORM, ORACLE):
            got = antiassoc_oprl_to_verblunsky(rc, (), (), 10, path=path)
            assert_rc_close(geronimus_forward(got, 10), rc)

    def test_u_prepended_with_u_pair_stays_u(self):
        got = antiassoc_oprl_to_verblunsky(chebyshev_u(), (0.0,), (0.25,), 12)
        assert_vs_close(got, u_pattern(24), 1e-12)

    def test_theorem_matches_oracle(self, rng):
        # admissible by construction: the head of admissible pairs prepended
        # to their own tail; the forward relations must give back the pairs
        for _ in range(50):
            rc = random_admissible_rc(rng, 14)
            k = rng.randint(1, 4)
            tail = shift_coefficients(rc, k)
            for path in (CLOSED_FORM, ORACLE):
                try:
                    got = antiassoc_oprl_to_verblunsky(tail, rc.b[:k], rc.d[:k], 12, path=path)
                except SupportViolation:
                    continue
                assert_rc_close(geronimus_forward(got, 12), rc)


class TestAssociatedCircle:
    def test_odd_k_spot_values(self):
        # exact-arithmetic oracle for the k = 1 shift of the U pattern:
        # shifted a = (-1/2, 0, -1/3, 0, -1/4, ...)
        got = assoc_opuc_to_recurrence(u_pattern(26), 1, 8)
        assert got.b[0] == pytest.approx(-0.5, abs=1e-15)
        assert got.d[0] == pytest.approx(float(Fraction(3, 8)), abs=1e-15)
        assert got.d[1] == pytest.approx(float(Fraction(2, 9)), abs=1e-15)
        assert got.b[1] == pytest.approx(float(Fraction(1, 12)), abs=1e-15)

    def test_even_k_spot_values(self):
        # k = 2, m = 1: lam = 2/(1 - a_1) = 4/3, d-hat_1 = 1/3, rest 1/4
        got = assoc_opuc_to_recurrence(u_pattern(26), 2, 8)
        assert got.b[0] == pytest.approx(0.0, abs=1e-15)
        assert got.d[0] == pytest.approx(1 / 3, rel=1e-14)
        for m in range(1, 8):
            assert got.d[m] == pytest.approx(0.25, rel=1e-13)
            assert got.b[m] == pytest.approx(0.0, abs=1e-13)

    def test_zero_alpha_any_k(self):
        vs = VerblunskySeq((0.0,) * 30)
        for k in (1, 2, 3, 5):
            got = assoc_opuc_to_recurrence(vs, k, 6)
            assert got.b == (0.0,) * 6
            assert got.d[0] == pytest.approx(0.5, rel=1e-14)
            assert got.d[1:] == (0.25,) * 5

    def test_theorem_matches_oracle(self, rng):
        for _ in range(50):
            vs = random_alpha(rng, 32)
            k = rng.randint(0, 5)
            th = assoc_opuc_to_recurrence(vs, k, 12, path=CLOSED_FORM)
            br = assoc_opuc_to_recurrence(vs, k, 12, path=ORACLE)
            assert_rc_close(th, br, 1e-10)

    @pytest.mark.parametrize("path", [CLOSED_FORM, ORACLE])
    def test_reads_nothing_before_the_rows(self, path):
        # k = 1 reads a_1 on: a complex a_0 is no reason to refuse (the
        # closed form raised ComplexAlpha on it)
        vs = VerblunskySeq((0.5j, 0.1, 0.2, 0.3, 0.1))
        assert assoc_opuc_to_recurrence(vs, 1, 1, path=path) == RealRecurrence((0.1,), (0.594,))

    @pytest.mark.parametrize("path", [CLOSED_FORM, ORACLE])
    def test_even_k_reads_nothing_before_a_k(self, path):
        # k = 2 reads a_2 on, as the forward map on the shifted data does: a
        # complex a_0, or a complex a_1 (which lam = 2 / (1 - a_1) read
        # before it cancelled), is no reason to refuse
        for vs in (VerblunskySeq((0.5j, 0.4, 0.2, 0.3, 0.1, -0.2)),
                   VerblunskySeq((0.1, 0.4j, 0.2, 0.3, 0.1, -0.2))):
            got = assoc_opuc_to_recurrence(vs, 2, 2, path=path)
            assert got == geronimus_forward(VerblunskySeq((0.2, 0.3, 0.1, -0.2)), 2)

    def test_entries_before_the_rows_reach_no_output(self, rng):
        for _ in range(40):
            alpha = random_alpha(rng, 20, 0.6).alpha
            k = rng.randint(0, 7)
            junk = tuple(complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
                         for _ in range(k))
            for path in (CLOSED_FORM, ORACLE):
                got = assoc_opuc_to_recurrence(VerblunskySeq(junk + alpha[k:]), k, 6, path)
                assert got == assoc_opuc_to_recurrence(VerblunskySeq(alpha), k, 6, path)

    def test_paths_give_one_answer_on_drawn_input(self):
        # short data, complex entries and storage, negative k and n: both
        # paths raise the same error or agree to 1e-10, except odd k on
        # exactly 2n + k coefficients (test_odd_k_on_exactly_2n_plus_k_entries)
        rng = random.Random(3030)
        excepted = 0
        for _ in range(3000):
            alpha = [rng.uniform(-0.9, 0.9) for _ in range(rng.randint(0, 40))]
            if alpha and rng.random() < 0.3:
                alpha = [complex(a, rng.choice((0.0, 0.0, 0.3))) for a in alpha]
            vs, k, n = VerblunskySeq(alpha), rng.randint(-1, 9), rng.randint(-1, 20)
            outs = []
            for path in (CLOSED_FORM, ORACLE):
                try:
                    outs.append(assoc_opuc_to_recurrence(vs, k, n, path))
                except Exception as exc:
                    outs.append((type(exc), str(exc)))
            th, br = outs
            if k % 2 and n > 0 and len(alpha) == 2 * n + k and isinstance(br, RealRecurrence):
                excepted += 1
                assert th == (InsufficientCoefficients,
                              f"need {2 * n + k + 1} v entries, have {2 * n + k}")
            elif isinstance(br, RealRecurrence):
                assert isinstance(th, RealRecurrence) and len(th) == len(br) == max(n, 0)
                assert_rc_close(th, br, 1e-10)
            else:
                assert th == br
        assert excepted > 0

    def test_odd_k_on_exactly_2n_plus_k_entries(self):
        # the last row reads v_{2n+k} and d_{n+m} (k = 2m - 1), whose
        # (1 + a_{2n+k}) factors cancel: the closed form needs a_{2n+k},
        # which the oracle does not read
        vs = VerblunskySeq((0.1, -0.2, 0.3, 0.15, -0.1))
        with pytest.raises(InsufficientCoefficients, match=r"^need 6 v entries, have 5$"):
            assoc_opuc_to_recurrence(vs, 1, 2, CLOSED_FORM)
        assert assoc_opuc_to_recurrence(vs, 1, 2, ORACLE) == geronimus_forward(
            VerblunskySeq((-0.2, 0.3, 0.15, -0.1)), 2)
        th = assoc_opuc_to_recurrence(VerblunskySeq(vs.alpha + (0.5,)), 1, 2, CLOSED_FORM)
        assert_rc_close(th, assoc_opuc_to_recurrence(vs, 1, 2, ORACLE), 1e-15)

    def test_even_k_statement_is_the_shifted_forward_map_exactly(self):
        # the paper's even-k statement, k = 2m, in exact arithmetic: d-hat_1 =
        # lam d_{m+1} with lam = 2 / (1 - a_{2m-1}), b-hat_1 = a_{2m}, and every
        # later pair is (b_{j+m+1}, d_{j+m+1}); the forward relations on the
        # shifted data give each of these, and so do both float paths
        rng = random.Random(3031)
        for _ in range(30):
            m, n = rng.randint(0, 4), rng.randint(1, 6)
            a = [Fraction(rng.randint(-95, 95), 100) for _ in range(2 * (n + m))]
            b, d = _forward(a, n + m)
            b_hat, d_hat = _forward(a[2 * m:], n)
            lam = Fraction(2) / (1 - (a[2 * m - 1] if m else -1))
            assert d_hat[0] == lam * d[m] and b_hat[0] == a[2 * m]
            assert d_hat[1:] == d[m + 1:] and b_hat[1:] == b[m + 1:]
            vs = VerblunskySeq(tuple(map(float, a)))
            want = _forward(vs.alpha[2 * m:], n)
            for path in (CLOSED_FORM, ORACLE):
                got = assoc_opuc_to_recurrence(vs, 2 * m, n, path)
                assert (list(got.b), list(got.d)) == want


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


def _co_shifted_head(a, d_k, k, lam, tau):
    """The paper's co-polynomial head a-hat_0 .. a-hat_{2k} from the
    unperturbed a_0 .. a_{2k}: a_j kept for j < 2k-1, a_{2k-1} shifted by
    M = 4 (lam - 1) d_k / ((1 - a_{2k-3})(1 - a_{2k-2}^2)) and a_{2k}
    recombined, with a_{-1} = -1 and a_{-2} = 0 (k = 0 needs lam = 1).  Int
    constants, as in _forward."""
    am3 = a[2 * k - 3] if k > 1 else -1
    am2, am1 = (a[2 * k - 2], a[2 * k - 1]) if k else (0, -1)
    shift = 4 * (lam - 1) * d_k / ((1 - am3) * (1 - am2 ** 2)) if k else 0
    even = ((1 - am1) * a[2 * k] + 2 * tau + shift * am2) / (1 - am1 - shift)
    return list(a[:max(2 * k - 1, 0)]) + ([am1 + shift] if k else []) + [even]


def _antiassoc_table(xi, a, n):
    """The paper's table for the order-k anti-associated circle family,
    k = len(xi): rows j = 0 .. n-1 of (b~_{j+1}, d~_{j+1}) from the prepended
    xi and the original a, in four branches: pure-prepend rows, the mixed
    rows where the prepended window meets a, and the tail (written in a for
    odd k, the original pairs shifted by m for even k).  With xi_{-1} = -1
    and xi_{-2} = 0, k = 0 is the forward relations on a.  Int constants,
    as in _forward."""
    k = len(xi)
    b, d = [], []

    def pure_d(j):
        if j == 0:
            return (1 - xi[0] ** 2) * (1 + xi[1]) / 2
        return (1 - xi[2 * j - 1]) * (1 - xi[2 * j] ** 2) * (1 + xi[2 * j + 1]) / 4

    def pure_b(j):
        if j == 0:
            return xi[0]
        return ((1 - xi[2 * j - 1]) * xi[2 * j] - (1 + xi[2 * j - 1]) * xi[2 * j - 2]) / 2

    if k % 2 == 1:
        m = (k + 1) // 2
        for j in range(n):
            i = 2 * (j - m)  # a row j >= m reads a_i, a_{i+1}, a_{i+2}
            if j < m - 1:
                d.append(pure_d(j))
            elif j == m - 1:
                prev = xi[2 * j - 1] if j else -1
                d.append((1 - prev) * (1 - xi[2 * j] ** 2) * (1 + a[0]) / 4)
            else:
                d.append((1 - a[i]) * (1 - a[i + 1] ** 2) * (1 + a[i + 2]) / 4)
            if j < m:
                b.append(pure_b(j))
            elif j == m:
                b.append(((1 - a[0]) * a[1] - (1 + a[0]) * xi[2 * m - 2]) / 2)
            else:
                b.append(((1 - a[i]) * a[i + 1] - (1 + a[i]) * a[i - 1]) / 2)
    else:
        m = k // 2
        tail_b, tail_d = _forward(a, n - m)
        for j in range(n):
            if j < m:
                d.append(pure_d(j))
                b.append(pure_b(j))
            elif j == m:
                prev, prev2 = (xi[2 * m - 1], xi[2 * m - 2]) if m else (-1, 0)
                d.append((1 - prev) * (1 - a[0] ** 2) * (1 + a[1]) / 4)
                b.append(((1 - prev) * a[0] - (1 + prev) * prev2) / 2)
            else:
                d.append(tail_d[j - m])
                b.append(tail_b[j - m])
    return b, d


def _bits(values):
    return [float(x).hex() for x in values]


class TestAntiAssociatedCircleTable:
    def test_table_is_the_forward_relations_exactly(self):
        rng = random.Random(1505)
        for k in range(7):
            m = (k + 1) // 2
            for n in range(1, m + 5):  # pure rows only, then mixed rows, then the tail
                for _ in range(4):
                    xi = [Fraction(rng.uniform(-0.95, 0.95)) for _ in range(k)]
                    a = [Fraction(rng.uniform(-0.95, 0.95)) for _ in range(max(2 * n - k, 0) + 1)]
                    b, d = _antiassoc_table(xi, a, n)
                    assert all(type(x) is Fraction for x in b + d)
                    assert (b, d) == _forward(xi + a, n), (k, n)

    def test_kernel_equals_table_bit_for_bit(self):
        rng = random.Random(2015)
        for draw in range(360):
            k = rng.randint(1, 6)
            n = rng.randint(1, 16)
            bound = (0.35, 0.9, 0.999)[draw % 3]
            xi = tuple(rng.uniform(-bound, bound) for _ in range(k))
            length = max(2 * n - k, 0) + rng.randint(0, 3)
            a = tuple(rng.uniform(-bound, bound) for _ in range(length))
            b, d = _antiassoc_table(xi, a, n)
            for path in (CLOSED_FORM, ORACLE):
                got = antiassoc_opuc_to_recurrence(VerblunskySeq(a), xi, n, path=path)
                assert (_bits(got.b), _bits(got.d)) == (_bits(b), _bits(d))


class TestAntiAssociatedCircle:
    def test_spec_k2_fixture(self):
        # alpha = 0, xi = (0, -1/2): mixed row gives d~_2 = 3/8, b~_2 = 0
        vs = VerblunskySeq((0.0,) * 24)
        got = antiassoc_opuc_to_recurrence(vs, (0.0, -0.5), 8)
        assert got.d[0] == pytest.approx(0.25, abs=1e-15)
        assert got.d[1] == pytest.approx(0.375, abs=1e-15)
        assert got.b[0] == 0.0 and got.b[1] == pytest.approx(0.0, abs=1e-15)

    def test_empty_xi(self, rng):
        vs = random_alpha(rng, 16)
        b, d = _antiassoc_table((), vs.real_view(), 8)
        for path in (CLOSED_FORM, ORACLE):
            got = antiassoc_opuc_to_recurrence(vs, (), 8, path=path)
            assert (_bits(got.b), _bits(got.d)) == (_bits(b), _bits(d))

    def test_theorem_matches_oracle_both_parities(self, rng):
        for _ in range(50):
            vs = random_alpha(rng, 26)
            k = rng.randint(1, 5)
            xi = tuple(rng.uniform(-0.8, 0.8) for _ in range(k))
            th = antiassoc_opuc_to_recurrence(vs, xi, 12, path=CLOSED_FORM)
            b, d = _antiassoc_table(xi, vs.real_view(), 12)
            assert (_bits(th.b), _bits(th.d)) == (_bits(b), _bits(d))

    def test_window_inside_xi_same_on_both_paths(self):
        # k = 2, n = 1: the one row lies inside xi; the closed form asked
        # for a_0, a_1 and raised "need 2 alpha coefficients, have 1"
        vs = VerblunskySeq((0.1,))
        for path in (CLOSED_FORM, ORACLE):
            got = antiassoc_opuc_to_recurrence(vs, (0.2, -0.3), 1, path=path)
            assert got == RealRecurrence((0.2,), ((1 - 0.2 ** 2) * (1 - 0.3) / 2,))

    @pytest.mark.parametrize("path", [CLOSED_FORM, ORACLE])
    def test_complex_base_names_its_prepended_index(self, path):
        # the closed form named alpha_1 of the base, the oracle alpha_2 of
        # the prepended sequence
        vs = VerblunskySeq((0.1, 0.2 + 0.1j, 0.3, 0.1))
        with pytest.raises(ComplexAlpha, match=r"^alpha_2 = \(0\.2\+0\.1j\) has nonzero"):
            antiassoc_opuc_to_recurrence(vs, (0.2,), 2, path=path)

    @pytest.mark.parametrize("path", [CLOSED_FORM, ORACLE])
    def test_rejects_xi_outside_disc(self, path):
        vs = VerblunskySeq((0.1, 0.2, 0.1, 0.0))
        with pytest.raises(InvalidXi, match=r"^\|xi_0\| = 1\.5 >= 1$"):
            antiassoc_opuc_to_recurrence(vs, [1.5], 2, path=path)

    @pytest.mark.parametrize("path", [CLOSED_FORM, ORACLE])
    @pytest.mark.parametrize("k, length", [(1, 0), (3, 0), (2, 1)])
    def test_too_little_data_names_the_count(self, path, k, length):
        # both paths need a_0 .. a_{2n-1} of the prepended sequence
        vs = VerblunskySeq((0.1,) * length)
        with pytest.raises(InsufficientCoefficients,
                           match=f"^need 4 alpha coefficients, have {k + length}$"):
            antiassoc_opuc_to_recurrence(vs, (0.2,) * k, 2, path=path)


def test_max_deviation_keeps_a_nan_wherever_it_comes():
    # max keeps a NaN only when it comes first
    want = VerblunskySeq((0.0, 0.0, 0.0))
    for got in ((math.nan, 0.5, 0.0), (0.5, math.nan, 0.0), (0.0, 0.25, math.nan)):
        assert math.isnan(max_deviation(_unchecked(VerblunskySeq, got), want))
    nan_d = _unchecked(RealRecurrence, (0.0, 0.5), (0.25, math.nan))
    assert math.isnan(max_deviation(nan_d, RealRecurrence((0.0, 0.0), (0.25, 0.25))))
    assert max_deviation(VerblunskySeq((0.5, -0.25)), VerblunskySeq((0.0, 0.0))) == 0.5


class TestPerturbedV:
    def test_pure_corecursive_both_paths_agree(self):
        # T with tau = 0.1 at k = 1: v~_2 = 0.6, v~_3 = (1/4)/0.6 = 5/12;
        # for n <= 0 neither path gives an entry, and n = 2k, 2k + 1, 2k + 2
        # end the shortcut before, on and just past its updated v~_{2k}
        rc = chebyshev_t()
        for n in (-3, -1, 0, 2, 3, 4, 8):
            dv = perturbed_v(rc, 1, 1.0, 0.1, n)
            pv = perturbed_v(rc, 1, 1.0, 0.1, n, path=SHORTCUT)
            assert len(dv) == len(pv) == max(n, 0)
            assert dv == pytest.approx(pv, rel=1e-12)
        assert dv[2] == pytest.approx(0.6, abs=1e-15)
        assert dv[3] == pytest.approx(float(Fraction(5, 12)), rel=1e-14)

    @pytest.mark.parametrize("n", [0, -1, -3])
    def test_no_coefficients_for_nonpositive_n_on_either_path(self, n):
        # the shortcut sliced its head from the end: 3 coefficients at n = -1
        for path in (DEFAULT, SHORTCUT):
            assert perturbed_alpha_lu(chebyshev_t(8), 2, 1.0, 0.1, n, path=path).alpha == ()

    @pytest.mark.parametrize("path", [DEFAULT, SHORTCUT])
    def test_nonpositive_n_runs_the_default_checks(self, path):
        # the shortcut peeled v_0 .. v_{2k} whatever n was: v_0 = b_1 + 1 = 0
        # raised DivisionDegenerate, and T's one pair asked for 2 b coefficients
        rc = RealRecurrence((-1.0, 0.0, 0.0), (0.25,) * 3)
        assert perturbed_v(rc, 2, 1.0, 0.1, 0, path) == ()
        with pytest.raises(InsufficientCoefficients, match="^need 3 b coefficients, have 1$"):
            perturbed_v(chebyshev_t(1), 2, 1.0, 0.1, 0, path)

    def test_default_path_dilation_fixture(self):
        # T, k=1, lam=1/2: the dilated matrix is the U one, whose pivots are
        # (1, 1/4, 3/4, 1/3, 2/3, 3/8)
        dv = perturbed_v(chebyshev_t(), 1, 0.5, 0.0, 6)
        expect = (1.0, 0.25, 0.75, 1 / 3, 2 / 3, 0.375)
        assert dv == pytest.approx(expect, rel=1e-14)

    def test_paper_path_fixture_and_discrepancy(self):
        pv = perturbed_v(chebyshev_t(), 1, 0.5, 0.0, 6, path=SHORTCUT)
        assert pv[1] == pytest.approx(0.5, abs=1e-15)  # copied prefix
        rep = path_discrepancy_report(chebyshev_t(), 1, 0.5, 0.0, 6)
        assert rep is not None and rep.index == 1
        assert rep.default_value == pytest.approx(0.25)
        assert rep.shortcut_value == pytest.approx(0.5)

    def test_no_discrepancy_for_pure_corecursive(self, rng):
        rc = random_admissible_rc(rng, 10)
        assert path_discrepancy_report(rc, 2, 1.0, 0.17, 12) is None

    @pytest.mark.parametrize("path", [DEFAULT, SHORTCUT])
    @pytest.mark.parametrize("run", [
        lambda path: perturbed_v(chebyshev_t(), 1, 1.0, -0.5, 6, path),
        lambda path: perturbed_alpha_lu(chebyshev_t(), 1, 1.0, -0.5, 4, path),
    ], ids=["perturbed_v", "perturbed_alpha_lu"])
    def test_vanishing_pivot_raises(self, run, path):
        # T with tau = -1/2 at k = 1: the pivot v~_2 = 1/2 - 1/2 is 0
        with pytest.raises(DivisionDegenerate, match="^pivot v_2 vanished$"):
            run(path)

    def test_shortcut_finishes_the_pair_at_the_pivot_bound(self):
        # b = (0, -1) gives the head (1, d_1, -d_1) at k = 1, so the guard of
        # the continuation decides v_3, at PIVOT_TOL (1 + |d_2|) and one float in
        for d2 in (-3.0, 2.0):
            tol = PIVOT_TOL * (1.0 + abs(d2))
            for d1 in (tol, -tol):
                rc = RealRecurrence((0.0, -1.0), (d1, d2))
                assert perturbed_v(rc, 1, 1.0, 0.0, 4, SHORTCUT) == (1.0, d1, -d1, d2 / -d1)
                rc = RealRecurrence((0.0, -1.0), (math.nextafter(d1, 0.0), d2))
                with pytest.raises(DivisionDegenerate, match="^pivot v_2 vanished$"):
                    perturbed_v(rc, 1, 1.0, 0.0, 4, SHORTCUT)

    @pytest.mark.parametrize("path", [DEFAULT, SHORTCUT])
    def test_short_d_names_the_count(self, path):
        # two b's and one d: pair 1 (v_2, v_3) has no d_2
        with pytest.raises(InsufficientCoefficients, match="^need 2 d coefficients, have 1$"):
            perturbed_v(RealRecurrence((0.0, 0.0), (0.25,)), 1, 1.0, 0.1, 4, path)

    def test_shortcut_refuses_a_complex_tau(self):
        # float() on v~_{2k} refuses a complex tau where it enters, whatever the
        # data past it hold (n = 8 needs a b_4); at n = 2k there is no update
        rc = RealRecurrence((0.0, 0.0, 0.0), (0.5, 0.25, 0.25))
        message = r"^float\(\) argument must be a string or a real number, not 'complex'$"
        for n in (3, 6, 8):
            with pytest.raises(TypeError, match=message):
                perturbed_v(rc, 1, 1.0, 0.1j, n, SHORTCUT)
        assert perturbed_v(rc, 2, 1.0, 0.1j, 4, SHORTCUT) == (1.0, 0.5, 0.5, 0.5)

    @pytest.mark.parametrize("func", [perturbed_v, perturbed_alpha_lu])
    @pytest.mark.parametrize("k, lam, tau", [
        (0, 0.5, 0.0), (1, -0.5, 0.0), (1, 0.0, 0.0), (-1, 1.0, 0.1), (-1, 1.0, 0.0)])
    def test_shortcut_refuses_what_default_refuses(self, func, k, lam, tau):
        errors = []
        for path in (DEFAULT, SHORTCUT):
            with pytest.raises(ValueError) as info:
                func(chebyshev_t(), k, lam, tau, 6, path)
            errors.append((type(info.value), str(info.value)))
        assert errors[0][0] is ValueError and errors[0] == errors[1]


class TestPerturbedAlphaLu:
    def test_default_equals_section4_theorem(self, rng):
        for _ in range(20):
            rc = random_admissible_rc(rng, 12)
            k = rng.randint(1, 3)
            lam = rng.uniform(0.7, 1.3)
            tau = rng.uniform(-0.15, 0.15)
            try:
                lu = perturbed_alpha_lu(rc, k, lam, tau, 10)
                th = coprl_verblunsky(rc, k, lam, tau, 10)
            except SupportViolation:
                continue
            assert_vs_close(lu, th, 1e-10)

    def test_paper_path_agrees_when_lam_is_one(self, rng):
        for _ in range(20):
            rc = random_admissible_rc(rng, 12)
            k = rng.randint(0, 3)
            tau = rng.uniform(-0.2, 0.2)
            try:
                pp = perturbed_alpha_lu(rc, k, 1.0, tau, 10, path=SHORTCUT)
                th = coprl_verblunsky(rc, k, 1.0, tau, 10)
            except SupportViolation:
                continue
            assert_vs_close(pp, th, 1e-11)

    def test_shortcut_ignores_the_unperturbed_tail(self):
        # the unperturbed a_2 is -1.14, outside (-1, 1); the shortcut reads
        # only the pivots v_0 .. v_2, so it answers as the default path does
        rc = RealRecurrence((0.09744821314200613, -0.43807455694570585),
                            (0.6671928233284088, 0.1319788231343494))
        with pytest.raises(SupportViolation):
            geronimus_inverse(rc, 2)
        tau = 0.14842715909827164
        got = perturbed_alpha_lu(rc, 1, 1.0, tau, 2, path=SHORTCUT)
        assert_vs_close(got, perturbed_alpha_lu(rc, 1, 1.0, tau, 2), 1e-12)
        assert len(got) == 4

    def test_default_dilation_fixture(self):
        got = perturbed_alpha_lu(chebyshev_t(), 1, 0.5, 0.0, 12)
        assert_vs_close(got, u_pattern(24), 1e-12)

    def test_identity(self, rng):
        rc = random_admissible_rc(rng, 10)
        base = perturbed_alpha_lu(rc, 1, 1.0, 0.0, 10)
        assert_vs_close(base, coprl_verblunsky(rc, 1, 1.0, 0.0, 10), 1e-12)


class TestSieve:
    def test_stride_one_is_identity(self, rng):
        vs = random_alpha(rng, 7)
        assert sieve(vs, 1) == vs

    def test_stride_two_layout(self):
        vs = VerblunskySeq((0.3, -0.2))
        assert sieve(vs, 2).alpha == (0, 0.3, 0, -0.2)

    def test_stride_three_layout(self):
        vs = VerblunskySeq((0.3, -0.2))
        assert sieve(vs, 3).alpha == (0, 0, 0.3, 0, 0, -0.2)

    def test_zeros_take_the_storage_kind(self):
        for alpha, zero in (((-0.3, -0.2), 0.0), ((0.3 + 0j, -0.2 + 0.1j), 0j)):
            got = sieve(VerblunskySeq(alpha), 2)
            assert got.alpha == (zero, alpha[0], zero, alpha[1])
            assert {type(a) for a in got.alpha} == {type(zero)}
            assert math.copysign(1.0, complex(got.alpha[0]).real) == 1.0

    def test_output_length_capped(self):
        vs = VerblunskySeq((0.3, -0.2, 0.1, 0.4))
        ell = MAX_SIEVE_LENGTH // 4
        assert len(sieve(vs, ell)) == MAX_SIEVE_LENGTH
        with pytest.raises(ValueError, match="more than 100000"):
            sieve(vs, ell + 1)


class TestSieve2Recurrence:
    def test_zero_alpha_gives_chebyshev_t(self):
        got = sieve2_recurrence(VerblunskySeq((0.0,) * 12), 12)
        assert got.b == (0.0,) * 12
        assert got.d[0] == 0.5 and got.d[1:] == (0.25,) * 11

    def test_u_odd_pattern_gives_quarter(self):
        vs = VerblunskySeq(tuple(-1.0 / (m + 2) for m in range(12)))
        got = sieve2_recurrence(vs, 12)
        for dn in got.d:
            assert dn == pytest.approx(0.25, rel=1e-14)

    def test_theorem_matches_oracle(self, rng):
        for _ in range(50):
            vs = random_alpha(rng, 12)
            th = sieve2_recurrence(vs, 12, path=CLOSED_FORM)
            br = sieve2_recurrence(vs, 12, path=ORACLE)
            assert_rc_close(th, br, 1e-11)

    def test_short_data_refusals(self):
        # both paths count the sieved coefficients that geronimus_forward reads
        vs = VerblunskySeq((0.1, -0.2, 0.3, -0.1))
        for path in (CLOSED_FORM, ORACLE):
            for run in (lambda: sieve2_recurrence(vs, 5, path),
                        lambda: sieved_kmod_recurrence(vs, 1, 0.2, 5, path)):
                with pytest.raises(OrthoError) as info:
                    run()
                assert type(info.value) is InsufficientCoefficients
                assert str(info.value) == "need 10 alpha coefficients, have 8"


class TestSievedKMod:
    def test_identity_when_eta_matches(self, rng):
        vs = random_alpha(rng, 10)
        eta = vs.at(3).real
        got = sieved_kmod_recurrence(vs, 3, eta, 10)
        base = sieve2_recurrence(vs, 10)
        assert got == base

    def test_spec_arithmetic_fixture(self):
        # alpha = 0, k = 0, eta = 1/2: d-hat_1 = (1+eta)/2 = 3/4,
        # d-hat_2 = (1-eta)/4 = 1/8, rest 1/4
        got = sieved_kmod_recurrence(VerblunskySeq((0.0,) * 8), 0, 0.5, 8)
        assert got.d[0] == pytest.approx(0.75, abs=1e-15)
        assert got.d[1] == pytest.approx(0.125, abs=1e-15)
        assert got.d[2:] == (0.25,) * 6

    def test_exactly_two_entries_change(self, rng):
        vs = random_alpha(rng, 10)
        base = sieve2_recurrence(vs, 10)
        got = sieved_kmod_recurrence(vs, 4, 0.3, 10)
        diffs = [m for m in range(10) if got.d[m] != base.d[m]]
        assert diffs == [4, 5]

    def test_theorem_matches_oracle(self, rng):
        for _ in range(50):
            vs = random_alpha(rng, 12)
            k = rng.randint(0, 6)
            eta = rng.uniform(-0.8, 0.8)
            th = sieved_kmod_recurrence(vs, k, eta, 12, path=CLOSED_FORM)
            br = sieved_kmod_recurrence(vs, k, eta, 12, path=ORACLE)
            assert_rc_close(th, br, 1e-10)


def _symmetric_draw(rng):
    """d from 1-12 b == 0 pairs of a draw with |g| < 0.95, perhaps with one
    entry replaced by 0, NaN, a negative value or one past 1."""
    pairs = rng.randint(1, 12)
    gamma = tuple(rng.uniform(-0.95, 0.95) if j % 2 else 0.0 for j in range(2 * pairs))
    d = list(geronimus_forward(VerblunskySeq(gamma), pairs).d)
    if rng.random() < 0.4:
        d[rng.randrange(pairs)] = rng.choice((0.0, math.nan, -0.1, 1.3, rng.uniform(0.3, 0.9)))
    return tuple(d)


class TestSymmetric:
    def test_chebyshev_t_gives_zeros(self):
        got = symmetric_verblunsky((0.5,) + (0.25,) * 11)
        assert got.alpha == (0.0,) * 24

    def test_quarter_d_gives_u_odd_pattern(self):
        got = symmetric_verblunsky((0.25,) * 12)
        for m in range(12):
            assert got.alpha[2 * m].real == 0.0
            assert got.alpha[2 * m + 1].real == pytest.approx(-1.0 / (m + 2), rel=1e-13)

    def test_single_step(self):
        got = symmetric_verblunsky((0.6,))
        assert got.alpha[1].real == pytest.approx(0.2, abs=1e-15)

    def test_theorem_matches_oracle(self, rng):
        # the closed form runs the odd recursion and the oracle the full
        # inversion; the forward relations must give back b == 0 and d
        for _ in range(50):
            d = tuple(rng.uniform(0.05, 0.45) for _ in range(12))
            for path in (CLOSED_FORM, ORACLE):
                try:
                    got = symmetric_verblunsky(d, path=path)
                except SupportViolation:
                    continue
                assert_rc_close(geronimus_forward(got, 12), RealRecurrence((0.0,) * 12, d), 1e-11)

    def test_closed_form_is_the_oracle_bit_for_bit(self, rng):
        # with b == 0 the inversion's even entry is exactly +0.0 and its
        # divisor exactly 1 - g_{2m-1}, so the two paths give the same
        # entries, of the same type, or the same error
        def run(d, path):
            try:
                vs = symmetric_verblunsky(d, path=path)
            except OrthoError as exc:
                return type(exc), str(exc)
            return vs.alpha, tuple(map(type, vs.alpha))

        admissible = 0
        for _ in range(200):
            d = _symmetric_draw(rng)
            got = run(d, CLOSED_FORM)
            assert got == run(d, ORACLE)
            admissible += type(got[0]) is tuple
        assert 50 <= admissible <= 150


class TestSymmetricFrom:
    """The odd recursion names an error's index from the length of its
    output so far, and an empty d computes nothing."""

    def test_empty_d_computes_nothing(self):
        assert _symmetric_from(()).alpha == ()

    def test_index_from_the_output_length(self):
        # g_1 = g_3 = 0 on T-like d, and d_3 = 0.6 sends g_5 to 1.4
        with pytest.raises(SupportViolation) as info:
            _symmetric_from((0.5, 0.25, 0.6))
        assert str(info.value) == "coefficient at index 5 left (-1, 1): 1.4"
        assert info.value.index == 5


class TestSymmetricCoDilated:
    def test_identity_factor(self, rng):
        d = tuple(rng.uniform(0.05, 0.45) for _ in range(10))
        got = symmetric_codilated_verblunsky(d, 2, 1.0)
        assert_vs_close(got, symmetric_verblunsky(d), 1e-13)

    def test_t_to_u_fixture(self):
        d = (0.5,) + (0.25,) * 11
        got = symmetric_codilated_verblunsky(d, 1, 0.5)
        for m in range(12):
            assert got.alpha[2 * m + 1].real == pytest.approx(-1.0 / (m + 2), rel=1e-13)

    def test_theorem_matches_oracle(self, rng):
        for _ in range(50):
            d = tuple(rng.uniform(0.05, 0.45) for _ in range(12))
            k = rng.randint(1, 5)
            lam = rng.uniform(0.6, 1.4)
            try:
                th = symmetric_codilated_verblunsky(d, k, lam, path=CLOSED_FORM)
                br = symmetric_codilated_verblunsky(d, k, lam, path=ORACLE)
            except SupportViolation:
                continue
            assert_vs_close(th, br, 1e-11)

    def test_symmetric_statement_exactly(self):
        # the symmetric shift g_{2k-1} + 4 (lam - 1) d_k / (1 - g_{2k-3}) is the
        # co-polynomial head with a_{2k-2} = 0 and tau = 0; in exact arithmetic
        # its forward image is b == 0 and d with d_k -> lam d_k, and the map,
        # which runs the odd recursion on the co-dilated d, gives it too
        rng = random.Random(3033)
        checked = 0
        for _ in range(40):
            n = rng.randint(1, 6)
            k = rng.randint(1, n)
            g = [Fraction(rng.randint(-90, 90), 100) if j % 2 else 0 for j in range(2 * n)]
            lam = 1 + Fraction(rng.choice((-1, 1)) * rng.randint(1, 70), 100)
            _, d = _forward(g, n)
            gm3 = g[2 * k - 3] if k > 1 else -1
            head = g[:2 * k - 1] + [g[2 * k - 1] + 4 * (lam - 1) * d[k - 1] / (1 - gm3)]
            if k < n:
                assert _co_shifted_head(g, d[k - 1], k, lam, 0) == head + [0]
            b_hat, d_hat = _forward(head, k)
            assert b_hat == [0] * k and d_hat == d[:k - 1] + [lam * d[k - 1]]
            try:
                got = symmetric_codilated_verblunsky(tuple(map(float, d[:k])), k, float(lam))
            except SupportViolation:
                continue
            assert list(got.alpha) == pytest.approx(list(map(float, head)), abs=1e-12)
            checked += 1
        assert checked >= 20

    def test_closed_form_reads_no_unperturbed_head(self):
        # unperturbed, g_3 = 8/7 leaves (-1, 1); after d_2 -> 0.4 d_2 it is
        # -1/7, and the closed form used to refuse at index 3
        d = (0.3, 0.75, 0.2, 0.2)
        with pytest.raises(SupportViolation) as info:
            symmetric_verblunsky(d)
        assert info.value.index == 3
        th = symmetric_codilated_verblunsky(d, 2, 0.4, path=CLOSED_FORM)
        assert th == symmetric_codilated_verblunsky(d, 2, 0.4, path=ORACLE)
        assert th.alpha[3] == pytest.approx(-1 / 7, rel=1e-14)

    def test_closed_form_ignores_the_unperturbed_tail(self):
        # unperturbed, g_5 = 1.7; after d_2 -> 0.2 d_2 it is 13/14
        d = (0.25, 0.25, 0.9)
        with pytest.raises(SupportViolation):
            symmetric_verblunsky(d)
        th = symmetric_codilated_verblunsky(d, 2, 0.2, path=CLOSED_FORM)
        br = symmetric_codilated_verblunsky(d, 2, 0.2, path=ORACLE)
        assert len(th) == len(br) == 6
        assert_vs_close(th, br, 1e-15)
        assert th.alpha[5] == pytest.approx(13 / 14, rel=1e-15)


_VS8 = VerblunskySeq((0.1, -0.2, 0.3, -0.1, 0.2, 0.05, -0.3, 0.15))
_D3 = (0.3, 0.25, 0.2)


@pytest.mark.parametrize("path", [CLOSED_FORM, ORACLE])
@pytest.mark.parametrize("run, exc, message", [
    (lambda path: sieved_kmod_recurrence(_VS8, -1, 0.3, 4, path),
     ValueError, "modification index must be >= 0"),
    (lambda path: sieved_kmod_recurrence(_VS8, 8, 0.3, 4, path),
     InsufficientCoefficients, "need 9 alpha coefficients, have 8"),
    (lambda path: assoc_opuc_to_recurrence(_VS8, -1, 2, path),
     ValueError, "shift order must be >= 0"),
    (lambda path: assoc_opuc_to_recurrence(VerblunskySeq((0.1, 0.2)), 4, -1, path),
     InsufficientCoefficients, "need 4 alpha coefficients, have 2"),
    (lambda path: assoc_opuc_to_recurrence(VerblunskySeq((0.1, 0.2)), 3, -1, path),
     InsufficientCoefficients, "need 3 alpha coefficients, have 2"),
    (lambda path: assoc_opuc_to_recurrence(VerblunskySeq((0.1, 0.5j)), 1, 0, path),
     ComplexAlpha, "alpha_0 = 0.5j has nonzero imaginary part"),
    (lambda path: symmetric_codilated_verblunsky(_D3, 5, 1.2, path),
     InsufficientCoefficients, "need 5 d coefficients, have 3"),
    (lambda path: symmetric_codilated_verblunsky(_D3, 2, 0.0, path),
     ValueError, "co-dilation factor must be positive"),
    (lambda path: symmetric_codilated_verblunsky(_D3, 0, 1.2, path),
     ValueError, "co-dilation index must be >= 1"),
    (lambda path: coprl_verblunsky(chebyshev_t(), -1, 1.0, 0.0, 4, path),
     ValueError, "perturbation index must be >= 0"),
    (lambda path: coprl_verblunsky(chebyshev_t(), 0, 0.5, 0.0, 4, path),
     ValueError, "co-dilation index must be >= 1"),
], ids=["sieved_kmod_negative_k", "sieved_kmod_k_past_end", "assoc_circle_negative_k",
        "assoc_circle_k_past_end_n_negative", "assoc_circle_k_past_end_odd_n_negative",
        "assoc_circle_complex_past_k_n0",
        "symmetric_codilated_k_past_end", "symmetric_codilated_zero_lam",
        "symmetric_codilated_k0", "coprl_negative_k", "coprl_dilated_d0"])
def test_out_of_range_input_raises_alike_on_both_paths(run, exc, message, path):
    """The closed form refuses what its oracle refuses, with the same error."""
    with pytest.raises(exc) as info:
        run(path)
    assert type(info.value) is exc and str(info.value) == message


@pytest.mark.parametrize("path", [CLOSED_FORM, ORACLE])
@pytest.mark.parametrize("vs, k, n", [
    (VerblunskySeq((0.1, 0.2, 0.3, 0.4, 0.5, 0.6)), 0, 0),
    (VerblunskySeq((0.1, 0.2, 0.3, 0.4, 0.5, 0.6)), 1, -2),
    (VerblunskySeq((0.1, 0.2, 0.3)), 3, 0),
    (VerblunskySeq((0.1, 0.2, 0.3)), 2, 0),
    (VerblunskySeq((0.5j, 0.1, 0.2)), 1, 0),
])
def test_assoc_circle_no_pairs_on_both_paths(vs, k, n, path):
    # n <= 0 asks for no pairs, so no entry is read: not past the data, and
    # not the complex a_0 before a_k
    out = assoc_opuc_to_recurrence(vs, k, n, path)
    assert (out.b, out.d) == ((), ())
