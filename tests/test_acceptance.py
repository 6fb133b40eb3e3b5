"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Residual details print on failure.

Input distributions: theorem-vs-oracle and residual-identity checks use
coefficients drawn uniformly from (-0.9, 0.9), the admissibility recipe
used throughout the randomized properties.  The exact-identity roundtrip
checks (criteria 1 and the path-independence half of 8) draw from
(-0.35, 0.35) instead: the inversion's condition number grows like a
product of 1/(1 - a) factors, and at depth 20 the wider family pushes the
*intrinsic* float64 roundtrip error to 1e-8..1e-4 (re-running the
inversion in 60-digit arithmetic on the same float64 intermediates gives
the same error, so no implementation can do better; see the companion
floor test below).  The bounded family keeps the composite condition
number near 1e4, which is what makes the stated 1e-11 meaningful in IEEE
doubles while still exercising every formula.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from ortho_szego.cli import main
from ortho_szego.oprl import (
    RealRecurrence,
    chebyshev_t,
    chebyshev_u,
    prepend_coefficients,
    shift_coefficients,
)
from ortho_szego.opuc import VerblunskySeq, prepend_verblunsky, shift_verblunsky
from ortho_szego.perturb import (
    SHORTCUT,
    antiassoc_oprl_to_verblunsky,
    antiassoc_opuc_to_recurrence,
    assoc_oprl_to_verblunsky,
    assoc_opuc_to_recurrence,
    coprl_verblunsky,
    path_discrepancy_report,
    perturbed_alpha_lu,
    sieve2_recurrence,
    sieved_kmod_recurrence,
    symmetric_codilated_verblunsky,
    symmetric_verblunsky,
)
from ortho_szego.polyhom import homography_apply
from ortho_szego.serialize import dumps_recurrence, dumps_verblunsky
from ortho_szego.spectral import (
    CFunctionHandle,
    SFunctionHandle,
    assoc_order1_cfun,
    assoc_order2_sfun_matrix,
    f_value,
    fs_bridge_check,
    matrix_B_antiassoc,
    matrix_B_assoc,
    matrix_Upsilon_antiassoc,
    matrix_Upsilon_assoc,
    s_value,
)
from ortho_szego.suites import MAX_DISCARDS_PER_KEPT
from ortho_szego.szego import (
    SupportViolation,
    alpha_from_v,
    check_rel,
    geronimus_forward,
    geronimus_inverse,
    lu_check,
    v_from_alpha,
    v_from_recurrence,
)

from test_perturb import _antiassoc_table, _assoc_circle_rows, _co_shifted_head, _sieved_rows

SEED = 20260810


def draw_alpha(rng, n, bound):
    return VerblunskySeq(tuple(rng.uniform(-bound, bound) for _ in range(n)))


def vs_err(a, b):
    return max(abs(x - y) for x, y in zip(a.alpha, b.alpha))


def rc_err(a, b):
    n = min(len(a), len(b))
    return max(max(abs(a.b[m] - b.b[m]), abs(a.d[m] - b.d[m])) for m in range(n))


def report(num, name, residual, tol):
    print(f"criterion {num} [{name}] max residual {residual:.3e} vs tol {tol:.1e}")
    assert residual <= tol, f"criterion {num} ({name}): {residual:.3e} > {tol:.1e}"


def test_criterion_01_geronimus_roundtrips():
    rng = random.Random(SEED)
    tol, depth = 1e-11, 20
    t0 = time.perf_counter()

    worst_fi = 0.0
    for _ in range(100):
        rc = geronimus_forward(draw_alpha(rng, 2 * depth, 0.9), depth)
        again = geronimus_forward(geronimus_inverse(rc, depth), depth)
        worst_fi = max(worst_fi, rc_err(rc, again))

    worst_if = 0.0
    for _ in range(100):
        vs = draw_alpha(rng, 2 * depth, 0.35)
        back = geronimus_inverse(geronimus_forward(vs, depth), depth)
        worst_if = max(worst_if, vs_err(vs, back))

    elapsed = time.perf_counter() - t0
    report(1, "forward_of_inverse", worst_fi, tol)
    report(1, "inverse_of_forward", worst_if, tol)
    assert elapsed < 1.0, f"roundtrip batch took {elapsed:.2f}s"


def test_roundtrip_conditioning_floor_at_wide_draws():
    """Not a criterion: pins the measured float64 floor that forces the
    bounded input family in criterion 1.  At (-0.9, 0.9)^40 the intrinsic
    circle->line->circle error sits far above 1e-11 (and 60-digit
    re-inversion of the same float64 pairs does no better)."""
    rng = random.Random(0)
    worst = 0.0
    for _ in range(100):
        vs = draw_alpha(rng, 40, 0.9)
        back = geronimus_inverse(geronimus_forward(vs, 20), 20)
        worst = max(worst, vs_err(vs, back))
    print(f"wide-draw roundtrip floor: {worst:.3e}")
    assert 1e-9 < worst < 1e-2


def test_criterion_02_chebyshev_fixtures():
    # exact-rational oracle for the expected circle coefficients
    def exact_u_alpha(n):
        alpha = []

        def a(j):
            return Fraction(-1) if j == -1 else (Fraction(0) if j == -2 else alpha[j])

        for m in range(n):
            even = (2 * Fraction(0) + (1 + a(2 * m - 1)) * a(2 * m - 2)) / (1 - a(2 * m - 1))
            alpha.append(even)
            odd = -1 + 4 * Fraction(1, 4) / ((1 - a(2 * m - 1)) * (1 - even**2))
            alpha.append(odd)
        return alpha

    worst = 0.0
    rc_t = geronimus_forward(VerblunskySeq((0.0,) * 24), 12)
    worst = max(worst, max(abs(b) for b in rc_t.b))
    worst = max(worst, abs(rc_t.d[0] - 0.5), max(abs(d - 0.25) for d in rc_t.d[1:]))
    vs_t = geronimus_inverse(chebyshev_t(12), 12)
    worst = max(worst, max(abs(a) for a in vs_t.alpha))

    expected = exact_u_alpha(12)
    assert expected[1] == Fraction(-1, 2) and expected[3] == Fraction(-1, 3)
    vs_u = geronimus_inverse(chebyshev_u(12), 12)
    worst = max(worst, max(abs(vs_u.alpha[k] - float(expected[k])) for k in range(24)))
    rc_u = geronimus_forward(VerblunskySeq(tuple(float(f) for f in expected)), 12)
    worst = max(worst, max(abs(b) for b in rc_u.b),
                max(abs(d - 0.25) for d in rc_u.d))
    report(2, "chebyshev_fixtures_12_terms", worst, 1e-12)


def test_criterion_03_polynomial_bridge_identity():
    rng = random.Random(SEED + 3)
    worst = 0.0
    for _ in range(50):
        rc = geronimus_forward(draw_alpha(rng, 16, 0.9), 8)
        vs = geronimus_inverse(rc, 8)
        n = rng.randint(0, 6)
        theta = rng.uniform(0.05, math.pi - 0.05)
        worst = max(worst, check_rel(rc, vs, n, theta))
    report(3, "line_circle_polynomial_identity", worst, 1e-10)


def test_criterion_04_fs_bridge():
    rng = random.Random(SEED + 4)
    worst = 0.0
    for _ in range(20):
        vs = draw_alpha(rng, 88, 0.9)
        rc = geronimus_forward(vs, 44)
        for x in (1.5, -1.5, 2.0, -2.0, 3.0):
            worst = max(worst, fs_bridge_check(rc, x, 40, vs=vs))
    report(4, "f_s_bridge", worst, 1e-8)


def test_criterion_05_closed_form_vs_oracle():
    rng = random.Random(SEED + 5)
    tol, depth = 1e-10, 12

    got = assoc_opuc_to_recurrence(geronimus_inverse(chebyshev_u(14), 14), 1, 3)
    spot = max(abs(got.d[0] - 3 / 8), abs(got.d[1] - 2 / 9), abs(got.b[1] - 1 / 12))
    report(5, "odd_k_spot_values_3/8_2/9_1/12", spot, 1e-13)

    def sample(fn):
        worst, kept, discarded = 0.0, 0, 0
        while kept < 50:
            try:
                worst = max(worst, fn())
            except SupportViolation:
                discarded += 1
                assert discarded < MAX_DISCARDS_PER_KEPT * 50, f"{fn.__name__}: discarded {discarded}"
                continue
            kept += 1
        return worst

    # The co-dilation maps invert the perturbed data on both paths; the
    # paper's shift formula, evaluated on the unperturbed head, must give
    # their head.  A head that leaves (-1, 1) is outside its domain.
    def one_coprl():
        rc = geronimus_forward(draw_alpha(rng, 2 * depth + 8, 0.9), depth + 4)
        k = rng.randint(1, 4)
        lam, tau = rng.uniform(0.6, 1.4), rng.uniform(-0.2, 0.2)
        got = coprl_verblunsky(rc, k, lam, tau, depth)
        want = _co_shifted_head(geronimus_inverse(rc, k + 1).alpha, rc.d[k - 1], k, lam, tau)
        return max(abs(x - y) for x, y in zip(got.alpha, want))

    report(5, "co_polynomial_theorem", sample(one_coprl), tol)

    # The line maps run the inversion kernel on both paths; the forward
    # relations, which are independent code, must give back their input.
    def one_assoc_line():
        rc = geronimus_forward(draw_alpha(rng, 2 * depth + 12, 0.9), depth + 6)
        k = rng.randint(0, 4)
        out = assoc_oprl_to_verblunsky(rc, k, depth)
        return rc_err(geronimus_forward(out, depth), shift_coefficients(rc, k))

    report(5, "line_associated_theorem", sample(one_assoc_line), tol)

    def one_antiassoc_line():
        # admissible by construction: the head of rc prepended to its tail
        rc = geronimus_forward(draw_alpha(rng, 2 * depth + 4, 0.9), depth + 2)
        k = rng.randint(1, 4)
        out = antiassoc_oprl_to_verblunsky(shift_coefficients(rc, k), rc.b[:k], rc.d[:k], depth)
        return rc_err(geronimus_forward(out, depth), rc)

    report(5, "line_anti_associated_theorem", sample(one_antiassoc_line), tol)

    # The circle maps run the forward relations on both paths; the paper's
    # rows (pivot ratios at odd k, a rescaled d at even k, the four-branch
    # table), evaluated on the unshifted data, must give their output.
    def one_assoc_circle():
        vs = draw_alpha(rng, 2 * depth + 10, 0.9)
        k = rng.randint(0, 5)
        b, d = _assoc_circle_rows(vs.real_view(), k, depth)
        return rc_err(assoc_opuc_to_recurrence(vs, k, depth), RealRecurrence(b, d))

    report(5, "circle_associated_theorem_odd_and_even", sample(one_assoc_circle), tol)

    def one_antiassoc_circle():
        vs = draw_alpha(rng, 2 * depth + 4, 0.9)
        k = rng.randint(1, 5)
        xi = tuple(rng.uniform(-0.8, 0.8) for _ in range(k))
        b, d = _antiassoc_table(xi, vs.real_view(), depth)  # the paper's table
        return rc_err(antiassoc_opuc_to_recurrence(vs, xi, depth), RealRecurrence(b, d))

    report(5, "circle_anti_associated_theorem", sample(one_antiassoc_circle), tol)

    def one_symmetric():
        d = tuple(rng.uniform(0.05, 0.45) for _ in range(depth))
        err = rc_err(geronimus_forward(symmetric_verblunsky(d), depth),
                     RealRecurrence((0.0,) * depth, d))
        k, lam = rng.randint(1, 5), rng.uniform(0.6, 1.4)
        got = symmetric_codilated_verblunsky(d, k, lam)
        g = symmetric_verblunsky(d[:k]).alpha
        shifted = g[-1] + 4 * (lam - 1) * d[k - 1] / (1 - (g[2 * k - 3] if k > 1 else -1))
        return max(err, *(abs(x - y) for x, y in zip(got.alpha, g[:-1] + (shifted,))))

    report(5, "symmetric_formulas", sample(one_symmetric), tol)

    # The sieved maps run the forward relations on the sieved data; the
    # paper's rows, evaluated on the unsieved data, must give their output.
    def one_sieved():
        vs = draw_alpha(rng, depth, 0.9)
        err = rc_err(sieve2_recurrence(vs, depth),
                     RealRecurrence(*_sieved_rows(vs.real_view(), depth)))
        k, eta = rng.randint(0, depth - 2), rng.uniform(-0.8, 0.8)
        return max(err, rc_err(sieved_kmod_recurrence(vs, k, eta, depth),
                               RealRecurrence(*_sieved_rows(vs.real_view(), depth, k, eta))))

    report(5, "sieved_formulas", sample(one_sieved), tol)


def test_criterion_06_transfer_matrix_soundness():
    rng = random.Random(SEED + 6)
    tol, depth = 1e-8, 40
    worst = 0.0
    for k in (1, 2, 3):
        for _ in range(20):
            vs = draw_alpha(rng, 2 * (depth + k + 2), 0.9)
            rc = geronimus_forward(vs, depth + k + 2)
            m = matrix_B_assoc(rc, k)
            for x in (1.8, -2.1, 2.6):
                s0 = s_value(SFunctionHandle(rc, depth), x)[0]
                sk = s_value(SFunctionHandle(shift_coefficients(rc, k), depth), x)[0]
                worst = max(worst, abs(homography_apply(m, s0, x) - sk))

            pb = tuple(rng.uniform(-0.4, 0.4) for _ in range(k))
            pd = tuple(rng.uniform(0.1, 0.5) for _ in range(k))
            mb = matrix_B_antiassoc(rc, pb, pd)
            pre = prepend_coefficients(rc, pb, pd)
            for x in (1.8, -2.1, 2.6):
                s0 = s_value(SFunctionHandle(rc, depth), x)[0]
                sk = s_value(SFunctionHandle(pre, depth), x)[0]
                worst = max(worst, abs(homography_apply(mb, s0, x) - sk))

            mu = matrix_Upsilon_assoc(vs, k)
            sh = shift_verblunsky(vs, k)
            for z in (0.45, -0.38, 0.3 + 0.25j):
                f0 = f_value(CFunctionHandle(vs, depth), z)[0]
                fk = f_value(CFunctionHandle(sh, depth), z)[0]
                worst = max(worst, abs(homography_apply(mu, f0, z) - fk))

            xi = tuple(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4))
                       for _ in range(k))
            ma = matrix_Upsilon_antiassoc(vs, xi)
            pv = prepend_verblunsky(vs, xi)
            for z in (0.45, -0.38, 0.3 + 0.25j):
                f0 = f_value(CFunctionHandle(vs, depth), z)[0]
                fk = f_value(CFunctionHandle(pv, depth), z)[0]
                worst = max(worst, abs(homography_apply(ma, f0, z) - fk))
    report(6, "transfer_matrices_k_le_3", worst, tol)


def test_criterion_07_corollary_fixtures():
    worst = 0.0
    vs_u = geronimus_inverse(chebyshev_u(41), 41)
    h_u = CFunctionHandle(vs_u, 40)
    for i in range(10):
        z = 0.05 + 0.04 * i
        pred = assoc_order1_cfun(z, 1.0, 0.0, 0.5)
        worst = max(worst, abs(pred - (1 - z * z)), abs(pred - f_value(h_u, z)[0]))
    report(7, "order1_cfun_equals_1_minus_z2", worst, 1e-9)

    vs_u2 = geronimus_inverse(chebyshev_u(42), 42)
    m = assoc_order2_sfun_matrix(0.0, vs_u2.at(1).real)
    s_u = s_value(SFunctionHandle(chebyshev_u(), 40), 2.0)[0]
    lhs = homography_apply(m, s_u, 2.0)
    rhs = s_value(
        SFunctionHandle(RealRecurrence((0.0,) * 44, (1 / 3,) + (0.25,) * 43), 40), 2.0)[0]
    # both sides computed independently; the value itself is pinned too
    tail = 2 * (2 - math.sqrt(3))
    assert abs(lhs.real - 0.54904) < 1e-4 and abs(rhs.real - 0.54904) < 1e-4
    assert abs(lhs.real - 1.0 / (2.0 - tail / 3.0)) < 1e-9
    report(7, "order2_sfun_value_0.54904_at_x2", abs(lhs - rhs), 1e-4)


def test_criterion_08_lu_suite():
    rng = random.Random(SEED + 8)

    worst = 0.0
    for n in range(2, 9):
        rc = geronimus_forward(draw_alpha(rng, 2 * n + 2, 0.9), n + 1)
        worst = max(worst, lu_check(rc, v_from_recurrence(rc, 2 * n), n).max_abs_error)
    rc_t = chebyshev_t(16)
    worst = max(worst, lu_check(rc_t, v_from_recurrence(rc_t, 16), 8).max_abs_error)
    report(8, "lu_factorization_entrywise_N_le_8", worst, 1e-12)

    worst = 0.0
    for _ in range(50):
        vs = draw_alpha(rng, 24, 0.35)
        rc = geronimus_forward(vs, 12)
        a = v_from_recurrence(rc, 24)
        b = v_from_alpha(vs)
        worst = max(worst, max(abs(x - y) for x, y in zip(a, b, strict=True)))
        via_v = alpha_from_v(a)
        direct = geronimus_inverse(rc, 12)
        worst = max(worst, vs_err(via_v, direct))
    report(8, "v_path_independence", worst, 1e-11)

    worst, kept = 0.0, 0
    while kept < 30:
        rc = geronimus_forward(draw_alpha(rng, 24, 0.35), 12)
        k, tau = rng.randint(0, 3), rng.uniform(-0.2, 0.2)
        try:
            pp = perturbed_alpha_lu(rc, k, 1.0, tau, 10, path=SHORTCUT)
            th = coprl_verblunsky(rc, k, 1.0, tau, 10)
        except SupportViolation:
            continue
        worst = max(worst, vs_err(pp, th))
        kept += 1
    report(8, "lu_shortcut_matches_direct_theorem_at_lam1", worst, 1e-11)

    rep = path_discrepancy_report(chebyshev_t(), 1, 0.5, 0.0, 6)
    assert rep is not None and rep.index == 1
    assert rep.default_value == pytest.approx(0.25, abs=1e-14)
    assert rep.shortcut_value == pytest.approx(0.5, abs=1e-14)
    print("criterion 8 [documented lam!=1 shortcut discrepancy] "
          f"pivot index {rep.index}: default {rep.default_value} vs paper {rep.shortcut_value}")


def test_criterion_09_cli_determinism_and_exit_codes(tmp_path, capsys):
    t0 = time.perf_counter()
    tfile = tmp_path / "t.json"
    tfile.write_text(dumps_recurrence(chebyshev_t(24)))
    zfile = tmp_path / "z.json"
    zfile.write_text(dumps_verblunsky(VerblunskySeq((0.0,) * 16)))

    # determinism: byte-identical outputs for identical jobs
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["geronimus", "--direction", "inv", "--in", str(tfile),
                     "--out", str(out), "--n", "10"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    for name in ("a.tsv", "b.tsv"):
        out = tmp_path / name
        assert main(["eval", "--in", str(tfile), "--side", "line",
                     "--points", "2.0,-1.5,3.0", "--depth", "20",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[2] == outs[3]

    assert main(["verify", "--suite", "rel", "--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--suite", "rel", "--seed", "11"]) == 0
    assert capsys.readouterr().out == first

    # exit code 1: unreadable input
    assert main(["geronimus", "--direction", "fwd",
                 "--in", str(tmp_path / "missing.json")]) == 1
    # exit code 2: support violation, offending index on stderr
    bad = tmp_path / "bad.json"
    bad.write_text(dumps_recurrence(RealRecurrence((0.0,), (1.0,))))
    assert main(["geronimus", "--direction", "inv", "--in", str(bad)]) == 2
    assert "index 1" in capsys.readouterr().err
    # exit code 2: forbidden evaluation point
    assert main(["eval", "--in", str(tfile), "--side", "line",
                 "--points", "0.25", "--depth", "10"]) == 2
    # exit code 3: spec/side mismatch
    spec = tmp_path / "spec.json"
    spec.write_text('[{"kind": "k_modification", "k": 0, "eta": 0.4}]')
    assert main(["perturb", "--in", str(tfile), "--spec", str(spec),
                 "--side", "line"]) == 3
    # exit code 4: unknown suite
    assert main(["verify", "--suite", "nonexistent"]) == 4
    # exit code 5: suite failure at an impossible tolerance
    assert main(["verify", "--suite", "bridge", "--tol", "1e-30"]) == 5
    # discrepancy suite reports the mismatch and still exits 0
    assert main(["verify", "--suite", "discrepancy"]) == 0
    assert "default 0.25 vs shortcut 0.5" in capsys.readouterr().out

    elapsed = time.perf_counter() - t0
    print(f"criterion 9 [cli determinism and exit codes] elapsed {elapsed:.2f}s")
    assert elapsed < 30.0


def test_full_verify_battery_runtime():
    """All eight CLI suites back to back stay inside the 30 s budget."""
    from ortho_szego.suites import run_suite, suite_names

    t0 = time.perf_counter()
    for name in suite_names():
        rep = run_suite(name, seed=SEED % 1000)
        assert rep.ok, f"suite {name} failed: {rep.lines}"
    elapsed = time.perf_counter() - t0
    print(f"verify battery elapsed {elapsed:.2f}s")
    assert elapsed < 30.0
