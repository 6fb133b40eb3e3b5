"""Seeded verification suites behind the `verify` command.

Each suite exercises one block of cross-validation properties on the
fixed Chebyshev fixtures plus seeded random admissible inputs, and
reports one line per property with the worst residual seen.  Results are
deterministic for a fixed seed.

`run_suite` owns the report, the seed and the tolerance: it builds the
`SuiteReport` and the `random.Random(seed)` and resolves the tolerance,
then hands all three to the suite.  A property on random inputs is a
function that draws once from that generator and returns one residual;
`SuiteReport.record_kept` runs it, redraws an inadmissible draw and keeps
the worst residual.
"""

from __future__ import annotations

import math
import random
from functools import partial

from .errors import SupportViolation
from .oprl import (
    chebyshev_t,
    chebyshev_u,
    prepend_coefficients,
    shift_coefficients,
)
from .opuc import VerblunskySeq, prepend_verblunsky, shift_verblunsky
from .szego import (
    alpha_from_v,
    check_rel,
    geronimus_forward,
    geronimus_inverse,
    lu_check,
    map_x_to_z,
    v_from_alpha,
    v_from_recurrence,
)
from .tolerances import (
    CHECK_TOL,
    COROLLARY_TOL_FLOOR,
    DEFAULT_TOLS,
    EXACT_TOL,
    check_suite,
    max_residual,
)

# Each suite imports the perturb, polyhom and spectral names it runs
# inside itself, so that `verify` compiles only the modules its suite runs.


# A property on random inputs redraws those whose route leaves the
# admissible region (SupportViolation), up to this many times per kept
# draw.  Over seeds 0-399 the worst was ~3 per kept draw (3.03, for
# lu_shortcut_agrees_at_lam1 at seed 10), so the cap only stops a property
# whose draws have stopped being admissible.
MAX_DISCARDS_PER_KEPT = 200


class SuiteReport:
    def __init__(self, suite: str):
        self.suite = suite
        self.lines: list[str] = []
        self.ok = True

    def record(self, name: str, residual: float, tol: float) -> None:
        passed = residual <= tol
        self.ok = self.ok and passed
        self.lines.append(
            f"{'PASS' if passed else 'FAIL'} {self.suite}.{name} "
            f"max_residual {residual:.3e} tol {tol:.1e}")

    def note(self, text: str) -> None:
        self.lines.append(text)

    def record_kept(self, name: str, run, kept: int, tol: float) -> None:
        """Record the worst residual of `kept` runs of `run()`.  A run that
        raises SupportViolation is discarded and drawn again; after
        MAX_DISCARDS_PER_KEPT * kept discards the property fails."""
        worst, done, discarded = 0.0, 0, 0
        while done < kept:
            try:
                err = run()
            except SupportViolation:
                discarded += 1
                if discarded >= MAX_DISCARDS_PER_KEPT * kept:
                    self.ok = False
                    self.lines.append(f"FAIL {self.suite}.{name} discarded {discarded} "
                                      f"draws, kept {done} of {kept}")
                    return
                continue
            worst = max_residual(worst, err)
            done += 1
        self.record(name, worst, tol)


def _rand_alpha(rng: random.Random, n: int, bound: float = 0.9) -> VerblunskySeq:
    return VerblunskySeq(tuple(rng.uniform(-bound, bound) for _ in range(n)))


def _rand_rc(rng: random.Random, pairs: int, bound: float = 0.9):
    return geronimus_forward(_rand_alpha(rng, 2 * pairs, bound), pairs)


# Identity-roundtrip inputs are drawn with |a| <= IDENTITY_BOUND.  The
# inversion's condition number grows like a product of 1/(1 - a) factors;
# at depth 20 this bound keeps it around 1e4, so a 1e-11 identity check is
# meaningful in IEEE doubles.  Wider draws (e.g. the (-0.9, 0.9) family
# used for the closed-form-vs-oracle properties, which compare two routes over
# the same data and are self-cancelling) push the intrinsic roundtrip
# error to 1e-8..1e-4 regardless of implementation: inverting the rounded
# float64 recurrence pairs in 60-digit arithmetic reproduces the same
# error, i.e. the information is already lost in the intermediate.
IDENTITY_BOUND = 0.35


def suite_roundtrip(rep: SuiteReport, rng: random.Random, tol: float) -> None:
    from .perturb import max_deviation

    depth = 20

    worst = max_deviation(geronimus_inverse(chebyshev_t(), 12),
                          VerblunskySeq((0.0,) * 24))
    rep.record("chebyshev_t_fixture", worst, tol)

    def inverse_of_forward():
        vs = _rand_alpha(rng, 2 * depth, IDENTITY_BOUND)
        return max_deviation(vs, geronimus_inverse(geronimus_forward(vs, depth), depth))

    def forward_of_inverse():
        rc = _rand_rc(rng, depth)
        return max_deviation(rc, geronimus_forward(geronimus_inverse(rc, depth), depth))

    def alpha_of_v_of_alpha():
        vs = _rand_alpha(rng, 2 * depth, IDENTITY_BOUND)
        return max_deviation(vs, alpha_from_v(v_from_alpha(vs)))

    for run in (inverse_of_forward, forward_of_inverse, alpha_of_v_of_alpha):
        rep.record_kept(run.__name__, run, 100, tol)


def suite_rel(rep: SuiteReport, rng: random.Random, tol: float) -> None:
    rc, vs = chebyshev_t(), geronimus_inverse(chebyshev_t(), 12)
    fixture = max_residual(check_rel(rc, vs, 1, math.pi / 3), check_rel(rc, vs, 0, 0.9))
    rcu, vsu = chebyshev_u(), geronimus_inverse(chebyshev_u(), 12)
    fixture = max_residual(fixture, check_rel(rcu, vsu, 2, 1.1))
    rep.record("chebyshev_fixtures", fixture, tol)

    def random_triples():
        rc = _rand_rc(rng, 8)
        vs = geronimus_inverse(rc, 8)
        n = rng.randint(0, 6)
        theta = rng.uniform(0.05, math.pi - 0.05)
        return check_rel(rc, vs, n, theta)

    rep.record_kept("random_triples", random_triples, 50, tol)


def suite_bridge(rep: SuiteReport, rng: random.Random, tol: float) -> None:
    from .spectral import fs_bridge_check

    depth = 40
    xs = (1.5, -1.5, 2.0, -2.0, 3.0)

    fixture = max_residual(*(fs_bridge_check(chebyshev_t(), x, depth) for x in xs))
    fixture = max_residual(fixture, *(fs_bridge_check(chebyshev_u(), x, depth) for x in xs))
    rep.record("chebyshev_fixtures", fixture, tol)

    def random_pairs():
        vs = _rand_alpha(rng, 2 * depth + 8, bound=0.7)
        rc = geronimus_forward(vs, depth + 4)
        return max_residual(*(fs_bridge_check(rc, x, depth, vs=vs) for x in xs))

    rep.record_kept("random_pairs", random_pairs, 20, tol)


def _worst_rel(m, value, h0, h1, points) -> float:
    """Worst |m . c0 - c1| / |c1| over the points, c_i the convergent
    value(h_i, t)[0]."""
    from .polyhom import homography_apply

    def rel(t):
        want = value(h1, t)[0]
        return abs(homography_apply(m, value(h0, t)[0], t) - want) / abs(want)
    return max_residual(0.0, *map(rel, points))


def suite_transfer(rep: SuiteReport, rng: random.Random, tol: float) -> None:
    """Order-k transfer matrices at matched depths, where the identities
    are exact but for rounding, so points near the support are checked too:
    the original at D maps to the shifted data at D - k (both sides) and
    to the prepended data at D + k (circle); the original at D - k maps to
    the prepended line data at D."""
    from .spectral import (CFunctionHandle, SFunctionHandle, f_value, matrix_B_antiassoc,
                           matrix_B_assoc, matrix_Upsilon_antiassoc, matrix_Upsilon_assoc,
                           s_value)

    depth = 12
    xs = (1.8, -2.1, 2.6, 1.05, -1.02)
    zs = (0.45, -0.38, 0.3 + 0.25j, 0.95, -0.97, 0.9j)

    def line_assoc(k):
        rc = _rand_rc(rng, depth + 2, bound=0.7)
        return _worst_rel(matrix_B_assoc(rc, k), s_value, SFunctionHandle(rc, depth),
                          SFunctionHandle(shift_coefficients(rc, k), depth - k), xs)

    def line_antiassoc(k):
        # prepend pairs of an admissible draw, so the measure stays on [-1, 1]
        full = _rand_rc(rng, depth + 2 + k, bound=0.7)
        rc, pb, pd = shift_coefficients(full, k), full.b[:k], full.d[:k]
        return _worst_rel(matrix_B_antiassoc(rc, pb, pd), s_value, SFunctionHandle(rc, depth - k),
                          SFunctionHandle(prepend_coefficients(rc, pb, pd), depth), xs)

    def circle_assoc(k):
        vs = _rand_alpha(rng, depth + 2, bound=0.7)
        return _worst_rel(matrix_Upsilon_assoc(vs, k), f_value, CFunctionHandle(vs, depth),
                          CFunctionHandle(shift_verblunsky(vs, k), depth - k), zs)

    def circle_antiassoc(k):
        vs = _rand_alpha(rng, depth + 2, bound=0.7)
        xi = tuple(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4)) for _ in range(k))
        return _worst_rel(matrix_Upsilon_antiassoc(vs, xi), f_value, CFunctionHandle(vs, depth),
                          CFunctionHandle(prepend_verblunsky(vs, xi), depth + k), zs)

    for family in (line_assoc, line_antiassoc, circle_assoc, circle_antiassoc):
        for k in (1, 2, 3):
            rep.record_kept(f"{family.__name__}_k{k}", partial(family, k), 20, tol)


def suite_conjugation(rep: SuiteReport, rng: random.Random, tol: float) -> None:
    from .polyhom import homography_apply
    from .spectral import (CFunctionHandle, SFunctionHandle, assoc_order1_cfun,
                           assoc_order2_sfun_matrix, f_value, matrix_B_assoc,
                           matrix_Upsilon_antiassoc, matrix_Upsilon_assoc, s_value,
                           szego_conjugate_check)

    depth = 40

    rc_t = chebyshev_t()
    m = matrix_B_assoc(rc_t, 1)
    fixture = szego_conjugate_check(m, rc_t, shift_coefficients(rc_t, 1), 0.2,
                                    side="line", depth=depth)
    vs_u = geronimus_inverse(chebyshev_u(), depth + 2)
    mu = matrix_Upsilon_assoc(vs_u, 2)
    fixture = max_residual(fixture, szego_conjugate_check(
        mu, vs_u, shift_verblunsky(vs_u, 2), map_x_to_z(2.0), side="circle", depth=depth))
    rep.record("chebyshev_fixtures", fixture, tol)

    def random_matrices():
        vs = _rand_alpha(rng, 2 * depth + 12, bound=0.6)
        rc = geronimus_forward(vs, depth + 6)
        k = rng.randint(1, 3)
        z = rng.uniform(0.1, 0.45)
        line = szego_conjugate_check(matrix_B_assoc(rc, k), rc, shift_coefficients(rc, k), z,
                                     side="line", depth=depth)
        circle = szego_conjugate_check(matrix_Upsilon_assoc(vs, k), vs, shift_verblunsky(vs, k),
                                       z, side="circle", depth=depth)
        xi = tuple(rng.uniform(-0.4, 0.4) for _ in range(k))
        return max_residual(line, circle, szego_conjugate_check(
            matrix_Upsilon_antiassoc(vs, xi), vs, prepend_verblunsky(vs, xi), z,
            side="circle", depth=depth))

    rep.record_kept("random_matrices", random_matrices, 10, tol)

    worst = 0.0
    vs_u41 = geronimus_inverse(chebyshev_u(), depth + 1)
    h_u = CFunctionHandle(vs_u41, depth)
    for i in range(10):
        z = 0.05 + 0.04 * i
        pred = assoc_order1_cfun(z, 1.0, 0.0, 0.5)
        worst = max_residual(worst, abs(pred - (1 - z * z)),
                             abs(pred - f_value(h_u, z)[0]))
    rep.record("corollary_assoc_order1", worst, tol)

    vs_u42 = geronimus_inverse(chebyshev_u(), depth + 2)
    m2 = assoc_order2_sfun_matrix(0.0, vs_u42.at(1).real)
    s_u = s_value(SFunctionHandle(chebyshev_u(), depth), 2.0)[0]
    tail = 2 * (2 - math.sqrt(3))
    want = 1.0 / (2.0 - tail / 3.0)
    got = homography_apply(m2, s_u, 2.0)
    rep.record("corollary_assoc_order2_x2", abs(got - want), max(tol, COROLLARY_TOL_FLOOR))


def suite_theorems(rep: SuiteReport, rng: random.Random, tol: float) -> None:
    """The co-dilation properties compare each map with the paper's shift
    formula, evaluated on the unperturbed head; a head that leaves (-1, 1)
    is outside the formula's domain, not the map's, and is redrawn."""
    from .perturb import (CLOSED_FORM, ORACLE, assoc_opuc_to_recurrence, coprl_verblunsky,
                          max_deviation, sieve2_recurrence, sieved_kmod_recurrence,
                          symmetric_codilated_verblunsky, symmetric_verblunsky)

    depth = 12

    got = assoc_opuc_to_recurrence(geronimus_inverse(chebyshev_u(), 14), 1, 3)
    spot = max_residual(abs(got.d[0] - 3 / 8), abs(got.d[1] - 2 / 9), abs(got.b[1] - 1 / 12))
    rep.record("circle_assoc_odd_spot_values", spot, EXACT_TOL)

    def coprl_closed_form_vs_oracle():
        rc = _rand_rc(rng, depth + 4)
        k = rng.randint(1, 4)
        lam, tau = rng.uniform(0.6, 1.4), rng.uniform(-0.2, 0.2)
        got = coprl_verblunsky(rc, k, lam, tau, depth)
        a = geronimus_inverse(rc, k + 1).alpha  # the formula reads up to a_{2k}
        am3, am2, am1 = a[2 * k - 3] if k > 1 else -1.0, a[2 * k - 2], a[2 * k - 1]
        shift = 4.0 * (lam - 1.0) * rc.d[k - 1] / ((1.0 - am3) * (1.0 - am2 * am2))
        even = ((1.0 - am1) * a[2 * k] + 2.0 * tau + shift * am2) / (1.0 - am1 - shift)
        return max_deviation(got, VerblunskySeq(a[:2 * k - 1] + (am1 + shift, even)))

    def circle_assoc_closed_form_vs_oracle():
        vs = _rand_alpha(rng, 2 * depth + 8)
        k = rng.randint(0, 5)
        return max_deviation(assoc_opuc_to_recurrence(vs, k, depth, path=CLOSED_FORM),
                             assoc_opuc_to_recurrence(vs, k, depth, path=ORACLE))

    def symmetric_closed_form_vs_oracle():
        d = tuple(rng.uniform(0.05, 0.45) for _ in range(depth))
        k = rng.randint(1, 5)
        lam = rng.uniform(0.6, 1.4)
        got = symmetric_codilated_verblunsky(d, k, lam)
        g = symmetric_verblunsky(d[:k]).alpha
        shift = 4.0 * (lam - 1.0) * d[k - 1] / (1.0 - (g[2 * k - 3] if k > 1 else -1.0))
        return max_deviation(got, VerblunskySeq(g[:-1] + (g[-1] + shift,)))

    def sieved_closed_form_vs_oracle():
        vs = _rand_alpha(rng, depth)
        err = max_deviation(sieve2_recurrence(vs, depth, path=CLOSED_FORM),
                            sieve2_recurrence(vs, depth, path=ORACLE))
        k = rng.randint(0, depth - 2)
        eta = rng.uniform(-0.8, 0.8)
        err = max_residual(err, max_deviation(
            sieved_kmod_recurrence(vs, k, eta, depth, path=CLOSED_FORM),
            sieved_kmod_recurrence(vs, k, eta, depth, path=ORACLE)))
        return err

    for run in (coprl_closed_form_vs_oracle, circle_assoc_closed_form_vs_oracle,
                symmetric_closed_form_vs_oracle, sieved_closed_form_vs_oracle):
        rep.record_kept(run.__name__, run, 50, tol)


def suite_lu(rep: SuiteReport, rng: random.Random, tol: float) -> None:
    from .perturb import SHORTCUT, coprl_verblunsky, max_deviation, perturbed_alpha_lu

    worst = 0.0
    for n in range(2, 9):
        rc = _rand_rc(rng, n + 1)
        res = lu_check(rc, v_from_recurrence(rc, 2 * n), n)
        worst = max_residual(worst, res.max_abs_error)
    rc_t = chebyshev_t()
    worst = max_residual(worst, lu_check(rc_t, v_from_recurrence(rc_t, 16), 8).max_abs_error)
    rep.record("factorization_entrywise", worst, CHECK_TOL)

    def v_path_independence():
        vs = _rand_alpha(rng, 24, IDENTITY_BOUND)
        rc = geronimus_forward(vs, 12)
        via_cf = v_from_recurrence(rc, 24)
        via_alpha = v_from_alpha(vs)
        return max_residual(*(abs(x - y) for x, y in zip(via_cf, via_alpha)))

    def lu_shortcut_agrees_at_lam1():
        rc = _rand_rc(rng, 12, IDENTITY_BOUND)
        k = rng.randint(0, 3)
        tau = rng.uniform(-0.2, 0.2)
        return max_deviation(perturbed_alpha_lu(rc, k, 1.0, tau, 10, path=SHORTCUT),
                             coprl_verblunsky(rc, k, 1.0, tau, 10))

    for run in (v_path_independence, lu_shortcut_agrees_at_lam1):
        rep.record_kept(run.__name__, run, 30, tol)


def suite_discrepancy(rep: SuiteReport, rng: random.Random, tol: float) -> None:
    """Expected to *find* the shortcut mismatch for lam != 1 and report it.
    Each random draw scores 0.0 when its paths behave as expected, 1.0
    when not, against tol 0.5."""
    from .perturb import path_discrepancy_report

    report = path_discrepancy_report(chebyshev_t(), 1, 0.5, 0.0, 6, tol)
    if report is None:
        rep.record("fixture_mismatch_found", 1.0, 0.5)
        return
    rep.note("NOTE " + report.describe())
    ok = report.index == 1 and abs(report.shortcut_value - 0.5) < EXACT_TOL \
        and abs(report.default_value - 0.25) < EXACT_TOL
    rep.record("fixture_mismatch_found", 0.0 if ok else 1.0, 0.5)

    def random_lam_mismatches_found():
        rc = _rand_rc(rng, 8, bound=0.5)
        lam = rng.choice((0.5, 0.8, 1.25, 1.5))
        return 0.0 if path_discrepancy_report(rc, 1, lam, 0.0, 8, tol) is not None else 1.0

    def pure_corecursive_paths_agree():
        rc = _rand_rc(rng, 8, bound=0.5)
        return 0.0 if path_discrepancy_report(rc, 2, 1.0, rng.uniform(-0.2, 0.2), 8, tol) is None \
            else 1.0

    for run in (random_lam_mismatches_found, pure_corecursive_paths_agree):
        rep.record_kept(run.__name__, run, 10, 0.5)


_RUNNERS = {
    "roundtrip": suite_roundtrip,
    "rel": suite_rel,
    "bridge": suite_bridge,
    "transfer": suite_transfer,
    "conjugation": suite_conjugation,
    "theorems": suite_theorems,
    "lu": suite_lu,
    "discrepancy": suite_discrepancy,
}


def run_suite(name: str, seed: int = 0, tol: float | None = None) -> SuiteReport:
    check_suite(name)
    rep = SuiteReport(name)
    _RUNNERS[name](rep, random.Random(seed), DEFAULT_TOLS[name] if tol is None else tol)
    return rep


def suite_names() -> tuple[str, ...]:
    return tuple(sorted(_RUNNERS))
