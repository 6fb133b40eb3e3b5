"""Perturbation families as coefficient-level transforms.

Every family takes a ``path`` argument:

* the CLOSED_FORM path evaluates the stated formulas verbatim;
* the ORACLE path perturbs the coefficients first and then runs the
  generic bridge direction (brute force).

Where the stated formula differs from the bridge recursion (the
co-dilation head, the symmetric families, the circle-side associated
map, sieving and k-modification) the two paths are independent code,
and the verification suites and the test suite check that they agree.
The symmetric closed forms run the paper's one-term odd recursion
g_{2n+1} = -1 + 4 d_{n+1} / (1 - g_{2n-1}) with every even entry 0; on
b == 0 data that is the inversion bit for bit.  Three maps have no
separate closed form: both paths run one kernel, so their deviation
(``perturb --both-paths``) is 0 by construction.  Two are line-side: the
associated and anti-associated families (``assoc_oprl_to_verblunsky``,
``antiassoc_oprl_to_verblunsky``) are the bridge recursion
``szego.invert_from`` itself, fed shifted or prepended data.  The third
is the circle-side anti-associated family
(``antiassoc_opuc_to_recurrence``): the paper's four-branch table is the
forward relations on the prepended coefficients, so both paths run
``szego.geronimus_forward``.  The single documented exception is the LU
shortcut for a dilation (``perturbed_v``): its stated prefix-preservation
clashes with the genuinely perturbed LU data when the dilation factor
differs from 1, so the pivot update has a "default" (consistent) path and
a "shortcut" path plus a structured discrepancy report instead of a silent
choice.  Both paths check the same perturbation specs, and
``perturbed_alpha_lu`` is ``szego.alpha_from_v`` of either pivot sequence.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

from ._value import Value, _unchecked
from .errors import (
    InsufficientCoefficients,
    InvalidEta,
    NonPositiveD,
    OrthoError,
    SupportViolation,
    WrongSide,
)
from .oprl import RealRecurrence, prepend_coefficients, shift_coefficients
from .opuc import VerblunskySeq, _check_moduli, _stored, prepend_verblunsky, shift_verblunsky
from .serialize import _complex, _integer, _list, _real
from .szego import (
    _alpha_conv,
    _emit_checked,
    _peel_error,
    _peel_from,
    alpha_from_v,
    geronimus_forward,
    geronimus_inverse,
    invert_from,
    v_from_alpha,
    v_from_recurrence,
)
from .tolerances import DISCREPANCY_TOL, SUPPORT_TOL, max_residual

CLOSED_FORM = "closed_form"
ORACLE = "oracle"

DEFAULT = "default"
SHORTCUT = "shortcut"


def _check_path(path: str) -> None:
    if path not in (CLOSED_FORM, ORACLE):
        raise ValueError(f"path must be {CLOSED_FORM!r} or {ORACLE!r}, got {path!r}")


def max_deviation(got, want) -> float:
    """Largest entrywise |got - want| of two circle sequences, or of the b
    and d entries of two recurrences, over the entries both have."""
    if isinstance(got, VerblunskySeq):
        parts = [(got.alpha, want.alpha)]
    else:
        parts = [(got.b, want.b), (got.d, want.d)]
    devs = [[abs(x - y) for x, y in zip(p, q)] for p, q in parts]
    if not all(devs):
        raise InsufficientCoefficients(1, 0, "entry in the both-paths window")
    return max_residual(*(x for dev in devs for x in dev))


# ---------------------------------------------------------------------------
# Perturbation descriptions


class CoDilated(Value):
    """Multiply d_k by lam (k >= 1: d_0 is never used by the recurrence,
    so dilating it would be a silent no-op and is rejected)."""

    __slots__ = ("k", "lam")
    k: int
    lam: float

    def __init__(self, k, lam):
        Value.__init__(self, k, lam)
        if self.k < 1:
            raise ValueError("co-dilation index must be >= 1")
        if not self.lam > 0:
            raise ValueError("co-dilation factor must be positive")

    kind = "co_dilated"


class CoRecursive(Value):
    """Add tau to b_{k+1} (k >= 0)."""

    __slots__ = ("k", "tau")
    k: int
    tau: float

    def __init__(self, k, tau):
        Value.__init__(self, k, tau)
        if self.k < 0:
            raise ValueError("co-recursion index must be >= 0")

    kind = "co_recursive"


class KModification(Value):
    """Replace the circle coefficient at index k by eta, |eta| < 1."""

    __slots__ = ("k", "eta")
    k: int
    eta: complex

    def __init__(self, k, eta):
        Value.__init__(self, k, eta)
        if self.k < 0:
            raise ValueError("modification index must be >= 0")
        if not abs(self.eta) < 1.0:
            raise InvalidEta(f"|eta| = {abs(self.eta)} >= 1")

    kind = "k_modification"


class Associated(Value):
    """Drop the first k coefficient entries (index shift)."""

    __slots__ = ("k",)
    k: int

    def __init__(self, k):
        Value.__init__(self, k)
        if self.k < 0:
            raise ValueError("association order must be >= 0")

    kind = "associated"


class AntiAssociated(Value):
    """Prepend new coefficients: (pre_b, pre_d) on the line, xi on the circle."""

    __slots__ = ("pre_b", "pre_d", "xi")
    pre_b: tuple[float, ...]
    pre_d: tuple[float, ...]
    xi: tuple[complex, ...]

    def __init__(self, pre_b=(), pre_d=(), xi=()):
        Value.__init__(self, pre_b, pre_d, xi)

    kind = "anti_associated"


class Sieve(Value):
    """Spread circle coefficients: original entry m-1 lands at index m*ell - 1,
    zeros elsewhere."""

    __slots__ = ("ell",)
    ell: int

    def __init__(self, ell):
        Value.__init__(self, ell)
        if self.ell < 1:
            raise ValueError("sieve stride must be >= 1")

    kind = "sieve"


# ---------------------------------------------------------------------------
# Direct coefficient transforms


def coprl_apply(rc: RealRecurrence, specs) -> RealRecurrence:
    """Apply co-dilations/co-recursions: d_k -> lam * d_k, b_{k+1} -> b_{k+1} + tau.

    At most one spec of each kind per index; order is immaterial because the
    touched entries are disjoint per spec.
    """
    b = list(rc.b)
    d = list(rc.d)
    seen = set()
    for spec in specs:
        key = (type(spec), spec.k)
        if key in seen:
            raise ValueError(f"duplicate perturbation for index {spec.k}")
        seen.add(key)
        if isinstance(spec, CoDilated):
            rc.require(0, spec.k)
            d[spec.k - 1] *= spec.lam
        elif isinstance(spec, CoRecursive):
            rc.require(spec.k + 1, 0)
            b[spec.k] += spec.tau
        else:
            raise ValueError(f"not a line-side single-entry perturbation: {spec!r}")
    # rc was checked when built: only the touched entries are coerced and
    # zero-checked, in the constructor's order (every b, every d, a zero d)
    touched = sorted((issubclass(kind, CoDilated), k) for kind, k in seen)
    for dilated, k in touched:
        seq, i = (d, k - 1) if dilated else (b, k)
        seq[i] = float(seq[i])
    zeros = [k for dilated, k in touched if dilated and d[k - 1] == 0.0]
    if zeros:
        raise NonPositiveD(f"d_{zeros[0]} = 0 is not allowed")
    return _unchecked(RealRecurrence, tuple(b), tuple(d))


def _co_specs(k: int, lam: float, tau: float) -> list:
    """The specs of d_k -> lam d_k and b_{k+1} -> b_{k+1} + tau, checked by
    their constructors; an identity part (lam = 1, tau = 0) adds none, but
    k < 0 is refused whatever lam and tau are."""
    if k < 0:
        raise ValueError("perturbation index must be >= 0")
    specs = []
    if lam != 1.0:
        specs.append(CoDilated(k, lam))
    if tau != 0.0:
        specs.append(CoRecursive(k, tau))
    return specs


def copuc_apply(vs: VerblunskySeq, k: int, eta: complex) -> VerblunskySeq:
    """Replace the coefficient at index k by eta (overwrite semantics:
    eta == alpha_k is allowed and is the identity)."""
    if k < 0:
        raise ValueError("modification index must be >= 0")
    if not abs(eta) < 1.0:
        raise InvalidEta(f"|eta| = {abs(eta)} >= 1")
    vs.require(k + 1)
    alpha = list(vs.alpha)
    alpha[k] = eta
    alpha = _stored(alpha)
    # vs was checked when built and the eta guard read eta itself; a type
    # that reaches modulus 1 only as a complex is caught here
    _check_moduli(alpha[k:k + 1], k)
    return _unchecked(VerblunskySeq, alpha)


# ---------------------------------------------------------------------------
# Single-entry line perturbations seen from the circle


def coprl_verblunsky(rc: RealRecurrence, k: int, lam: float, tau: float,
                     n: int, path: str = CLOSED_FORM) -> VerblunskySeq:
    """Circle coefficients a-hat_0 .. a-hat_{2n-1} of the measure with
    d_k -> lam d_k and b_{k+1} -> b_{k+1} + tau.

    The closed form keeps a_j for j < 2k-1, shifts a_{2k-1} by

        M = 4 (lam - 1) d_k / ((1 - a_{2k-3}) (1 - a_{2k-2}^2)),

    recombines a_{2k} from (a_{2k}, tau, M), and continues with the generic
    inversion on the untouched tail.  It inverts only the head a_0 .. a_{2k+1}
    of the unperturbed data and reads it up to a_{2k}, so an unperturbed
    coefficient past a_{2k+1} that leaves (-1, 1) does not stop it.  k = 0
    is the pure co-recursive case and requires lam = 1.
    """
    _check_path(path)
    if n < k + 1:
        raise ValueError("need n >= k + 1 output pairs to cover the perturbed entries")
    specs = _co_specs(k, lam, tau)
    if path == ORACLE:
        return geronimus_inverse(coprl_apply(rc, specs), n)

    rc.require(n, n)
    alpha = geronimus_inverse(rc, k + 1).real_view()  # the head reads up to a_{2k}
    am2, am1 = _alpha_conv(alpha, 2 * k - 2), _alpha_conv(alpha, 2 * k - 1)
    if k == 0:
        m_shift = 0.0
    else:
        m_shift = 4.0 * (lam - 1.0) * rc.d_at(k) / ((1.0 - _alpha_conv(alpha, 2 * k - 3)) * (1.0 - am2 * am2))

    head = list(alpha[: max(2 * k - 1, 0)])
    if k > 0:
        head.append(_emit_checked(am1 + m_shift, 2 * k - 1))
    num = (1.0 - am1) * alpha[2 * k] + 2.0 * tau + m_shift * am2
    head.append(_emit_checked(num / (1.0 - am1 - m_shift), 2 * k))
    return invert_from(rc, head, n)


# ---------------------------------------------------------------------------
# Associated / anti-associated, line data seen from the circle


def assoc_oprl_to_verblunsky(rc: RealRecurrence, k: int, n: int,
                             path: str = CLOSED_FORM) -> VerblunskySeq:
    """Circle coefficients of the order-k associated line family: the
    inversion recursion fed with b_{n+k}, d_{n+k}.

    There is no separate closed form: both paths run szego.invert_from on
    the shifted coefficients.
    """
    _check_path(path)
    return geronimus_inverse(shift_coefficients(rc, k), n)


def antiassoc_oprl_to_verblunsky(rc: RealRecurrence, pre_b, pre_d, n: int,
                                 path: str = CLOSED_FORM) -> VerblunskySeq:
    """Circle coefficients of the order-k anti-associated line family
    (k = len(pre_b)): the inversion recursion fed with the prepended window
    for indices <= k and b_{n-k}, d_{n-k} beyond it.

    There is no separate closed form: both paths run szego.invert_from on
    the prepended coefficients.
    """
    _check_path(path)
    return geronimus_inverse(prepend_coefficients(rc, pre_b, pre_d), n)


# ---------------------------------------------------------------------------
# Associated / anti-associated, circle data seen from the line


def assoc_opuc_to_recurrence(vs: VerblunskySeq, k: int, n: int,
                             path: str = CLOSED_FORM) -> RealRecurrence:
    """Recurrence pairs of the order-k associated circle family.

    Odd k = 2m-1 reweights through the pivot sequence:

        d-hat_1     = (1 + a_{2m-1}) / v_{2m+1} * d_{m+1}
        d-hat_{n+1} = v_{2(n+m)-1} / v_{2(n+m)+1} * d_{n+m+1}
        b-hat_1     = a_{2m-1}
        b-hat_{n+1} = b_{n+m+1} + v_{2(n+m)-2} - v_{2(n+m)}

    Even k = 2m only rescales the first entry, with lam = 2 / (1 - a_{2m-1}):

        d-hat_1 = lam d_{m+1},  d-hat_{n+1} = d_{n+m+1}
        b-hat_1 = a_{2m},       b-hat_{n+1} = b_{n+m+1}.
    """
    _check_path(path)
    if path == ORACLE or n <= 0:  # no pairs to build: the oracle's checks alone
        return geronimus_forward(shift_verblunsky(vs, k), n)
    if k < 0:
        raise ValueError("shift order must be >= 0")
    first = k if k % 2 else k - 1  # the rows read a_k on, and lam (even k) reads a_{k-1}
    if first > 0 and vs.alpha:
        # zeros of the storage kind in place of the entries before a_first keep
        # every index; they enter only pairs and pivots below the rows read
        lead = min(first, len(vs))
        zero = 0.0 if type(vs.alpha[0]) is float else 0j
        vs = _unchecked(VerblunskySeq, (zero,) * lead + vs.alpha[lead:])
    alpha = vs.real_view()
    need = 2 * n + k
    if len(alpha) < need:
        raise OrthoError(f"need {need} circle coefficients, have {len(alpha)}")

    rc = geronimus_forward(vs, (len(alpha)) // 2)
    b, d = rc.b, rc.d
    if k % 2 == 1:
        v = v_from_alpha(vs)
        m = (k + 1) // 2
        # Row n-1 reads v_{2(n+m)-1} (row 0 reads v_{2m+1}), which an input
        # of exactly 2n + k coefficients lacks.  No earlier row can fail, so
        # raising before them gives the error the row-by-row loop gave.
        if 2 * (n + m) > len(v):
            raise InsufficientCoefficients(2 * (n + m), len(v), "v entries")
        d_out = [(1.0 + alpha[2 * m - 1]) / v[2 * m + 1] * rc.d_at(m + 1)]
        b_out = [alpha[2 * m - 1]]
        rows = range(m + 1, n + m)  # i = j + m for output rows j = 1..n-1
        d_out += [v[2 * i - 1] / v[2 * i + 1] * d[i] for i in rows]
        b_out += [b[i] + v[2 * i - 2] - v[2 * i] for i in rows]
    else:
        m = k // 2
        lam = 2.0 / (1.0 - _alpha_conv(alpha, 2 * m - 1))
        d_out = [lam * rc.d_at(m + 1)]
        b_out = [alpha[2 * m] if k > 0 else rc.b_at(1)]
        if n > 1:
            d_out += d[m + 1:n + m]
            b_out += b[m + 1:n + m]
    # floats; a d-hat is d, or joins three of 2, 1 -/+ a, v, d (in [2^-160, 2]): > 0, finite
    return _unchecked(RealRecurrence, tuple(b_out), tuple(d_out))


def antiassoc_opuc_to_recurrence(vs: VerblunskySeq, xi, n: int,
                                 path: str = CLOSED_FORM) -> RealRecurrence:
    """Recurrence pairs of the order-k anti-associated circle family,
    k = len(xi): the forward relations on {xi_0, ..., xi_{k-1}, a_0, ...}.

    The paper states this as a four-branch table (pure-prepend rows, the
    mixed rows where the prepended window meets the original data, and the
    stable tail).  The table is these forward relations with the index
    split between xi and a written out, so there is no separate closed
    form: both paths run geronimus_forward on the prepended sequence.
    tests/test_perturb.py checks the table against it in exact arithmetic.
    """
    _check_path(path)
    return geronimus_forward(prepend_verblunsky(vs, tuple(float(x) for x in xi)), n)


# ---------------------------------------------------------------------------
# LU shortcut for single-entry line perturbations


class PathDiscrepancy(Value):
    """Structured report of a default-vs-shortcut disagreement."""

    __slots__ = ("op", "k", "lam", "tau", "index", "default_value", "shortcut_value")
    op: str
    k: int
    lam: float
    tau: float
    index: int
    default_value: float
    shortcut_value: float

    def describe(self) -> str:
        return (f"{self.op}: paths first differ at index {self.index}: "
                f"default {self.default_value!r} vs shortcut {self.shortcut_value!r} "
                f"(k={self.k}, lam={self.lam}, tau={self.tau})")


def perturbed_v(rc: RealRecurrence, k: int, lam: float, tau: float, n: int,
                path: str = DEFAULT) -> tuple[float, ...]:
    """Pivot sequence v~_0 .. v~_{n-1} after d_k -> lam d_k, b_{k+1} -> b_{k+1} + tau.

    "default" peels the continued fraction of the genuinely perturbed
    coefficients (always consistent with the LU factorization).  "shortcut"
    applies the paper's pivot update to the unperturbed peel: it peels the
    head v_0..v_{2k}, sets v~_{2k} = v_{2k} + (1 - lam) v_{2k-1} + tau and
    continues the same peel (szego._peel_from) from there.  Both paths build
    the same CoDilated/CoRecursive specs, so both refuse the same
    (k, lam, tau), and for n <= 0 both give () after the default path's
    data checks.  For lam != 1 the copied prefix disagrees with the
    perturbed LU data at index 2k-1; see path_discrepancy_report.
    """
    if path not in (DEFAULT, SHORTCUT):
        raise ValueError(f"path must be {DEFAULT!r} or {SHORTCUT!r}, got {path!r}")
    specs = _co_specs(k, lam, tau)
    if path == DEFAULT or n <= 0:
        return v_from_recurrence(coprl_apply(rc, specs), n)
    head = list(v_from_recurrence(rc, 2 * k + 1))
    if 2 * k < n:  # float(): a complex tau is a TypeError, not a complex pivot
        head[2 * k] = float(head[2 * k] + (1.0 - lam) * (head[2 * k - 1] if k else 0.0) + tau)
    return _peel_from(rc, head, n)


def perturbed_alpha_lu(rc: RealRecurrence, k: int, lam: float, tau: float, n: int,
                       path: str = DEFAULT) -> VerblunskySeq:
    """Perturbed circle coefficients a~_0 .. a~_{2n-1} through the LU
    pivots: alpha_from_v of perturbed_v on either path.

    "default" agrees with coprl_verblunsky.  On "shortcut" the step at
    index 2k is the paper's shift a~_{2k} = a_{2k} + 2[(1 - lam) v_{2k-1}
    + tau] / (1 - a_{2k-1}), since v~_{2k} - v_{2k} = (1 - lam) v_{2k-1}
    + tau; it agrees with "default" when lam = 1.
    """
    return alpha_from_v(perturbed_v(rc, k, lam, tau, 2 * n, path))


def path_discrepancy_report(rc: RealRecurrence, k: int, lam: float, tau: float,
                            n: int, tol: float = DISCREPANCY_TOL) -> PathDiscrepancy | None:
    """Compare the two pivot paths entrywise; None when they agree.

    Entries agree when they differ by at most tol (1 + |v|) plus the
    rounding both paths can carry (their running peel error bounds): a
    near-zero pivot amplifies a 1-ulp difference far past tol without any
    disagreement between the formulas.
    """
    dv = perturbed_v(rc, k, lam, tau, n, DEFAULT)
    pv = perturbed_v(rc, k, lam, tau, n, SHORTCUT)
    bound = [x + y for x, y in zip(_peel_error(rc.b, dv), _peel_error(rc.b, pv))]
    for j in range(n):
        if abs(dv[j] - pv[j]) > tol * (1.0 + abs(dv[j])) + bound[j]:
            return PathDiscrepancy("perturbed_v", k, lam, tau, j, dv[j], pv[j])
    return None


# ---------------------------------------------------------------------------
# Sieving and symmetric families


# Longest sieved sequence sieve() builds.  The output grows as len * ell,
# so without a cap one small spec asks for gigabytes.
MAX_SIEVE_LENGTH = 100_000


def sieve(vs: VerblunskySeq, ell: int) -> VerblunskySeq:
    """Sieved coefficients: entry m-1 moves to index m*ell - 1, zeros fill
    the gaps; ell = 1 is the identity.  At most MAX_SIEVE_LENGTH entries."""
    if ell < 1:
        raise ValueError("sieve stride must be >= 1")
    if len(vs) * ell > MAX_SIEVE_LENGTH:
        raise ValueError(f"sieved sequence would have {len(vs) * ell} entries, "
                         f"more than {MAX_SIEVE_LENGTH}")
    alpha = vs.alpha
    # zeros of the storage kind of vs, whose entries were checked when built
    zero = 0j if alpha and type(alpha[0]) is complex else 0.0
    out = [zero] * (len(alpha) * ell)
    out[ell - 1::ell] = alpha
    return _unchecked(VerblunskySeq, tuple(out))


def sieve2_recurrence(vs: VerblunskySeq, n: int, path: str = CLOSED_FORM) -> RealRecurrence:
    """Recurrence pairs of the stride-2 sieved family:
    b == 0 and d_{n+1} = (1/4)(1 - a_{n-1})(1 + a_n) (so d_1 = (1+a_0)/2)."""
    _check_path(path)
    if path == ORACLE:
        return geronimus_forward(sieve(vs, 2), n)
    alpha = vs.real_view()
    if len(alpha) < n:
        raise OrthoError(f"need {n} circle coefficients, have {len(alpha)}")
    d = [0.25 * (1.0 - prev) * (1.0 + a) for a, prev in zip(alpha[:max(n, 0)], (-1.0,) + alpha)]
    # real_view gives floats in (-1, 1), so both factors of d are >= 2^-53 and d > 0
    return _unchecked(RealRecurrence, (0.0,) * n, tuple(d))


def sieved_kmod_recurrence(vs: VerblunskySeq, k: int, eta: float, n: int,
                           path: str = CLOSED_FORM) -> RealRecurrence:
    """Stride-2 sieved family after replacing a_k by eta: exactly the two
    entries d_{k+1} and d_{k+2} pick up the factors (1+eta)/(1+a_k) and
    (1-eta)/(1-a_k)."""
    _check_path(path)
    if not -1.0 < eta < 1.0:
        raise InvalidEta(f"eta = {eta} outside (-1, 1)")
    if path == ORACLE:
        return geronimus_forward(sieve(copuc_apply(vs, k, eta), 2), n)
    if k < 0:
        raise ValueError("modification index must be >= 0")
    vs.require(k + 1)
    base = sieve2_recurrence(vs, n, CLOSED_FORM)
    ak = vs.real_view()[k]
    d = list(base.d)
    if k < n:
        d[k] *= (1.0 + eta) / (1.0 + ak)
    if k + 1 < n:
        d[k + 1] *= (1.0 - eta) / (1.0 - ak)
    # the eta guard keeps 1 -/+ eta >= 2^-53, so both factors are positive floats
    return _unchecked(RealRecurrence, base.b, tuple(d))


def symmetric_verblunsky(d, path: str = CLOSED_FORM) -> VerblunskySeq:
    """Circle coefficients of a symmetric line family (b == 0):
    even entries vanish and g_{2n+1} = -1 + 4 d_{n+1} / (1 - g_{2n-1}),
    with g_{-1} = -1.

    The closed form runs this one-term odd recursion; the oracle runs the
    full two-coefficient inversion szego.invert_from on the b == 0 data.
    The two give the same bits (see _symmetric_from).
    """
    _check_path(path)
    rc = _symmetric_line(d)
    if path == ORACLE:
        return geronimus_inverse(rc, len(rc.d))
    return _symmetric_from(rc.d, [], len(rc.d))


def _symmetric_line(d) -> RealRecurrence:
    """RealRecurrence((0.0,) * len(d), d) with only d coerced: the zeros
    are floats already, so d is the one field to coerce and zero-check."""
    d = tuple(map(float, d))
    if 0.0 in d:
        raise NonPositiveD(f"d_{d.index(0.0) + 1} = 0 is not allowed")
    return _unchecked(RealRecurrence, (0.0,) * len(d), d)


def _symmetric_from(d, head: list, n: int) -> VerblunskySeq:
    """Continue the symmetric sequence head = g_0 .. g_{2m-1} (a float list
    inside (-1, 1)) up to g_{2n-1}: each later pair is 0.0 and
    g_{2j+1} = -1 + 4 d_{j+1} / (1 - g_{2j-1}), with g_{-1} = -1.

    With b == 0 this is szego.invert_from bit for bit: its even entry is
    exactly +0.0, so its divisor (1 - g_{2j-1})(1 - 0.0) is 1 - g_{2j-1},
    which the support guard keeps above SUPPORT_TOL > PIVOT_TOL.
    """
    lo, hi = SUPPORT_TOL - 1.0, 1.0 - SUPPORT_TOL
    m = len(head) // 2
    g = head[-1] if head else -1.0
    for dj in d[m:max(n, m)]:  # max(n, m): no slice from the end
        g = -1.0 + 4.0 * dj / (1.0 - g)
        if not lo < g < hi:
            raise SupportViolation(len(head) + 1, g)
        head.append(0.0)
        head.append(g)
    # every entry is 0.0 or a float the support guard put inside (-1, 1)
    return _unchecked(VerblunskySeq, tuple(head))


def symmetric_codilated_verblunsky(d, k: int, lam: float,
                                   path: str = CLOSED_FORM) -> VerblunskySeq:
    """Symmetric family after d_k -> lam d_k, as 2 len(d) circle
    coefficients: odd entries below 2k-1 are kept, g_{2k-1} shifts by
    4 (lam - 1) d_k / (1 - g_{2k-3}), and every later odd entry follows the
    symmetric recursion.  The closed form reads only the head g_0 .. g_{2k-1}
    of the unperturbed symmetric sequence."""
    _check_path(path)
    spec = CoDilated(k, lam)
    rc = _symmetric_line(d)
    n = len(rc.d)
    if path == ORACLE:
        return geronimus_inverse(coprl_apply(rc, [spec]), n)
    rc.require(0, k)
    gamma = _symmetric_from(rc.d, [], k).alpha  # the head reads up to g_{2k-1}
    head = list(gamma[: 2 * k - 1])
    shift = 4.0 * (lam - 1.0) * rc.d[k - 1] / (1.0 - _alpha_conv(gamma, 2 * k - 3))
    head.append(_emit_checked(gamma[2 * k - 1] + shift, 2 * k - 1))
    return _symmetric_from(rc.d, head, n)


# ---------------------------------------------------------------------------
# Spec registry: one entry per perturbation kind


class SpecKind(Value):
    """How one perturbation kind is read and applied.

    ``apply`` maps each side the kind applies to ("line", "circle") to
    ``f(data, spec) -> perturbed data``.  ``paths`` maps a side to
    ``f(data, spec) -> (order, run)``, where ``run(path=...)`` computes the
    family through CLOSED_FORM or ORACLE on the unperturbed data, or to a
    string saying why the side has no such pair.
    """

    __slots__ = ("read", "apply", "paths")
    read: Callable[[dict], object]
    apply: dict[str, Callable]
    paths: dict[str, Callable]

    def __init__(self, read, apply, paths):
        Value.__init__(self, read, apply, paths)


def _co_window(rc: RealRecurrence, k: int) -> int:
    return min(len(rc), max(k + 2, 8))


def _antiassoc_from_obj(obj: dict) -> AntiAssociated:
    if "xi" not in obj:
        return AntiAssociated(pre_b=_list(obj.get("pre_b", []), _real),
                              pre_d=_list(obj.get("pre_d", []), _real))
    if "pre_b" in obj or "pre_d" in obj:
        raise TypeError("xi cannot be given with pre_b/pre_d")
    return AntiAssociated(xi=_list(obj["xi"], _complex))


def _antiassoc_line(rc: RealRecurrence, spec: AntiAssociated) -> RealRecurrence:
    if spec.xi or not spec.pre_b:
        raise WrongSide("anti_associated on the line side needs pre_b/pre_d")
    return prepend_coefficients(rc, spec.pre_b, spec.pre_d)


def _antiassoc_circle(vs: VerblunskySeq, spec: AntiAssociated) -> VerblunskySeq:
    if spec.pre_b or (not spec.xi and spec.pre_d):
        raise WrongSide("anti_associated on the circle side needs xi")
    return prepend_verblunsky(vs, spec.xi)


def _antiassoc_circle_paths(vs: VerblunskySeq, spec: AntiAssociated):
    if any(x.imag != 0.0 for x in spec.xi):
        return "complex prepend has no line-side closed form"
    return len(spec.xi), partial(antiassoc_opuc_to_recurrence, vs, [x.real for x in spec.xi],
                                 max(len(vs) // 2 - 1, 1))


SPECS: dict[str, SpecKind] = {
    CoDilated.kind: SpecKind(
        read=lambda obj: CoDilated(_integer(obj["k"]), _real(obj["lambda"])),
        apply={"line": lambda rc, spec: coprl_apply(rc, [spec])},
        paths={"line": lambda rc, spec: (spec.k, partial(
            coprl_verblunsky, rc, spec.k, spec.lam, 0.0, _co_window(rc, spec.k)))}),
    CoRecursive.kind: SpecKind(
        read=lambda obj: CoRecursive(_integer(obj["k"]), _real(obj["tau"])),
        apply={"line": lambda rc, spec: coprl_apply(rc, [spec])},
        paths={"line": lambda rc, spec: (spec.k, partial(
            coprl_verblunsky, rc, spec.k, 1.0, spec.tau, _co_window(rc, spec.k)))}),
    KModification.kind: SpecKind(
        read=lambda obj: KModification(_integer(obj["k"]), _complex(obj["eta"])),
        apply={"circle": lambda vs, spec: copuc_apply(vs, spec.k, spec.eta)},
        paths={}),
    Associated.kind: SpecKind(
        read=lambda obj: Associated(_integer(obj["k"])),
        apply={"line": lambda rc, spec: shift_coefficients(rc, spec.k),
               "circle": lambda vs, spec: shift_verblunsky(vs, spec.k)},
        paths={"line": lambda rc, spec: (spec.k, partial(
                   assoc_oprl_to_verblunsky, rc, spec.k, min(len(rc) - spec.k, 8))),
               "circle": lambda vs, spec: (spec.k, partial(
                   assoc_opuc_to_recurrence, vs, spec.k, max((len(vs) - spec.k) // 2 - 1, 1)))}),
    AntiAssociated.kind: SpecKind(
        read=_antiassoc_from_obj,
        apply={"line": _antiassoc_line, "circle": _antiassoc_circle},
        paths={"line": lambda rc, spec: (len(spec.pre_b), partial(
                   antiassoc_oprl_to_verblunsky, rc, spec.pre_b, spec.pre_d, min(len(rc), 8))),
               "circle": _antiassoc_circle_paths}),
    Sieve.kind: SpecKind(
        read=lambda obj: Sieve(_integer(obj["ell"])),
        apply={"circle": lambda vs, spec: sieve(vs, spec.ell)},
        paths={}),
}
