"""Perturbation families as coefficient-level transforms.

Every map perturbs its data and runs one bridge kernel on the result:
``szego.geronimus_inverse`` for line data seen from the circle, and
``szego.geronimus_forward`` for circle data seen from the line.  Each of
the paper's formulas is that kernel with a cancellation written out, so
it is a check, not code, written once in ``suites``, where the exact tests
in tests/test_perturb.py run it on rationals and ``verify theorems`` on
floats:

* the co-polynomial shift of a_{2k-1} and a_{2k} (``coprl_verblunsky``),
  and the co-dilated symmetric shift, its case a_{2k-2} = a_{2k} = 0:
  ``suites.co_shifted_head``;
* the circle associated family's pivot ratios and rescaling:
  ``suites.assoc_circle_rows``;
* the stride-2 sieved row d_{n+1} = (1/4)(1 - a_{n-1})(1 + a_n) and the
  k-modification factors (1 +- eta) / (1 +- a_k): ``suites.sieved_rows``.

The anti-associated four-branch table has an exact test and acceptance
criterion 5, and the symmetric odd recursion g_{2n+1} = -1 + 4 d_{n+1} /
(1 - g_{2n-1}) a bit-for-bit test, each in tests/test_perturb.py.

The ``path`` argument (CLOSED_FORM or ORACLE) selects nothing: both
values run the one kernel, and ``_check_path`` refuses any other.  It is
kept because the benchmark's workloads pass it; so ``perturb
--both-paths`` prints a deviation of 0 by construction.

The single documented exception is the LU shortcut for a dilation
(``perturbed_v``): its stated prefix-preservation clashes with the
genuinely perturbed LU data when the dilation factor differs from 1, so
the pivot update has a "default" (consistent) path and a "shortcut" path
plus a structured discrepancy report instead of a silent choice.  Both
paths check the same perturbation specs and run ``szego.v_from_recurrence``
on co-perturbed data (the shortcut's keeps d_k and shifts b_{k+1} by its
update of v_{2k}), and ``perturbed_alpha_lu`` is ``szego.alpha_from_v`` of
either pivot sequence.
"""

from __future__ import annotations

from functools import partial, reduce

from ._value import Value, _unchecked
from .errors import InsufficientCoefficients, InvalidEta, NonPositiveD, WrongSide
from .oprl import RealRecurrence, _check_finite, prepend_coefficients, shift_coefficients
from .opuc import VerblunskySeq, _check_moduli, _stored, prepend_verblunsky, shift_verblunsky
from .serialize import _complex, _integer, _list, _real
from .szego import (
    _peel_error,
    alpha_from_v,
    geronimus_forward,
    geronimus_inverse,
    v_from_recurrence,
)
from .tolerances import DISCREPANCY_TOL, max_residual

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
# Perturbation specs: each class is one kind of the registry SPECS
#
# ``read`` builds the spec from a file entry through serialize's readers.
# ``apply`` maps each side the kind applies to ("line", "circle") to
# ``f(data, spec) -> perturbed data``, which looks its map up when called, so
# that a wrapper patched onto the module (perfbench's layer tracer) sees the
# call.  ``paths`` maps a side to
# ``f(data, spec) -> (order, run)``, where ``run(path=...)`` computes the
# family through CLOSED_FORM or ORACLE on the unperturbed data, or to a
# string saying why the side has no such pair.


def _co_window(rc: RealRecurrence, k: int) -> int:
    return min(len(rc), max(k + 2, 8))


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
        if self.lam - self.lam != 0:  # inf; a Fraction or a complex keeps its own error
            raise ValueError("co-dilation factor must be finite")

    kind = "co_dilated"
    read = staticmethod(lambda obj: CoDilated(_integer(obj["k"]), _real(obj["lambda"])))
    apply = {"line": lambda rc, spec: coprl_apply(rc, spec)}
    paths = {"line": lambda rc, spec: (spec.k, partial(
        coprl_verblunsky, rc, spec.k, spec.lam, 0.0, _co_window(rc, spec.k)))}


class CoRecursive(Value):
    """Add tau to b_{k+1} (k >= 0)."""

    __slots__ = ("k", "tau")
    k: int
    tau: float

    def __init__(self, k, tau):
        Value.__init__(self, k, tau)
        if self.k < 0:
            raise ValueError("co-recursion index must be >= 0")
        if self.tau - self.tau != 0:  # NaN or inf; a Fraction or a complex keeps its own error
            raise ValueError("co-recursion shift must be finite")

    kind = "co_recursive"
    read = staticmethod(lambda obj: CoRecursive(_integer(obj["k"]), _real(obj["tau"])))
    apply = {"line": lambda rc, spec: coprl_apply(rc, spec)}
    paths = {"line": lambda rc, spec: (spec.k, partial(
        coprl_verblunsky, rc, spec.k, 1.0, spec.tau, _co_window(rc, spec.k)))}


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
    read = staticmethod(lambda obj: KModification(_integer(obj["k"]), _complex(obj["eta"])))
    apply = {"circle": lambda vs, spec: copuc_apply(vs, spec)}
    paths = {}


class Associated(Value):
    """Drop the first k coefficient entries (index shift)."""

    __slots__ = ("k",)
    k: int

    def __init__(self, k):
        Value.__init__(self, k)
        if self.k < 0:
            raise ValueError("association order must be >= 0")

    kind = "associated"
    read = staticmethod(lambda obj: Associated(_integer(obj["k"])))
    apply = {"line": lambda rc, spec: shift_coefficients(rc, spec.k),
             "circle": lambda vs, spec: shift_verblunsky(vs, spec.k)}
    paths = {"line": lambda rc, spec: (spec.k, partial(
                 assoc_oprl_to_verblunsky, rc, spec.k, min(len(rc) - spec.k, 8))),
             "circle": lambda vs, spec: (spec.k, partial(
                 assoc_opuc_to_recurrence, vs, spec.k, max((len(vs) - spec.k) // 2 - 1, 1)))}


def _antiassoc_line(rc: RealRecurrence, spec: AntiAssociated) -> RealRecurrence:
    if spec.xi:
        raise WrongSide("anti_associated on the line side needs pre_b/pre_d")
    return prepend_coefficients(rc, spec.pre_b, spec.pre_d)


def _antiassoc_circle(vs: VerblunskySeq, spec: AntiAssociated) -> VerblunskySeq:
    if spec.pre_b or spec.pre_d:
        raise WrongSide("anti_associated on the circle side needs xi")
    return prepend_verblunsky(vs, spec.xi)


def _antiassoc_circle_paths(vs: VerblunskySeq, spec: AntiAssociated):
    if any(x.imag != 0.0 for x in spec.xi):
        return "complex prepend has no line-side closed form"
    return len(spec.xi), partial(antiassoc_opuc_to_recurrence, vs, [x.real for x in spec.xi],
                                 max(len(vs) // 2 - 1, 1))


class AntiAssociated(Value):
    """Prepend new coefficients: (pre_b, pre_d) on the line, xi on the circle."""

    __slots__ = ("pre_b", "pre_d", "xi")
    pre_b: tuple[float, ...]
    pre_d: tuple[float, ...]
    xi: tuple[complex, ...]

    def __init__(self, pre_b=(), pre_d=(), xi=()):
        Value.__init__(self, pre_b, pre_d, xi)

    kind = "anti_associated"

    @staticmethod
    def read(obj: dict) -> AntiAssociated:
        if "xi" not in obj:
            return AntiAssociated(pre_b=_list(obj.get("pre_b", []), _real),
                                  pre_d=_list(obj.get("pre_d", []), _real))
        if "pre_b" in obj or "pre_d" in obj:
            raise TypeError("xi cannot be given with pre_b/pre_d")
        return AntiAssociated(xi=_list(obj["xi"], _complex))

    apply = {"line": _antiassoc_line, "circle": _antiassoc_circle}
    paths = {"line": lambda rc, spec: (len(spec.pre_b), partial(
                 antiassoc_oprl_to_verblunsky, rc, spec.pre_b, spec.pre_d, min(len(rc), 8))),
             "circle": _antiassoc_circle_paths}


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
    read = staticmethod(lambda obj: Sieve(_integer(obj["ell"])))
    apply = {"circle": lambda vs, spec: sieve(vs, spec.ell)}
    paths = {}


SPECS = {cls.kind: cls for cls in (CoDilated, CoRecursive, KModification, Associated,
                                   AntiAssociated, Sieve)}


# ---------------------------------------------------------------------------
# Direct coefficient transforms: each applies one spec that its constructor
# has checked.  A list of specs folds in order, as the ``perturb`` command
# applies a spec file, so a repeated index composes.


def coprl_apply(rc: RealRecurrence, spec) -> RealRecurrence:
    """Apply one co-dilation (d_k -> lam * d_k) or co-recursion
    (b_{k+1} -> b_{k+1} + tau)."""
    # rc was checked when built: only the changed entry is coerced, zero-checked
    # after a dilation and checked finite (it may overflow), as the constructor would
    if isinstance(spec, CoDilated):
        rc.require(0, spec.k)
        d = list(rc.d)
        d[spec.k - 1] = float(d[spec.k - 1] * spec.lam)
        if d[spec.k - 1] == 0.0:
            raise NonPositiveD(f"d_{spec.k} = 0 is not allowed")
        _check_finite(d[spec.k - 1:spec.k], "d", spec.k)
        return _unchecked(RealRecurrence, rc.b, tuple(d))
    if isinstance(spec, CoRecursive):
        rc.require(spec.k + 1, 0)
        b = list(rc.b)
        b[spec.k] = float(b[spec.k] + spec.tau)
        _check_finite(b[spec.k:spec.k + 1], "b", spec.k + 1)
        return _unchecked(RealRecurrence, tuple(b), rc.d)
    raise ValueError(f"not a line-side single-entry perturbation: {spec!r}")


def copuc_apply(vs: VerblunskySeq, spec: KModification) -> VerblunskySeq:
    """Replace the coefficient at index k by eta (overwrite semantics:
    eta == alpha_k is allowed and is the identity)."""
    vs.require(spec.k + 1)
    alpha = list(vs.alpha)
    alpha[spec.k] = spec.eta
    alpha = _stored(alpha)
    # vs was checked when built and KModification read eta itself; a type
    # that reaches modulus 1 only as a complex is caught here
    _check_moduli(alpha[spec.k:spec.k + 1], spec.k)
    return _unchecked(VerblunskySeq, alpha)


# ---------------------------------------------------------------------------
# Single-entry line perturbations seen from the circle


def _co_specs(k: int, lam: float, tau: float) -> list:
    """The specs of d_k -> lam d_k and b_{k+1} -> b_{k+1} + tau, checked by
    their constructors, for coprl_apply to fold in order; an identity part
    (lam = 1, tau = 0) adds none, but k < 0 is refused whatever lam and tau
    are."""
    if k < 0:
        raise ValueError("perturbation index must be >= 0")
    specs = []
    if lam != 1.0:
        specs.append(CoDilated(k, lam))
    if tau != 0.0:
        specs.append(CoRecursive(k, tau))
    return specs


def coprl_verblunsky(rc: RealRecurrence, k: int, lam: float, tau: float,
                     n: int, path: str = CLOSED_FORM) -> VerblunskySeq:
    """Circle coefficients a-hat_0 .. a-hat_{2n-1} of the measure with
    d_k -> lam d_k and b_{k+1} -> b_{k+1} + tau.

    The paper keeps a_j for j < 2k-1, shifts a_{2k-1} by

        M = 4 (lam - 1) d_k / ((1 - a_{2k-3}) (1 - a_{2k-2}^2)),

    recombines a-hat_{2k} = ((1 - a_{2k-1}) a_{2k} + 2 tau + M a_{2k-2})
    / (1 - a_{2k-1} - M) and continues the inversion on the untouched tail.
    Cancelled, a_{2k-1} + M is the inversion's odd step on lam d_k, and
    a-hat_{2k} its even step on b_{k+1} + tau.  So both paths invert the
    perturbed data, and neither reads an unperturbed a_{2k-1} or a_{2k},
    which can leave (-1, 1) while the perturbed measure is admissible.
    tests/test_perturb.py checks the statement in exact arithmetic, and
    ``verify theorems`` the formula against this map.  k = 0 is the pure
    co-recursive case and requires lam = 1.
    """
    _check_path(path)
    if n < k + 1:
        raise ValueError("need n >= k + 1 output pairs to cover the perturbed entries")
    return geronimus_inverse(reduce(coprl_apply, _co_specs(k, lam, tau), rc), n)


# ---------------------------------------------------------------------------
# Associated / anti-associated, line data seen from the circle


def assoc_oprl_to_verblunsky(rc: RealRecurrence, k: int, n: int,
                             path: str = CLOSED_FORM) -> VerblunskySeq:
    """Circle coefficients of the order-k associated line family: the
    inversion recursion fed with b_{n+k}, d_{n+k}.

    There is no separate closed form: both paths run szego.geronimus_inverse
    on the shifted coefficients.
    """
    _check_path(path)
    return geronimus_inverse(shift_coefficients(rc, k), n)


def antiassoc_oprl_to_verblunsky(rc: RealRecurrence, pre_b, pre_d, n: int,
                                 path: str = CLOSED_FORM) -> VerblunskySeq:
    """Circle coefficients of the order-k anti-associated line family
    (k = len(pre_b)): the inversion recursion fed with the prepended window
    for indices <= k and b_{n-k}, d_{n-k} beyond it.

    There is no separate closed form: both paths run szego.geronimus_inverse
    on the prepended coefficients.
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

    Cancelled, these are the forward relations on shift_verblunsky(vs, k):
    lam d_{m+1} = (1/2)(1 - a_{2m}^2)(1 + a_{2m+1}), and with i = n + m

        v_{2i-1} / v_{2i+1} * d_{i+1} = (1/4)(1 - a_{2i-2})(1 - a_{2i-1}^2)(1 + a_{2i})
        b_{i+1} + v_{2i-2} - v_{2i}   = (1/2)[a_{2i-1}(1 - a_{2i-2}) - a_{2i-3}(1 + a_{2i-2})].

    So both paths run geronimus_forward on the shifted data, which reads
    nothing before a_k and no a_{2n+k}.  tests/test_perturb.py checks the
    statement in exact arithmetic, and ``verify theorems`` the formulas.
    """
    _check_path(path)
    return geronimus_forward(shift_verblunsky(vs, k), n)


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
    is the paper's update v~_{2k} = v_{2k} + (1 - lam) v_{2k-1} + tau of
    the unperturbed peel; as v_{2k} = b_{k+1} + 1 - v_{2k-1}, it peels the
    data with d_k kept and b_{k+1} shifted by (1 - lam) v_{2k-1} + tau, so
    at lam = 1 it is the default path.  Both check the specs of (k, lam,
    tau) first and refuse the same ones, and for n <= 0 both give () after
    the default path's data checks.  For lam != 1 the kept prefix disagrees
    with the perturbed LU data at index 2k-1; see path_discrepancy_report.
    """
    if path not in (DEFAULT, SHORTCUT):
        raise ValueError(f"path must be {DEFAULT!r} or {SHORTCUT!r}, got {path!r}")
    specs = _co_specs(k, lam, tau)
    if path == SHORTCUT and lam != 1.0 and n > 0:  # k >= 1: CoDilated refuses k = 0
        specs = _co_specs(k, 1.0, tau + (1.0 - lam) * v_from_recurrence(rc, 2 * k)[-1])
    return v_from_recurrence(reduce(coprl_apply, specs, rc), n)


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

    At lam = 1 the paths are one computation, so the default path runs
    alone, for its refusals.  Otherwise entries agree when they differ by
    at most tol (1 + |v|) plus both paths' running peel error bounds:
    v~_{2k} is (b_{k+1} + (tau + (1 - lam) v_{2k-1})) + 1 - v_{2k-1} on
    one, (b_{k+1} + tau) + 1 - v~_{2k-1} on the other, and a near-zero
    pivot amplifies their 1-ulp difference far past tol.
    """
    dv = perturbed_v(rc, k, lam, tau, n, DEFAULT)
    if lam == 1.0:
        return None
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
    """Recurrence pairs of the stride-2 sieved family: geronimus_forward on
    sieve(vs, 2), after vs.real_view() so that a complex entry is named by
    its index in vs.  The paper's row b == 0, d_{n+1} = (1/4)(1 - a_{n-1})
    (1 + a_n) (so d_1 = (1 + a_0)/2) is the forward relations with every
    even entry 0; ``verify theorems`` and tests/test_perturb.py check it."""
    _check_path(path)
    vs.real_view()
    return geronimus_forward(sieve(vs, 2), n)


def sieved_kmod_recurrence(vs: VerblunskySeq, k: int, eta: float, n: int,
                           path: str = CLOSED_FORM) -> RealRecurrence:
    """Stride-2 sieved family after replacing a_k by a real eta:
    sieve2_recurrence of copuc_apply(vs, KModification(k, eta)).  The
    paper's statement, that exactly d_{k+1} and d_{k+2} pick up the factors
    (1 + eta)/(1 + a_k) and (1 - eta)/(1 - a_k), is checked by ``verify
    theorems`` and tests/test_perturb.py."""
    _check_path(path)
    if not -1.0 < eta < 1.0:
        raise InvalidEta(f"eta = {eta} outside (-1, 1)")
    return sieve2_recurrence(copuc_apply(vs, KModification(k, eta)), n)


def symmetric_verblunsky(d, path: str = CLOSED_FORM) -> VerblunskySeq:
    """Circle coefficients of a symmetric line family (b == 0):
    szego.geronimus_inverse on the b == 0 data.  Its even entries are
    exactly 0.0, so each odd one is the paper's recursion
    g_{2n+1} = -1 + 4 d_{n+1} / (1 - g_{2n-1}), with g_{-1} = -1."""
    _check_path(path)
    rc = _symmetric_line(d)
    return geronimus_inverse(rc, len(rc.d))


def _symmetric_line(d) -> RealRecurrence:
    """RealRecurrence((0.0,) * len(d), d) with only d coerced: the zeros
    are floats already, so d is the one field to coerce and check."""
    d = tuple(map(float, d))
    if 0.0 in d:
        raise NonPositiveD(f"d_{d.index(0.0) + 1} = 0 is not allowed")
    _check_finite(d, "d")
    return _unchecked(RealRecurrence, (0.0,) * len(d), d)


def symmetric_codilated_verblunsky(d, k: int, lam: float,
                                   path: str = CLOSED_FORM) -> VerblunskySeq:
    """Symmetric family after d_k -> lam d_k, as 2 len(d) circle
    coefficients: szego.geronimus_inverse on the co-dilated b == 0 data.
    The paper keeps the odd entries below 2k-1, shifts g_{2k-1} by
    4 (lam - 1) d_k / (1 - g_{2k-3}), and runs the symmetric recursion on
    every later odd entry.  Cancelled, the shifted entry is
    -1 + 4 lam d_k / (1 - g_{2k-3}), the recursion's own step on the
    co-dilated d; tests/test_perturb.py checks this in exact arithmetic."""
    _check_path(path)
    spec = CoDilated(k, lam)
    rc = coprl_apply(_symmetric_line(d), spec)
    return geronimus_inverse(rc, len(rc.d))
