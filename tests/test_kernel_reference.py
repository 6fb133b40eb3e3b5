"""The bridge and evaluation loops against the loops they replaced.

The functions below whose names end in ``_before`` are copies of the loops
of ``szego.invert_from``, ``szego.v_from_recurrence``,
``perturb._symmetric_from``, ``oprl.oprl_eval`` and ``opuc.opuc_eval`` as
they were written before their list extensions became ``append`` calls,
their divisor guards comparisons in place of ``abs`` and the evaluation
loops iterations over values in place of accessor calls.  They are the
reference.  ``perturbed_v_shortcut_before`` is a copy of the loop that
``perturb.perturbed_v``'s shortcut ran before it continued the peel of
``szego.v_from_recurrence``; it peels its head with the reference above.
On every drawn input both must give the same repr and the same
entry types, or raise the same exception class with the same message.  The
draws include NaN, +-inf, +-0.0, subnormal and negative d, pivots and
divisors at and next to their guards' bounds, and prefixes of ints,
complex numbers and out-of-range floats.  ``invert_from`` now reads its
prefix first, as ``VerblunskySeq(prefix).real_view()`` does: a prefix that
read refuses must raise its error, and one it accepts must give what the
reference gives on the floats it reads.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from ortho_szego import perturb
from ortho_szego._value import Value, _unchecked
from ortho_szego.errors import (
    ComplexAlpha,
    DivisionDegenerate,
    InsufficientCoefficients,
    OrthoError,
    SupportViolation,
)
from ortho_szego.oprl import RealRecurrence, oprl_eval
from ortho_szego.opuc import VerblunskySeq, _check_moduli, opuc_eval
from ortho_szego.szego import geronimus_forward, invert_from, v_from_recurrence
from ortho_szego.tolerances import PIVOT_TOL, SUPPORT_TOL

EXAMPLES = settings(max_examples=200, deadline=None, derandomize=True)


def invert_from_before(rc, prefix, n):
    rc.require(n, n)
    alpha = list(prefix)
    j = len(alpha)
    lo, hi = SUPPORT_TOL - 1.0, 1.0 - SUPPORT_TOL
    m = j // 2
    am2, am1 = (alpha[2 * m - 2], alpha[2 * m - 1]) if m else (0.0, -1.0)
    if m < n:
        if not abs(1.0 - am1) >= PIVOT_TOL:
            raise DivisionDegenerate(f"1 - a_{2 * m - 1} vanished")
        if j % 2:
            am2 = alpha[-1]
            den2 = (1.0 - am1) * (1.0 - am2 * am2)
            if not abs(den2) >= PIVOT_TOL:
                raise DivisionDegenerate(f"(1 - a_{2 * m - 1})(1 - a_{2 * m}^2) vanished")
            am1 = -1.0 + 4.0 * rc.d[m] / den2
            if not lo < am1 < hi:
                raise SupportViolation(2 * m + 1, am1)
            alpha.append(am1)
            m += 1
    for bm, dm in zip(rc.b[m:max(n, m)], rc.d[m:max(n, m)]):
        den = 1.0 - am1
        a_even = (2.0 * bm + (1.0 + am1) * am2) / den
        if not lo < a_even < hi:
            raise SupportViolation(len(alpha), a_even)
        den2 = den * (1.0 - a_even * a_even)
        if not abs(den2) >= PIVOT_TOL:
            raise DivisionDegenerate(f"(1 - a_{len(alpha) - 1})(1 - a_{len(alpha)}^2) vanished")
        a_odd = -1.0 + 4.0 * dm / den2
        if not lo < a_odd < hi:
            raise SupportViolation(len(alpha) + 1, a_odd)
        alpha += (a_even, a_odd)
        am2, am1 = a_even, a_odd
    if j == 0:
        return _unchecked(VerblunskySeq, tuple(alpha))
    given = alpha[:j]
    if set(map(type, given)) != {float}:
        return VerblunskySeq(alpha)
    _check_moduli(given)
    return _unchecked(VerblunskySeq, tuple(alpha))


def v_from_recurrence_before(rc, n):
    b, d = rc.b, rc.d
    pairs = max(min(n // 2, len(b), len(d)), 0)
    out = []
    v_odd = 0.0
    for k in range(pairs):
        v_even = b[k] + 1.0 - v_odd
        dk = d[k]
        if not abs(v_even) >= PIVOT_TOL * (1.0 + abs(dk)):
            raise DivisionDegenerate(f"pivot v_{2 * k} vanished")
        v_odd = dk / v_even
        out += (v_even, v_odd)
    if 2 * pairs < n:
        if pairs >= len(b):
            raise InsufficientCoefficients(pairs + 1, len(b), "b coefficients")
        out.append(b[pairs] + 1.0 - v_odd)
        if 2 * pairs + 1 < n:
            raise InsufficientCoefficients(pairs + 1, len(d), "d coefficients")
    return tuple(out)


def perturbed_v_shortcut_before(rc, k, lam, tau, n):
    perturb._co_specs(k, lam, tau)
    head = v_from_recurrence_before(rc, 2 * k + 1)
    out = list(head[:min(2 * k, max(n, 0))])  # max: no slice from the end
    if 2 * k < n:
        out.append(head[2 * k] + (1.0 - lam) * (head[2 * k - 1] if k else 0.0) + tau)
    for j in range(2 * k + 1, n):
        if j % 2 == 1:
            dm, v = rc.d_at((j + 1) // 2), out[j - 1]
            if not abs(v) >= PIVOT_TOL * (1.0 + abs(dm)):
                raise DivisionDegenerate(f"pivot v_{j - 1} vanished")
            out.append(dm / v)
        else:
            out.append(rc.b_at(j // 2 + 1) + 1.0 - out[j - 1])
    return tuple(map(float, out))


def symmetric_from_before(d, head, n):
    lo, hi = SUPPORT_TOL - 1.0, 1.0 - SUPPORT_TOL
    m = len(head) // 2
    g = head[-1] if head else -1.0
    for dj in d[m:max(n, m)]:
        g = -1.0 + 4.0 * dj / (1.0 - g)
        if not lo < g < hi:
            raise SupportViolation(len(head) + 1, g)
        head += (0.0, g)
    return _unchecked(VerblunskySeq, tuple(head))


def oprl_eval_before(rc, n, x):
    if n >= 1:
        rc.require(n, n - 1)
    vals = [1.0 + 0j]
    prev, cur = 0j, 1.0 + 0j
    for k in range(n):
        nxt = (x - rc.b_at(k + 1)) * cur - rc.d_at(k) * prev
        vals.append(nxt)
        prev, cur = cur, nxt
    return vals


def opuc_eval_before(vs, n, z):
    vs.require(n)
    phi = [1.0 + 0j]
    star = [1.0 + 0j]
    for k in range(n):
        a = vs.at(k)
        p, s = phi[-1], star[-1]
        phi.append(z * p - a.conjugate() * s)
        star.append(s - a * z * p)
    return phi, star


def _shape(out):
    """The repr of a kernel's output and the type of each field and entry."""
    if isinstance(out, Value):
        fields = [getattr(out, name) for name in out.__slots__]
        return type(out), repr(out), [(type(f), list(map(type, f))) for f in fields]
    if isinstance(out, tuple) and out and isinstance(out[0], list):  # opuc_eval's pair
        return tuple(map(_shape, out))
    return repr(out), list(map(type, out))


def test_shape_tells_float_tuples_apart():
    # a pivot sequence is a plain tuple of floats, not opuc_eval's pair
    assert _shape((1.0, 2.0)) == (repr((1.0, 2.0)), [float, float])
    assert _outcome(lambda: (1.0,)) != _outcome(lambda: (2.0,))


def _outcome(run, *args):
    """The shape of run's output, or the class and message of what it raised."""
    try:
        return _shape(run(*args))
    except Exception as exc:
        return type(exc), str(exc)


def _same(new, old, *args, copy_list=None):
    """new and old agree on args; the argument at index copy_list, which
    the kernel extends in place, is copied for each run."""
    def fresh():
        return [list(a) if i == copy_list else a for i, a in enumerate(args)]
    got, want = _outcome(new, *fresh()), _outcome(old, *fresh())
    assert got == want, (args, got, want)
    return got


TINY = 5e-324  # the smallest subnormal
EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308,
         PIVOT_TOL, -PIVOT_TOL, 1.0 - 2.0 ** -53, -1.0 + 2.0 ** -53, 1.0, -1.0, 1e300)


def _near(x):
    """x and its two neighbouring floats."""
    return st.sampled_from((math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)))


reals = st.one_of(st.sampled_from(EDGES), st.floats(-1.0, 1.0), st.floats(-4.0, 4.0),
                  st.floats(allow_nan=True, allow_infinity=True))
nonzero = reals.filter(lambda x: x != 0.0)


@st.composite
def admissible_lines(draw):
    """(b, d) of a measure inside [-1, 1], with now and then one entry
    replaced by an edge value."""
    alpha = draw(st.lists(st.floats(-0.95, 0.95), max_size=16))
    rc = geronimus_forward(VerblunskySeq(tuple(alpha)), len(alpha) // 2)
    b, d = list(rc.b), list(rc.d)
    if b and draw(st.booleans()):
        i = draw(st.integers(0, len(b) - 1))
        b[i], d[i] = draw(reals), draw(nonzero)
    return RealRecurrence(b, d)


wild_lines = st.builds(RealRecurrence, st.lists(reals, max_size=8), st.lists(nonzero, max_size=8))


@st.composite
def pivot_edges(draw):
    """v_0 = 1 and v_2 = -d_1 exactly, with d_1 at or next to
    +-PIVOT_TOL (1 + |d_2|): b = (0, -1, ...) gives v_0 = b_1 + 1 = 1,
    v_1 = d_1 / v_0 = d_1 and v_2 = b_2 + 1 - v_1 = -d_1."""
    d2 = draw(st.sampled_from((-3.0, -1.0, -0.5, -TINY, TINY, 0.25, 2.0, math.inf,
                               -math.inf, math.nan)) | nonzero)
    tol = PIVOT_TOL * (1.0 + abs(d2))
    d1 = draw(_near(draw(st.sampled_from((tol, -tol)))))
    tail = draw(st.lists(st.tuples(reals, nonzero), max_size=3))
    return RealRecurrence([0.0, -1.0] + [b for b, _ in tail],
                          [d1, d2] + [d for _, d in tail])


@st.composite
def first_pivots(draw):
    """v_0 = b_1 + 1 at and next to 0 with any d_1, negative included."""
    b1 = draw(_near(-1.0))
    d = draw(st.lists(nonzero, min_size=1, max_size=3))
    return RealRecurrence([b1, 0.5, 0.0][:len(d)], d)


lines = st.one_of(admissible_lines(), wild_lines, pivot_edges(), first_pivots())

# A prefix (0.0, 1 -+ 2^-43) makes 1 - a_1 = +-2^-43, and b_2 below makes
# (1 - a_1)(1 - a_2^2) exactly +-PIVOT_TOL; two floats further from 0 it is
# inside the bound, two floats nearer 0 outside (asserted in a test below).
DEN2_EDGES = ((1.0 - 2.0 ** -43, 1.9723167208764e-14),
              (1.0 + 2.0 ** -43, -1.9723167208764e-14))


def _steps(x, k):
    """The float k floats further from 0 than x (nearer for k < 0)."""
    away = math.copysign(math.inf, x) if k > 0 else 0.0
    for _ in range(abs(k)):
        x = math.nextafter(x, away)
    return x


def _den2(am1, b):
    den = 1.0 - am1
    a_even = 2.0 * b / den
    return den * (1.0 - a_even * a_even)


@st.composite
def den2_edges(draw):
    """invert_from continued from (0.0, a_1) with its first loop divisor at
    or next to +-PIVOT_TOL."""
    am1, b2 = draw(st.sampled_from(DEN2_EDGES))
    b2 = _steps(b2, draw(st.integers(-2, 2)))
    d = draw(st.lists(nonzero, min_size=2, max_size=3))
    b = [0.0, b2, 0.0][:len(d)]
    return RealRecurrence(b, d), [0.0, am1], draw(st.integers(2, len(d) + 1))


prefix_entries = st.one_of(reals, st.integers(-1, 1),
                           st.complex_numbers(max_magnitude=0.9, allow_nan=False),
                           st.sampled_from((0.5j, complex(0.3, 0.0), complex(math.nan, 0.0))))


@st.composite
def inversions(draw):
    """Line data, a prefix (a float prefix of its own inversion, or drawn
    entries of any kind) and an n, negative and beyond the data included."""
    rc = draw(lines)
    try:
        own = invert_from_before(rc, (), len(rc)).alpha
    except OrthoError:
        own = None
    if own is not None and draw(st.booleans()):
        prefix = list(own[:draw(st.integers(0, len(own)))])
    else:
        prefix = draw(st.lists(prefix_entries, max_size=5))
    return rc, prefix, draw(st.integers(-1, len(rc) + 2))


def test_den2_edges_sit_on_the_bound():
    for am1, b2 in DEN2_EDGES:
        assert abs(_den2(am1, b2)) == PIVOT_TOL
        assert abs(_den2(am1, _steps(b2, -2))) > PIVOT_TOL > abs(_den2(am1, _steps(b2, 2)))


@EXAMPLES
@given(st.one_of(inversions(), den2_edges()))
def test_invert_from(args):
    rc, prefix, n = args
    try:
        read = list(VerblunskySeq(prefix).real_view())
    except OrthoError as exc:
        assert _outcome(invert_from, rc, prefix, n) == (type(exc), str(exc)), args
        return
    assert _outcome(invert_from, rc, prefix, n) == _outcome(invert_from_before, rc, read, n), args


def test_invert_from_keeps_the_complex_prefix_error():
    # the reference raised a bare TypeError from its loop; the prefix read
    # names the entry, before the data or n are looked at
    rc = RealRecurrence((0.1, 0.0), (0.25, 0.25))
    for prefix, index in (([0.5j], 0), ([0.1, 0.5j], 1), ([0.5j, 0.1], 0)):
        for n in (0, 2, 5):
            assert _outcome(invert_from, rc, prefix, n) == (
                ComplexAlpha, f"alpha_{index} = 0.5j has nonzero imaginary part")


@EXAMPLES
@given(lines, st.integers(-1, 18))
def test_v_from_recurrence(rc, n):
    _same(v_from_recurrence, v_from_recurrence_before, rc, n)


def test_v_from_recurrence_pivot_bound():
    # at the bound the pivot passes, one float inside it it has vanished;
    # a negative d scales the bound by 1 + |d| as a positive one does
    for d2 in (-3.0, 2.0, -1.0):
        tol = PIVOT_TOL * (1.0 + abs(d2))
        for d1 in (tol, -tol):
            rc = RealRecurrence((0.0, -1.0), (d1, d2))
            _same(v_from_recurrence, v_from_recurrence_before, rc, 4)
            assert v_from_recurrence(rc, 4)[2] == -d1
            rc = RealRecurrence((0.0, -1.0), (math.nextafter(d1, 0.0), d2))
            assert _same(v_from_recurrence, v_from_recurrence_before, rc, 4) == (
                DivisionDegenerate, "pivot v_2 vanished")


short_lines = st.builds(RealRecurrence, st.lists(reals, max_size=3), st.lists(nonzero, max_size=3))


@st.composite
def shortcut_runs(draw):
    """Line data, k in 0..4, n in 1..2k + 6 and (lam, tau), the identity
    parts lam = 1 and tau = 0 included."""
    rc = draw(st.one_of(admissible_lines(), pivot_edges(), short_lines, first_pivots()))
    k = draw(st.integers(0, 4))
    lam = draw(st.one_of(st.just(1.0), st.floats(0.25, 4.0), reals))
    tau = draw(st.one_of(st.just(0.0), st.floats(-0.5, 0.5), reals))
    return rc, k, lam, tau, draw(st.integers(1, 2 * k + 6))


def _shortcut(rc, k, lam, tau, n):
    return perturb.perturbed_v(rc, k, lam, tau, n, perturb.SHORTCUT)


@EXAMPLES
@given(shortcut_runs())
def test_perturbed_v_shortcut(args):
    _same(_shortcut, perturbed_v_shortcut_before, *args)


def test_perturbed_v_shortcut_finishes_the_pair_at_the_pivot_bound():
    # k = 1 on pivot_edges' data: v_2 = -d_1 is the head's last entry, so
    # the continuation's own guard decides v_3, at the bound and one float in
    for d2 in (-3.0, 2.0):
        tol = PIVOT_TOL * (1.0 + abs(d2))
        for d1 in (tol, -tol):
            rc = RealRecurrence((0.0, -1.0), (d1, d2))
            assert _same(_shortcut, perturbed_v_shortcut_before, rc, 1, 1.0, 0.0, 4)[0] == repr(
                (1.0, d1, -d1, d2 / -d1))
            rc = RealRecurrence((0.0, -1.0), (math.nextafter(d1, 0.0), d2))
            assert _same(_shortcut, perturbed_v_shortcut_before, rc, 1, 1.0, 0.0, 4) == (
                DivisionDegenerate, "pivot v_2 vanished")


def test_perturbed_v_shortcut_refuses_a_complex_tau_first():
    # the reference carried a complex pivot through its loop and refused it
    # in its final float() pass, unless the loop raised first; the shortcut
    # refuses it where it enters, so short data no longer decides the error
    message = "float() argument must be a string or a real number, not 'complex'"
    rc = RealRecurrence((0.0, 0.0, 0.0), (0.5, 0.25, 0.25))
    for n in (3, 6):
        assert _same(_shortcut, perturbed_v_shortcut_before, rc, 1, 1.0, 0.1j, n) == (
            TypeError, message)
    assert _outcome(_shortcut, rc, 1, 1.0, 0.1j, 8) == (TypeError, message)
    assert _outcome(perturbed_v_shortcut_before, rc, 1, 1.0, 0.1j, 8) == (
        InsufficientCoefficients, "need 4 b coefficients, have 3")
    assert _same(_shortcut, perturbed_v_shortcut_before, rc, 2, 1.0, 0.1j, 4)[0] == repr(
        (1.0, 0.5, 0.5, 0.5))


@st.composite
def symmetric_runs(draw):
    """d entries (admissible ones, or edge values), a head of drawn floats
    or of a symmetric sequence, and an n."""
    if draw(st.booleans()):
        odd = draw(st.lists(st.floats(-0.95, 0.95), max_size=8))
        gamma = tuple(x for g in odd for x in (0.0, g))
        d = geronimus_forward(VerblunskySeq(gamma), len(odd)).d
    else:
        d = tuple(draw(st.lists(nonzero, max_size=6)))
    try:
        own = list(symmetric_from_before(d, [], len(d)).alpha)
    except OrthoError:
        own = None
    if own is not None and draw(st.booleans()):
        head = own[:draw(st.integers(0, len(own)))]
    else:
        head = draw(st.lists(reals, max_size=4))
    return d, head, draw(st.integers(-1, len(d) + 2))


@EXAMPLES
@given(symmetric_runs())
def test_symmetric_from(args):
    _same(perturb._symmetric_from, symmetric_from_before, *args, copy_list=1)


points = st.one_of(reals, st.complex_numbers(allow_nan=True, allow_infinity=True),
                   st.sampled_from((complex(-0.0, 0.0), complex(0.0, -0.0), 2 + 0.5j, -0.0j)))


@EXAMPLES
@given(lines, st.integers(-2, 10), points)
def test_oprl_eval(rc, n, x):
    _same(oprl_eval, oprl_eval_before, rc, n, x)


circles = st.one_of(
    st.lists(st.floats(-0.99, 0.99), max_size=10).map(tuple),
    st.lists(st.floats(-0.99, 0.99), max_size=10).map(lambda a: tuple(map(complex, a))),
    st.lists(st.complex_numbers(max_magnitude=0.99), max_size=10).map(tuple),
).map(VerblunskySeq)


@EXAMPLES
@given(circles, st.integers(-2, 12), points)
def test_opuc_eval(vs, n, z):
    _same(opuc_eval, opuc_eval_before, vs, n, z)
