"""Kernel outputs built without their constructor are the constructor's values.

Each kernel that returns through ``_value._unchecked`` relies on its own
guards for what the public constructor would check and coerce.  Here every
such output is rebuilt through the public constructor, from the entries the
kernel computed (or, for a slice, from the input), and must come out equal,
with the same hash and the same field types: a tuple per field, and each
entry of the type the constructor's storage rule gives.
"""

import math
import random
from fractions import Fraction
from functools import reduce

import pytest

from ortho_szego import perturb
from ortho_szego.errors import NonPositiveD, OrthoError
from ortho_szego.oprl import RealRecurrence, prepend_coefficients, shift_coefficients
from ortho_szego.opuc import VerblunskySeq, prepend_verblunsky, shift_verblunsky
from ortho_szego.szego import (
    alpha_from_v,
    geronimus_forward,
    geronimus_inverse,
    v_from_alpha,
    v_from_recurrence,
)

from test_surface import UNCHECKED_SITES

CASES = 150


def _real_circle(rng):
    """Real data, empty now and then, stored as floats or (about one time
    in three) as complex."""
    alpha = [rng.uniform(-0.9, 0.9) for _ in range(rng.choice((0, rng.randint(1, 16))))]
    if rng.random() < 0.3:
        return VerblunskySeq(tuple(map(complex, alpha)))
    return VerblunskySeq(tuple(alpha))


def _circle(rng):
    """Complex data one time in three, real data otherwise."""
    if rng.random() < 0.3:
        return VerblunskySeq(tuple(complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
                                   for _ in range(rng.randint(0, 16))))
    return _real_circle(rng)


def _line(rng):
    vs = VerblunskySeq(tuple(rng.uniform(-0.9, 0.9) for _ in range(2 * rng.randint(0, 8))))
    return geronimus_forward(vs, len(vs) // 2)


def _n(rng, top):
    return rng.choice((-1, 0, rng.randint(0, top)))


def _prepend(rng):
    """A window of up to 3 pairs, ints among them."""
    k = rng.randint(0, 3)
    pre_b = [rng.choice((0, 1, rng.uniform(-0.5, 0.5))) for _ in range(k)]
    pre_d = [rng.choice((1, rng.uniform(0.1, 0.5))) for _ in range(k)]
    return _line(rng), pre_b, pre_d


def _xi(rng):
    """Up to 3 prepended entries: zeros as ints, floats, and now and then a complex."""
    return tuple(rng.choice((0, rng.uniform(-0.9, 0.9), complex(rng.uniform(-0.5, 0.5), 0.3)))
                 for _ in range(rng.randint(0, 3)))


def _pivots(rng):
    """Pivots of real data, as floats or (about one time in three) as
    Fractions, which a library caller may pass."""
    v = v_from_alpha(_real_circle(rng))
    return tuple(map(Fraction, v)) if rng.random() < 0.3 else v


def _copuc_args(rng):
    vs = _circle(rng)
    eta = rng.choice((0, rng.uniform(-0.9, 0.9), complex(0.1, -0.4)))
    return vs, perturb.KModification(rng.randint(0, max(len(vs) - 1, 0)), eta)


def _coprl_args(rng, taus=()):
    """Line data and one co-dilation or co-recursion of an entry they have:
    int, Fraction and float lam and tau, and a lam of 5e-324, which makes
    d_k underflow to 0."""
    rc = _line(rng)
    while not len(rc):
        rc = _line(rng)
    k = rng.randint(1, len(rc))
    if rng.random() < 0.5:
        lam = rng.choice((2, Fraction(1, 3), rng.uniform(0.5, 1.5), 5e-324))
        return rc, perturb.CoDilated(k, lam)
    tau = rng.choice((1, Fraction(-1, 5), rng.uniform(-0.2, 0.2)) + taus)
    return rc, perturb.CoRecursive(k - 1, tau)


def _coprl_reference(rc, spec):
    """The perturbed entry through the public constructor."""
    b, d = list(rc.b), list(rc.d)
    if isinstance(spec, perturb.CoDilated):
        d[spec.k - 1] *= spec.lam
    else:
        b[spec.k] += spec.tau
    return RealRecurrence(b, d)


def _symmetric_d(rng, odd=()):
    """d entries as ints, Fractions and floats, now and then a zero (0,
    0.0 or -0.0) or an entry from odd."""
    rare = (0, 0.0, -0.0) + tuple(odd)
    return [rng.choice(rare) if rng.random() < 0.05 else
            rng.choice((1, Fraction(1, 3), rng.uniform(0.05, 0.5), -0.25))
            for _ in range(rng.randint(0, 6))]


def _real_seq(value):
    """The public constructor on the kernel's entries as the real numbers
    they are: real data is stored as floats."""
    return VerblunskySeq([a.real for a in value.alpha])


def _rebuilt(value):
    """The public constructor on the value's own entries, as lists."""
    return type(value)(*[list(getattr(value, name)) for name in value.__slots__])


# site -> (make(rng) -> (call, args), reference(value, args) -> checked value)
SITES = {
    "szego.geronimus_forward": (
        lambda rng: (geronimus_forward, (_real_circle(rng), _n(rng, 8))),
        lambda out, args: _rebuilt(out)),
    "szego.geronimus_inverse": (
        lambda rng: (geronimus_inverse, (_line(rng), _n(rng, 9))),
        lambda out, args: _rebuilt(out)),
    "szego.alpha_from_v": (
        lambda rng: (alpha_from_v, (_pivots(rng),)),
        lambda out, args: _real_seq(out)),
    "oprl.shift_coefficients": (
        lambda rng: (shift_coefficients, (_line(rng), rng.randint(0, 2))),
        lambda out, args: RealRecurrence(list(args[0].b)[args[1]:], list(args[0].d)[args[1]:])),
    "oprl.prepend_coefficients": (
        lambda rng: (prepend_coefficients, _prepend(rng)),
        lambda out, args: RealRecurrence(list(args[1]) + list(args[0].b),
                                         list(args[2]) + list(args[0].d))),
    "opuc.shift_verblunsky": (
        lambda rng: (shift_verblunsky, (_circle(rng), rng.randint(0, 2))),
        lambda out, args: VerblunskySeq(list(args[0].alpha)[args[1]:])),
    "opuc.prepend_verblunsky": (
        lambda rng: (prepend_verblunsky, (_circle(rng), _xi(rng))),
        lambda out, args: VerblunskySeq(list(args[1]) + list(args[0].alpha))),
    "perturb.copuc_apply": (
        lambda rng: (perturb.copuc_apply, _copuc_args(rng)),
        lambda out, args: VerblunskySeq([args[1].eta if j == args[1].k else a
                                         for j, a in enumerate(args[0].alpha)])),
    "perturb.coprl_apply": (
        lambda rng: (perturb.coprl_apply, _coprl_args(rng)),
        lambda out, args: _coprl_reference(*args)),
    "perturb.sieve": (
        lambda rng: (perturb.sieve, (_circle(rng), rng.randint(1, 4))),
        lambda out, args: VerblunskySeq([args[0].alpha[(j + 1) // args[1] - 1]
                                         if (j + 1) % args[1] == 0 else 0.0
                                         for j in range(len(args[0]) * args[1])])),
    "perturb._symmetric_line": (
        lambda rng: (perturb._symmetric_line, (_symmetric_d(rng),)),
        lambda out, args: RealRecurrence([0.0] * len(args[0]), list(args[0]))),
}


def test_every_unchecked_site_is_covered():
    assert set(SITES) == set(UNCHECKED_SITES)


def _assert_same_value(value, want):
    assert type(value) is type(want)
    assert value == want
    assert hash(value) == hash(want)
    for name in value.__slots__:
        got, expected = getattr(value, name), getattr(want, name)
        assert type(got) is tuple, (name, type(got))
        assert list(map(type, got)) == list(map(type, expected)), name


@pytest.mark.parametrize("site", sorted(SITES))
def test_unchecked_output_equals_the_checked_one(site):
    make, reference = SITES[site]
    rng = random.Random(f"unchecked:{site}")
    built = 0
    for _ in range(CASES):
        call, args = make(rng)
        try:
            out = call(*args)
        except OrthoError:  # the kernel's own refusal
            continue
        _assert_same_value(out, reference(out, args))
        built += 1
    assert built >= CASES // 2


def test_edge_cases():
    empty_line = RealRecurrence((), ())
    complex_data = VerblunskySeq((0.25j, 0.5, -0.5 + 0.1j))
    checks = [
        (geronimus_forward(VerblunskySeq(()), 0), RealRecurrence([], [])),
        (geronimus_forward(VerblunskySeq((0.5, 0.25)), -1), RealRecurrence([], [])),
        (geronimus_inverse(empty_line, 0), VerblunskySeq([])),
        (geronimus_inverse(empty_line, -2), VerblunskySeq([])),
        (alpha_from_v(()), VerblunskySeq([])),
        (shift_coefficients(empty_line, 0), RealRecurrence([], [])),
        (prepend_coefficients(empty_line, [1], [2]), RealRecurrence([1.0], [2.0])),
        (shift_verblunsky(complex_data, 1), VerblunskySeq([0.5 + 0j, -0.5 + 0.1j])),
        (shift_verblunsky(complex_data, 3), VerblunskySeq([])),
        (shift_verblunsky(VerblunskySeq((0.5, -0.25)), 1), VerblunskySeq([-0.25])),
        (perturb.sieve2_recurrence(VerblunskySeq(()), -1), RealRecurrence([], [])),
        (perturb.sieved_kmod_recurrence(VerblunskySeq((0.0,)), 0, 0, 1),
         RealRecurrence([0.0], [0.5])),
    ]
    for value, want in checks:
        _assert_same_value(value, want)
    assert v_from_recurrence(empty_line, 0) == v_from_alpha(VerblunskySeq(())) == ()
    # a complex slice stays complex, a float slice stays float
    assert type(shift_verblunsky(complex_data, 1).alpha[0]) is complex
    assert type(shift_verblunsky(VerblunskySeq((0.5, -0.25)), 1).alpha[0]) is float


def _outcome(run, *args):
    """run's value, or the class and message of what it raised."""
    try:
        return run(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_coprl_apply_refuses_what_the_constructor_refuses():
    # coprl_apply coerces and zero-checks only the entry it changed; on
    # draws with complex tau and underflowing lam too, it must raise what
    # the constructor raises on the same entries
    rng = random.Random("unchecked:coprl_apply refusals")
    refused = set()
    for _ in range(CASES):
        args = _coprl_args(rng, taus=(0.5j,))
        got = _outcome(perturb.coprl_apply, *args)
        assert got == _outcome(_coprl_reference, *args)
        if type(got) is tuple:
            refused.add(got[0])
    assert refused == {TypeError, NonPositiveD}


def test_symmetric_line_refuses_what_the_constructor_refuses():
    # _symmetric_line coerces and checks only d; with complex, string, zero
    # and non-finite entries it must raise what the constructor raises on b == 0
    rng = random.Random("unchecked:symmetric_line refusals")
    refused = set()
    for _ in range(CASES):
        d = _symmetric_d(rng, odd=(0.5j, "0.25", "x", None, math.nan, -math.inf))
        got = _outcome(perturb._symmetric_line, d)
        want = _outcome(RealRecurrence, [0.0] * len(d), d)
        if type(got) is tuple:
            assert got == want
            refused.add(got[0])
        else:
            _assert_same_value(got, want)
    assert refused == {TypeError, ValueError, NonPositiveD}


@pytest.mark.parametrize("specs, want", [
    ([("d", 2, 5e-324)], (NonPositiveD, "d_2 = 0 is not allowed")),
    ([("d", 2, 1e308), ("d", 2, 10)], (ValueError, "d_2 = inf is not finite")),
    ([("b", 0, 1e308), ("b", 0, 1e308)], (ValueError, "b_1 = inf is not finite")),
])
def test_coprl_apply_errors(specs, want):
    rc = RealRecurrence((0.1, -0.2, 0.3), (0.25, 0.4, 0.2))
    specs = [perturb.CoDilated(k, x) if kind == "d" else perturb.CoRecursive(k, x)
             for kind, k, x in specs]
    assert _outcome(reduce, perturb.coprl_apply, specs, rc) == want


def test_assoc_opuc_closed_form_near_the_boundary():
    # a's one ulp inside (-1, 1) give the smallest and largest d-hat factors
    edge = 1.0 - 2.0 ** -53
    vs = VerblunskySeq((edge, -edge, 0.5, edge, -edge, -0.5, edge, -edge))
    for k in (0, 1, 2, 3):
        out = perturb.assoc_opuc_to_recurrence(vs, k, 2)
        _assert_same_value(out, _rebuilt(out))
        assert all(0.0 < x < math.inf for x in out.d)
