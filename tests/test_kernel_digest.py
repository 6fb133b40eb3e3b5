"""Pinned digest of the bridge kernels' results and error messages.

A seeded run of ~2000 cases (admissible, corrupted and too-short data,
short and long n, NaN and out-of-range entries) feeds the bridge,
pivot, convergent and perturbation kernels.  The repr of every result
(with the storage kinds of a circle sequence, which its repr hides), or
the class and message of every exception, goes into one SHA-256 digest.
Any change to a computed bit, a storage kind, an error class, its message
or the index it names changes the digest; a deliberate change of output
must update DIGEST and say why.
"""

import hashlib
import math
import random
from fractions import Fraction
from functools import partial, reduce

from ortho_szego import perturb
from ortho_szego.oprl import RealRecurrence
from ortho_szego.opuc import VerblunskySeq, prepend_verblunsky
from ortho_szego.spectral import CFunctionHandle, SFunctionHandle, f_value, s_value
from ortho_szego.szego import (
    alpha_from_v,
    geronimus_forward,
    geronimus_inverse,
    v_from_alpha,
    v_from_recurrence,
)

CASES = 2000
DIGEST = "e29becd6b2a53cab1bfc8230fa163d5d1537368bcf064b0221eaeb8eace7e376"

LINE_POINTS = (2.0, -1.5, 3 + 1j, 0.2 + 0.5j, 1.0000001, 0.5, 1e3, 1e6 + 2j)
CIRCLE_POINTS = (0j, 0.3, -0.5 + 0.2j, 0.9j, 0.9999999, -0.97)


def _alphas(rng, count, bound=0.95):
    return tuple(rng.uniform(-bound, bound) for _ in range(count))


def _line_data(rng):
    """Pairs from an admissible draw, then perhaps corrupted or cut short."""
    pairs = rng.randint(0, 7)
    rc = geronimus_forward(VerblunskySeq(_alphas(rng, 2 * pairs)), pairs)
    b, d = list(rc.b), list(rc.d)
    if b and rng.random() < 0.4:
        i = rng.randrange(len(b))
        b[i] += rng.uniform(-0.6, 0.6)
        d[i] *= rng.uniform(0.2, 4.0)
    if b and rng.random() < 0.05:
        b[0] = -1.0  # a vanishing first pivot
    if rng.random() < 0.3:
        del (b if rng.random() < 0.5 else d)[rng.randint(0, len(b)):]
    return RealRecurrence(b, d)


def _circle_data(rng):
    count = rng.randint(0, 14)
    if rng.random() < 0.2:
        return VerblunskySeq(tuple(complex(x, y) for x, y in
                                   zip(_alphas(rng, count, 0.6), _alphas(rng, count, 0.6))))
    return VerblunskySeq(_alphas(rng, count))


def _forward(rng):
    return geronimus_forward, (_circle_data(rng), rng.randint(-1, 8))


def _inverse(rng):
    rc = _line_data(rng)
    return geronimus_inverse, (rc, rng.randint(-1, len(rc) + 1))


def _inverse_after_prefix_draws(rng):
    rc = _line_data(rng)
    n = rng.randint(0, len(rc) + 1)
    try:  # the draws of a removed prefix: a failed inversion drew a random one
        geronimus_inverse(rc, len(rc))
    except Exception:
        _alphas(rng, 2 * len(rc), 0.5)
    rng.randint(0, 2 * n + 1)  # and its length
    return geronimus_inverse, (rc, n)


def _v_from_alpha(rng):
    vs = _circle_data(rng)
    rng.choice((None, rng.randint(-1, len(vs) + 1)))  # the draw of a removed n
    return v_from_alpha, (vs,)


def _alpha_from_v(rng):
    v = list(v_from_alpha(VerblunskySeq(_alphas(rng, rng.randint(0, 14)))))
    if v and rng.random() < 0.4:
        v[rng.randrange(len(v))] *= rng.uniform(0.0, 3.0)
    rng.choice((None, rng.randint(-1, len(v) + 2)))  # the draw of a removed n
    return alpha_from_v, (tuple(v),)


def _v_from_recurrence(rng):
    rc = _line_data(rng)
    return v_from_recurrence, (rc, rng.randint(-1, 2 * len(rc) + 2))


def _s_value(rng):
    rc = _line_data(rng)
    depth = rng.randint(1, max(len(rc), 1))
    try:
        handle = SFunctionHandle(rc, depth)
    except Exception as exc:
        return _raise, (exc,)
    return s_value, (handle, rng.choice(LINE_POINTS))


def _f_value(rng):
    vs = _circle_data(rng)
    depth = rng.randint(1, max(len(vs), 1))
    try:
        handle = CFunctionHandle(vs, depth)
    except Exception as exc:
        return _raise, (exc,)
    return f_value, (handle, rng.choice(CIRCLE_POINTS))


def _with_kinds(func, *args):
    """func's result and the storage kinds of its entries, which its repr
    does not show."""
    out = func(*args)
    return out, sorted({type(a).__name__ for a in out.alpha})


def _sieve(rng):
    return partial(_with_kinds, perturb.sieve), (_circle_data(rng), rng.randint(0, 4))


def _circle_entry(rng):
    """A prepended or replacing circle entry: an int, a float, a complex,
    NaN or one of modulus >= 1."""
    return rng.choice((0, rng.uniform(-0.95, 0.95),
                       complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)),
                       math.nan, rng.choice((1.0, -1.5, 1j))))


def _prepend(rng):
    xi = [_circle_entry(rng) for _ in range(rng.randint(0, 3))]
    return partial(_with_kinds, prepend_verblunsky), (_circle_data(rng), xi)


def _modify(vs, k, eta):
    """copuc_apply on a spec built here, so that the constructor's refusal
    is a case too."""
    return perturb.copuc_apply(vs, perturb.KModification(k, eta))


def _copuc(rng):
    vs = _circle_data(rng)
    return partial(_with_kinds, _modify), (vs, rng.randint(-1, len(vs)), _circle_entry(rng))


def _symmetric(rng):
    """Both symmetric families on both paths: the b == 0 pairs of a draw
    with zero even entries, perhaps with a 0, NaN, negative or > 1 entry;
    k runs one past each end and lam over nonpositive values too."""
    pairs = rng.randint(0, 7)
    gamma = tuple(rng.uniform(-0.95, 0.95) if j % 2 else 0.0 for j in range(2 * pairs))
    d = list(geronimus_forward(VerblunskySeq(gamma), pairs).d)
    if d and rng.random() < 0.4:
        d[rng.randrange(len(d))] = rng.choice((0.0, math.nan, -0.1, 1.3, rng.uniform(0.3, 0.9)))
    path = rng.choice((perturb.CLOSED_FORM, perturb.ORACLE))
    if rng.random() < 0.5:
        return partial(_with_kinds, partial(perturb.symmetric_verblunsky, path=path)), (d,)
    lam = rng.choice((rng.uniform(0.3, 2.0), 0.0, -0.5))
    return (partial(_with_kinds, partial(perturb.symmetric_codilated_verblunsky, path=path)),
            (d, rng.randint(0, len(d) + 1), lam))


def _assoc_circle(rng):
    vs = _circle_data(rng)
    path = rng.choice((perturb.CLOSED_FORM, perturb.ORACLE))
    return perturb.assoc_opuc_to_recurrence, (vs, rng.randint(0, 5), rng.randint(-1, 6), path)


def _with_entry_types(func, *args):
    """func's recurrence and the types of its fields and entries, which its
    repr does not show."""
    out = func(*args)
    return out, type(out.b).__name__, type(out.d).__name__, sorted(
        {type(x).__name__ for x in out.b + out.d})


def _apply_specs(rc, raw):
    """coprl_apply folded over specs built here, so that a spec
    constructor's refusal is a case too."""
    return reduce(perturb.coprl_apply, [cls(k, x) for cls, k, x in raw], rc)


def _coprl_apply(rng):
    """Up to three co-dilations and co-recursions on line data, indices one
    past each end and repeated; int, Fraction, float, NaN and complex lam
    and tau, and a lam that makes d_k underflow to 0; now and then a spec
    of another kind."""
    rc = _line_data(rng)
    raw = []
    for _ in range(rng.randint(0, 3)):
        k = rng.randint(0, len(rc.b) + 1)
        if rng.random() < 0.5:
            lam = rng.choice((2, Fraction(1, 3), rng.uniform(0.3, 2.0), 5e-324, math.nan, 0.5j))
            raw.append((perturb.CoDilated, k, lam))
        else:
            tau = rng.choice((1, Fraction(-1, 5), rng.uniform(-0.3, 0.3), math.nan, 0.5j))
            raw.append((perturb.CoRecursive, k, tau))
    if rng.random() < 0.05:
        raw.append((perturb.KModification, 0, 0.1))
    return partial(_with_entry_types, _apply_specs), (rc, raw)


def _assoc_opuc(rng):
    """The circle associated family on real data stored as floats or as
    complex, with entries one ulp inside (-1, 1), k of either parity and an
    n the data mostly covers."""
    edge = 1.0 - 2.0 ** -53
    alpha = [rng.choice((rng.uniform(-0.95, 0.95), edge, -edge)) for _ in range(rng.randint(0, 14))]
    vs = VerblunskySeq(tuple(map(complex, alpha)) if rng.random() < 0.3 else tuple(alpha))
    k = rng.randint(0, 6)
    path = rng.choice((perturb.CLOSED_FORM, perturb.CLOSED_FORM, perturb.ORACLE))
    return (partial(_with_entry_types, partial(perturb.assoc_opuc_to_recurrence, path=path)),
            (vs, k, rng.randint(1, max((len(alpha) - k) // 2, 1))))


def _perturbed(rng):
    rc = _line_data(rng)
    k, n = rng.randint(0, 3), rng.randint(1, 6)
    lam, tau = rng.choice((1.0, rng.uniform(0.5, 1.5))), rng.uniform(-0.2, 0.2)
    if rng.random() < 0.5:
        path = rng.choice((perturb.CLOSED_FORM, perturb.ORACLE))
        return partial(perturb.coprl_verblunsky, path=path), (rc, k, lam, tau, n)
    path = rng.choice((perturb.DEFAULT, perturb.SHORTCUT))
    return perturb.perturbed_alpha_lu, (rc, k, lam, tau, n, path)


def _constructors(rng):
    values = [rng.choice((0.0, -0.0, rng.uniform(-1, 1), 2)) for _ in range(rng.randint(0, 6))]
    return rng.choice((RealRecurrence, lambda b, d: tuple(map(float, d)))), (values[::-1], values)


def _raise(exc):
    raise exc


MAKERS = (_forward, _inverse, _inverse_after_prefix_draws, _inverse_after_prefix_draws,
          _v_from_alpha, _alpha_from_v, _v_from_recurrence, _s_value, _f_value, _sieve,
          _assoc_circle, _perturbed, _constructors, _prepend, _copuc, _symmetric, _symmetric,
          _coprl_apply, _assoc_opuc)


def kernel_lines(seed: str, count: int):
    """One line per case: the maker's name and the repr of the result, or
    the exception's class and message."""
    rng = random.Random(seed)
    for i in range(count):
        maker = MAKERS[i % len(MAKERS)]
        func, args = maker(rng)
        try:
            out = repr(func(*args))
        except Exception as exc:
            out = f"{type(exc).__name__}: {exc}"
        yield f"{maker.__name__}: {out}"


def test_kernel_digest_is_pinned():
    text = "\n".join(kernel_lines("kernel-digest", CASES))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST


if __name__ == "__main__":
    # the hashed lines, to diff two trees when DIGEST is re-taken:
    # PYTHONPATH=src python tests/test_kernel_digest.py
    for line in kernel_lines("kernel-digest", CASES):
        print(line)
