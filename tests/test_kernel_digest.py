"""Pinned digest of the bridge kernels' results and error messages.

A seeded run of ~2000 finite cases (admissible, corrupted and too-short
data, every prefix length) feeds the bridge, pivot, convergent and
perturbation kernels.  The repr of every result, or the class and message
of every exception, goes into one SHA-256 digest.  Any change to a
computed bit, an error class, its message or the index it names changes
the digest; a deliberate change of output must update DIGEST and say why.
"""

import hashlib
import random
from functools import partial

from ortho_szego import perturb
from ortho_szego.oprl import RealRecurrence
from ortho_szego.opuc import VerblunskySeq
from ortho_szego.spectral import CFunctionHandle, SFunctionHandle, f_value, s_value
from ortho_szego.szego import (
    VSeq,
    alpha_from_v,
    geronimus_forward,
    geronimus_inverse,
    invert_from,
    v_from_alpha,
    v_from_recurrence,
)

CASES = 2000
DIGEST = "6ca9c8209fc221f7c5765409d7c26971a3220859a4142c46ca3f67dc0072108b"

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


def _invert_from(rng):
    rc = _line_data(rng)
    n = rng.randint(0, len(rc) + 1)
    try:
        full = geronimus_inverse(rc, len(rc)).real_view()
    except Exception:
        full = _alphas(rng, 2 * len(rc), 0.5)
    return invert_from, (rc, full[:rng.randint(0, 2 * n + 1)], n)


def _v_from_alpha(rng):
    vs = _circle_data(rng)
    n = rng.choice((None, rng.randint(-1, len(vs) + 1)))
    return v_from_alpha, (vs, n)


def _alpha_from_v(rng):
    v = list(v_from_alpha(VerblunskySeq(_alphas(rng, rng.randint(0, 14)))).v)
    if v and rng.random() < 0.4:
        v[rng.randrange(len(v))] *= rng.uniform(0.0, 3.0)
    n = rng.choice((None, rng.randint(-1, len(v) + 2)))
    return alpha_from_v, (VSeq(v), n)


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


def _sieve(rng):
    return perturb.sieve, (_circle_data(rng), rng.randint(0, 4))


def _assoc_circle(rng):
    vs = _circle_data(rng)
    path = rng.choice((perturb.CLOSED_FORM, perturb.ORACLE))
    return perturb.assoc_opuc_to_recurrence, (vs, rng.randint(0, 5), rng.randint(-1, 6), path)


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
    return rng.choice((RealRecurrence, lambda b, d: VSeq(d))), (values[::-1], values)


def _raise(exc):
    raise exc


MAKERS = (_forward, _inverse, _invert_from, _invert_from, _v_from_alpha, _alpha_from_v,
          _v_from_recurrence, _s_value, _f_value, _sieve, _assoc_circle, _perturbed,
          _constructors)


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
