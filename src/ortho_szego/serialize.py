"""Coefficient and perturbation file formats, and the one rule by which
either kind of file brings in a number.

Coefficient files are structured text objects with every float rendered
at 17 significant digits, which round-trips IEEE doubles exactly and
keeps files diffable; the key tells the two kinds apart:

    { "b": [...], "d": [...] }         line recurrence pairs
    { "alpha": [[re, im], ...] }       circle coefficients

Perturbation files are read only: a tagged object, e.g.
{ "kind": "co_dilated", "k": 1, "lambda": 0.5 }, or a list of them, each
read by its kind's ``perturb.SPECS`` entry through the readers below.

Every JSON number of either file goes through ``_real``, which refuses a
bool, a string, NaN, an infinity and an integer past the float range with
a TypeError that the file's reader reports in one line: a NaN passes every
``abs(x) >= bound`` guard downstream.
"""

from __future__ import annotations

import math

from .errors import OrthoError
from .oprl import RealRecurrence
from .opuc import VerblunskySeq


# What json.loads raises on bad text: ValueError for a syntax error
# (JSONDecodeError) or an integer past the digit limit, RecursionError for
# nesting too deep.
_JSON_ERRORS = (ValueError, RecursionError)


def fmt(x: float) -> str:
    """One float at 17 significant digits (exact double round-trip)."""
    return format(float(x), ".17g")


def _num_list(xs) -> str:
    return "[" + ", ".join(fmt(x) for x in xs) + "]"


def _pair_list(zs) -> str:
    return "[" + ", ".join(f"[{fmt(z.real)}, {fmt(z.imag)}]" for z in zs) + "]"


def dumps_recurrence(rc: RealRecurrence) -> str:
    return '{"b": %s, "d": %s}\n' % (_num_list(rc.b), _num_list(rc.d))


def dumps_verblunsky(vs: VerblunskySeq) -> str:
    return '{"alpha": %s}\n' % _pair_list(vs.alpha)


def dumps_coefficients(obj) -> str:
    if isinstance(obj, RealRecurrence):
        return dumps_recurrence(obj)
    if isinstance(obj, VerblunskySeq):
        return dumps_verblunsky(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _real(x) -> float:
    """A JSON number as a finite float."""
    if type(x) not in (int, float):  # json gives bool for true/false
        raise TypeError(f"expected a number, got {x!r}")
    try:
        y = float(x)
    except OverflowError:  # a JSON integer past the float range
        raise TypeError("number too large for a float") from None
    if not math.isfinite(y):
        raise TypeError(f"non-finite number {x!r}")
    return y


def _integer(x) -> int:
    """An index field: a JSON integer, or a number with no fractional part
    (2.0 reads as 2, 2.7 is refused)."""
    if type(x) is not int and not _real(x).is_integer():
        raise TypeError(f"expected an integer, got {x!r}")
    return int(x)


def _pair(x) -> complex:
    """A ``[re, im]`` pair of numbers whose modulus is a float."""
    if type(x) is not list or len(x) != 2:
        raise TypeError(f"expected a [re, im] pair, got {x!r}")
    re, im = _real(x[0]), _real(x[1])
    if math.hypot(re, im) == math.inf:  # every check of |z| would overflow
        raise TypeError(f"modulus too large for a float: {x!r}")
    return complex(re, im)


def _complex(x) -> complex:
    """A number or a ``[re, im]`` pair, as a complex."""
    return _pair(x) if type(x) is list else complex(_real(x))


def _list(x, read) -> tuple:
    """A JSON list, each entry through ``read``."""
    if type(x) is not list:
        raise TypeError(f"expected a list, got {x!r}")
    return tuple([read(v) for v in x])


def _parse(text: str, kind: str):
    """The JSON value of a ``kind`` file's text."""
    # imported on use: the commands that read no file (verify, and every
    # usage error) never load json
    import json

    try:
        return json.loads(text)
    except _JSON_ERRORS as exc:
        raise OrthoError(f"malformed {kind} file: {exc}") from exc


def loads_coefficients(text: str):
    """Parse either coefficient object, detected by key; an object that
    holds both kinds' keys is refused."""
    data = _parse(text, "coefficient")
    if not isinstance(data, dict):
        raise OrthoError("coefficient file must hold a single object")
    try:
        if "alpha" in data:
            if "b" in data or "d" in data:
                raise TypeError("alpha cannot be given with b/d")
            return VerblunskySeq(_list(data["alpha"], _pair))
        if "b" in data and "d" in data:
            return RealRecurrence(_list(data["b"], _real), _list(data["d"], _real))
    except TypeError as exc:
        raise OrthoError(f"malformed coefficient file: {exc}") from exc
    raise OrthoError(f"unrecognized coefficient keys: {sorted(data)}")


def specs_from_text(text: str) -> list:
    """The specs of a perturbation file, in order.  An error names the
    entry's position in the file for a non-object or a missing or mistyped
    field."""
    data = _parse(text, "perturbation")
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise OrthoError("perturbation file must hold an object or a list")
    # imported on use: perturb imports this module's readers, and the
    # coefficient commands never load it
    from .perturb import SPECS

    specs = []
    for position, obj in enumerate(data):
        if not isinstance(obj, dict):
            raise OrthoError(f"perturbation entry {position} must be an object, got {obj!r}")
        kind = obj.get("kind")
        entry = SPECS.get(kind) if isinstance(kind, str) else None
        if entry is None:
            raise OrthoError(f"unknown perturbation kind: {kind!r}")
        try:
            specs.append(entry.read(obj))
        except (KeyError, TypeError) as exc:
            raise OrthoError(f"perturbation entry {position} ({kind}): "
                             f"missing or malformed field: {exc}") from exc
    return specs
