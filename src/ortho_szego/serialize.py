"""Coefficient and perturbation file formats.

Coefficient files are structured text objects with every float rendered
at 17 significant digits, which round-trips IEEE doubles exactly and
keeps files diffable; the key tells the two kinds apart:

    { "b": [...], "d": [...] }         line recurrence pairs
    { "alpha": [[re, im], ...] }       circle coefficients

Perturbation files are read only: a tagged object, e.g.
{ "kind": "co_dilated", "k": 1, "lambda": 0.5 }, or a list of them.
"""

from __future__ import annotations

import json
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


def _finite_list(values) -> tuple[float, ...]:
    """A JSON list of finite numbers, as floats."""
    if not isinstance(values, list):
        raise TypeError(f"expected a list, got {values!r}")
    for x in values:
        if type(x) not in (int, float):  # json gives bool for true/false
            raise TypeError(f"expected a number, got {x!r}")
        if not math.isfinite(x):
            raise ValueError(f"non-finite entry {x!r}")
    return tuple(float(x) for x in values)


def loads_coefficients(text: str):
    """Parse either coefficient object, detected by key.

    Every entry must be a finite number (an alpha entry a [re, im] pair of
    them): the value classes do not check finiteness, and a NaN passes
    every ``abs(x) >= bound`` guard downstream.
    """
    try:
        data = json.loads(text)
    except _JSON_ERRORS as exc:
        raise OrthoError(f"malformed coefficient file: {exc}") from exc
    if not isinstance(data, dict):
        raise OrthoError("coefficient file must hold a single object")
    try:
        if "alpha" in data:
            pairs = [_finite_list(pair) for pair in data["alpha"]]
            return VerblunskySeq(tuple(complex(re, im) for re, im in pairs))
        if "b" in data and "d" in data:
            return RealRecurrence(_finite_list(data["b"]), _finite_list(data["d"]))
    except (ValueError, TypeError, OverflowError) as exc:
        raise OrthoError(f"malformed coefficient file: {exc}") from exc
    raise OrthoError(f"unrecognized coefficient keys: {sorted(data)}")


def spec_from_obj(obj: dict, position: int = 0):
    """One tagged perturbation object -> its spec value.

    ``position`` is the entry's index in its file, named in the error for a
    non-object or a missing or mistyped field.
    """
    if not isinstance(obj, dict):
        raise OrthoError(f"perturbation entry {position} must be an object, got {obj!r}")
    # imported on use: only perturb reads specs, and it needs the module anyway
    from .perturb import SPECS

    kind = obj.get("kind")
    entry = SPECS.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise OrthoError(f"unknown perturbation kind: {kind!r}")
    try:
        return entry.read(obj)
    except (KeyError, TypeError) as exc:
        raise OrthoError(f"perturbation entry {position} ({kind}): "
                         f"missing or malformed field: {exc}") from exc


def specs_from_text(text: str) -> list:
    try:
        data = json.loads(text)
    except _JSON_ERRORS as exc:
        raise OrthoError(f"malformed perturbation file: {exc}") from exc
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise OrthoError("perturbation file must hold an object or a list")
    return [spec_from_obj(obj, i) for i, obj in enumerate(data)]
