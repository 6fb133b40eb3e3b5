"""Coefficient file formats.

Structured text objects with every float rendered at 17 significant
digits, which round-trips IEEE doubles exactly and keeps files diffable:

    { "b": [...], "d": [...] }         line recurrence pairs
    { "alpha": [[re, im], ...] }       circle coefficients
    { "v": [...] }                     LU pivot sequence

Perturbations travel as tagged objects, e.g.
{ "kind": "co_dilated", "k": 1, "lambda": 0.5 }.
"""

from __future__ import annotations

import json

from .errors import OrthoError
from .oprl import RealRecurrence
from .opuc import VerblunskySeq
from .perturb import SPECS
from .szego import VSeq


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


def dumps_vseq(v: VSeq) -> str:
    return '{"v": %s}\n' % _num_list(v.v)


def dumps_coefficients(obj) -> str:
    if isinstance(obj, RealRecurrence):
        return dumps_recurrence(obj)
    if isinstance(obj, VerblunskySeq):
        return dumps_verblunsky(obj)
    if isinstance(obj, VSeq):
        return dumps_vseq(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def loads_coefficients(text: str):
    """Parse any of the three coefficient objects, detected by key."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OrthoError(f"malformed coefficient file: {exc}") from exc
    if not isinstance(data, dict):
        raise OrthoError("coefficient file must hold a single object")
    if "alpha" in data:
        return VerblunskySeq(tuple(complex(re, im) for re, im in data["alpha"]))
    if "b" in data and "d" in data:
        return RealRecurrence(tuple(data["b"]), tuple(data["d"]))
    if "v" in data:
        return VSeq(tuple(data["v"]))
    raise OrthoError(f"unrecognized coefficient keys: {sorted(data)}")


def spec_from_obj(obj: dict):
    """One tagged perturbation object -> its dataclass."""
    kind = obj.get("kind")
    entry = SPECS.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise OrthoError(f"unknown perturbation kind: {kind!r}")
    return entry.read(obj)


def spec_to_obj(spec) -> dict:
    entry = SPECS.get(getattr(spec, "kind", None))
    if entry is None:
        raise TypeError(f"cannot serialize {type(spec)!r}")
    return entry.write(spec)


def specs_from_text(text: str) -> list:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OrthoError(f"malformed perturbation file: {exc}") from exc
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise OrthoError("perturbation file must hold an object or a list")
    return [spec_from_obj(obj) for obj in data]
