"""Command-line front end.

    ortho-szego geronimus --direction fwd|inv --in FILE --out FILE [--n N]
    ortho-szego perturb   --in FILE --spec FILE --side line|circle
                          [--out FILE] [--both-paths]
    ortho-szego verify    --suite NAME [--tol T] [--seed S]
    ortho-szego eval      --in FILE --side line|circle --points LIST
                          [--depth D] [--out FILE]

Exit codes: 0 success; 1 I/O, file-format or usage error; 2 support
violation (offending index on stderr) or forbidden evaluation point; 3
perturbation spec invalid for the chosen side; 4 unknown verify suite; 5
verify suite failure.  `eval` evaluates convergents of depth --depth, or
of spectral.DEFAULT_DEPTH (40) without it.

Output is deterministic byte-for-byte for a fixed seed and job.
"""

from __future__ import annotations

import importlib
import math
import sys
from typing import TYPE_CHECKING

from .errors import (
    EvaluationDomain,
    InvalidEta,
    InvalidPrepend,
    InvalidXi,
    OrthoError,
    SupportViolation,
    UnknownSuite,
    WrongSide,
)
from .oprl import RealRecurrence
from .opuc import VerblunskySeq
from .serialize import dumps_coefficients, fmt, loads_coefficients, specs_from_text
from .tolerances import DEFAULT_TOLS, check_suite

# The module only one command uses.  The command imports it inside its
# function, so that no other command compiles it.  main() imports it
# before argparse as well: compiling perturb.py from source takes ~2 MB
# for a moment, and on top of argparse, its parser and the locale module
# that parsing loads, that would raise the peak RSS by ~0.5 MB.
_COMMAND_MODULES = {"perturb": "perturb", "eval": "spectral", "verify": "suites"}

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_IO = 1
EXIT_SUPPORT = 2
EXIT_SPEC_SIDE = 3
EXIT_UNKNOWN_SUITE = 4
EXIT_SUITE_FAILED = 5


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliExit(EXIT_IO, f"cannot read {path}: {exc}")


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliExit(EXIT_IO, f"cannot write {path}: {exc}")


class _CliExit(Exception):
    def __init__(self, code: int, message: str = ""):
        self.code = code
        self.message = message


def _load_line(path: str) -> RealRecurrence:
    data = loads_coefficients(_read(path))
    if not isinstance(data, RealRecurrence):
        raise _CliExit(EXIT_IO, f"{path}: expected a line-side b/d file")
    return data


def _load_circle(path: str) -> VerblunskySeq:
    data = loads_coefficients(_read(path))
    if not isinstance(data, VerblunskySeq):
        raise _CliExit(EXIT_IO, f"{path}: expected a circle-side alpha file")
    return data


def cmd_geronimus(args) -> int:
    if args.n is not None and args.n < 0:
        raise _CliExit(EXIT_IO, f"--n must be >= 0, got {args.n}")
    if args.direction == "fwd":
        vs = _load_circle(args.infile)
        n = args.n if args.n is not None else len(vs) // 2
        from .szego import geronimus_forward

        out = geronimus_forward(vs, n)
    else:
        rc = _load_line(args.infile)
        n = args.n if args.n is not None else len(rc)
        from .szego import geronimus_inverse

        out = geronimus_inverse(rc, n)
    _write(args.outfile, dumps_coefficients(out))
    return EXIT_OK


def _apply_spec(data, spec, side: str, both_paths: bool, notes: list[str]):
    from .perturb import CLOSED_FORM, ORACLE, SPECS, max_deviation

    entry = SPECS[spec.kind]
    if side not in entry.apply:
        raise _CliExit(EXIT_SPEC_SIDE, f"{spec.kind} does not apply on the {side} side")
    # applying first reports an invalid spec before any both-paths error
    out = entry.apply[side](data, spec)
    if both_paths and side in entry.paths:
        pair = entry.paths[side](data, spec)
        if isinstance(pair, str):
            notes.append(f"both-paths {spec.kind}: skipped ({pair})")
        else:
            order, run = pair
            dev = max_deviation(run(path=CLOSED_FORM), run(path=ORACLE))
            notes.append(f"both-paths {spec.kind} k={order}: max deviation {dev:.3e}")
    return out


def cmd_perturb(args) -> int:
    text = _read(args.spec)
    try:
        specs = specs_from_text(text)
    except (InvalidEta, InvalidXi, InvalidPrepend, ValueError) as exc:
        raise _CliExit(EXIT_SPEC_SIDE, f"invalid perturbation parameters: {exc}")
    except OrthoError as exc:
        raise _CliExit(EXIT_IO, str(exc))
    notes: list[str] = []
    try:
        data = _load_line(args.infile) if args.side == "line" else _load_circle(args.infile)
        for spec in specs:
            data = _apply_spec(data, spec, args.side, args.both_paths, notes)
    except WrongSide as exc:
        raise _CliExit(EXIT_SPEC_SIDE, str(exc))
    except (InvalidEta, InvalidXi, InvalidPrepend, ValueError) as exc:
        raise _CliExit(EXIT_SPEC_SIDE, f"invalid perturbation for side {args.side}: {exc}")
    for note in notes:
        print(note, file=sys.stderr)
    _write(args.outfile, dumps_coefficients(data))
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        check_suite(args.suite)
    except UnknownSuite as exc:
        raise _CliExit(EXIT_UNKNOWN_SUITE, str(exc))
    from .suites import run_suite

    report = run_suite(args.suite, seed=args.seed, tol=args.tol)
    for line in report.lines:
        print(line)
    return EXIT_OK if report.ok else EXIT_SUITE_FAILED


def _parse_points(raw: str) -> list[float | complex]:
    pts = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            p = complex(tok)
        except ValueError:
            raise _CliExit(EXIT_IO, f"cannot parse point {tok!r}")
        if not (math.isfinite(p.real) and math.isfinite(p.imag)):
            raise _CliExit(EXIT_IO, f"non-finite point {tok!r}")
        if not math.isfinite(math.hypot(p.real, p.imag)):
            raise _CliExit(EXIT_IO, f"point {tok!r} is too large: its modulus overflows")
        # +0.0j: a real point, kept as a float so the kernels stay real
        pts.append(p.real if p.imag == 0.0 and math.copysign(1.0, p.imag) > 0 else p)
    if not pts:
        raise _CliExit(EXIT_IO, "no evaluation points given")
    return pts


def cmd_eval(args) -> int:
    from .spectral import DEFAULT_DEPTH, CFunctionHandle, SFunctionHandle, f_value, s_value

    depth = args.depth if args.depth is not None else DEFAULT_DEPTH
    if depth < 1:
        raise _CliExit(EXIT_IO, f"--depth must be >= 1, got {depth}")
    points = _parse_points(args.points)
    rows = ["point_re\tpoint_im\tvalue_re\tvalue_im\tplateau_err"]
    if args.side == "line":
        handle = SFunctionHandle(_load_line(args.infile), depth)
        evaluate = lambda p: s_value(handle, p)  # noqa: E731
    else:
        handle = CFunctionHandle(_load_circle(args.infile), depth)
        evaluate = lambda p: f_value(handle, p)  # noqa: E731
    for p in points:
        try:
            val, err = evaluate(p)
        except EvaluationDomain as exc:
            raise _CliExit(EXIT_SUPPORT, f"forbidden evaluation point: {exc}")
        rows.append("\t".join((fmt(p.real), fmt(p.imag),
                               fmt(val.real), fmt(val.imag), f"{err:.3e}")))
    _write(args.outfile, "\n".join(rows) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    import argparse  # after _preload, see _COMMAND_MODULES

    class Parser(argparse.ArgumentParser):
        # argparse's own error() prints a usage block and exits 2, the code
        # for a support violation; a usage error is an input error (exit 1)
        def error(self, message):
            raise _CliExit(EXIT_IO, f"{self.prog}: {message}")

    parser = Parser(
        prog="ortho-szego",
        description="Coefficient transforms for orthogonal polynomials on the "
                    "real line and the unit circle, linked by the Szego map.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geronimus", help="map coefficients across the bridge")
    p.add_argument("--direction", choices=("fwd", "inv"), required=True,
                   help="fwd: circle alphas -> line pairs; inv: line pairs -> alphas")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", default=None)
    p.add_argument("--n", type=int, default=None, help="output length (pairs)")
    p.set_defaults(func=cmd_geronimus)

    p = sub.add_parser("perturb", help="apply perturbation specs in order")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--spec", required=True, help="JSON file of tagged perturbations")
    p.add_argument("--side", choices=("line", "circle"), required=True)
    p.add_argument("--out", dest="outfile", default=None)
    p.add_argument("--both-paths", action="store_true",
                   help="also report the closed-form vs brute-force deviation")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("--suite", required=True,
                   help="one of: " + ", ".join(sorted(DEFAULT_TOLS)))
    p.add_argument("--tol", type=float, default=None,
                   help="override the suite default tolerance "
                        + str(DEFAULT_TOLS))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval", help="evaluate transforms at points")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--side", choices=("line", "circle"), required=True)
    p.add_argument("--points", required=True,
                   help="comma-separated points, python complex syntax")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--out", dest="outfile", default=None)
    p.set_defaults(func=cmd_eval)
    return parser


def _preload(argv: list[str]) -> None:
    """Import the module that argv's command will need; a wrong guess costs
    only time.  An unknown suite name loads no suites."""
    module = _COMMAND_MODULES.get(argv[0] if argv else None)
    if module == "suites" and DEFAULT_TOLS.keys().isdisjoint(argv):
        return
    if module is not None:
        importlib.import_module(f".{module}", __package__)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    _preload(argv)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _CliExit as exc:
        if exc.message:
            print(exc.message, file=sys.stderr)
        return exc.code
    except SupportViolation as exc:
        print(f"support violation at index {exc.index}: {exc}", file=sys.stderr)
        return EXIT_SUPPORT
    except OrthoError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
