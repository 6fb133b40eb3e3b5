"""Command-line front end: the commands and their flags are the table
_COMMANDS, which `ortho-szego [COMMAND] --help` prints.

Exit codes: 0 success; 1 I/O, file-format or usage error; 2 support
violation (offending index on stderr) or forbidden evaluation point; 3
perturbation spec invalid for the chosen side; 4 unknown verify suite; 5
verify suite failure.  `eval` evaluates convergents of depth --depth, or
of spectral.DEFAULT_DEPTH (40) without it.

Output is deterministic byte-for-byte for a fixed seed and job.
"""

from __future__ import annotations

import atexit
import errno
import math
import os
import re
import sys
from types import SimpleNamespace

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
    """Write text to the file at path, or to stdout (path None) through its
    binary layer until every byte is taken: unbuffered, that layer is the
    raw file, whose write may take only part when the reader leaves."""
    try:
        if path is None:
            out = sys.stdout
            if out is None:  # the process started with no file descriptor 1
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            raw = getattr(out, "buffer", None)
            if raw is None:  # a StringIO
                out.write(text)
                return
            out.flush()
            data = memoryview(text.encode(out.encoding, out.errors))
            while data:
                data = data[raw.write(data) or 0:]
            return
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # a closed stdout pipe too
        raise _CliExit(EXIT_IO, f"cannot write {'<stdout>' if path is None else path}: {exc}")


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
    if args.tol is not None and not args.tol >= 0:
        raise _CliExit(EXIT_IO, f"--tol must be >= 0, got {args.tol}")
    try:
        check_suite(args.suite)
    except UnknownSuite as exc:
        raise _CliExit(EXIT_UNKNOWN_SUITE, str(exc))
    from .suites import run_suite

    report = run_suite(args.suite, seed=args.seed, tol=args.tol)
    _write(None, "".join(line + "\n" for line in report.lines))
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


# command -> (handler, help, flags); a flag is (option, dest, type, required,
# default, help), its type str, int, float, a tuple of choices or None (store true)
_IN, _OUT = ("--in", "infile", str, True, None, ""), ("--out", "outfile", str, False, None, "")
_SIDE = ("--side", "side", ("line", "circle"), True, None, "")
_COMMANDS = {
    "geronimus": (cmd_geronimus, "map coefficients across the bridge", (
        ("--direction", "direction", ("fwd", "inv"), True, None,
         "fwd: circle alphas -> line pairs; inv: line pairs -> alphas"),
        _IN, _OUT, ("--n", "n", int, False, None, "output length (pairs)"))),
    "perturb": (cmd_perturb, "apply perturbation specs in order", (
        _IN, ("--spec", "spec", str, True, None, "JSON file of tagged perturbations"), _SIDE, _OUT,
        ("--both-paths", "both_paths", None, False, False,
         "also report the closed-form vs brute-force deviation"))),
    "verify": (cmd_verify, "run a seeded verification suite", (
        ("--suite", "suite", str, True, None, "one of: " + ", ".join(sorted(DEFAULT_TOLS))),
        ("--tol", "tol", float, False, None,
         "override the suite default tolerance " + str(DEFAULT_TOLS)),
        ("--seed", "seed", int, False, 0, ""))),
    "eval": (cmd_eval, "evaluate transforms at points", (
        _IN, _SIDE, ("--points", "points", str, True, None,
                     "comma-separated points, python complex syntax"),
        ("--depth", "depth", int, False, None, ""), _OUT)),
}
_HELP = ("-h/--help", None, None, False, None, "show this help message and exit")


def _token(tok: str, names, prog: str):
    """How a parser reads tok: None for a value, else (the option, or None
    if unknown; the value that '=' or -h attaches, or None)."""
    name, eq, attached = tok.partition("=")
    if tok in names or eq and name in names:
        return (tok, None) if tok in names else (name, attached)
    if tok[:1] != "-" or tok == "-":
        return None
    long = tok[1] == "-"  # a unique prefix of a long option; -hX is -h with X
    hits = [n for n in names if n.startswith(name)] if long else ["-h"] * (tok[:2] == "-h")
    if len(hits) > 1:
        raise _CliExit(EXIT_IO, f"{prog}: ambiguous option: {tok} could match {', '.join(hits)}")
    if hits:
        return hits[0], (attached if eq else None) if long else tok[2:]
    # a negative number or a token with a space is a value
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", tok) or " " in tok else (None, None)


def _help(prog: str, flags) -> None:
    """Print the help of a command, or of the top level (no flags); exit 0."""
    rows = [(f[0] + ("" if f[2] is None else " {%s}" % ",".join(f[2])
             if isinstance(f[2], tuple) else " " + f[1].upper()), f[3], f[5]) for f in flags]
    usage = [inv if required else f"[{inv}]" for inv, required, _ in rows]
    lines = [" ".join([f"usage: {prog} [-h]", *(usage or ["{%s} ..." % ",".join(_COMMANDS)])]), ""]
    for name, _, text in [("-h, --help", 0, _HELP[5]), *rows] + [
            (command, 0, entry[1]) for command, entry in _COMMANDS.items() if not flags]:
        lines.append(f"  {name:<22}{text}".rstrip())
    _write(None, "\n".join(lines) + "\n")
    raise SystemExit(0)


def _parse_flags(prog: str, argv, flags):
    """One parser's pass over argv: (the flag values, the tokens it left)."""
    table = {"-h": _HELP, "--help": _HELP, **{flag[0]: flag for flag in flags}}
    cut = argv.index("--") if "--" in argv else len(argv)
    # every token before '--' is read first, so an ambiguous one is refused first
    kinds = [_token(tok, table, prog) for tok in argv[:cut]] + ["--"]
    values, extras, i = {flag[1]: flag[4] for flag in flags}, [], 0
    while i < cut:
        tok, kind, i = argv[i], kinds[i], i + 1
        if kind is None or kind[0] is None:
            extras.append(tok)
            continue
        name, attached = kind
        if name == "-h" and attached:  # -hh is -h twice; -hX is -h with X attached
            attached = attached.lstrip("h") or None
        option, dest, typ = table[name][:3]
        bad = lambda msg: _CliExit(EXIT_IO, f"{prog}: argument {option}: {msg}")  # noqa: E731
        if typ is None and attached is not None:
            raise bad(f"ignored explicit argument {attached!r}")
        if dest is None:
            _help(prog, flags)
        if typ is not None and attached is None:
            if kinds[i] is not None:  # the next token is a flag, '--' or missing
                raise bad("expected one argument")
            attached, i = argv[i], i + 1
        try:  # a choice by its index, so that both misses raise ValueError
            values[dest] = True if typ is None else (
                typ[typ.index(attached)] if isinstance(typ, tuple) else typ(attached))
        except ValueError:
            raise bad(f"invalid {typ.__name__} value: {attached!r}" if callable(typ) else
                      f"invalid choice: {attached!r} (choose from {', '.join(map(repr, typ))})")
    # a given required flag holds a string, and each one defaults to None
    missing = ", ".join(flag[0] for flag in flags if flag[3] and values[flag[1]] is None)
    if missing:
        raise _CliExit(EXIT_IO, f"{prog}: the following arguments are required: {missing}")
    return values, extras + argv[cut:]


def parse_args(argv) -> tuple:
    """(handler, flags) of argv: --flag value or --flag=value, a unique prefix
    for a flag, the last of a repeated flag, a value starting with '-' only if
    it reads as a negative number or holds a space."""
    # the command is the first value, or a '--' with more after it
    i = next((i for i, tok in enumerate(argv) if _token(tok, ("-h", "--help"), "") is None
              or tok == "--" and i + 1 < len(argv)), None)
    _, extras = _parse_flags("ortho-szego", argv[:i], ())  # -h, --help or unknown flags
    if i is None or argv[i] not in _COMMANDS:
        raise _CliExit(EXIT_IO, "ortho-szego: the following arguments are required: command"
                       if i is None else f"ortho-szego: argument command: invalid choice: "
                       f"{argv[i]!r} (choose from {', '.join(map(repr, _COMMANDS))})")
    handler, _, flags = _COMMANDS[argv[i]]
    values, rest = _parse_flags(f"ortho-szego {argv[i]}", argv[i + 1:], flags)
    if extras + rest:
        raise _CliExit(EXIT_IO, f"ortho-szego: unrecognized arguments: {' '.join(extras + rest)}")
    return handler, SimpleNamespace(command=argv[i], **values)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        handler, args = parse_args(argv)
        return handler(args)
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


def run() -> None:
    """The program's entry point: run main(), then end the process with its
    exit code.

    Once the atexit callbacks have run and stdout and stderr are flushed,
    os._exit ends the process without the interpreter's teardown, which
    only frees memory the process is about to lose.  main() never ends the
    process, so in-process callers keep theirs; --help ends it with
    SystemExit(0), which ends this run the same way.  An unexpected
    exception leaves the usual way.  A stdout that cannot take the output
    gives one line and exit 1.
    """
    try:
        code = main()
    except SystemExit as exc:  # --help
        code = exc.code
    atexit._run_exitfuncs()
    note = ""
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except (OSError, ValueError) as exc:
        code, note = EXIT_IO, f"cannot write <stdout>: {exc}\n"
    try:
        if sys.stderr is not None:
            sys.stderr.write(note)
            sys.stderr.flush()
    except (OSError, ValueError):
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
