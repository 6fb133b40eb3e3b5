"""The CLI's own argument parser against the argparse parser it replaced.

`build_parser` below is a copy of the argparse parser the CLI used before it
read its arguments itself; it is the reference.  On every drawn argv both
must give the same flag values and handler, or refuse with the same exit
code and stderr bytes, or print help and exit 0 with the same first line.
"""

import argparse
import contextlib
import io
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fuzz import cli_argv

from ortho_szego import cli
from ortho_szego.cli import (
    EXIT_IO,
    _CliExit,
    cmd_eval,
    cmd_geronimus,
    cmd_perturb,
    cmd_verify,
    main,
)
from ortho_szego.tolerances import DEFAULT_TOLS


def build_parser() -> argparse.ArgumentParser:
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


def _reference(argv):
    args = vars(build_parser().parse_args(argv))
    return args.pop("func"), args


def _own(argv):
    handler, args = cli.parse_args(argv)
    return handler, vars(args)


def _outcome(parse, argv):
    """("accepted", handler, repr of each value), ("refused", code, stderr)
    or ("help", exit code, first line)."""
    out = io.StringIO()
    # no wrapping: the CLI's help writes its usage on one line
    with mock.patch.dict(os.environ, {"COLUMNS": "1000"}), contextlib.redirect_stdout(out):
        try:
            handler, args = parse(list(argv))
        except SystemExit as exc:
            return "help", exc.code, out.getvalue().splitlines()[0]
        except _CliExit as exc:
            return "refused", exc.code, exc.message + "\n"
    assert out.getvalue() == ""
    # repr tells 3 from 3.0 and '3' and matches nan with nan
    return "accepted", handler, {dest: repr(value) for dest, value in args.items()}


def _check(argv):
    want = _outcome(_reference, argv)
    assert _outcome(_own, argv) == want
    if want[0] == "refused":  # what main prints is what the reference raised
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(list(argv))
        assert (code, err.getvalue()) == want[1:]


# tokens argparse reads in some special way: prefixes (--s is ambiguous in
# perturb and verify, unique in eval), '=' values, negative numbers, help
# in every spelling, '--', and values that look like flags
SPECIAL = st.sampled_from([
    "geronimus", "perturb", "verify", "eval", "bogus", "", "fwd", "line", "lu", "0.3",
    "--dir", "--s", "--si", "--su", "--sp", "--i", "--o", "--p", "--d", "--de", "--t", "--b",
    "--n=3", "--n=-2", "--n=", "--in=x", "--in=", "--direction=fwd", "--side=top", "--tol=nan",
    "--points=-0.5j", "--points=0.3,1j", "--both-paths=1", "--both-paths=", "--bo=x",
    "-2", "-.5", "-1.5", "-1e300", "-0.5j", "-5\n", "-1.", "-x", "-in", "--bogus", "--=x", "--=",
    "-h", "--help", "--he", "--h", "-hh", "-hx", "-hhx", "-h=", "-h=h", "-h=x", "--help=x",
    "--help=", "-hh=x", "-h x", "-=", "--", "-", "---in", "--in x", "a b", "-a b", "@line",
])


@st.composite
def argv_with_specials(draw):
    argv = draw(cli_argv())
    for _ in range(draw(st.integers(0, 3))):
        argv.insert(draw(st.integers(0, len(argv))), draw(SPECIAL))
    return argv


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.one_of(argv_with_specials(), st.lists(SPECIAL, max_size=6)))
def test_drawn_argv_reads_as_argparse_read_it(argv):
    _check(argv)


@pytest.mark.parametrize("argv", [
    ["geronimus", "--dir", "fwd", "--in", "c.json"],
    ["perturb", "--in", "l.json", "--s", "line", "--spec", "s.json"],
    ["verify", "--s", "lu"],
    ["eval", "--in", "c.json", "--s", "circle", "--points=-0.5j"],
    ["eval", "--in", "c.json", "--side", "circle", "--points", "-0.5j"],
    ["eval", "--in", "l.json", "--side", "line", "--points", "-1e300"],
    ["eval", "--in", "l.json", "--side", "line", "--points", "-2", "--depth", "-.5"],
    ["geronimus", "--direction", "fwd", "--in", "c.json", "--n", "-2"],
    ["geronimus", "--direction", "fwd", "--direction", "inv", "--in", "a", "--in=b"],
    ["verify", "--suite", "lu", "--seed", "1", "--seed", "2", "--tol", "1e-3"],
    ["perturb", "--in", "l", "--spec", "s", "--side", "line", "--both-paths", "--both-paths"],
    ["geronimus", "--direction", "fwd", "-h", "--in"],
    ["eval", "--depth", "x", "-h"],
    ["eval", "--depth", "-h"],
    ["-h", "eval"],
    ["bogus", "-h"],
    ["verify", "--help"],
    [],
    ["--n", "3"],
    ["--n", "3", "verify", "--suite", "lu"],
    ["--both-paths", "perturb", "--in", "l", "--spec", "s", "--side", "line"],
    ["--", "verify", "--suite", "lu"],
    ["verify", "--suite", "lu", "--"],
    ["verify", "--suite", "lu", "--", "--seed", "3"],
    ["verify", "--suite", "--", "lu"],
    ["verify", "--suite", "lu", "stray", "--seed", "x"],
    ["verify", "--suite", "lu", "stray", "--bogus", "-x"],
    ["verify", "--seed", "x", "--s"],
    ["geronimus", "--direction", "sideways", "--in", "a"],
    ["perturb", "--in", "l", "--spec", "s", "--side", "line", "--both-paths=yes"],
], ids=lambda argv: " ".join(argv) or "empty")
def test_named_argv_reads_as_argparse_read_it(argv):
    _check(argv)


@pytest.mark.parametrize("argv", [[], ["geronimus"], ["perturb"], ["verify"], ["eval"]])
def test_help_first_line_matches(argv):
    kind, code, first = _outcome(_own, argv + ["--help"])
    assert (kind, code, first) == _outcome(_reference, argv + ["--help"])
    assert first.startswith(f"usage: {' '.join(['ortho-szego', *argv])} [-h]")
