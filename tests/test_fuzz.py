"""Fuzz the file loaders and the command line on generated files and argv.

Every input must end in a value or a documented error: no exception escapes
the loaders other than the ones the CLI maps to an exit code, the CLI exits
with one of the codes 0-5, and no traceback reaches stderr.  The examples are derandomized
so that a run of the suite does not depend on luck.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ortho_szego.cli import main
from ortho_szego.errors import InvalidEta, OrthoError
from ortho_szego.oprl import RealRecurrence, chebyshev_t
from ortho_szego.opuc import VerblunskySeq
from ortho_szego.perturb import SPECS
from ortho_szego.serialize import dumps_coefficients, loads_coefficients, specs_from_text

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

# Scalars a hand-written or corrupted file may hold; float("nan") and the
# infinities reach json.dumps as NaN/Infinity, which json.loads accepts.
SCALARS = st.one_of(
    st.floats(-1.5, 1.5),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 40),
    st.sampled_from([10**400, True, None, "x", "0.5", [], {}]),
)
COEFF_KEYS = st.sampled_from(["b", "d", "alpha", "v", "junk"])


def _line(pairs) -> str:
    return json.dumps({"b": [b for b, _ in pairs], "d": [d for _, d in pairs]})


# well-formed files, mostly admissible, so that commands get past the loader
LINE_DATA = st.lists(st.tuples(st.floats(-0.3, 0.3), st.floats(0.05, 0.3)),
                     min_size=4, max_size=12).map(_line)
CIRCLE_DATA = st.lists(st.lists(st.floats(-0.9, 0.9), min_size=2, max_size=2),
                       min_size=4, max_size=24).map(lambda a: json.dumps({"alpha": a}))
COEFF_FILES = st.one_of(
    st.text(max_size=40),
    st.dictionaries(COEFF_KEYS, st.one_of(
        st.lists(SCALARS, max_size=8),
        st.lists(st.lists(SCALARS, max_size=3), max_size=8),
        SCALARS,
    ), max_size=4).map(json.dumps),
    LINE_DATA,
    CIRCLE_DATA,
)


def _mostly(good, other):
    """good three times in four, other otherwise."""
    return st.integers(0, 3).flatmap(lambda i: other if i == 3 else good)


# the loader test covers malformed files; the CLI mostly gets loadable ones
LINE_FILES = _mostly(LINE_DATA, COEFF_FILES)
CIRCLE_FILES = _mostly(CIRCLE_DATA, COEFF_FILES)

SMALL = st.floats(-0.9, 0.9)
VALID_SPECS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("co_dilated"), "k": st.integers(1, 6),
                           "lambda": st.floats(0.2, 2.0)}),
    st.fixed_dictionaries({"kind": st.just("co_recursive"), "k": st.integers(0, 6),
                           "tau": st.floats(-0.2, 0.2)}),
    st.fixed_dictionaries({"kind": st.just("k_modification"), "k": st.integers(0, 6),
                           "eta": st.one_of(SMALL, st.lists(SMALL, min_size=2, max_size=2))}),
    st.fixed_dictionaries({"kind": st.just("associated"), "k": st.integers(0, 6)}),
    st.fixed_dictionaries({"kind": st.just("anti_associated"),
                           "pre_b": st.lists(st.floats(-0.3, 0.3), max_size=3),
                           "pre_d": st.lists(st.floats(0.05, 0.3), max_size=3)}),
    st.fixed_dictionaries({"kind": st.just("anti_associated"),
                           "xi": st.lists(SMALL, max_size=3)}),
    st.fixed_dictionaries({"kind": st.just("sieve"), "ell": st.integers(1, 4)}),
)
SPEC_FIELDS = st.fixed_dictionaries({}, optional={
    "k": st.one_of(st.integers(-2, 30), SCALARS),
    "lambda": st.one_of(st.floats(0.1, 2.0), SCALARS),
    "tau": SCALARS,
    "eta": st.one_of(SCALARS, st.lists(SCALARS, max_size=3)),
    "ell": st.one_of(st.integers(-1, 4), st.sampled_from([10**7, 10**30]), SCALARS),
    "pre_b": st.one_of(st.lists(SCALARS, max_size=3), SCALARS),
    "pre_d": st.one_of(st.lists(SCALARS, max_size=3), SCALARS),
    "xi": st.one_of(st.lists(st.one_of(SCALARS, st.lists(SCALARS, max_size=3)), max_size=3),
                    SCALARS),
})
SPEC_ENTRIES = st.one_of(
    VALID_SPECS,
    st.builds(lambda kind, fields: {"kind": kind, **fields},
              st.one_of(st.sampled_from(sorted(SPECS)), SCALARS), SPEC_FIELDS),
    SCALARS,
)
SPEC_FILES = st.one_of(
    st.lists(VALID_SPECS, min_size=1, max_size=2).map(json.dumps),
    st.lists(SPEC_ENTRIES, max_size=3).map(json.dumps),
    SPEC_ENTRIES.map(json.dumps),
    st.text(max_size=30),
)


@FUZZ
@given(COEFF_FILES)
def test_loads_coefficients_returns_a_value_or_raises_ortho_error(text):
    try:
        value = loads_coefficients(text)
    except OrthoError:
        return
    assert isinstance(value, (RealRecurrence, VerblunskySeq))


@FUZZ
@given(SPEC_FILES)
def test_specs_from_text_returns_specs_or_a_mapped_error(text):
    # cmd_perturb maps a ValueError to exit 3 and an OrthoError to exit 1
    try:
        specs = specs_from_text(text)
    except (OrthoError, ValueError):
        return
    assert all(spec.kind in SPECS for spec in specs)


def _refusal(read, text: str, prefix: str):
    """The message after the file kind's prefix when ``read`` refuses a
    number in ``text``, None when it reads it."""
    try:
        read(text)
    except InvalidEta:  # the eta bound, checked on the number once read
        return None
    except OrthoError as exc:
        assert str(exc).startswith(prefix), exc
        return str(exc)[len(prefix):]
    return None


@FUZZ
@given(SCALARS)
def test_one_number_rule_in_both_file_kinds(x):
    # the same scalar as a b entry of a line file, a tau field and the real
    # part of an eta pair
    verdicts = {
        _refusal(loads_coefficients, json.dumps({"b": [x, 0.1], "d": [0.3, 0.2]}),
                 "malformed coefficient file: "),
        _refusal(specs_from_text, json.dumps({"kind": "co_recursive", "k": 0, "tau": x}),
                 "perturbation entry 0 (co_recursive): missing or malformed field: "),
        _refusal(specs_from_text, json.dumps({"kind": "k_modification", "k": 0, "eta": [x, 0]}),
                 "perturbation entry 0 (k_modification): missing or malformed field: "),
    }
    assert len(verdicts) == 1, verdicts


NUMBER_ARGS = st.sampled_from(["0", "-3", "1", "2", "5", "40", "99999999999", "abc"])
POINTS = st.lists(st.sampled_from(
    ["2.0", "0.3", "-1.5", "0.5", "1j", "3+4j", "0", "nan", "inf", "1e308", "x", " "]),
    min_size=1, max_size=3).map(",".join)
# flag -> its values; an "@name" value is the path FILES gives name in the
# fuzz directory
OPTIONS = {
    "--direction": st.sampled_from(["fwd", "inv", "sideways"]),
    "--in": st.sampled_from(["@line", "@circle", "@missing", "@dir"]),
    "--spec": st.sampled_from(["@spec", "@line", "@missing"]),
    "--side": st.sampled_from(["line", "circle", "top"]),
    "--out": st.sampled_from(["@out", "@dir", "@missing/out"]),
    "--n": NUMBER_ARGS,
    "--depth": NUMBER_ARGS,
    "--seed": NUMBER_ARGS,
    "--tol": st.sampled_from(["1e-10", "nan", "-1", "inf", "abc"]),
    "--suite": st.sampled_from(["lu", "rel", "discrepancy", "nope"]),
    "--points": POINTS,
    "--both-paths": st.none(),
}
# An invocation of each command with its required flags (a strategy stands
# for a drawn value), and the flags each command accepts.  A fuzzed argv is
# one of these plus a few flags drawn from OPTIONS; the CLI keeps the last
# value of a repeated flag, so an added flag can replace a valid one.
INVOCATIONS = [
    ["geronimus", "--direction", "fwd", "--in", "@circle", "--n", NUMBER_ARGS],
    ["geronimus", "--direction", "inv", "--in", "@line"],
    ["perturb", "--in", "@line", "--spec", "@spec", "--side", "line"],
    ["perturb", "--in", "@circle", "--spec", "@spec", "--side", "circle", "--both-paths"],
    ["verify", "--suite", "rel", "--seed", NUMBER_ARGS],
    ["eval", "--in", "@line", "--side", "line", "--points", POINTS, "--depth", NUMBER_ARGS],
    ["eval", "--in", "@circle", "--side", "circle", "--points", "0.3", "--depth", "4"],
    ["bogus"],
]
FLAGS = {
    "geronimus": ("--direction", "--in", "--out", "--n"),
    "perturb": ("--in", "--spec", "--side", "--out", "--both-paths"),
    "verify": ("--suite", "--tol", "--seed"),
    "eval": ("--in", "--side", "--points", "--depth", "--out"),
    "bogus": (),
}
FILES = {"line": "line.json", "circle": "circle.json", "spec": "spec.json",
         "missing": "missing.json", "dir": "dir", "out": "out.txt",
         "missing/out": "missing/out.txt"}


@st.composite
def cli_argv(draw):
    argv = [draw(token) if isinstance(token, st.SearchStrategy) else token
            for token in draw(st.sampled_from(INVOCATIONS))]
    if len(argv) > 1 and draw(st.integers(0, 9)) == 0:
        del argv[-2:]  # cut the last flag, usually a required one
    # mostly flags the command accepts, sometimes any flag
    own = st.sampled_from(FLAGS[argv[0]] or sorted(OPTIONS))
    for flag in draw(st.lists(st.one_of(own, own, own, st.sampled_from(sorted(OPTIONS))),
                              max_size=3)):
        value = draw(OPTIONS[flag])
        argv += [flag] if value is None else [flag, value]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "dir").mkdir()
    return path


@FUZZ
@given(argv=cli_argv(), line=LINE_FILES, circle=CIRCLE_FILES, spec=SPEC_FILES)
def test_cli_exits_with_a_documented_code(fuzz_dir, argv, line, circle, spec):
    for name, text in (("line", line), ("circle", circle), ("spec", spec)):
        (fuzz_dir / FILES[name]).write_text(text)
    argv = [str(fuzz_dir / FILES[a[1:]]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    # a usage error returns 1 like any input error, so no SystemExit
    # escapes (no fuzzed argv asks for --help)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(6)
    assert "Traceback" not in err.getvalue()
    if code not in (0, 5):  # every error says what went wrong; 5 prints FAIL lines
        assert err.getvalue()


def _scaled(low: int, high: int):
    """Floats +-m * 10^e with 1 <= m < 10 and e in [low, high]."""
    return st.builds(lambda sign, m, e: sign * float(f"{m!r}e{e}"), st.sampled_from((1.0, -1.0)),
                     st.floats(1.0, 9.99), st.integers(low, high))


HUGE = _scaled(4, 307)
TINY = st.one_of(st.just(0.0), _scaled(-323, -4))
# a huge real or imaginary part; the other part anything
HUGE_POINTS = st.tuples(st.booleans(), HUGE, st.one_of(HUGE, TINY)).map(
    lambda t: complex(t[1], t[2]) if t[0] else complex(t[2], t[1]))
TINY_POINTS = st.builds(complex, TINY, TINY)
EVAL_FUZZ = settings(FUZZ, max_examples=60)  # each example runs a whole eval


def _eval(fuzz_dir, side: str, points) -> tuple[int, list[list[float]], str]:
    """Run eval on a fixed admissible file; the exit code, the value
    columns of each row, and stderr."""
    src = fuzz_dir / f"{side}_fixed.json"
    src.write_text(dumps_coefficients(
        chebyshev_t(40) if side == "line" else VerblunskySeq((0.5, -0.3, 0.2, 0.1) * 10)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", "--in", str(src), "--side", side,
                     "--points=" + ",".join(map(repr, points))])
    rows = [[float(field) for field in line.split("\t")[2:4]]
            for line in out.getvalue().splitlines()[1:]]
    return code, rows, err.getvalue()


@EVAL_FUZZ
@given(st.lists(HUGE_POINTS, min_size=1, max_size=3))
def test_eval_huge_line_points_give_one_over_x(fuzz_dir, points):
    # S(x) = 1/x (1 + O(1/x^2)) for a measure on [-1, 1]; unscaled, the
    # convergent states overflowed for |x| >= ~1e8
    code, rows, err = _eval(fuzz_dir, "line", points)
    assert (code, err) == (0, "")
    for x, (re, im) in zip(points, rows):
        assert complex(re, im) == pytest.approx(1 / x, rel=1e-6)


@EVAL_FUZZ
@given(st.lists(TINY_POINTS, min_size=1, max_size=3), st.sampled_from(["line", "circle"]))
def test_eval_tiny_points_end_in_a_value_or_an_error(fuzz_dir, points, side):
    code, rows, err = _eval(fuzz_dir, side, points)
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 0:
        assert all(math.isfinite(v) for row in rows for v in row)
    else:
        assert err
