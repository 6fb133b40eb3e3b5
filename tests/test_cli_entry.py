"""The program as users start it: `python -m ortho_szego.cli` and the
console script both run `cli.run`, which ends the process with os._exit
once the output is flushed.  Every command must leave the same exit code,
stdout, stderr and output file as `cli.main` gives in this process."""

import contextlib
import errno
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ortho_szego.cli import main

from test_cli import CIRCLE_24, LINE_12, UNKNOWN_SUITE_ERR

ROOT = Path(__file__).resolve().parent.parent

# argv for each case, run in a directory holding l.json (LINE_12), c.json
# (CIRCLE_24), bad.json (a support violation), ci.json (a complex a_0) and
# the spec files below; "out.json" is the output file of the --out cases
CASES = {
    "geronimus fwd": ["geronimus", "--direction", "fwd", "--in", "c.json"],
    "geronimus fwd --out": ["geronimus", "--direction", "fwd", "--in", "c.json",
                            "--out", "out.json"],
    "geronimus inv": ["geronimus", "--direction", "inv", "--in", "l.json", "--n", "5"],
    "geronimus inv --out": ["geronimus", "--direction", "inv", "--in", "l.json",
                            "--out", "out.json"],
    "perturb line": ["perturb", "--in", "l.json", "--spec", "codil.json", "--side", "line",
                     "--both-paths"],
    "perturb circle": ["perturb", "--in", "ci.json", "--spec", "assoc.json", "--side", "circle",
                       "--both-paths", "--out", "out.json"],
    "eval": ["eval", "--in", "c.json", "--side", "circle", "--points", "0.3,-0.5j",
             "--depth", "20"],
    "verify pass": ["verify", "--suite", "rel"],
    "verify fail": ["verify", "--suite", "rel", "--tol", "0"],
    "exit 1": ["geronimus", "--direction", "fwd", "--in", "missing.json"],
    "exit 2": ["geronimus", "--direction", "inv", "--in", "bad.json"],
    "exit 3": ["perturb", "--in", "c.json", "--spec", "codil.json", "--side", "circle"],
    "exit 4": ["verify", "--suite", "nope"],
    "--help": ["geronimus", "--help"],
}
CODES = {"exit 1": 1, "exit 2": 2, "exit 3": 3, "exit 4": 4, "verify fail": 5}


@pytest.fixture
def workdir(tmp_path):
    for name, text in (
            ("l.json", LINE_12), ("c.json", CIRCLE_24),
            ("bad.json", '{"b": [0.0], "d": [1.0]}'),
            ("ci.json", '{"alpha": [[0, 0.5], [0.1, 0], [0.2, 0], [0.3, 0], [0.1, 0]]}'),
            ("codil.json", '[{"kind": "co_dilated", "k": 2, "lambda": 0.75}]'),
            ("assoc.json", '[{"kind": "associated", "k": 1}]')):
        (tmp_path / name).write_text(text)
    return tmp_path


def _env():
    """This checkout's package on the path, and stdout buffered as by
    default, so that output the final flush does not push out is lost."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _run(workdir, *command):
    """(exit code, stdout, stderr, bytes of out.json or None) of a fresh
    interpreter running command in workdir."""
    (workdir / "out.json").unlink(missing_ok=True)
    done = subprocess.run([sys.executable, *command], cwd=workdir, capture_output=True,
                          env=_env(), timeout=60)
    out = workdir / "out.json"
    return done.returncode, done.stdout, done.stderr, out.read_bytes() if out.exists() else None


def _in_process(workdir, argv):
    """The same four of cli.main on argv in this process."""
    (workdir / "out.json").unlink(missing_ok=True)
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    finally:
        os.chdir(cwd)
    path = workdir / "out.json"
    return (code, out.getvalue().encode(), err.getvalue().encode(),
            path.read_bytes() if path.exists() else None)


@pytest.mark.parametrize("case", CASES)
def test_module_run_matches_main(workdir, case):
    want = _in_process(workdir, CASES[case])
    assert want[0] == CODES.get(case, 0)
    assert (want[3] is not None) == ("out.json" in CASES[case])
    assert _run(workdir, "-m", "ortho_szego.cli", *CASES[case]) == want


def test_console_script_matches_main(workdir):
    # the function pyproject.toml names, called as the generated wrapper calls it
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]")[1]
    module, name = re.search(r'^ortho-szego = "(.+):(.+)"$', scripts, re.MULTILINE).groups()
    probe = f"import sys; from {module} import {name}; sys.exit({name}())"
    argv = CASES["perturb line"]
    assert _run(workdir, "-c", probe, *argv) == _in_process(workdir, argv)


def test_atexit_callbacks_still_run(workdir):
    marker = workdir / "atexit-ran"
    probe = ("import atexit, runpy\n"
             f"atexit.register(lambda: open({str(marker)!r}, 'w').close())\n"
             "runpy.run_module('ortho_szego.cli', run_name='__main__')")
    assert _run(workdir, "-c", probe, *CASES["exit 4"]) == (4, b"", UNKNOWN_SUITE_ERR.encode(),
                                                            None)
    assert marker.exists()


def _env_unbuffered(unbuffered):
    env = _env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    return env


def _run_closed_stdout(argv, env):
    """(exit code, stderr) of the CLI on argv with stdout a pipe nobody reads."""
    read, write = os.pipe()
    os.close(read)  # no reader: every write to the pipe fails with EPIPE
    try:
        done = subprocess.run([sys.executable, "-m", "ortho_szego.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    return done.returncode, done.stderr.decode()


BROKEN_PIPE = f"cannot write <stdout>: {BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))}\n"


def _alpha_file(path, count):
    pairs = ["[0.25, 0]", "[-0.125, 0]"] * (count // 2)
    path.write_text('{"alpha": [' + ", ".join(pairs) + "]}")
    return path


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("count", [24, 6000])
def test_closed_stdout_is_one_line_exit_1(tmp_path, unbuffered, count):
    # 6000 coefficients print over 64 KiB, more than a pipe holds, and fail
    # while written; 24 fit in stdout's buffer, if it has one, and fail at
    # the final flush
    infile = _alpha_file(tmp_path / "alpha.json", count)
    argv = ["geronimus", "--direction", "fwd", "--in", str(infile)]
    assert _run_closed_stdout(argv, _env_unbuffered(unbuffered)) == (1, BROKEN_PIPE)


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [["verify", "--suite", "lu"], ["--help"]], ids=" ".join)
def test_closed_stdout_is_one_line_exit_1_for_verify_and_help(unbuffered, argv):
    # unbuffered, a print() to the pipe raised BrokenPipeError out of main;
    # buffered, --help's output failed in the interpreter's teardown
    assert _run_closed_stdout(argv, _env_unbuffered(unbuffered)) == (1, BROKEN_PIPE)


@pytest.mark.parametrize("argv", [["verify", "--suite", "lu"], ["--help"]], ids=" ".join)
def test_no_stdout_is_one_line_exit_1(argv):
    # started with file descriptor 1 closed, sys.stdout is None: writing to
    # it raised AttributeError, and print() dropped --help's text with exit 0
    done = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m",
                           "ortho_szego.cli", *argv], stderr=subprocess.PIPE, env=_env(),
                          timeout=60)
    bad_fd = OSError(errno.EBADF, os.strerror(errno.EBADF))
    assert (done.returncode, done.stderr.decode()) == (1, f"cannot write <stdout>: {bad_fd}\n")


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_reader_leaving_mid_write_is_one_line_exit_1(tmp_path, unbuffered):
    # 20000 coefficients print ~0.5 MB, far more than a pipe holds: the
    # reader takes one byte and leaves while the CLI is still writing.  The
    # unbuffered raw write then took part of the bytes, and the rest were
    # lost without an error
    infile = _alpha_file(tmp_path / "alpha.json", 20000)
    proc = subprocess.Popen(
        [sys.executable, "-m", "ortho_szego.cli", "geronimus", "--direction", "fwd",
         "--in", str(infile)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_env_unbuffered(unbuffered))
    try:
        assert len(proc.stdout.read(1)) == 1
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert (proc.wait(timeout=60), err) == (1, BROKEN_PIPE)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
