"""Seeded inputs, operations and output checks for the two workloads.

Every workload is built from its seed alone (``random.Random`` seeded
with ``"<workload>:<seed>"``), so the same seed gives the same inputs.
Each workload object offers:

    warm_up()        run a few operations before anything is timed
    op(i)            operation i, the only thing the timer covers
    replay(i)        operation i in this process (what the traced run spans)
    check(i, out)    True when the output of op(i) or replay(i) is right

Operation i uses job ``i % len(jobs)``.  Draws whose brute-force route
raises SupportViolation are rejected while generating; ``rejected`` counts
them.  Calls into the package go through module attributes
(``szego.geronimus_forward``), so the tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from ortho_szego import cli, oprl, perturb, serialize, spectral, szego
from ortho_szego.errors import SupportViolation
from ortho_szego.oprl import RealRecurrence
from ortho_szego.opuc import VerblunskySeq

ALPHA_BOUND = 0.35  # README's conditioning-bounded family
CLI_PAIRS = 20
EVAL_DEPTH = 40
BRIDGE_DEPTHS = (20, 60, 100)
FAMILIES = ("coprl", "assoc_line", "antiassoc_line", "assoc_circle",
            "antiassoc_circle", "symmetric", "sieved")
SHORT_SUITES = ("rel", "lu", "discrepancy")
MAX_TRIES = 1000  # per draw; more rejections than this aborts generation

# Roundtrip and pivot-route errors at |a| <= 0.35 have heavy tails: over
# 4000 draws per depth the medians were 1e-15 (n=20), 2e-14 (n=60) and
# 2e-13 (n=100), the worst 2e-12, 1e-8 and 5e-7, and one draw at n=100
# reached 1.3e-6.  The tolerances sit about 1000x above the worst seen; a
# wrong formula is off by 1e-2 or more.
ROUNDTRIP_TOL = {20: 1e-9, 60: 1e-5, 100: 1e-3}
PATHS_TOL = 1e-10   # closed form vs oracle (suites.DEFAULT_TOLS["theorems"])
BRIDGE_TOL = 1e-8   # F/S bridge identity (suites.DEFAULT_TOLS["bridge"])
EVAL_RTOL = 1e-12   # eval output vs in-process f_value

CLI_TIMEOUT_S = 60


def cli_env() -> dict:
    """Environment for CLI subprocesses: this package on PYTHONPATH and
    ORTHO_SZEGO_DEPTH unset (every job passes its depth explicitly)."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("ORTHO_SZEGO_DEPTH", None)
    return env


def draw_alphas(rng: random.Random, count: int) -> tuple[float, ...]:
    return tuple(rng.uniform(-ALPHA_BOUND, ALPHA_BOUND) for _ in range(count))


def _max_diff(a, b) -> float:
    """Largest entrywise difference of two coefficient objects (or tuples
    of them); infinite when their lengths differ."""
    if isinstance(a, tuple):
        return max(_max_diff(x, y) for x, y in zip(a, b))
    if isinstance(a, VerblunskySeq):
        pairs = [(a.alpha, b.alpha)]
    else:
        pairs = [(a.b, b.b), (a.d, b.d)]
    worst = 0.0
    for xs, ys in pairs:
        if len(xs) != len(ys):
            return math.inf
        worst = max([worst] + [abs(x - y) for x, y in zip(xs, ys)])
    return worst


# ---------------------------------------------------------------------------
# cli_jobs


@dataclass
class CliJob:
    kind: str
    argv: list[str]
    code: int = 0
    stderr_first: str | None = None  # expected prefix of the first stderr line
    notes: int = 0                   # expected "both-paths" deviation lines
    expect: object = None            # what check() compares the output with

    @property
    def out(self) -> str | None:
        return self.argv[self.argv.index("--out") + 1] if "--out" in self.argv else None


class CliJobs:
    """Each op is one ``python -m ortho_szego.cli ...`` run to exit."""

    name = "cli_jobs"
    # One round: a fresh 20-pair draw and these ten jobs in seeded order,
    # so about one op in ten is a documented error path.
    ROUND = ("fwd", "fwd", "inv", "inv", "perturb_line", "perturb_circle",
             "eval", "eval", "verify", "error")
    ROUNDS = 20
    trace_ops = 40  # replay four rounds: every spec kind, suite and exit code
    ref_reps = 8    # reference samples before and after each op (speed.py)

    def __init__(self, seed: int, workdir: str):
        self.workdir = Path(workdir)
        self.rejected = 0
        self.jobs: list[CliJob] = []
        rng = random.Random(f"cli_jobs:{seed}")
        for r in range(self.ROUNDS):
            vs = VerblunskySeq(draw_alphas(rng, 2 * CLI_PAIRS))
            rc = szego.geronimus_forward(vs, CLI_PAIRS)
            files = (self._write(f"a{r}.json", serialize.dumps_coefficients(vs)),
                     self._write(f"p{r}.json", serialize.dumps_coefficients(rc)))
            kinds = list(self.ROUND)
            rng.shuffle(kinds)
            for kind in kinds:
                out = f"o{len(self.jobs)}.json"
                self.jobs.append(getattr(self, "_" + kind)(rng, r, vs, rc, files, out))
        self.env = cli_env()

    def _write(self, name: str, text: str) -> str:
        (self.workdir / name).write_text(text)
        return name

    # -- job makers ---------------------------------------------------------

    def _fwd(self, rng, r, vs, rc, files, out):
        return CliJob("fwd", ["geronimus", "--direction", "fwd", "--in", files[0],
                              "--out", out], expect=vs)

    def _inv(self, rng, r, vs, rc, files, out):
        return CliJob("inv", ["geronimus", "--direction", "inv", "--in", files[1],
                              "--out", out], expect=rc)

    def _perturb_line(self, rng, r, vs, rc, files, out):
        kind = ("co_dilated", "co_recursive", "associated", "anti_associated")[r % 4]
        i = len(self.jobs)
        if kind == "anti_associated":
            # prepend the head of an admissible draw to its own tail, so the
            # perturbed sequence is the (admissible) draw itself
            k = rng.randint(1, 3)
            spec = {"kind": kind, "pre_b": list(rc.b[:k]), "pre_d": list(rc.d[:k])}
            base = oprl.shift_coefficients(rc, k)
        elif kind == "associated":
            spec, base = {"kind": kind, "k": rng.randint(1, 4)}, rc
        else:
            for _ in range(MAX_TRIES):
                if kind == "co_dilated":
                    spec = {"kind": kind, "k": rng.randint(1, 4),
                            "lambda": rng.uniform(0.6, 1.4)}
                else:
                    spec = {"kind": kind, "k": rng.randint(0, 4),
                            "tau": rng.uniform(-0.2, 0.2)}
                b, d = _apply_line(rc.b, rc.d, spec)
                try:  # brute-force route: invert the perturbed pairs
                    szego.geronimus_inverse(RealRecurrence(b, d), CLI_PAIRS)
                    break
                except SupportViolation:
                    self.rejected += 1
                    rc = szego.geronimus_forward(
                        VerblunskySeq(draw_alphas(rng, 2 * CLI_PAIRS)), CLI_PAIRS)
            else:
                raise RuntimeError(f"no admissible {kind} draw in {MAX_TRIES} tries")
            base = rc
        src = self._write(f"pl{i}.json", serialize.dumps_coefficients(base))
        spec_file = self._write(f"s{i}.json", json.dumps([spec]))
        return CliJob("perturb_line",
                      ["perturb", "--in", src, "--spec", spec_file, "--side", "line",
                       "--out", out, "--both-paths"],
                      notes=1, expect=_apply_line(base.b, base.d, spec))

    def _perturb_circle(self, rng, r, vs, rc, files, out):
        kind = ("associated", "anti_associated", "k_modification", "sieve")[r % 4]
        if kind == "associated":
            spec = {"kind": kind, "k": rng.randint(1, 5)}
        elif kind == "anti_associated":
            spec = {"kind": kind,
                    "xi": [rng.uniform(-0.8, 0.8) for _ in range(rng.randint(1, 4))]}
        elif kind == "k_modification":
            radius, t = 0.8 * math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi)
            spec = {"kind": kind, "k": rng.randrange(len(vs)),
                    "eta": [radius * math.cos(t), radius * math.sin(t)]}
        else:
            spec = {"kind": kind, "ell": rng.randint(2, 3)}
        spec_file = self._write(f"s{len(self.jobs)}.json", json.dumps([spec]))
        return CliJob("perturb_circle",
                      ["perturb", "--in", files[0], "--spec", spec_file, "--side",
                       "circle", "--out", out, "--both-paths"],
                      notes=1 if kind in ("associated", "anti_associated") else 0,
                      expect=_apply_circle(vs.alpha, spec))

    def _eval(self, rng, r, vs, rc, files, out):
        points = []
        for _ in range(3):
            t = rng.uniform(0, 2 * math.pi)
            points.append(rng.uniform(0.05, 0.6) * complex(math.cos(t), math.sin(t)))
        raw = ",".join(f"{p.real:.6f}{p.imag:+.6f}j" for p in points)
        handle = spectral.CFunctionHandle(vs, EVAL_DEPTH)
        want = [spectral.f_value(handle, complex(tok))[0] for tok in raw.split(",")]
        return CliJob("eval", ["eval", "--in", files[0], "--side", "circle",
                               f"--points={raw}",  # a leading "-" is not an option
                               "--depth", str(EVAL_DEPTH), "--out", out],
                      expect=want)

    def _verify(self, rng, r, vs, rc, files, out):
        suite = SHORT_SUITES[r % len(SHORT_SUITES)]
        return CliJob("verify", ["verify", "--suite", suite,
                                 "--seed", str(rng.randrange(10**6))])

    def _error(self, rng, r, vs, rc, files, out):
        code = (2, 3, 4)[r % 3]
        i = len(self.jobs)
        if code == 2:
            # d_{m+1} = 1 forces a_{2m+1} = -1 + 4/((1 - a_{2m-1})(1 - a_{2m}^2)) > 1
            m = rng.randint(1, CLI_PAIRS - 2)
            d = list(rc.d)
            d[m] = 1.0
            src = self._write(f"bad{i}.json",
                              serialize.dumps_coefficients(RealRecurrence(rc.b, d)))
            return CliJob("error", ["geronimus", "--direction", "inv", "--in", src,
                                    "--out", out],
                          code=2, stderr_first=f"support violation at index {2 * m + 1}: ")
        if code == 3:
            side, spec = rng.choice((("circle", {"kind": "co_dilated", "k": 1, "lambda": 0.5}),
                                     ("line", {"kind": "sieve", "ell": 2})))
            spec_file = self._write(f"s{i}.json", json.dumps([spec]))
            src = files[0] if side == "circle" else files[1]
            return CliJob("error", ["perturb", "--in", src, "--spec", spec_file,
                                    "--side", side, "--out", out],
                          code=3, stderr_first=f"{spec['kind']} does not apply on the {side} side")
        name = f"nosuch{rng.randrange(1000)}"
        return CliJob("error", ["verify", "--suite", name],
                      code=4, stderr_first=f"unknown suite {name!r}")

    # -- running and checking -----------------------------------------------

    def job(self, i: int) -> CliJob:
        return self.jobs[i % len(self.jobs)]

    def warm_up(self) -> None:
        for i in range(2):
            self.op(i)

    def before(self, i: int) -> None:
        """Remove the job's old output so a stale file cannot pass the check."""
        if self.job(i).out:
            (self.workdir / self.job(i).out).unlink(missing_ok=True)

    def op(self, i: int):
        proc = subprocess.run([sys.executable, "-m", "ortho_szego.cli", *self.job(i).argv],
                              cwd=self.workdir, env=self.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def replay(self, i: int):
        """The same job through ``cli.main`` in this process (run from
        inside the work directory, see ``in_workdir``)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.job(i).argv)
        return code, out.getvalue(), err.getvalue()

    def in_workdir(self):
        return contextlib.chdir(self.workdir)

    def check(self, i: int, result) -> bool:
        job = self.job(i)
        code, stdout, stderr = result
        lines = stderr.splitlines()
        if code != job.code:
            return False
        if job.stderr_first is not None:
            return bool(lines) and lines[0].startswith(job.stderr_first)
        if len(lines) != job.notes:
            return False
        for line in lines:
            m = re.fullmatch(r"both-paths .*: max deviation (\S+)", line)
            if m is None or not float(m.group(1)) <= PATHS_TOL:
                return False
        if job.kind == "verify":
            out = stdout.splitlines()
            return any(x.startswith("PASS ") for x in out) and \
                all(x.startswith(("PASS ", "NOTE ")) for x in out)
        text = (self.workdir / job.out).read_text()
        if job.kind == "eval":
            rows = [row.split("\t") for row in text.splitlines()[1:]]
            got = [complex(float(row[2]), float(row[3])) for row in rows]
            return len(got) == len(job.expect) and all(
                abs(g - w) <= EVAL_RTOL * (1.0 + abs(w)) for g, w in zip(got, job.expect))
        data = json.loads(text)
        if job.kind == "fwd":
            rc = RealRecurrence(data["b"], data["d"])
            back = szego.geronimus_inverse(rc, CLI_PAIRS)
            return _max_diff(back, job.expect) <= ROUNDTRIP_TOL[CLI_PAIRS]
        if job.kind == "inv":
            vs = VerblunskySeq(tuple(complex(re_, im) for re_, im in data["alpha"]))
            again = szego.geronimus_forward(vs, CLI_PAIRS)
            return _max_diff(again, job.expect) <= ROUNDTRIP_TOL[CLI_PAIRS]
        if job.kind == "perturb_line":
            return (data["b"], data["d"]) == job.expect
        return [complex(re_, im) for re_, im in data["alpha"]] == job.expect


def _apply_line(b, d, spec) -> tuple[list[float], list[float]]:
    """The benchmark's own reading of a line-side spec, for the output check."""
    b, d = list(b), list(d)
    kind = spec["kind"]
    if kind == "co_dilated":
        d[spec["k"] - 1] *= spec["lambda"]
    elif kind == "co_recursive":
        b[spec["k"]] += spec["tau"]
    elif kind == "associated":
        b, d = b[spec["k"]:], d[spec["k"]:]
    else:
        b, d = spec["pre_b"] + b, spec["pre_d"] + d
    return b, d


def _apply_circle(alpha, spec) -> list[complex]:
    """The benchmark's own reading of a circle-side spec."""
    alpha = list(alpha)
    kind = spec["kind"]
    if kind == "associated":
        return alpha[spec["k"]:]
    if kind == "anti_associated":
        return [complex(x) for x in spec["xi"]] + alpha
    if kind == "k_modification":
        alpha[spec["k"]] = complex(*spec["eta"])
        return alpha
    ell = spec["ell"]
    return [alpha[(j + 1) // ell - 1] if (j + 1) % ell == 0 else 0j
            for j in range(len(alpha) * ell)]


# ---------------------------------------------------------------------------
# bridge_kernels


@dataclass
class BridgeJob:
    n: int
    vs: VerblunskySeq
    family: str
    params: dict
    x: float  # line point for s_value
    z: float  # its image x - sqrt(x^2 - 1) inside the disc, for f_value


def run_family(job: BridgeJob, rc: RealRecurrence, path: str):
    """One perturbation family along one path; returns its coefficients."""
    p, n = job.params, job.n
    if job.family == "coprl":
        return perturb.coprl_verblunsky(rc, p["k"], p["lam"], p["tau"], n, path=path)
    if job.family == "assoc_line":
        return perturb.assoc_oprl_to_verblunsky(rc, p["k"], n - p["k"], path=path)
    if job.family == "antiassoc_line":
        k = p["k"]
        return perturb.antiassoc_oprl_to_verblunsky(
            oprl.shift_coefficients(rc, k), rc.b[:k], rc.d[:k], n, path=path)
    if job.family == "assoc_circle":
        k = p["k"]
        return perturb.assoc_opuc_to_recurrence(job.vs, k, n - (k + 1) // 2 - 1, path=path)
    if job.family == "antiassoc_circle":
        return perturb.antiassoc_opuc_to_recurrence(job.vs, p["xi"], n - 2, path=path)
    if job.family == "symmetric":
        return (perturb.symmetric_verblunsky(p["d"], path=path),
                perturb.symmetric_codilated_verblunsky(p["d"], p["k"], p["lam"], path=path))
    return (perturb.sieve2_recurrence(job.vs, n, path=path),
            perturb.sieved_kmod_recurrence(job.vs, p["k"], p["eta"], n, path=path))


def _family_params(rng: random.Random, family: str, alpha, n: int) -> dict:
    """Parameter ranges follow suites.suite_theorems."""
    if family == "coprl":
        return {"k": rng.randint(1, 4), "lam": rng.uniform(0.6, 1.4),
                "tau": rng.uniform(-0.2, 0.2)}
    if family in ("assoc_line", "antiassoc_line"):
        return {"k": rng.randint(0 if family == "assoc_line" else 1, 4)}
    if family == "assoc_circle":
        return {"k": rng.randint(0, 5)}
    if family == "antiassoc_circle":
        return {"xi": tuple(rng.uniform(-0.8, 0.8) for _ in range(rng.randint(1, 5)))}
    if family == "symmetric":
        # b == 0 pairs of the draw's odd coefficients (even ones set to 0):
        # d_{m+1} = (1 - a_{2m-1})(1 + a_{2m+1}) / 4, with a_{-1} = -1
        odd = [-1.0] + [alpha[2 * m + 1] for m in range(n)]
        d = tuple(0.25 * (1.0 - odd[m]) * (1.0 + odd[m + 1]) for m in range(n))
        return {"d": d, "k": rng.randint(1, 5), "lam": rng.uniform(0.6, 1.4)}
    return {"k": rng.randint(0, n - 2), "eta": rng.uniform(-0.8, 0.8)}


def bridge_draw(rng: random.Random, family: str, n: int) -> tuple[BridgeJob, int]:
    """One admissible draw at depth n, and how many draws were rejected first."""
    for rejected in range(MAX_TRIES):
        alpha = draw_alphas(rng, 2 * n)
        x = rng.choice((-1.0, 1.0)) * rng.uniform(1.5, 3.0)
        job = BridgeJob(n, VerblunskySeq(alpha), family, _family_params(rng, family, alpha, n),
                        x, x - math.copysign(math.sqrt(x * x - 1.0), x))
        try:
            run_family(job, szego.geronimus_forward(job.vs, n), perturb.ORACLE)
            return job, rejected
        except SupportViolation:
            pass
    raise RuntimeError(f"no admissible {family} draw at n={n} in {MAX_TRIES} tries")


class BridgeKernels:
    """Each op is one bridge job on one admissible draw, in process."""

    name = "bridge_kernels"
    POOL = 210               # ten draws per (family, depth)
    trace_ops = 63           # three per (family, depth)
    ref_reps = 1             # reference samples before and after each op

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"bridge_kernels:{seed}")
        self.rejected = 0
        self.jobs = []
        for i in range(self.POOL):
            job, rejected = bridge_draw(rng, FAMILIES[i % len(FAMILIES)],
                                        BRIDGE_DEPTHS[(i // len(FAMILIES)) % len(BRIDGE_DEPTHS)])
            self.jobs.append(job)
            self.rejected += rejected

    def warm_up(self) -> None:
        for i in range(len(FAMILIES) * len(BRIDGE_DEPTHS)):  # every (family, depth)
            self.op(i)

    def before(self, i: int) -> None:
        pass

    def op(self, i: int):
        job = self.jobs[i % len(self.jobs)]
        n = job.n
        rc = szego.geronimus_forward(job.vs, n)
        back = szego.geronimus_inverse(rc, n)
        pivots = szego.alpha_from_v(szego.v_from_recurrence(rc, 2 * n))
        closed = run_family(job, rc, perturb.CLOSED_FORM)
        oracle = run_family(job, rc, perturb.ORACLE)
        s, _ = spectral.s_value(spectral.SFunctionHandle(rc, min(EVAL_DEPTH, n)), job.x)
        f, _ = spectral.f_value(spectral.CFunctionHandle(job.vs, EVAL_DEPTH), job.z)
        return back, pivots, closed, oracle, s, f

    replay = op

    def in_workdir(self):
        return contextlib.nullcontext()

    def check(self, i: int, result) -> bool:
        job = self.jobs[i % len(self.jobs)]
        back, pivots, closed, oracle, s, f = result
        tol = ROUNDTRIP_TOL[job.n]
        z = job.z
        return (_max_diff(back, job.vs) <= tol
                and _max_diff(pivots, back) <= tol
                and _max_diff(closed, oracle) <= PATHS_TOL
                and abs(f - (1.0 - z * z) / (2.0 * z) * s) <= BRIDGE_TOL)


WORKLOADS = {w.name: w for w in (CliJobs, BridgeKernels)}
