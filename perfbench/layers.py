"""Per-layer measurement: a span tracer and fixed-input probes.

The tracer wraps every public module-level function of the package's
layers for the length of a traced pass and records one span per call:
name, start, end, parent span and op id.  The wrappers live here and
replace module attributes only while the pass runs; nothing under src/
changes.  Spans stay in memory until ``write``.

The probes time single public functions on fixed inputs drawn from the
run's seed, with tracing off, and the interpreter start-up through
subprocesses (``python -X importtime`` for the import breakdown).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import random
import statistics
import subprocess
import sys
import time
import types

from ortho_szego import oprl, opuc, perturb, polyhom, serialize, spectral, suites, szego
from ortho_szego.errors import SupportViolation
from ortho_szego.opuc import VerblunskySeq

import workloads

LAYERS = ("cli", "serialize", "szego", "perturb", "spectral", "polyhom", "oprl",
          "opuc", "suites")
# Layers whose self time and call count the traced pass reports.
# bridge_kernels calls into neither polyhom nor suites and cli_jobs never
# into polyhom, so theirs would read 0 on every run of a workload; the
# probes measure those two layers.
SELF_MS = ("szego", "perturb", "spectral", "oprl", "opuc")
CALLS = ("serialize", "szego", "perturb", "spectral")


class Tracer:
    """Spans around calls into the package's public functions."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, op]
        self._child_ns: list[int] = []
        self._stack: list[int] = []
        self._op = None
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, child_ns, stack, clock = self.spans, self._child_ns, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:  # checks between ops are not traced
                return fn(*args, **kwargs)
            idx, parent = len(spans), (stack[-1] if stack else -1)
            spans.append([name, clock(), 0, parent, self._op])
            child_ns.append(0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][2] = end
                if parent >= 0:
                    child_ns[parent] += end - spans[idx][1]

        return wrapper

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ortho_szego.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        # `from .szego import f` binds f in every importing module: patch all
        for name, mod in list(sys.modules.items()):
            if name == "ortho_szego" or name.startswith("ortho_szego."):
                for attr, obj in list(vars(mod).items()):
                    if isinstance(obj, types.FunctionType) and obj in wrapped:
                        self._patched.append((mod, attr, obj))
                        setattr(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in self._patched:
            setattr(mod, attr, obj)
        self._patched.clear()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one operation; layer spans opened inside are its children."""
        idx = len(self.spans)
        self.spans.append(["bench.op", time.perf_counter_ns(), 0, -1, op_id])
        self._child_ns.append(0)
        self._stack.append(idx)
        self._op = op_id
        try:
            yield
        finally:
            self._op = None
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter_ns()

    def per_layer(self) -> tuple[dict, dict]:
        """Self time (ns) and call count per layer."""
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        for (name, start, end, _, _), child in zip(self.spans, self._child_ns):
            layer = name.split(".")[0]
            self_ns[layer] = self_ns.get(layer, 0) + (end - start - child)
            calls[layer] = calls.get(layer, 0) + 1
        return self_ns, calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# Probes


def per_call_us(fn, batches: int = 9, batch_s: float = 0.003) -> float:
    """Median over batches of the mean time per call, in microseconds."""
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    reps = max(1, int(batch_s / once))
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples) * 1e6


def _wall_ms(argv, env, repeats: int) -> float:
    """Median wall time of a subprocess run to exit."""
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, capture_output=True, check=True, timeout=60)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls) * 1e3


def startup_probes(env) -> dict:
    """Cold start next to its floor, and the ``-X importtime`` breakdown."""
    py = sys.executable
    out = {
        "startup.bare_interpreter_ms": _wall_ms([py, "-c", "pass"], env, 7),
        "startup.import_cli_ms": _wall_ms([py, "-c", "import ortho_szego.cli"], env, 7),
    }
    numpy_us, pkg_us = [], []
    for _ in range(3):
        err = subprocess.run([py, "-X", "importtime", "-c", "import ortho_szego.cli"],
                             env=env, capture_output=True, text=True, check=True,
                             timeout=60).stderr
        numpy, pkg = 0, 0
        for line in err.splitlines():
            # "import time:   self [us] |  cumulative | imported package"
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            module = parts[2].strip()
            if module == "numpy":
                numpy = int(parts[1])
            if module == "ortho_szego" or module.startswith("ortho_szego."):
                pkg += int(parts[0])
        numpy_us.append(numpy)
        pkg_us.append(pkg)
    out["startup.importtime_numpy_us"] = statistics.median(numpy_us)
    out["startup.importtime_pkg_self_us"] = statistics.median(pkg_us)
    out["startup.modules_loaded"] = int(subprocess.run(
        [py, "-c", "import sys, ortho_szego.cli; print(len(sys.modules))"],
        env=env, capture_output=True, text=True, check=True, timeout=60).stdout)
    return out


def cli_probes(jobs) -> dict:
    """In-process ``cli.main`` per subcommand, and the share of a subprocess
    run that is start-up, on the first job of each kind."""
    kinds = {"geronimus": "inv", "perturb": "perturb_line", "eval": "eval", "verify": "verify"}
    out, inproc, sub = {}, 0.0, 0.0
    with jobs.in_workdir():
        for command, kind in kinds.items():
            i = next(i for i, job in enumerate(jobs.jobs) if job.kind == kind)
            jobs.replay(i)
            ms = per_call_us(lambda: jobs.replay(i), batches=5, batch_s=0.01) / 1e3
            out[f"cli.main_ms.{command}"] = ms
            inproc += ms
            walls = []
            for _ in range(3):
                t0 = time.perf_counter()
                jobs.op(i)
                walls.append(time.perf_counter() - t0)
            sub += statistics.median(walls) * 1e3
    out["cli.startup_share"] = 1.0 - inproc / sub
    return out


def kernel_probes(seed: int) -> dict:
    """Single public functions on fixed inputs drawn from the seed."""
    rng = random.Random(f"probes:{seed}")
    vs = {n: VerblunskySeq(workloads.draw_alphas(rng, 2 * n)) for n in (20, 40, 60, 100)}
    rc = {n: szego.geronimus_forward(vs[n], n) for n in vs}
    out = {}
    for n in (20, 60, 100):
        out[f"szego.forward_us.n{n}"] = per_call_us(lambda: szego.geronimus_forward(vs[n], n))
        out[f"szego.inverse_us.n{n}"] = per_call_us(lambda: szego.geronimus_inverse(rc[n], n))
    v60 = szego.v_from_recurrence(rc[60], 120)
    out["szego.v_from_recurrence_us.n60"] = per_call_us(lambda: szego.v_from_recurrence(rc[60], 120))
    out["szego.alpha_from_v_us.n60"] = per_call_us(lambda: szego.alpha_from_v(v60))
    vs8 = szego.geronimus_inverse(rc[20], 8)
    out["szego.check_rel_us"] = per_call_us(lambda: szego.check_rel(rc[20], vs8, 6, 1.1))
    v16 = szego.v_from_recurrence(rc[20], 16)
    out["szego.lu_check_us"] = per_call_us(lambda: szego.lu_check(rc[20], v16, 8))

    for family in workloads.FAMILIES:
        job, _ = workloads.bridge_draw(rng, family, 60)
        job_rc = szego.geronimus_forward(job.vs, 60)
        for path, label in ((perturb.CLOSED_FORM, "closed_us"), (perturb.ORACLE, "oracle_us")):
            out[f"perturb.{family}.{label}"] = per_call_us(
                lambda: workloads.run_family(job, job_rc, path))
    for _ in range(workloads.MAX_TRIES):  # an admissible co-recursive shift
        tau = rng.uniform(-0.2, 0.2)
        try:
            perturb.perturbed_alpha_lu(rc[20], 2, 1.0, tau, 10, path=perturb.SHORTCUT)
            break
        except SupportViolation:
            continue
    else:
        raise RuntimeError("no admissible tau for the LU shortcut probe")
    out["perturb.lu_shortcut_us"] = per_call_us(
        lambda: perturb.perturbed_alpha_lu(rc[20], 2, 1.0, tau, 10, path=perturb.SHORTCUT))

    s40 = spectral.SFunctionHandle(rc[40], 40)
    c40 = spectral.CFunctionHandle(vs[20], 40)
    out["spectral.s_value_us.d40"] = per_call_us(lambda: spectral.s_value(s40, 2.0))
    out["spectral.f_value_us.d40"] = per_call_us(lambda: spectral.f_value(c40, 0.3 + 0.2j))
    out["spectral.transfer_matrix_us"] = per_call_us(lambda: spectral.matrix_B_assoc(rc[40], 3))
    out["spectral.fs_bridge_check_us"] = per_call_us(
        lambda: spectral.fs_bridge_check(rc[60], 2.0, 40, vs=vs[60]))
    m1 = spectral.matrix_B_assoc(rc[60], 1)
    shifted = oprl.shift_coefficients(rc[60], 1)
    out["spectral.conjugate_check_us"] = per_call_us(lambda: spectral.szego_conjugate_check(
        m1, rc[60], shifted, 0.3, side="line", depth=40))
    m3 = spectral.matrix_B_assoc(rc[40], 3)
    out["polyhom.homography_apply_us"] = per_call_us(lambda: polyhom.homography_apply(m3, 0.4, 2.0))
    out["oprl.eval_us.n40"] = per_call_us(lambda: oprl.oprl_eval(rc[40], 40, 2.0))
    out["opuc.eval_us.n40"] = per_call_us(lambda: opuc.opuc_eval(vs[20], 40, 0.3 + 0.2j))

    text = serialize.dumps_coefficients(rc[20])
    specs = json.dumps([{"kind": "co_dilated", "k": 1, "lambda": 0.5},
                        {"kind": "anti_associated", "pre_b": [0.1], "pre_d": [0.2]}])
    out["serialize.loads_us"] = per_call_us(lambda: serialize.loads_coefficients(text))
    out["serialize.dumps_us"] = per_call_us(lambda: serialize.dumps_coefficients(rc[20]))
    out["serialize.specs_us"] = per_call_us(lambda: serialize.specs_from_text(specs))

    for name in suites.suite_names():
        walls = []
        for s in (seed, seed + 1, seed + 2):
            t0 = time.perf_counter()
            suites.run_suite(name, seed=s)
            walls.append(time.perf_counter() - t0)
        out[f"suites.{name}_ms"] = statistics.median(walls) * 1e3
    return out

