"""ortho-szego benchmark: two seeded workloads behind one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it needs nothing beyond the repository
and the interpreter.  Workloads (see workloads.py):

    cli_jobs        one `python -m ortho_szego.cli` run per op, cold start included
    bridge_kernels  one in-process bridge job per op at depth 20, 60 or 100

``--trace 0`` sets the workload up SETUPS times, each in a fresh process
(setup_s is their median), and times a closed loop in one more.  Times
are scaled to a nominal host speed, read from a reference loop run
around each op and each set-up (speed.py); the raw times are recorded
too.
``--trace 1`` runs the per-layer probes and a traced replay instead.
Every op's output is checked outside its timed region.  The last stdout
line is one JSON object {correct, attempted, failed, metrics}; the full
record, with the environment it ran on, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUPS = 5
DEADLINE_S = 170  # every run ends within 180 s

# metric names and units, in the order they are printed
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _metrics(values: dict, kind: str) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}


class Worker:
    """A worker process; set-up is timed from spawn to its READY line."""

    def __init__(self, mode: str, args, deadline: float):
        self.deadline = deadline
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("ORTHO_SZEGO_DEPTH", None)
        t0 = time.perf_counter()
        # unbuffered, so reading the READY line reads nothing after it
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), mode, args.workload,
             str(args.seed), str(args.seconds), str(RESULTS)],
            stdout=subprocess.PIPE, bufsize=0, env=env)
        try:
            left = deadline - time.monotonic()
            if not select.select([self.proc.stdout], [], [], max(left, 0))[0] \
                    or self.proc.stdout.readline() != b"READY\n":
                raise RuntimeError(f"{args.workload} worker failed during set-up")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def result(self) -> dict:
        """The worker's last stdout line, once it has exited with code 0."""
        try:
            out, _ = self.proc.communicate(timeout=max(self.deadline - time.monotonic(), 0.1))
            if self.proc.returncode != 0 or not out.strip():
                raise RuntimeError("worker failed")
            return json.loads(out.decode().strip().splitlines()[-1])
        finally:
            self.stop()

    def stop(self, grace: float = 0.0) -> None:
        """Wait up to `grace` seconds for the worker to exit, then kill it."""
        try:
            self.proc.wait(grace)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def environment(cpus: set) -> dict:
    """What the numbers ran on; `cpus` are the CPUs the run was allowed."""
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, ortho_szego.cli; print('numpy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True,
        text=True, timeout=60)
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=60)
        commit = git.stdout.strip() or None
    return {"python": sys.version.split()[0], "nproc": len(cpus),
            "pinned_cpu": min(os.sched_getaffinity(0)),
            "numpy": numpy, "git_commit": commit,
            "package_imports_numpy": probe.stdout.strip() == "True"}


def _setup(args, deadline: float) -> tuple[float, float]:
    """One set-up in a fresh process: (seconds scaled to the nominal host
    speed, raw seconds).  Reference samples right before the spawn and
    right after the exit give the scale (speed.py)."""
    scale = speed.Scale()
    scale.add(speed.sample(speed.WINDOW // 2))
    w = Worker("setup", args, deadline)
    w.stop(grace=max(deadline - time.monotonic(), 0.0))  # it cleans up and exits
    scale.add(speed.sample(speed.WINDOW // 2))
    return w.setup_s * scale.factor(), w.setup_s


def untraced(args, deadline: float) -> tuple[dict, dict]:
    # set-ups before and after the timed loop, so that their median is not
    # taken at a single machine speed
    setups = [_setup(args, deadline) for _ in range(SETUPS // 2)]
    out = Worker("measure", args, deadline).result()
    setups += [_setup(args, deadline) for _ in range(SETUPS - len(setups))]
    out["setup_s"] = statistics.median(x for x, _ in setups)
    metrics = _metrics(out, "end_to_end")
    extra = {"setup_s_samples": [x for x, _ in setups],
             "raw_setup_s_samples": [x for _, x in setups],
             "p99_ms": out["p99_ms"], "error_rate": out["failed"] / out["attempted"],
             **{k: v for k, v in out.items() if k.startswith("raw_")}}
    return {"attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}, extra


def traced(args, deadline: float) -> tuple[dict, dict]:
    out = Worker("trace", args, deadline).result()
    metrics = _metrics(out["metrics"], "per_layer")
    return {"attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}, {}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ortho_szego" / "cli.py").is_file():
        print(f"no ortho_szego package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # One CPU for this process and every process it starts, so that the
    # reference samples read the speed of the CPU the ops ran on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    RESULTS.mkdir(exist_ok=True)
    result, extra = (traced if args.trace else untraced)(args, deadline)
    result = {"correct": result["failed"] == 0, **result}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(cpus), "result": result, **extra}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    summary = " ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in result["metrics"].items())
    extras = " ".join(f"{k}={v:.6g}" for k, v in extra.items() if not isinstance(v, list))
    print(f"{args.workload} seed={args.seed} attempted={result['attempted']} "
          f"failed={result['failed']} {summary} {extras}".rstrip())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
