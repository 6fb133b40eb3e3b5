"""One workload in one fresh process; started by run.py.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS RESULTS_DIR

Set-up (import, input generation, warm-up) ends with a ``READY`` line on
stdout; run.py times set-up from the process start to that line.  MODE
``setup`` exits there.  MODE ``measure`` then runs the timed closed loop
and MODE ``trace`` the probes and the traced replay; both print one JSON
line last.
"""

from __future__ import annotations

import array
import contextlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import layers
import speed
import workloads

MIN_OPS = 100  # p90 needs at least ten samples beyond it


def _run(wl, i: int, fn, span=contextlib.nullcontext) -> tuple[float, bool]:
    """Time fn(i) inside span(i), then check its output; returns (seconds, ok)."""
    wl.before(i)
    with span(i):
        t0 = time.perf_counter()
        try:
            out = fn(i)
        except Exception:
            out = None
            traceback.print_exc(limit=3)
        elapsed = time.perf_counter() - t0
    ok = False
    if out is not None:
        try:
            ok = bool(wl.check(i, out))
        except Exception:
            traceback.print_exc(limit=3)
    if not ok:
        print(f"{wl.name} op {i} failed", file=sys.stderr)
    return elapsed, ok


def measure(wl, seconds: float, latencies_path: Path) -> dict:
    """Closed loop, one client: at least `seconds` and MIN_OPS ops, at most
    twice `seconds`.  Each op is bracketed by reference-loop samples, and
    the reported times are scaled to the nominal host speed (speed.py).
    Every op's raw and scaled latency is written to latencies_path."""
    raw, lat, failed = array.array("d"), array.array("d"), 0  # compact, so RSS does not grow
    scale = speed.Scale()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(lat) >= MIN_OPS) or elapsed >= 2 * seconds:
            break
        scale.add(speed.sample(wl.ref_reps))
        dt, ok = _run(wl, len(lat), wl.op)
        scale.add(speed.sample(wl.ref_reps))
        raw.append(dt)
        lat.append(dt * scale.factor())
        failed += not ok
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_jobs" else resource.RUSAGE_SELF
    out = {"attempted": len(lat), "failed": failed,
           "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024}
    latencies_path.write_text(json.dumps({"raw": raw.tolist(), "scaled": lat.tolist()}))
    for prefix, xs in (("", lat), ("raw_", raw)):
        q = statistics.quantiles(xs, n=100)
        out.update({f"{prefix}p50_ms": statistics.median(xs) * 1e3,
                    f"{prefix}p90_ms": q[89] * 1e3, f"{prefix}p99_ms": q[98] * 1e3,
                    f"{prefix}ops_per_s": len(xs) / sum(xs)})
    return out


def trace(wl, seed: int, workdir: str, spans_path: Path) -> dict:
    """Probes, then the same ops replayed untraced and traced."""
    metrics = layers.startup_probes(workloads.cli_env())
    metrics.update(layers.cli_probes(
        wl if wl.name == "cli_jobs" else workloads.CliJobs(seed, workdir)))
    metrics.update(layers.kernel_probes(seed))

    failed = 0
    tracer = layers.Tracer()
    walls = []
    with wl.in_workdir():
        # an untraced pass to warm the in-process paths, then the two compared
        for traced in (False, False, True):
            wall = 0.0
            if traced:
                tracer.install()
            try:
                for i in range(wl.trace_ops):
                    dt, ok = _run(wl, i, wl.replay,
                                  tracer.op if traced else contextlib.nullcontext)
                    wall += dt
                    failed += not ok
            finally:
                tracer.uninstall()
            walls.append(wall)
    tracer.write(spans_path)
    self_ns, calls = tracer.per_layer()
    for layer in layers.SELF_MS:
        metrics[f"{layer}.self_ms"] = self_ns.get(layer, 0) / 1e6
    for layer in layers.CALLS:
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
    metrics["trace.overhead_ratio"] = walls[2] / walls[1]
    metrics["bench.draws_rejected"] = wl.rejected
    return {"attempted": 3 * wl.trace_ops, "failed": failed, "metrics": metrics}


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, results = argv
    seed, seconds, results = int(seed), float(seconds), Path(results)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=results)
    try:
        wl = workloads.WORKLOADS[name](seed, workdir)
        wl.warm_up()
        print("READY", flush=True)
        if mode == "measure":
            out = measure(wl, seconds, results / f"{name}-seed{seed}.latencies.json")
        elif mode == "trace":
            out = trace(wl, seed, workdir, results / f"{name}-seed{seed}.spans.jsonl")
        else:
            return 0
        print(json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
