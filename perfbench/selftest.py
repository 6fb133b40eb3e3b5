"""Self-test of the benchmark: ``python3 -m pytest -q perfbench/selftest.py``.

Run from the repository root.  Takes under a minute.
"""

from __future__ import annotations

import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(path: Path) -> list[str]:
    return sorted(p.name for p in path.iterdir())


def test_same_seed_gives_identical_inputs(tmp_path):
    a, b, c = (tmp_path / x for x in "abc")
    for d in (a, b, c):
        d.mkdir()
    ja, jb = workloads.CliJobs(7, a), workloads.CliJobs(7, b)
    jc = workloads.CliJobs(8, c)
    assert _files(a) == _files(b)
    assert all(filecmp.cmp(a / f, b / f, shallow=False) for f in _files(a))
    assert [j.argv for j in ja.jobs] == [j.argv for j in jb.jobs]
    assert [j.argv for j in ja.jobs] != [j.argv for j in jc.jobs]
    assert repr(workloads.BridgeKernels(7, a).jobs) == repr(workloads.BridgeKernels(7, b).jobs)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_generated_job_passes_its_check(tmp_path, name):
    wl = workloads.WORKLOADS[name](3, tmp_path)
    with wl.in_workdir():
        for i in range(len(wl.jobs)):
            wl.before(i)
            assert wl.check(i, wl.replay(i)), f"{name} op {i}"


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", workload,
                           "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, "bridge_kernels", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
