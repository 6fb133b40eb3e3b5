"""A re-runnable mutation table: each entry is a small fault in the
package and the tests that must catch it.

Each entry names a module under ``src/ortho_szego``, an exact snippet of
it that occurs once, the snippet to put in its place, and the test node
ids that must fail on the changed copy.  ``tests/test_mutants.py`` (tier
1) checks only that every snippet and node id is still there; this
script runs the table:

    python tests/mutants.py              # every entry
    python tests/mutants.py NAME ...     # the named entries

It copies the checkout's ``src``, ``tests`` and ``perfbench`` to a
temporary directory, checks that the chosen node ids pass on the
unchanged copy, then applies each entry to a fresh copy and runs
``python -m pytest -q -x -p no:cacheprovider <ids>`` there.  It prints
killed (a test failed), survived (every test passed) or an error (any
other pytest exit) per entry, with its wall time, then killed/total.  It
exits 0 only if every entry was killed.  A survivor is a gap in the
tests: report it, do not loosen the entry.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/ortho_szego
    old: str  # occurs exactly once in the module
    new: str
    tests: tuple[str, ...]  # node ids, relative to the checkout


MUTANTS = [
    # the one constructor
    Mutant("value-init-no-count-check", "_value.py",
           "        if len(fields) != len(names):\n",
           "        if False:\n",
           ("tests/test_value.py::test_wrong_field_count_raises",)),
    Mutant("value-init-skips-last-field", "_value.py",
           "        for name in names:\n",
           "        for name in names[:-1]:\n",
           ("tests/test_value.py::test_equality_hash_and_repr",)),
    Mutant("subclass-sets-its-own-slots", "oprl.py",
           "        Value.__init__(self, tuple(map(float, b)), tuple(map(float, d)))\n",
           "        object.__setattr__(self, \"b\", tuple(map(float, b)))\n"
           "        object.__setattr__(self, \"d\", tuple(map(float, d)))\n",
           ("tests/test_surface.py::test_only_value_sets_slots",)),
    # start-up and the end of a run
    Mutant("serialize-imports-json-at-top", "serialize.py",
           "import math\n",
           "import json\nimport math\n",
           ("tests/test_cli.py::test_verify_loads_no_json",)),
    Mutant("run-drops-the-flush", "cli.py",
           "            sys.stdout.flush()\n",
           "            pass\n",
           ("tests/test_cli_entry.py::test_module_run_matches_main",)),
    Mutant("run-drops-the-exitfuncs", "cli.py",
           "    atexit._run_exitfuncs()\n",
           "",
           ("tests/test_cli_entry.py::test_atexit_callbacks_still_run",)),
    # the bridge, against the exact moments: a mistake the round trips miss
    Mutant("forward-d-factor-same-way", "szego.py",
           "d.append(0.25 * (1.0 - am1)",
           "d.append(0.25 * (1 + 1e-9) * (1.0 - am1)",
           ("tests/test_moments.py::test_geronimus_forward",)),
    Mutant("inverse-odd-factor-same-way", "szego.py",
           "        a_odd = -1.0 + 4.0 * dm / den2\n",
           "        a_odd = -1.0 + 4.0 / (1 + 1e-9) * dm / den2\n",
           ("tests/test_moments.py::test_geronimus_inverse",)),
    Mutant("prefix-odd-factor-same-way", "szego.py",
           "            am1 = -1.0 + 4.0 * rc.d[m] / den2\n",
           "            am1 = -1.0 + 4.0 / (1 + 1e-9) * rc.d[m] / den2\n",
           ("tests/test_acceptance.py::test_criterion_08_lu_suite",)),
    # the kernel loops, against their reference copies
    Mutant("inverse-divisor-guard-and", "szego.py",
           "if not (den2 >= PIVOT_TOL or den2 <= -PIVOT_TOL):",
           "if not (den2 >= PIVOT_TOL and den2 <= -PIVOT_TOL):",
           ("tests/test_kernel_reference.py::test_den2_edges_sit_on_the_bound",
            "tests/test_kernel_reference.py::test_invert_from")),
    Mutant("oprl-eval-d0-as-dk", "oprl.py",
           "(d[k - 1] if k else 1.0)",
           "(d[k - 1] if k else d[k])",
           ("tests/test_kernel_reference.py::test_oprl_eval",)),
    Mutant("opuc-eval-no-conjugate", "opuc.py",
           "p, s = z * p - a.conjugate() * s, s - a * z * p",
           "p, s = z * p - a * s, s - a * z * p",
           ("tests/test_kernel_reference.py::test_opuc_eval",)),
    Mutant("symmetric-appends-swapped", "perturb.py",
           "        head.append(0.0)\n        head.append(g)\n",
           "        head.append(g)\n        head.append(0.0)\n",
           ("tests/test_kernel_reference.py::test_symmetric_from",)),
    # the peel's continuation behind the LU shortcut
    Mutant("peel-finish-no-pivot-guard", "szego.py",
           "            raise DivisionDegenerate(f\"pivot v_{2 * start} vanished\")\n",
           "            pass\n",
           ("tests/test_kernel_reference.py::"
            "test_perturbed_v_shortcut_finishes_the_pair_at_the_pivot_bound",)),
    Mutant("peel-finish-no-start-step", "szego.py",
           "        start += 1\n",
           "",
           ("tests/test_kernel_reference.py::test_perturbed_v_shortcut",)),
    Mutant("peel-head-bound-strict", "szego.py",
           "    if len(head) >= n:\n",
           "    if len(head) > n:\n",
           ("tests/test_kernel_reference.py::test_perturbed_v_shortcut",)),
]


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "results", ".hypothesis")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def _pytest(root: Path, ids) -> tuple[int, float]:
    """pytest's exit code on ``ids`` in the copy at ``root``, and the wall
    time.  The copy's ``src`` comes first on the path, and no bytecode is
    written, so an edit is never read through a stale ``.pyc``."""
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *ids], cwd=root, env=env, capture_output=True, text=True)
    return done.returncode, time.perf_counter() - start


def main(names) -> int:
    known = {m.name for m in MUTANTS}
    unknown = sorted(set(names) - known)
    if unknown:
        print(f"unknown entries: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory(prefix="ortho-szego-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        ids = sorted({node for m in chosen for node in m.tests})
        code, secs = _pytest(base, ids)
        if code != 0:
            print(f"the unchanged copy fails its node ids (pytest exit {code}, {secs:.1f} s)",
                  file=sys.stderr)
            return 2
        killed = 0
        for m in chosen:
            work = Path(tmp) / m.name
            shutil.copytree(base, work)
            target = work / "src" / "ortho_szego" / m.module
            text = target.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                print(f"error     {m.name}: the old snippet does not occur exactly once")
                continue
            target.write_text(text.replace(m.old, m.new), encoding="utf-8")
            code, secs = _pytest(work, m.tests)
            status = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            killed += code == 1
            print(f"{status:9} {secs:5.1f} s  {m.name}", flush=True)
            shutil.rmtree(work)
    print(f"killed {killed}/{len(chosen)}")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
