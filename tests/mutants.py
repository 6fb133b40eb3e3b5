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
    # the program surface: a method only the tests reach is dead
    Mutant("public-method-nobody-reads", "oprl.py",
           "    def d_at(self, n: int) -> float:\n",
           "    def b_at(self, n: int) -> float:\n"
           "        return self.b[n - 1]\n\n"
           "    def d_at(self, n: int) -> float:\n",
           ("tests/test_surface.py::test_every_export_has_a_program_path",)),
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
    # the kernel loops: guards at their bounds, signed zeros, exact products
    Mutant("inverse-divisor-guard-strict", "szego.py",
           "\n        if not den2 >= PIVOT_TOL:\n",
           "\n        if not den2 > PIVOT_TOL:\n",
           ("tests/test_szego.py::test_divisor_guards_at_the_bound",)),
    Mutant("inverse-divisor-guard-dropped", "szego.py",
           "\n        if not den2 >= PIVOT_TOL:\n",
           "\n        if False:\n",
           ("tests/test_szego.py::TestLoopErrors::test_index_from_the_output_length",)),
    Mutant("oprl-eval-d0-as-dk", "oprl.py",
           "(d[k - 1] if k else 1.0)",
           "(d[k - 1] if k else d[k])",
           ("tests/test_oprl.py::test_eval_keeps_the_sign_of_a_zero",)),
    Mutant("oprl-eval-d0-as-d-last", "oprl.py",
           "(d[k - 1] if k else 1.0)",
           "d[k - 1]",
           ("tests/test_oprl.py::test_eval_keeps_the_sign_of_a_zero",)),
    Mutant("opuc-eval-no-conjugate", "opuc.py",
           "p, s = z * p - a.conjugate() * s, s - a * z * p",
           "p, s = z * p - a * s, s - a * z * p",
           ("tests/test_opuc.py::test_determinant_identity",)),
    Mutant("opuc-eval-product-reordered", "opuc.py",
           "s - a * z * p",
           "s - a * (z * p)",
           ("tests/test_suites.py::test_suite_output_is_pinned",)),
    # the spec classes as the registry, and the one coefficient loader
    Mutant("sieve-applies-on-the-line", "perturb.py",
           '    apply = {"circle": lambda vs, spec: sieve(vs, spec.ell)}\n',
           '    apply = {"line": lambda vs, spec: sieve(vs, spec.ell)}\n',
           ("tests/test_perturb.py::TestRegistry::test_entry_is_its_spec_class",)),
    Mutant("codilated-reads-tau", "perturb.py",
           'CoDilated(_integer(obj["k"]), _real(obj["lambda"]))',
           'CoDilated(_integer(obj["k"]), _real(obj["tau"]))',
           ("tests/test_perturb.py::TestRegistry::test_entry_is_its_spec_class",)),
    Mutant("associated-line-window-7", "perturb.py",
           "min(len(rc) - spec.k, 8)",
           "min(len(rc) - spec.k, 7)",
           ("tests/test_perturb.py::TestRegistry::test_both_paths_window",)),
    Mutant("loader-messages-swapped", "cli.py",
           '"line-side b/d file" if cls is RealRecurrence else "circle-side alpha file"',
           '"circle-side alpha file" if cls is RealRecurrence else "line-side b/d file"',
           ("tests/test_cli.py::test_other_kind_of_file_exit1",)),
    # the one draw loop behind every verify property on random inputs
    Mutant("record-kept-bare-max", "suites.py",
           "            worst = max_residual(worst, err)\n",
           "            worst = max(worst, err)\n",
           ("tests/test_suites.py::test_a_nan_residual_fails_its_property",)),
    Mutant("record-kept-redraws-any-error", "suites.py",
           "            except SupportViolation:\n",
           "            except SupportViolation.__mro__[1]:  # OrthoError\n",
           ("tests/test_suites.py::test_record_kept_redraws_only_inadmissible_draws",)),
    Mutant("run-suite-ignores-tol", "suites.py",
           "DEFAULT_TOLS[name] if tol is None else tol",
           "DEFAULT_TOLS[name]",
           ("tests/test_cli.py::TestVerifyCommand::test_zero_and_infinite_tolerance_run",)),
    Mutant("transfer-skips-order-3", "suites.py",
           "        for k in (1, 2, 3):\n",
           "        for k in (1, 2):\n",
           ("tests/test_suites.py::test_suite_output_is_pinned",)),
    Mutant("antiassoc-circle-takes-bare-pre-d", "perturb.py",
           "    if spec.pre_b or spec.pre_d:\n",
           "    if spec.pre_b:\n",
           ("tests/test_cli.py::TestPinnedBytes::test_perturb_both_paths",)),
    # the single-entry maps, each on one checked spec, and a fold of two specs
    Mutant("coprl-apply-no-zero-check", "perturb.py",
           "        if d[spec.k - 1] == 0.0:\n",
           "        if False:\n",
           ("tests/test_unchecked.py::test_coprl_apply_refuses_what_the_constructor_refuses",
            "tests/test_unchecked.py::test_coprl_apply_errors")),
    Mutant("corecursive-shifts-the-next-b", "perturb.py",
           "        b[spec.k] = float(b[spec.k] + spec.tau)\n",
           "        b[spec.k + 1] = float(b[spec.k + 1] + spec.tau)\n",
           ("tests/test_perturb.py::TestCoprlApply::test_corecursive_shifts_one_b",)),
    Mutant("copuc-apply-no-moduli-check", "perturb.py",
           "    _check_moduli(alpha[spec.k:spec.k + 1], spec.k)\n",
           "",
           ("tests/test_perturb.py::TestCopucApply::test_rejects_eta_of_modulus_one_once_stored",)),
    Mutant("coprl-oracle-first-spec-only", "perturb.py",
           "reduce(coprl_apply, _co_specs(k, lam, tau), rc)",
           "reduce(coprl_apply, _co_specs(k, lam, tau)[:1], rc)",
           ("tests/test_perturb.py::TestCoprlVerblunsky::"
            "test_statement_is_the_inversion_on_the_perturbed_data_exactly",)),
    # the circle associated map is the forward map on its shifted data
    Mutant("assoc-circle-shifts-one-short", "perturb.py",
           "geronimus_forward(shift_verblunsky(vs, k), n)",
           "geronimus_forward(shift_verblunsky(vs, k - 1), n)",
           ("tests/test_perturb.py::TestAssociatedCircle::"
            "test_odd_k_statement_is_the_shifted_forward_map_exactly",)),
    # finite co-perturbations
    Mutant("corecursive-no-finite-check", "perturb.py",
           "        if self.tau - self.tau != 0:",
           "        if False:",
           ("tests/test_perturb.py::TestSpecValidation::"
            "test_non_finite_parameters_are_refused_on_every_path",)),
    # the one pivot peel
    Mutant("peel-loop-guard-and", "szego.py",
           "# d may be negative\n        if not (v_even >= tol or v_even <= -tol):",
           "# d may be negative\n        if not (v_even >= tol and v_even <= -tol):",
           ("tests/test_szego.py::TestVSequence::test_v_from_recurrence_chebyshev",)),
    Mutant("peel-pivot-bound-strict", "szego.py",
           "# d may be negative\n        if not (v_even >= tol or v_even <= -tol):",
           "# d may be negative\n        if not (v_even > tol or v_even < -tol):",
           ("tests/test_szego.py::TestVSequence::test_v_from_recurrence_pivot_bound",)),
    Mutant("peel-pivot-bound-signed-d", "szego.py",
           "(1.0 + (dk if dk >= 0.0 else -dk))  # d may be negative",
           "(1.0 + dk)  # d may be negative",
           ("tests/test_szego.py::TestVSequence::test_v_from_recurrence_pivot_bound",)),
    Mutant("peel-insufficient-b-count", "szego.py",
           "InsufficientCoefficients(pairs + 1, len(b), \"b coefficients\")",
           "InsufficientCoefficients(pairs, len(b), \"b coefficients\")",
           ("tests/test_kernel_digest.py::test_kernel_digest_is_pinned",
            "tests/test_szego.py::TestVSequence::test_short_b_names_the_count")),
    # the LU shortcut as the peel of co-recursed data, and its rounding bound
    Mutant("shortcut-shift-sign-flipped", "perturb.py",
           "tau + (1.0 - lam) * v_from_recurrence(rc, 2 * k)[-1]",
           "tau + (lam - 1.0) * v_from_recurrence(rc, 2 * k)[-1]",
           ("tests/test_perturb.py::TestPerturbedV::test_shortcut_keeps_the_prefix_and_shifts_b",)),
    Mutant("shortcut-head-reads-v2k-minus-2", "perturb.py",
           "v_from_recurrence(rc, 2 * k)[-1]",
           "v_from_recurrence(rc, 2 * k)[-2]",
           ("tests/test_perturb.py::TestPerturbedV::test_shortcut_keeps_the_prefix_and_shifts_b",)),
    Mutant("shortcut-shifts-at-lam-one", "perturb.py",
           "    if path == SHORTCUT and lam != 1.0 and n > 0:",
           "    if path == SHORTCUT and n > 0:",
           ("tests/test_perturb.py::TestPerturbedV::test_shortcut_is_the_default_path_at_lam_one",)),
    Mutant("shortcut-peels-a-head-at-nonpositive-n", "perturb.py",
           "    if path == SHORTCUT and lam != 1.0 and n > 0:",
           "    if path == SHORTCUT and lam != 1.0:",
           ("tests/test_perturb.py::TestPerturbedV::test_nonpositive_n_peels_no_head",)),
    Mutant("discrepancy-returns-early-at-any-lam", "perturb.py",
           "    if lam == 1.0:\n        return None\n",
           "    if True:\n        return None\n",
           ("tests/test_perturb.py::TestPerturbedV::test_paper_path_fixture_and_discrepancy",)),
    Mutant("discrepancy-drops-the-peel-bound", "perturb.py",
           "tol * (1.0 + abs(dv[j])) + bound[j]:",
           "tol * (1.0 + abs(dv[j])):",
           ("tests/test_perturb.py::TestPerturbedV::"
            "test_discrepancy_bound_holds_the_rounding_at_a_tiny_pivot",)),
    # refusals of short data: counts, and a check made before the data is read
    Mutant("check-rel-reads-a-negative-degree", "szego.py",
           "    if n < 0:\n        raise ValueError(\"degree must be >= 0\")\n",
           "",
           ("tests/test_szego.py::TestRelIdentity::test_negative_degree_is_refused_before_any_read",)),
    Mutant("forward-insufficient-count-off-by-one", "szego.py",
           "(2 * n, len(alpha), \"alpha coefficients\")\n    b, d",
           "(2 * n - 1, len(alpha), \"alpha coefficients\")\n    b, d",
           ("tests/test_cli.py::TestPerturbCommand::test_both_paths_empty_circle_file_exit1",)),
    Mutant("coprl-apply-indexes-before-require", "perturb.py",
           "        rc.require(0, spec.k)\n        d = list(rc.d)\n"
           "        d[spec.k - 1] = float(d[spec.k - 1] * spec.lam)\n",
           "        d = list(rc.d)\n        d[spec.k - 1] = float(d[spec.k - 1] * spec.lam)\n"
           "        rc.require(0, spec.k)\n",
           ("tests/test_cli.py::TestPinnedBytes::test_perturb_both_paths",)),
    # one route for the co-dilation head and the circle associated map: the
    # paper's formulas are checks, not code
    Mutant("theorems-coprl-shift-sign-flipped", "suites.py",
           "shift = 4.0 * (lam - 1.0) * rc.d[k - 1]",
           "shift = 4.0 * (1.0 - lam) * rc.d[k - 1]",
           ("tests/test_acceptance.py::test_full_verify_battery_runtime",)),
    Mutant("theorems-circle-assoc-b-row-reads-v-odd", "suites.py",
           "rc.b[i] + v[2 * i - 2] - v[2 * i]",
           "rc.b[i] + v[2 * i - 1] - v[2 * i]",
           ("tests/test_acceptance.py::test_full_verify_battery_runtime",)),
    Mutant("theorems-circle-assoc-even-k-unscaled", "suites.py",
           "d = [2.0 / (1.0 - (a[k - 1] if k else -1.0)) * rc.d[m]]",
           "d = [rc.d[m]]",
           ("tests/test_acceptance.py::test_full_verify_battery_runtime",)),
    Mutant("symmetric-codilated-closed-path-unperturbed-d", "perturb.py",
           "    rc = coprl_apply(_symmetric_line(d), spec)\n",
           "    rc = _symmetric_line(d)\n",
           ("tests/test_perturb.py::TestSymmetricCoDilated::test_symmetric_statement_exactly",
            "tests/test_perturb.py::TestSymmetricCoDilated::test_t_to_u_fixture")),
    # one route for the sieved maps: the paper's rows are checks, not code
    Mutant("sieve2-no-real-view", "perturb.py",
           "    vs.real_view()\n",
           "",
           ("tests/test_perturb.py::TestSieve2Recurrence::"
            "test_complex_entry_named_by_its_index_in_the_data",)),
    Mutant("sieved-kmod-no-copuc-apply", "perturb.py",
           "    return sieve2_recurrence(copuc_apply(vs, KModification(k, eta)), n)\n",
           "    return sieve2_recurrence(vs, n)\n",
           ("tests/test_perturb.py::TestSievedKMod::test_spec_arithmetic_fixture",
            "tests/test_perturb.py::TestSievedKMod::test_theorem_matches_oracle")),
    Mutant("theorems-sieved-kmod-eta-sign-flipped", "suites.py",
           "d[k] *= (1.0 + eta) / (1.0 + a[k])",
           "d[k] *= (1.0 - eta) / (1.0 + a[k])",
           ("tests/test_acceptance.py::test_full_verify_battery_runtime",)),
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
