"""The verification suites' output, pinned, and a guard against checks
that cannot fail."""

import hashlib
import math
import random
import sys

import pytest

from ortho_szego import perturb, spectral, suites
from ortho_szego.cli import main
from ortho_szego.errors import DivisionDegenerate, SupportViolation
from ortho_szego.oprl import shift_coefficients
from ortho_szego.polyhom import homography_apply
from ortho_szego.spectral import SFunctionHandle, matrix_B_assoc, s_value
from ortho_szego.suites import run_suite, suite_names
from ortho_szego.tolerances import max_residual

# sha256 of run_suite(name, seed).lines, one line each, for seeds 0-3.  A
# deliberate change of a suite's output must update its digest and say why.
SUITE_DIGESTS = {
    "bridge": "0fe2e8776c766bc8808e0eb01a37aa4c4cfe5cb32439e68c0d9c299325c4ce08",
    "conjugation": "bd1cccf0a2b91fa35fd8a5efbf70fc03248d19241b7feb87c2ac45ecfbc1a86d",
    "discrepancy": "dc30615d13082f9d3247d3e984c5f707d13f4e78794e084275408a800e50b9b3",
    "lu": "1c1d1425aa778bd22bfe7c84cf5ef1dbadcedbfd815237c5b1612817d972e97b",
    "rel": "c09a654044c51fa0582b6038faffe8c62b926af86cb6c0607e2ae5048a9ae609",
    "roundtrip": "7c024602a3670696bfccdb93cd358925078536b6473bd17fd048e362a5b980ec",
    "theorems": "c0cfebed35eab63fe86957274fea9511ed87c6e82dac2bc1451ef7b1a8375947",
    "transfer": "c04ab9269731015b6687ddd0226e24d85d00ad7fa9fcfd80499f9bf96bf832c7",
}


def test_every_suite_is_pinned():
    assert set(SUITE_DIGESTS) == set(suite_names())


def pinned_lines(name):
    """The lines SUITE_DIGESTS[name] hashes: the suite's output at seeds 0-3."""
    return [line for seed in range(4) for line in run_suite(name, seed).lines]


@pytest.mark.parametrize("name", sorted(SUITE_DIGESTS))
def test_suite_output_is_pinned(name):
    text = "".join(line + "\n" for line in pinned_lines(name))
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_DIGESTS[name]


def test_closed_form_vs_oracle_residuals_are_nonzero():
    # Two independent float routes differ by an ulp somewhere in 50 draws;
    # a residual of exactly 0 means both routes ran the same code.
    for seed in range(20):
        report = run_suite("theorems", seed)
        residuals = {}
        for line in report.lines:
            _, name, label, value = line.split()[:4]
            if name.endswith("_closed_form_vs_oracle") and label == "max_residual":
                residuals[name] = float(value)
        assert residuals, report.lines
        assert all(r > 0.0 for r in residuals.values()), (seed, residuals)


def _on_call(func, call, instead):
    """func, except that its call-th call returns instead() in its place."""
    calls = 0

    def patched(*args, **kwargs):
        nonlocal calls
        calls += 1
        return instead() if calls == call else func(*args, **kwargs)
    return patched


def _nan():
    return math.nan


def test_a_nan_residual_fails_its_property(monkeypatch, capsys):
    # the third max_deviation call is the third kept co-recursive draw; max
    # keeps a NaN only when it comes first, so it used to read PASS
    original = perturb.max_deviation
    monkeypatch.setattr(perturb, "max_deviation", _on_call(original, 3, _nan))
    report = run_suite("theorems", 0)
    assert not report.ok
    assert [line.split()[:3] for line in report.lines if not line.startswith("PASS")] == [
        ["FAIL", "theorems.coprl_closed_form_vs_oracle", "max_residual"]]
    monkeypatch.setattr(perturb, "max_deviation", _on_call(original, 3, _nan))
    assert main(["verify", "--suite", "theorems", "--seed", "0"]) == 5
    assert "FAIL theorems.coprl_closed_form_vs_oracle max_residual nan" in capsys.readouterr().out


def _property_names(report):
    return [line.split()[1] for line in report.lines if line.split()[0] in ("PASS", "FAIL")]


# The _rand_alpha call to refuse, one that falls inside a property on
# random inputs.  lu's first seven calls belong to the factorization sweep,
# whose forward-image draws cannot be refused; its call 9 is the second
# v_path_independence draw.
REFUSED_CALL = {"lu": 9}


@pytest.mark.parametrize("name", sorted(SUITE_DIGESTS))
def test_an_inadmissible_draw_is_redrawn_in_every_suite(monkeypatch, name):
    # a property that draws its inputs redraws a refused draw instead of
    # ending verify with the SupportViolation
    names = _property_names(run_suite(name, 0))
    refused = []

    def refuse():
        refused.append(True)
        raise SupportViolation(0, 1.5)
    monkeypatch.setattr(suites, "_rand_alpha",
                        _on_call(suites._rand_alpha, REFUSED_CALL.get(name, 1), refuse))
    report = run_suite(name, 0)
    assert refused
    assert report.ok, report.lines
    assert _property_names(report) == names


def test_record_kept_redraws_only_inadmissible_draws():
    def degenerate():
        raise DivisionDegenerate("pivot v_2 vanished")

    rep = suites.SuiteReport("demo")
    with pytest.raises(DivisionDegenerate):
        rep.record_kept("prop", degenerate, 2, 1e-10)


def test_max_residual_keeps_a_nan_wherever_it_comes():
    assert max_residual(0.5, 0.25, 1.0) == 1.0
    for residuals in ((math.nan, 1.0), (1.0, math.nan), (0.0, 2.0, math.nan, 1.0)):
        assert math.isnan(max_residual(*residuals))


def _scaled_bottom_row(build):
    """`build` with c and d scaled by 1 + 1e-8: the homography's value
    moves by a relative 1e-8.  A matrix built inside spectral, as an
    anti-associated builder builds its associated one, is left as it is,
    so that patching spectral breaks only the patched family."""
    def mutated(*args):
        m = build(*args)
        if sys._getframe(1).f_globals["__name__"] == spectral.__name__:
            return m

        def at(t):
            a, b, c, d = m(t)
            return a, b, c * (1 + 1e-8), d * (1 + 1e-8)
        return at
    return mutated


@pytest.mark.parametrize("builder, family", [
    ("matrix_B_assoc", "line_assoc"),
    ("matrix_B_antiassoc", "line_antiassoc"),
    ("matrix_Upsilon_assoc", "circle_assoc"),
    ("matrix_Upsilon_antiassoc", "circle_antiassoc"),
])
def test_matched_transfer_check_catches_a_scaled_row(monkeypatch, builder, family):
    monkeypatch.setattr(spectral, builder, _scaled_bottom_row(getattr(spectral, builder)))
    failed = {line.split()[1] for line in run_suite("transfer", 0).lines
              if line.startswith("FAIL")}
    assert failed == {f"transfer.{family}_k{k}" for k in (1, 2, 3)}


def test_same_depth_check_misses_the_scaled_row():
    # the comparison the transfer suite made before it matched the depths:
    # depth-40 convergents of the original and the shifted data, absolute
    # residual, at points far from the support, tolerance 1e-8
    rng, depth = random.Random(0), 40
    mutated = _scaled_bottom_row(matrix_B_assoc)
    worst = 0.0
    for k in (1, 2, 3):
        for _ in range(20):
            rc = suites._rand_rc(rng, depth + k + 2, bound=0.7)
            m = mutated(rc, k)
            shifted = SFunctionHandle(shift_coefficients(rc, k), depth)
            for x in (1.8, -2.1, 2.6):
                s0 = s_value(SFunctionHandle(rc, depth), x)[0]
                worst = max(worst, abs(homography_apply(m, s0, x) - s_value(shifted, x)[0]))
    assert 5e-9 < worst <= 1e-8


if __name__ == "__main__":
    # the hashed lines, to diff two trees when a digest is re-taken:
    # PYTHONPATH=src python tests/test_suites.py [SUITE ...]
    for name in sys.argv[1:] or sorted(SUITE_DIGESTS):
        for line in pinned_lines(name):
            print(line)
