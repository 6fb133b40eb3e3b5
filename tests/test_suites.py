"""The verification suites' output, pinned, and a guard against checks
that cannot fail."""

import hashlib

import pytest

from ortho_szego.suites import run_suite, suite_names

# sha256 of run_suite(name, seed).lines, one line each, for seeds 0-3.  A
# deliberate change of a suite's output must update its digest and say why.
SUITE_DIGESTS = {
    "bridge": "0fe2e8776c766bc8808e0eb01a37aa4c4cfe5cb32439e68c0d9c299325c4ce08",
    "conjugation": "4d9be91799a864f73328ecc1cc9e3fe59c0565a391e78cbfe7d7caf49d7756f0",
    "discrepancy": "dc30615d13082f9d3247d3e984c5f707d13f4e78794e084275408a800e50b9b3",
    "lu": "69c32f660d754c88e9b6bb36a1776fb4cb9d17e085dcf4b21c9397e70c3e0638",
    "rel": "c09a654044c51fa0582b6038faffe8c62b926af86cb6c0607e2ae5048a9ae609",
    "roundtrip": "7c024602a3670696bfccdb93cd358925078536b6473bd17fd048e362a5b980ec",
    "theorems": "bd493782166b39eb6139a00fc05347e32ade82860758c52084a8af8ac7dfe87e",
    "transfer": "7ea252b8b9cd587d27303b9397faab0c9a180d85b6abe6e126f9029f0104f1a9",
}


def test_every_suite_is_pinned():
    assert set(SUITE_DIGESTS) == set(suite_names())


@pytest.mark.parametrize("name", sorted(SUITE_DIGESTS))
def test_suite_output_is_pinned(name):
    digest = hashlib.sha256()
    for seed in range(4):
        digest.update(("\n".join(run_suite(name, seed).lines) + "\n").encode())
    assert digest.hexdigest() == SUITE_DIGESTS[name]


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
