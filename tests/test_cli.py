import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

from ortho_szego import suites
from ortho_szego.cli import main
from ortho_szego.errors import OrthoError, SupportViolation, UnknownSuite
from ortho_szego.oprl import RealRecurrence, chebyshev_t, chebyshev_u, shift_coefficients
from ortho_szego.opuc import VerblunskySeq
from ortho_szego.serialize import (
    dumps_recurrence,
    dumps_verblunsky,
    loads_coefficients,
    specs_from_text,
)
from ortho_szego.perturb import CoDilated, KModification
from ortho_szego.szego import geronimus_forward
from ortho_szego.tolerances import DEFAULT_TOLS


class TestSerialization:
    def test_recurrence_roundtrip_exact(self, rng):
        rc = RealRecurrence(tuple(rng.uniform(-1, 1) for _ in range(9)),
                            tuple(rng.uniform(0.01, 1) for _ in range(9)))
        assert loads_coefficients(dumps_recurrence(rc)) == rc

    def test_verblunsky_roundtrip_exact(self, rng):
        vs = VerblunskySeq(tuple(
            complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.6, 0.6)) for _ in range(7)))
        assert loads_coefficients(dumps_verblunsky(vs)) == vs

    def test_files_are_valid_json(self):
        doc = json.loads(dumps_recurrence(chebyshev_t(4)))
        assert doc["d"][0] == 0.5

    def test_specs_from_text_list_and_single(self):
        lst = specs_from_text('[{"kind": "co_dilated", "k": 1, "lambda": 0.5}]')
        assert lst == [CoDilated(1, 0.5)]
        one = specs_from_text('{"kind": "sieve", "ell": 2}')
        assert len(one) == 1
        eta = specs_from_text('{"kind": "k_modification", "k": 2, "eta": [0.1, 0.2]}')
        assert eta == [KModification(2, 0.1 + 0.2j)]

    @pytest.mark.parametrize("text, message", [
        ('[{"kind": "sieve", "ell": 2}, 1]', "perturbation entry 1 must be an object, got 1"),
        ('[{"kind": "co_dilated", "lambda": 0.5}]',
         "perturbation entry 0 (co_dilated): missing or malformed field: 'k'"),
        ('[{"kind": "anti_associated", "xi": 3}]',
         "perturbation entry 0 (anti_associated): missing or malformed field: "
         "expected a list, got 3"),
        ('[{"kind": "k_modification", "k": 1, "eta": [1.7e308, 1.7e308]}]',
         "perturbation entry 0 (k_modification): missing or malformed field: "
         "modulus too large for a float: [1.7e+308, 1.7e+308]"),
        ('[{"kind": "anti_associated", "xi": {}}]',
         "perturbation entry 0 (anti_associated): missing or malformed field: "
         "expected a list, got {}"),
        ('[{"kind": "co_dilated", "k": 1, "lambda": 1' + "0" * 400 + '}]',
         "perturbation entry 0 (co_dilated): missing or malformed field: "
         "number too large for a float"),
        ('[{"kind": "k_modification", "k": 1, "eta": [0, 1' + "0" * 400 + ']}]',
         "perturbation entry 0 (k_modification): missing or malformed field: "
         "number too large for a float"),
    ])
    def test_malformed_spec_entry_rejected(self, text, message):
        with pytest.raises(OrthoError) as info:
            specs_from_text(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, message", [
        ('{"b": [0.1, 0.2], "d": [NaN, 0.2]}', "non-finite number nan"),
        ('{"b": [0.1, 0.2], "d": [0.3, -Infinity]}', "non-finite number -inf"),
        ('{"b": [0.1, 1e999], "d": [0.3, 0.2]}', "non-finite number inf"),
        ('{"alpha": [[0.1, NaN]]}', "non-finite number nan"),
        ('{"b": [0.1, "x"], "d": [0.3, 0.2]}', "expected a number, got 'x'"),
        ('{"b": [0.1, true], "d": [0.3, 0.2]}', "expected a number, got True"),
        ('{"b": 0.1, "d": [0.3]}', "expected a list, got 0.1"),
        ('{"alpha": [[0.1, 0], [0.2]]}', "expected a [re, im] pair, got [0.2]"),
        ('{"alpha": [0.1]}', "expected a [re, im] pair, got 0.1"),
        ('{"alpha": [[1.7e308, 1.7e308]]}',
         "modulus too large for a float: [1.7e+308, 1.7e+308]"),
        ('{"alpha": [[0.1, 0], [0.2, 0]], "b": [0.5], "d": [0.3]}',
         "alpha cannot be given with b/d"),
    ])
    def test_loader_rejects_malformed_entries(self, text, message):
        with pytest.raises(OrthoError) as info:
            loads_coefficients(text)
        assert str(info.value) == "malformed coefficient file: " + message

    # a pivot sequence is no coefficient file; neither is half a line file
    @pytest.mark.parametrize("text, keys", [
        ('{"v": [Infinity]}', "['v']"),
        ('{"b": [0.1]}', "['b']"),
    ])
    def test_loader_rejects_unknown_keys(self, text, keys):
        with pytest.raises(OrthoError) as info:
            loads_coefficients(text)
        assert str(info.value) == "unrecognized coefficient keys: " + keys

    # nesting past the recursion limit; an integer past the digit limit
    # (Python >= 3.10.7; earlier versions parse it and reject the value)
    @pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5000], ids=["nested", "digits"])
    def test_oversized_json_rejected(self, text):
        with pytest.raises(OrthoError):
            loads_coefficients(text)
        with pytest.raises(OrthoError):
            specs_from_text(text)


@pytest.fixture
def tfile(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(dumps_recurrence(chebyshev_t(24)))
    return str(path)


@pytest.fixture
def zfile(tmp_path):
    path = tmp_path / "zeros.json"
    path.write_text(dumps_verblunsky(VerblunskySeq((0.0,) * 20)))
    return str(path)


LINE_FILE_EXPECTED = ": expected a line-side b/d file\n"
CIRCLE_FILE_EXPECTED = ": expected a circle-side alpha file\n"


@pytest.mark.parametrize("argv, given, message", [
    (["geronimus", "--direction", "inv"], "zfile", LINE_FILE_EXPECTED),
    (["geronimus", "--direction", "fwd"], "tfile", CIRCLE_FILE_EXPECTED),
    (["eval", "--side", "line", "--points", "2.0"], "zfile", LINE_FILE_EXPECTED),
    (["eval", "--side", "circle", "--points", "0.5"], "tfile", CIRCLE_FILE_EXPECTED),
    (["perturb", "--side", "line"], "zfile", LINE_FILE_EXPECTED),
    (["perturb", "--side", "circle"], "tfile", CIRCLE_FILE_EXPECTED),
], ids=["geronimus-inv", "geronimus-fwd", "eval-line", "eval-circle", "perturb-line",
        "perturb-circle"])
def test_other_kind_of_file_exit1(tfile, zfile, tmp_path, capsys, argv, given, message):
    path = {"tfile": tfile, "zfile": zfile}[given]
    if argv[0] == "perturb":
        spec = tmp_path / "spec.json"
        spec.write_text('[{"kind": "associated", "k": 1}]')
        argv = argv + ["--spec", str(spec)]
    assert main(argv + ["--in", path]) == 1
    assert capsys.readouterr() == ("", path + message)


class TestGeronimusCommand:
    def test_forward_zeros(self, zfile, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["geronimus", "--direction", "fwd", "--in", zfile,
                     "--out", str(out)]) == 0
        rc = loads_coefficients(out.read_text())
        assert rc.d[0] == 0.5 and rc.d[1:] == (0.25,) * 9
        assert rc.b == (0.0,) * 10

    def test_inverse_chebyshev_u(self, tmp_path):
        src = tmp_path / "u.json"
        src.write_text(dumps_recurrence(chebyshev_u(12)))
        out = tmp_path / "alpha.json"
        assert main(["geronimus", "--direction", "inv", "--in", str(src),
                     "--out", str(out)]) == 0
        vs = loads_coefficients(out.read_text())
        assert vs.alpha[1].real == pytest.approx(-0.5, abs=1e-14)
        assert vs.alpha[3].real == pytest.approx(-1 / 3, abs=1e-14)

    def test_inverse_support_violation_exit2(self, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_text(dumps_recurrence(RealRecurrence((0.0,), (1.0,))))
        assert main(["geronimus", "--direction", "inv", "--in", str(src)]) == 2
        assert "index 1" in capsys.readouterr().err

    def test_missing_file_exit1(self, tmp_path, capsys):
        assert main(["geronimus", "--direction", "fwd",
                     "--in", str(tmp_path / "nope.json")]) == 1

    def test_wrong_kind_exit1(self, tfile, capsys):
        assert main(["geronimus", "--direction", "fwd", "--in", tfile]) == 1

    @pytest.mark.parametrize("direction", ["fwd", "inv"])
    def test_pivot_file_exit1(self, tmp_path, capsys, direction):
        src = tmp_path / "v.json"
        src.write_text('{"v": [1, 0.5, 0.5]}\n')
        assert main(["geronimus", "--direction", direction, "--in", str(src)]) == 1
        assert capsys.readouterr() == ("", "unrecognized coefficient keys: ['v']\n")

    @pytest.mark.parametrize("text", [
        '{"b": [0.1, 0.2], "d": [0.3, NaN]}',
        '{"b": [0.1, "x"], "d": [0.3, 0.2]}',
    ])
    def test_malformed_entry_exit1(self, tmp_path, capsys, text):
        src = tmp_path / "bad.json"
        src.write_text(text)
        assert main(["geronimus", "--direction", "inv", "--in", str(src)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("malformed coefficient file: ") and err.count("\n") == 1

    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe{}", "cannot read "),
        (b"[" * 100_000, "malformed coefficient file: "),
    ], ids=["undecodable", "deeply-nested"])
    def test_unreadable_file_exit1(self, tmp_path, capsys, content, message):
        src = tmp_path / "bad.json"
        src.write_bytes(content)
        assert main(["geronimus", "--direction", "inv", "--in", str(src)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("direction", ["fwd", "inv"])
    def test_negative_n_exit1(self, tfile, zfile, tmp_path, capsys, direction):
        out = tmp_path / "out.json"
        src = zfile if direction == "fwd" else tfile
        assert main(["geronimus", "--direction", direction, "--in", src,
                     "--n", "-3", "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "--n must be >= 0, got -3\n")
        assert not out.exists()


def _both_paths(tmp_path, capsys, side, data, spec):
    """Exit code and stderr of `perturb --both-paths` with one spec."""
    src, spec_file = tmp_path / "in.json", tmp_path / "spec.json"
    src.write_text(dumps_recurrence(data) if side == "line" else dumps_verblunsky(data))
    spec_file.write_text(json.dumps([spec]))
    code = main(["perturb", "--in", str(src), "--spec", str(spec_file), "--side", side,
                 "--out", str(tmp_path / "out.json"), "--both-paths"])
    return code, capsys.readouterr().err


def _drawn_line(rng, pairs=12):
    alpha = VerblunskySeq(tuple(rng.uniform(-0.3, 0.3) for _ in range(2 * pairs)))
    return geronimus_forward(alpha, pairs)


def _drawn_circle(rng):
    return VerblunskySeq(tuple(rng.uniform(-0.5, 0.5) for _ in range(24)))


def _drawn_prepend(rng):
    # the head of an admissible draw prepended to its tail stays admissible
    full, k = _drawn_line(rng, 14), rng.randint(1, 3)
    return shift_coefficients(full, k), {"kind": "anti_associated",
                                         "pre_b": full.b[:k], "pre_d": full.d[:k]}


# side and a draw of (data, spec) for every kind whose two paths run one kernel
ONE_KERNEL_DRAWS = {
    "co_dilated": ("line", lambda rng: (_drawn_line(rng), {
        "kind": "co_dilated", "k": rng.randint(1, 4), "lambda": rng.uniform(0.7, 1.3)})),
    "co_recursive": ("line", lambda rng: (_drawn_line(rng), {
        "kind": "co_recursive", "k": rng.randint(0, 4), "tau": rng.uniform(-0.05, 0.05)})),
    "line_associated": ("line", lambda rng: (_drawn_line(rng), {
        "kind": "associated", "k": rng.randint(0, 4)})),
    "line_anti_associated": ("line", _drawn_prepend),
    "circle_anti_associated": ("circle", lambda rng: (_drawn_circle(rng), {
        "kind": "anti_associated",
        "xi": [rng.uniform(-0.5, 0.5) for _ in range(rng.randint(1, 3))]})),
    "circle_associated_even_k": ("circle", lambda rng: (_drawn_circle(rng), {
        "kind": "associated", "k": rng.choice((0, 2, 4))})),
}


class TestPerturbCommand:
    def test_co_dilated_t_to_u(self, tfile, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('[{"kind": "co_dilated", "k": 1, "lambda": 0.5}]')
        out = tmp_path / "out.json"
        assert main(["perturb", "--in", tfile, "--spec", str(spec),
                     "--side", "line", "--out", str(out)]) == 0
        rc = loads_coefficients(out.read_text())
        assert rc.d == (0.25,) * 24

    def test_side_mismatch_exit3(self, tfile, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('[{"kind": "k_modification", "k": 0, "eta": 0.3}]')
        assert main(["perturb", "--in", tfile, "--spec", str(spec),
                     "--side", "line"]) == 3

    def test_invalid_eta_exit3(self, zfile, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('[{"kind": "k_modification", "k": 0, "eta": 1.5}]')
        assert main(["perturb", "--in", zfile, "--spec", str(spec),
                     "--side", "circle"]) == 3

    def test_circle_modification(self, zfile, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('[{"kind": "k_modification", "k": 0, "eta": 0.3}]')
        out = tmp_path / "out.json"
        assert main(["perturb", "--in", zfile, "--spec", str(spec),
                     "--side", "circle", "--out", str(out)]) == 0
        vs = loads_coefficients(out.read_text())
        assert vs.alpha[0] == 0.3 and vs.alpha[1] == 0

    def test_both_paths_deviation_reported(self, tfile, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('[{"kind": "co_recursive", "k": 1, "tau": 0.05}]')
        out = tmp_path / "out.json"
        assert main(["perturb", "--in", tfile, "--spec", str(spec),
                     "--side", "line", "--out", str(out), "--both-paths"]) == 0
        err = capsys.readouterr().err
        assert "max deviation" in err
        dev = float(err.rsplit(" ", 1)[1])
        assert dev < 1e-11

    def test_both_paths_empty_window_exit1(self, tmp_path, capsys):
        src = tmp_path / "three.json"
        src.write_text(dumps_recurrence(chebyshev_t(3)))
        spec = tmp_path / "spec.json"
        spec.write_text('[{"kind": "associated", "k": 3}]')
        assert main(["perturb", "--in", str(src), "--spec", str(spec),
                     "--side", "line", "--both-paths"]) == 1
        assert capsys.readouterr().err == "need 1 entry in the both-paths window, have 0\n"

    def test_both_paths_empty_circle_file_exit1(self, tmp_path, capsys):
        src = tmp_path / "empty.json"
        src.write_text('{"alpha": []}')
        spec = tmp_path / "spec.json"
        spec.write_text('[{"kind": "anti_associated", "xi": [0.2]}]')
        assert main(["perturb", "--in", str(src), "--spec", str(spec),
                     "--side", "circle", "--both-paths"]) == 1
        assert capsys.readouterr().err == "need 2 alpha coefficients, have 1\n"

    def test_both_paths_window_inside_xi(self, tmp_path, capsys):
        # the one compared row lies inside xi; this exited 1 ("need 2 alpha
        # coefficients, have 1") with --both-paths and 0 without it
        src = tmp_path / "one.json"
        src.write_text('{"alpha": [[0.1, 0]]}')
        spec = tmp_path / "spec.json"
        spec.write_text('[{"kind": "anti_associated", "xi": [0.2, -0.3]}]')
        out = tmp_path / "out.json"
        assert main(["perturb", "--in", str(src), "--spec", str(spec), "--side", "circle",
                     "--out", str(out), "--both-paths"]) == 0
        assert capsys.readouterr().err == ("both-paths anti_associated k=2: "
                                           "max deviation 0.000e+00\n")
        assert loads_coefficients(out.read_text()).alpha == (0.2, -0.3, 0.1)

    def test_both_paths_codilation_past_an_inadmissible_tail(self, tmp_path, capsys):
        # the unperturbed a_6 leaves (-1, 1) and the perturbed one does not:
        # this exited 2 with --both-paths and 0 without it; both paths now
        # invert the perturbed data, so the deviation is 0 by construction
        src = tmp_path / "line.json"
        src.write_text(dumps_recurrence(RealRecurrence(
            (0.42473098610721627, -0.43896276684019947, 0.301601330614018, -0.1442824515915935),
            (0.6506698554957292, 0.10604163639236465, 0.25779957701120076, 0.44049948814593204))))
        spec = tmp_path / "spec.json"
        spec.write_text('[{"kind": "co_dilated", "k": 1, "lambda": 0.5441900611295434}]')
        out = tmp_path / "out.json"
        assert main(["perturb", "--in", str(src), "--spec", str(spec), "--side", "line",
                     "--out", str(out), "--both-paths"]) == 0
        assert capsys.readouterr().err == "both-paths co_dilated k=1: max deviation 0.000e+00\n"

    def test_both_paths_codilation_past_an_inadmissible_head(self, tmp_path, capsys):
        # the unperturbed a_3 leaves (-1, 1); the closed form inverted the
        # unperturbed head through a_3 and exited 2 with --both-paths
        rc = RealRecurrence((0.1514132535793945, -0.056042321104388226),
                            (0.37656216793403885, 0.6794148608516632))
        spec = {"kind": "co_dilated", "k": 1, "lambda": 0.5813601832105961}
        assert _both_paths(tmp_path, capsys, "line", rc, spec) == (
            0, "both-paths co_dilated k=1: max deviation 0.000e+00\n")

    @pytest.mark.parametrize("name", sorted(ONE_KERNEL_DRAWS))
    def test_both_paths_is_zero_where_one_kernel_runs(self, tmp_path, capsys, name):
        # both paths of these kinds run one kernel, so the printed deviation
        # is exactly 0 on any accepted file (README's --both-paths list)
        side, draw = ONE_KERNEL_DRAWS[name]
        rng = random.Random(f"both-paths:{name}")
        kept = 0
        for _ in range(10):
            data, spec = draw(rng)
            code, err = _both_paths(tmp_path, capsys, side, data, spec)
            if code == 2 and err.startswith("support violation"):
                continue  # the perturbed data are not admissible
            assert code == 0 and err.startswith(f"both-paths {spec['kind']} k=") \
                and err.endswith(": max deviation 0.000e+00\n") and err.count("\n") == 1, err
            kept += 1
        assert kept >= 5

    def test_both_paths_circle_associated_odd_k_compares_two_routes(self, tmp_path, capsys):
        # odd k runs the pivot formula against the forward map: some draw
        # shows their rounding
        rng = random.Random("both-paths:circle_associated_odd_k")
        devs = []
        for _ in range(10):
            code, err = _both_paths(tmp_path, capsys, "circle", _drawn_circle(rng),
                                    {"kind": "associated", "k": rng.choice((1, 3, 5))})
            assert code == 0
            devs.append(float(err.rsplit(" ", 1)[1]))
        assert max(devs) > 0.0 and max(devs) < 1e-12

    def test_integral_float_index_reads_as_int(self, tfile, tmp_path):
        outs = []
        for k in ("2", "2.0"):
            spec = tmp_path / f"spec{k}.json"
            spec.write_text('[{"kind": "associated", "k": %s}]' % k)
            outs.append(tmp_path / f"out{k}.json")
            assert main(["perturb", "--in", tfile, "--spec", str(spec), "--side", "line",
                         "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_non_object_spec_exit1(self, tfile, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("[1]")
        assert main(["perturb", "--in", tfile, "--spec", str(spec), "--side", "line"]) == 1
        assert capsys.readouterr().err == "perturbation entry 0 must be an object, got 1\n"

    @pytest.mark.parametrize("side, spec, kind, number", [
        ("circle", '[{"kind": "anti_associated", "xi": [NaN]}]', "anti_associated", "nan"),
        ("circle", '[{"kind": "k_modification", "k": 0, "eta": NaN}]', "k_modification", "nan"),
        ("line", '[{"kind": "co_dilated", "k": 1, "lambda": Infinity}]', "co_dilated", "inf"),
        ("line", '[{"kind": "associated", "k": -Infinity}]', "associated", "-inf"),
    ])
    def test_non_finite_spec_number_exit1(self, tmp_path, capsys, side, spec, kind, number):
        # these wrote nan/inf (not valid JSON) with exit 0; k = inf was a traceback
        src = tmp_path / "in.json"
        src.write_text(dumps_recurrence(chebyshev_t(4)) if side == "line"
                       else '{"alpha": [[0.1, 0], [0.2, 0], [-0.1, 0], [0.05, 0]]}')
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(spec)
        out = tmp_path / "out.json"
        assert main(["perturb", "--in", str(src), "--spec", str(spec_file),
                     "--side", side, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"perturbation entry 0 ({kind}): missing or "
                                           f"malformed field: non-finite number {number}\n")
        assert not out.exists()

    @pytest.mark.parametrize("spec, kind, message", [
        ('{"kind": "associated", "k": "2"}', "associated", "expected a number, got '2'"),
        ('{"kind": "associated", "k": 2.7}', "associated", "expected an integer, got 2.7"),
        ('{"kind": "co_dilated", "k": 1, "lambda": "x"}', "co_dilated",
         "expected a number, got 'x'"),
        ('{"kind": "co_recursive", "k": true, "tau": 0.1}', "co_recursive",
         "expected a number, got True"),
        ('{"kind": "anti_associated", "pre_b": ["0.1"], "pre_d": [0.2]}', "anti_associated",
         "expected a number, got '0.1'"),
    ])
    def test_string_spec_field_exit1(self, tfile, tmp_path, capsys, spec, kind, message):
        # "k": "2" and "k": 2.7 ran as k = 2 (exit 0) and "lambda": "x" exited 3
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(spec)
        out = tmp_path / "out.json"
        assert main(["perturb", "--in", tfile, "--spec", str(spec_file),
                     "--side", "line", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"perturbation entry 0 ({kind}): missing or "
                                           f"malformed field: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("eta, bad", [("true", True), ('"0.5"', "0.5"), ('["0.1", 0]', "0.1")],
                             ids=["true", '"0.5"', '["0.1", 0]'])
    def test_non_number_eta_exit1(self, zfile, tmp_path, capsys, eta, bad):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"kind": "k_modification", "k": 0, "eta": %s}' % eta)
        assert main(["perturb", "--in", zfile, "--spec", str(spec_file),
                     "--side", "circle"]) == 1
        assert capsys.readouterr().err == (
            "perturbation entry 0 (k_modification): missing or malformed field: "
            f"expected a number, got {bad!r}\n")

    @pytest.mark.parametrize("side", ["line", "circle"])
    @pytest.mark.parametrize("fields", ['"pre_b": [0.2], "pre_d": [0.2]', '"pre_d": [0.2]'])
    def test_xi_with_line_fields_exit1(self, tfile, zfile, tmp_path, capsys, side, fields):
        # the circle side prepended xi alone (exit 0), the line side exited 3
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"kind": "anti_associated", "xi": [0.1], %s}' % fields)
        out = tmp_path / "out.json"
        assert main(["perturb", "--in", tfile if side == "line" else zfile,
                     "--spec", str(spec_file), "--side", side, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "perturbation entry 0 (anti_associated): missing or malformed field: "
            "xi cannot be given with pre_b/pre_d\n")
        assert not out.exists()

    def test_pipeline_order(self, zfile, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([
            {"kind": "k_modification", "k": 0, "eta": 0.3},
            {"kind": "sieve", "ell": 2},
        ]))
        out = tmp_path / "out.json"
        assert main(["perturb", "--in", zfile, "--spec", str(spec),
                     "--side", "circle", "--out", str(out)]) == 0
        vs = loads_coefficients(out.read_text())
        assert vs.alpha[0] == 0 and vs.alpha[1] == 0.3 and vs.alpha[2] == 0

    def test_huge_sieve_exit3_at_once(self, tmp_path, capsys):
        src, spec = tmp_path / "c4.json", tmp_path / "spec.json"
        src.write_text('{"alpha": [[0.1, 0], [0.2, 0], [0.3, 0], [0.4, 0]]}')
        spec.write_text('[{"kind": "sieve", "ell": 10000000}]')
        start = time.perf_counter()
        assert main(["perturb", "--in", str(src), "--spec", str(spec), "--side", "circle",
                     "--out", str(tmp_path / "out.json")]) == 3
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "invalid perturbation for side circle: sieved sequence would have "
            "40000000 entries, more than 100000\n")
        assert not (tmp_path / "out.json").exists()


class TestUsageErrors:
    @pytest.mark.parametrize("argv, err", [
        (["eval", "--in", "t.json", "--side", "line", "--points", "-1e300"],
         "ortho-szego eval: argument --points: expected one argument\n"),
        (["geronimus", "--direction", "sideways", "--in", "t.json"],
         "ortho-szego geronimus: argument --direction: invalid choice: 'sideways'"),
        (["verify"], "ortho-szego verify: the following arguments are required: --suite\n"),
        ([], "ortho-szego: the following arguments are required: command\n"),
        (["verify", "--suite", "rel", "--tol", "nan"], "--tol must be >= 0, got nan\n"),
        (["verify", "--suite", "rel", "--tol", "-1"], "--tol must be >= 0, got -1.0\n"),
    ], ids=["negative-point", "bad-direction", "no-suite", "no-command", "nan-tol",
            "negative-tol"])
    def test_usage_error_exit1_one_line(self, capsys, argv, err):
        # a usage error is an input error: exit 1, not 2 (a support violation)
        assert main(argv) == 1
        out, got = capsys.readouterr()
        assert out == "" and got.startswith(err) and got.count("\n") == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ortho-szego eval")


UNKNOWN_SUITE_ERR = ("unknown suite 'nope'; pick from ['bridge', 'conjugation', "
                     "'discrepancy', 'lu', 'rel', 'roundtrip', 'theorems', 'transfer']\n")


class TestVerifyCommand:
    def test_roundtrip_passes(self, capsys):
        assert main(["verify", "--suite", "roundtrip", "--tol", "1e-10",
                     "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "PASS roundtrip.inverse_of_forward" in out

    def test_discrepancy_reports_and_exits_zero(self, capsys):
        assert main(["verify", "--suite", "discrepancy"]) == 0
        out = capsys.readouterr().out
        assert "default 0.25 vs shortcut 0.5" in out

    def test_discrepancy_rounding_at_tiny_pivot_passes(self, capsys):
        # seed 75382 draws a pure co-recursive case whose pivot v_6 ~ 1.4e-5
        # amplifies a 1-ulp difference at v_4 to 3e-11 relative at v_7
        assert main(["verify", "--suite", "discrepancy", "--seed", "75382"]) == 0
        assert "PASS discrepancy.pure_corecursive_paths_agree" in capsys.readouterr().out

    def test_unknown_suite_exit4(self, capsys):
        assert main(["verify", "--suite", "nosuch"]) == 4

    def test_unknown_suite_library_message(self):
        # cmd_verify and run_suite share the one message
        with pytest.raises(UnknownSuite) as info:
            suites.run_suite("nope")
        assert str(info.value) == UNKNOWN_SUITE_ERR.rstrip("\n")

    def test_retry_cap_reports_discards(self):
        def never_admissible():
            raise SupportViolation(3, 1.5)

        rep = suites.SuiteReport("demo")
        rep.record_kept("prop", never_admissible, 2, 1e-10)
        assert not rep.ok
        assert rep.lines == [f"FAIL demo.prop discarded {2 * suites.MAX_DISCARDS_PER_KEPT} "
                             "draws, kept 0 of 2"]

    def test_roundtrip_redraws_a_refused_forward_of_inverse_draw(self, capsys):
        # at seed 1703 one forward_of_inverse draw leaves the support on
        # inversion (index 39); it is redrawn instead of ending the run
        assert main(["verify", "--suite", "roundtrip", "--seed", "1703"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert any(line.startswith("PASS roundtrip.forward_of_inverse ") for line in out)

    def test_default_tolerances_cover_every_suite(self):
        # the CLI lists suites from DEFAULT_TOLS without importing suites
        assert set(DEFAULT_TOLS) == set(suites._RUNNERS)

    def test_impossible_tolerance_exit5(self, capsys):
        assert main(["verify", "--suite", "roundtrip", "--tol", "1e-18"]) == 5

    @pytest.mark.parametrize("tol, code", [("0", 5), ("inf", 0)])
    def test_zero_and_infinite_tolerance_run(self, capsys, tol, code):
        # the bounds of what --tol accepts: 0 fails every residual, inf none
        assert main(["verify", "--suite", "rel", "--tol", tol]) == code
        assert "rel." in capsys.readouterr().out

    def test_deterministic_output(self, capsys):
        main(["verify", "--suite", "rel", "--seed", "3"])
        first = capsys.readouterr().out
        main(["verify", "--suite", "rel", "--seed", "3"])
        assert capsys.readouterr().out == first


class TestEvalCommand:
    def test_line_point(self, tfile, tmp_path):
        out = tmp_path / "table.tsv"
        assert main(["eval", "--in", tfile, "--side", "line", "--points", "2.0",
                     "--depth", "20", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("point_re")
        value = float(lines[1].split("\t")[2])
        assert value == pytest.approx(1 / math.sqrt(3), abs=1e-8)

    def test_circle_point(self, zfile, tmp_path):
        out = tmp_path / "table.tsv"
        assert main(["eval", "--in", zfile, "--side", "circle", "--points", "0.4",
                     "--depth", "15", "--out", str(out)]) == 0
        assert float(out.read_text().splitlines()[1].split("\t")[2]) == 1.0

    def test_forbidden_point_exit2(self, tfile, capsys):
        assert main(["eval", "--in", tfile, "--side", "line",
                     "--points", "0.5", "--depth", "10"]) == 2
        # a point on the real axis is read as a float
        assert capsys.readouterr() == (
            "", "forbidden evaluation point: x = 0.5 is within 1e-06 of [-1, 1]\n")

    def test_point_on_the_real_axis_is_a_float(self, tfile, tmp_path):
        # +0j is dropped and -0j kept.  On the float path the value's zero
        # imaginary part prints as 0; complex division gave -0 here (odd
        # depth, x < -1) before real points were read as floats.
        out = tmp_path / "t.tsv"
        assert main(["eval", "--in", tfile, "--side", "line", "--points=-2,-2+0j,-2-0j",
                     "--depth", "3", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == [
            "-2\t0\t-0.57692307692307687\t0\t7.692e-02",
            "-2\t0\t-0.57692307692307687\t0\t7.692e-02",
            "-2\t-0\t-0.57692307692307687\t-0\t7.692e-02",
        ]

    def test_byte_identical_runs(self, tfile, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        argv = ["eval", "--in", tfile, "--side", "line",
                "--points", "2.0,3.0,-1.5", "--depth", "20"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_depth_ignores_the_environment(self, tmp_path, monkeypatch, rng):
        src, a, b = tmp_path / "r40.json", tmp_path / "a.tsv", tmp_path / "b.tsv"
        src.write_text(dumps_recurrence(RealRecurrence(
            tuple(rng.uniform(-0.3, 0.3) for _ in range(40)),
            tuple(rng.uniform(0.05, 0.25) for _ in range(40)))))
        monkeypatch.setenv("ORTHO_SZEGO_DEPTH", "12")
        argv = ["eval", "--in", str(src), "--side", "line", "--points", "1.1,-1.2"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--depth", "40", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("depth", ["0", "-2"])
    def test_nonpositive_depth_exit1(self, tfile, capsys, depth):
        assert main(["eval", "--in", tfile, "--side", "line",
                     "--points", "2.0", "--depth", depth]) == 1
        assert capsys.readouterr() == ("", f"--depth must be >= 1, got {depth}\n")

    @pytest.mark.parametrize("point", ["1e8", "1e10", "1e200", "1e300", "-1e300", "1e300j"])
    def test_huge_point_is_finite(self, tmp_path, point):
        # the convergent states are rescaled before they overflow; unscaled,
        # 1e8 already exited 1 at the default depth 40 with "convergent
        # denominator vanished"
        src, out = tmp_path / "t40.json", tmp_path / "t.tsv"
        src.write_text(dumps_recurrence(chebyshev_t(40)))
        assert main(["eval", "--in", str(src), "--side", "line", f"--points={point}",
                     "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split("\t")
        value = complex(float(row[2]), float(row[3]))
        assert value == pytest.approx(1 / complex(point), rel=1e-12)

    def test_deep_circle_file_is_finite(self, tmp_path):
        src = tmp_path / "c.json"
        src.write_text(dumps_verblunsky(VerblunskySeq((0.99, -0.99) * 1500)))
        out = tmp_path / "t.tsv"
        assert main(["eval", "--in", str(src), "--side", "circle", "--depth", "3000",
                     "--points", "0.95j,-0.95", "--out", str(out)]) == 0
        for row in out.read_text().splitlines()[1:]:
            assert all(math.isfinite(float(field)) for field in row.split("\t"))

    def test_point_with_overflowing_modulus_exit1(self, tfile, capsys):
        point = "1.7e308+1.7e308j"
        assert main(["eval", "--in", tfile, "--side", "line", "--points", point]) == 1
        assert capsys.readouterr() == (
            "", f"point {point!r} is too large: its modulus overflows\n")

    @pytest.mark.parametrize("point", ["nan", "inf", "2+nanj"])
    def test_non_finite_point_exit1(self, tfile, capsys, point):
        assert main(["eval", "--in", tfile, "--side", "line",
                     "--points", f"3.0,{point}", "--depth", "10"]) == 1
        assert capsys.readouterr() == ("", f"non-finite point {point!r}\n")


# Fixed fixtures whose CLI output bytes are pinned below: 12 line pairs and
# 24 real circle coefficients, all well inside the admissible region.
LINE_12 = ('{"b": [0.05, -0.03, 0.02, 0, -0.04, 0.01, 0.03, -0.02, 0, 0.015, -0.01, 0.02], '
           '"d": [0.4, 0.22, 0.27, 0.24, 0.26, 0.23, 0.25, 0.28, 0.21, 0.25, 0.24, 0.26]}\n')
CIRCLE_24 = '{"alpha": [' + ", ".join(f"[{x}, 0]" for x in (
    0.3, -0.2, 0.15, 0.1, -0.25, 0.05, 0.2, -0.1, 0.12, -0.05, 0.08, 0.18,
    -0.15, 0.02, 0.1, -0.3, 0.06, 0.04, -0.08, 0.14, 0.09, -0.11, 0.03, 0.07)) + ']}\n'

# (side, spec, exit code, stderr, sha256 of the output file or None when
# none is written) for `perturb --both-paths` on the fixtures.
PERTURB_PINS = [
    ('line', '{"kind": "co_dilated", "k": 2, "lambda": 0.75}',
     0, 'both-paths co_dilated k=2: max deviation 0.000e+00\n',
     'a8aec1ecfb0efd084212286eeef882acd821f3fc8dfc1d6e02277b0fb2cb9423'),
    ('line', '{"kind": "co_recursive", "k": 1, "tau": 0.05}',
     0, 'both-paths co_recursive k=1: max deviation 0.000e+00\n',
     'ce3c4536308502ad462adb0a4bc368217da3417f74893893a16931e4bf251cc9'),
    ('line', '{"kind": "co_recursive", "k": 0, "tau": -0.04}',
     0, 'both-paths co_recursive k=0: max deviation 0.000e+00\n',
     '1adf850dc244a685afc4c408a62d8da9327c4bb8d3011384bc3b21aa4809d709'),
    ('line', '{"kind": "associated", "k": 3}',
     0, 'both-paths associated k=3: max deviation 0.000e+00\n',
     'b2f8ef822274b3739c585968f866dd0f66a58e4f7016a068e9364704ef2f10dc'),
    ('line', '{"kind": "anti_associated", "pre_b": [0.1, -0.05], "pre_d": [0.3, 0.2]}',
     0, 'both-paths anti_associated k=2: max deviation 0.000e+00\n',
     '106fb694bc2a3c57d0edcdd9deb98547fb84f2095d93f685d55f70b28c557937'),
    # nothing to prepend is the identity on either side, as associated k=0 is
    ('line', '{"kind": "anti_associated"}',
     0, 'both-paths anti_associated k=0: max deviation 0.000e+00\n',
     '5c7a63a980b1880c479aff56afa610be25389530cafd99df59354553923a59eb'),
    ('circle', '{"kind": "associated", "k": 3}',
     0, 'both-paths associated k=3: max deviation 1.665e-16\n',
     'dfbd33e6495aa99b1ccf1231df099c2522cf8714ee3378c81424405cb13642e9'),
    ('circle', '{"kind": "associated", "k": 4}',
     0, 'both-paths associated k=4: max deviation 0.000e+00\n',
     '3c79a4b51e664ebf3b748b6c53b017fb83dec73aa0353fc8ff0f206a6216d7bb'),
    ('circle', '{"kind": "anti_associated", "xi": [0.2, -0.3, 0.1]}',
     0, 'both-paths anti_associated k=3: max deviation 0.000e+00\n',
     'a8ecf06d5d142dd12183bfcb5d7737bee037f238ac9a1722ddfb63b43395246f'),
    ('circle', '{"kind": "anti_associated", "xi": [0.2, -0.1]}',
     0, 'both-paths anti_associated k=2: max deviation 0.000e+00\n',
     'ce11b24b1b946991a5b3d9fda14e2c592b5f6baccfbc188943b73eb5b60e933b'),
    ('circle', '{"kind": "anti_associated", "xi": [[0.2, 0.1]]}',
     0, 'both-paths anti_associated: skipped (complex prepend has no line-side closed form)\n',
     '0fa31ac03efb39d90697ee25b5bb7bb4f45b7726fda98215b6a61d7df75a6c34'),
    ('circle', '{"kind": "k_modification", "k": 2, "eta": [0.3, -0.2]}',
     0, '',
     '790a09a56e1afacaaca5d3422f83e5b6f9ee8c62ac81548c575eeb34f0a51aba'),
    ('circle', '{"kind": "sieve", "ell": 2}',
     0, '',
     '300aecb01f55f5f289c7dec3f18ac2a50f23d9acea13ee5fc84abd303e160f70'),
    ('circle', '{"kind": "co_dilated", "k": 1, "lambda": 0.5}',
     3, 'co_dilated does not apply on the circle side\n',
     None),
    ('circle', '{"kind": "co_recursive", "k": 1, "tau": 0.1}',
     3, 'co_recursive does not apply on the circle side\n',
     None),
    ('line', '{"kind": "k_modification", "k": 0, "eta": 0.3}',
     3, 'k_modification does not apply on the line side\n',
     None),
    ('line', '{"kind": "sieve", "ell": 2}',
     3, 'sieve does not apply on the line side\n',
     None),
    ('line', '{"kind": "anti_associated", "xi": [0.2]}',
     3, 'anti_associated on the line side needs pre_b/pre_d\n',
     None),
    ('circle', '{"kind": "anti_associated", "pre_b": [0.1], "pre_d": [0.3]}',
     3, 'anti_associated on the circle side needs xi\n',
     None),
    ('circle', '{"kind": "anti_associated", "pre_d": [0.3]}',
     3, 'anti_associated on the circle side needs xi\n',
     None),
    ('line', '{"kind": "anti_associated", "pre_d": [0.3]}',
     3, 'invalid perturbation for side line: prepended b and d lists must have equal length\n',
     None),
    ('line', '{"kind": "co_dilated", "k": 12, "lambda": 0.5}',
     3, 'invalid perturbation for side line: need n >= k + 1 output pairs to cover the perturbed entries\n',
     None),
    ('line', '{"kind": "co_dilated", "k": 13, "lambda": 0.5}',
     1, 'need 13 d coefficients, have 12\n',
     None),
    ('line', '{"kind": "co_recursive", "k": 12, "tau": 0.5}',
     1, 'need 13 b coefficients, have 12\n',
     None),
    ('line', '{"kind": "associated", "k": 13}',
     1, 'need 13 coefficients, have 12\n',
     None),
    ('line', '{"kind": "anti_associated", "pre_b": [0.1], "pre_d": [0]}',
     3, 'invalid perturbation for side line: prepended d entries must be nonzero\n',
     None),
    ('line', '{"kind": "anti_associated", "pre_b": [0.1], "pre_d": [0.2, 0.3]}',
     3, 'invalid perturbation for side line: prepended b and d lists must have equal length\n',
     None),
    ('circle', '{"kind": "associated", "k": 23}',
     1, 'need 2 alpha coefficients, have 1\n',
     None),
    ('circle', '{"kind": "anti_associated", "xi": [1.5]}',
     3, 'invalid perturbation for side circle: |xi_0| = 1.5 >= 1\n',
     None),
    ('circle', '{"kind": "k_modification", "k": 2, "eta": 1.5}',
     3, 'invalid perturbation parameters: |eta| = 1.5 >= 1\n',
     None),
    ('circle', '{"kind": "k_modification", "k": 30, "eta": 0.5}',
     1, 'need 31 alpha coefficients, have 24\n',
     None),
    ('circle', '{"kind": "sieve", "ell": 0}',
     3, 'invalid perturbation parameters: sieve stride must be >= 1\n',
     None),
    ('line', '{"kind": "nosuch"}',
     1, "unknown perturbation kind: 'nosuch'\n",
     None),
]


def _run_pinned(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    code = main(argv + ["--out", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    return code, capsys.readouterr().err, digest


@pytest.fixture
def pinned_files(tmp_path):
    line, circle = tmp_path / "l12.json", tmp_path / "c24.json"
    line.write_text(LINE_12)
    circle.write_text(CIRCLE_24)
    return {"line": str(line), "circle": str(circle)}


class TestPinnedBytes:
    def test_geronimus_both_directions(self, pinned_files, tmp_path, capsys):
        fwd = ["geronimus", "--direction", "fwd", "--in", pinned_files["circle"]]
        inv = ["geronimus", "--direction", "inv", "--in", pinned_files["line"]]
        assert _run_pinned(tmp_path, capsys, fwd) == (
            0, "", "b014e94363b804758eacfd478eab263ae2583b0c73de1a88094056b7aa12daf8")
        assert _run_pinned(tmp_path, capsys, inv) == (
            0, "", "a010075172190300b8731bf639a39fb5eb12dbf2293556cba5d947d962a11ac0")

    @pytest.mark.parametrize("side, spec, code, err, digest", PERTURB_PINS)
    def test_perturb_both_paths(self, pinned_files, tmp_path, capsys,
                                side, spec, code, err, digest):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(f"[{spec}]")
        argv = ["perturb", "--in", pinned_files[side], "--spec", str(spec_file),
                "--side", side, "--both-paths"]
        assert _run_pinned(tmp_path, capsys, argv) == (code, err, digest)

    @pytest.mark.parametrize("side, points, depth, digest", [
        ("line", "1.5,-2,-1.2-0.5j", "12",
         "35d41d53faed8b76ea60f5a81fb324ffbc58f6d1ca66e3b10f6963018c082f4f"),
        ("circle", "0.3+0.2j,-0.5j,0.1-0.7j", "24",
         "ade45e9be9073b552fd31a02b60221b5576487414eb006b0f2a2f012d66a3dc4"),
    ])
    def test_eval(self, pinned_files, tmp_path, capsys, side, points, depth, digest):
        argv = ["eval", "--in", pinned_files[side], "--side", side,
                "--points", points, "--depth", depth]
        assert _run_pinned(tmp_path, capsys, argv) == (0, "", digest)


def _python(probe: str, *args: str):
    """Run `probe` in a fresh interpreter on this checkout's package."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", probe, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)


# Modules no command may load: building values with `dataclasses` (which
# imports `inspect`) would cost every run ~20 ms of start-up, and argparse
# (which imports gettext, and through it locale) ~6 ms.
_NEVER_LOADED = ("dataclasses", "inspect", "argparse", "gettext", "locale")

# Run cli.main on argv, then print as its last line its exit code (the
# SystemExit code after --help), the package modules loaded and whichever
# of _NEVER_LOADED got loaded.
_MAIN_PROBE = ("import sys; from ortho_szego import cli\n"
               "try: code = cli.main(sys.argv[1:])\n"
               "except SystemExit as exc: code = exc.code\n"
               "print(code, *sorted(m for m in sys.modules if m.startswith('ortho_szego.') "
               f"or m in {_NEVER_LOADED!r}))")


def test_package_import_loads_no_submodule():
    done = _python("import sys, ortho_szego; "
                   "print(sorted(m for m in sys.modules if m.startswith('ortho_szego.')))")
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("command, absent", [
    ("geronimus", {"perturb", "polyhom", "spectral", "suites"}),
    ("eval", {"perturb", "suites", "szego"}),
    ("perturb", {"polyhom", "spectral", "suites"}),
    ("verify", {"polyhom", "spectral"}),
    ("eval --help", {"perturb", "polyhom", "spectral", "suites"}),
    ("usage error", {"perturb", "polyhom", "spectral", "suites"}),
    ("verify --suite rel", {"perturb", "polyhom", "spectral"}),
])
def test_command_loads_only_its_modules(tmp_path, command, absent):
    line, circle, spec = tmp_path / "l.json", tmp_path / "c.json", tmp_path / "s.json"
    line.write_text(LINE_12)
    circle.write_text(CIRCLE_24)
    spec.write_text('[{"kind": "associated", "k": 1}]')
    argv = {
        "geronimus": ["geronimus", "--direction", "inv", "--in", str(line)],
        "eval": ["eval", "--in", str(circle), "--side", "circle", "--points", "0.3",
                 "--depth", "20"],
        "perturb": ["perturb", "--in", str(line), "--spec", str(spec), "--side", "line"],
        "verify": ["verify", "--suite", "lu"],
        "verify --suite rel": ["verify", "--suite", "rel"],
        "eval --help": ["eval", "--in", str(circle), "--help"],
        "usage error": ["eval", "--in", str(circle), "--side", "top", "--points", "0.3"],
    }[command]
    if command in ("geronimus", "eval", "perturb"):
        argv += ["--out", str(tmp_path / "out")]
    done = _python(_MAIN_PROBE, *argv)
    code, *loaded = done.stdout.splitlines()[-1].split()
    err = ("ortho-szego eval: argument --side: invalid choice: 'top' "
           "(choose from 'line', 'circle')\n") if command == "usage error" else ""
    assert (done.returncode, code, done.stderr) == (0, "1" if err else "0", err)
    assert {"ortho_szego.cli", "ortho_szego.serialize"} <= set(loaded)
    assert not {f"ortho_szego.{m}" for m in absent} & set(loaded)
    assert not set(_NEVER_LOADED) & set(loaded)


def test_unknown_suite_loads_no_suites():
    done = _python(_MAIN_PROBE, "verify", "--suite", "nope")
    code, *loaded = done.stdout.split()
    assert (done.returncode, code, done.stderr) == (0, "4", UNKNOWN_SUITE_ERR)
    assert "ortho_szego.suites" not in loaded
    assert not set(_NEVER_LOADED) & set(loaded)


@pytest.mark.parametrize("suite, code", [("rel", "0"), ("lu", "0"), ("nope", "4")])
def test_verify_loads_no_json(suite, code):
    # verify reads no file, so json (~3 ms of import) waits for a file reader
    done = _python("import sys; before = 'json' in sys.modules\n"
                   "from ortho_szego import cli\n"
                   "code = cli.main(sys.argv[1:])\n"
                   "print(code, before, 'json' in sys.modules)", "verify", "--suite", suite)
    last = done.stdout.splitlines()[-1].split()
    if last[1] == "True":
        pytest.skip("the interpreter loads json at start-up")
    assert (done.returncode, last) == (0, [code, "False", "False"])


def test_cli_import_loads_the_readme_common_set():
    # the "every one" row of the README's start-up table is exactly what
    # importing the CLI loads; each command's own modules come on top
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        row = next(line for line in fh if line.startswith("| every one"))
    documented = {f"ortho_szego.{name}" for name in row.split("|")[2].replace("`", "")
                  .replace(",", " ").split()}
    assert documented == {f"ortho_szego.{m}" for m in (
        "cli", "_value", "errors", "oprl", "opuc", "serialize", "tolerances")}
    done = _python("import sys, ortho_szego.cli; "
                   "print(*sorted(m for m in sys.modules if m.startswith('ortho_szego.')))")
    assert (done.returncode, done.stderr) == (0, "")
    assert set(done.stdout.split()) == documented


def test_cli_import_skips_numpy_and_suites():
    # every CLI run pays for what importing the CLI loads; verify loads the
    # suites on demand, and nothing in the package needs numpy or _NEVER_LOADED
    done = _python("import sys, ortho_szego.cli; "
                   "print(sorted({'numpy', 'ortho_szego.suites', *sys.argv[1:]} "
                   "& set(sys.modules)))", *_NEVER_LOADED)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
