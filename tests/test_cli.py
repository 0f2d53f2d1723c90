"""Exit codes, output shapes, and byte-stable JSON for the front end."""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from kolberg import (
    QQ, QY, CoeffSeq, cli, diese_quatuor, g_coeffs, parse_qy,
    quatuor_to_json, sequence_to_json,
)
from kolberg.cli import run


@pytest.fixture
def diese_v_file(tmp_path):
    q = diese_quatuor(0, 0)
    path = tmp_path / "v.json"
    path.write_text(sequence_to_json(g_coeffs(q.level(0), 7)))
    return str(path)


@pytest.fixture
def diese_file(tmp_path):
    path = tmp_path / "dq.json"
    path.write_text(quatuor_to_json(diese_quatuor(-2, 3)))
    return str(path)


class TestExitCodes:
    def test_success(self, capsys):
        assert run(["eset", "--g", "s^3"]) == 0
        assert capsys.readouterr().out.strip() == "E = {-3}"

    def test_verification_failure_is_1(self, capsys):
        code = run(["verify", "identity", "--r0", "1+2/y+t^2",
                    "--level", "0", "--r", "1/2", "--x", "1/5",
                    "--tol", "1e-30", "--inject", "3:1e-6"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_usage_error_is_2(self, capsys):
        assert run(["eset", "--g", "s +"]) == 2
        assert run(["assoc", "--dir", "fwd", "--in", "/nonexistent.json"]) == 2

    def test_infertile_is_3(self, capsys):
        code = run(["quatuor", "gen", "--r0", "1/(t-2)", "--level", "0",
                    "--range", "0:1"])
        assert code == 3
        assert "level 1" in capsys.readouterr().err

    def test_domain_error_is_4(self, capsys):
        assert run(["eval", "kolberg", "--a", "1", "--x", "2/5"]) == 4
        assert "1/e" in capsys.readouterr().err

    def test_h_work_refused_at_once(self, capsys):
        # 7026 terms at r = 10^5 are past numeric.MAX_H_WORK
        start = time.perf_counter()
        assert run(["verify", "identity", "--r0", "1/y", "--r", "100000",
                    "--x", "1/1000000", "--tol", "1e-10"]) == 4
        assert time.perf_counter() - start < 1
        assert "estimated work" in capsys.readouterr().err

    def test_term_cap_is_domain_error(self, capsys):
        # N is chosen from the tail bound before any term is built, so an
        # unreachable tolerance stops at the term cap within seconds
        assert run(["eval", "kolberg", "--x", "1/3", "--tol", "1e-5000",
                    "--prec", "64"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("domain error:") and "term cap" in err

    def test_precision_refusal_is_4(self, capsys):
        # a conversion radius near 2^-64 |S| cannot meet 1e-300; the
        # refusal comes after the fixed-point sum of about 7000 terms
        assert run(["eval", "kolberg", "--x", "1/3", "--tol", "1e-300",
                    "--prec", "64"]) == 4
        assert "cannot meet tolerance" in capsys.readouterr().err

    def test_root_search_limit_is_4(self):
        # the tail-parameter search needs the poles of the level; a pole
        # near 1e20 used to enumerate divisors for longer than 20 s
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "kolberg.cli", "verify", "identity",
             "--r0", "1/(t - 100000000000000000039)", "--r", "1/2",
             "--x", "1/10"],
            capture_output=True, text=True, env=env, timeout=60)
        assert time.perf_counter() - start < 2
        assert proc.returncode == 4
        assert proc.stderr.startswith("domain error:")
        assert "root search" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("r, message", [
        ("3000", "cannot meet tolerance"),
        ("1000000001/2", "bound on e^z refused"),
    ], ids=["r-3000", "r-half-billion"])
    def test_large_r_is_4_quickly(self, r, message):
        # e^|r| is bounded by squaring above |r| = 64 and refused above
        # numeric.MAX_EXP_ARG; the exact Taylor loop took 7.5 s at 3000
        # and did not finish at 5e8
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "kolberg.cli", "eval", "kolberg",
             "--a", "1", "--r", r, "--x", "1/10"],
            capture_output=True, text=True, env=env, timeout=60)
        assert time.perf_counter() - start < 2
        assert proc.returncode == 4
        assert proc.stderr.startswith("domain error:")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


class TestParseLimits:
    """Nesting depth and power size are bounded: exit 2, no traceback."""

    @pytest.mark.parametrize("expr", [
        "(" * 3000 + "s" + ")" * 3000,
        "-" * 3000 + "s",
        "s^100000000",
        "((((s^1000)^1000)^1000)^1000)",
    ], ids=["parentheses", "unary-minus", "exponent", "nested-powers"])
    def test_exit_2_without_traceback(self, expr):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "kolberg.cli", "eset", f"--g={expr}"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_long_literal_has_a_position(self, capsys):
        assert run(["eset", "--g=s + " + "1" * 5000]) == 2
        assert "(at position 4)" in capsys.readouterr().err

    def test_within_limits(self, capsys):
        assert run(["eset", "--g", "(" * 50 + "s^-1000" + ")" * 50]) == 0
        assert capsys.readouterr().out.strip() == "E = {1000}"


IDENTITY = ["verify", "identity", "--r0", "1+2/y+t^2", "--level", "0",
            "--r", "1/2", "--x", "1/5"]


# Input files for TestRejectedArguments, named by the placeholder that
# stands for the file's path in an argument list.
PAYLOADS = {
    "U_FILE": sequence_to_json(CoeffSeq("u", QQ, (1, 2, 3))),
    "Q_NO_LEVELS": '{"generator": "1", "generator_level": 0, "levels": {}}',
    "Q_LEVELS_LIST": '{"generator": "1", "generator_level": 0, '
                     '"levels": ["1"]}',
    "Q_LEVEL_INT": '{"generator": "1", "generator_level": 0, '
                   '"levels": {"0": 1}}',
    "Q_GEN_LEVEL_LIST": '{"generator": "1", "generator_level": [0], '
                        '"levels": {"0": "1"}}',
    "LIST": '["1"]',
    "S_COEFFS_INT": '{"ring": "Q", "kind": "u", "coeffs": 5}',
    "S_COEFFS_INTS": '{"ring": "Q", "kind": "u", "coeffs": [1, 2]}',
}


class TestRejectedArguments:
    """Unreadable tolerances, negative orders, malformed JSON shapes and
    precisions above numeric.MAX_PRECISION: exit 2, no traceback."""

    @pytest.mark.parametrize("argv", [
        ["eval", "kolberg", "--x", "1/10", "--tol", "abc"],
        ["eval", "kolberg", "--x", "1/10", "--tol", "inf"],
        ["eval", "kolberg", "--x", "1/10", "--tol", "1e-10000000"],
        IDENTITY + ["--inject", "1:abc"],
        IDENTITY + ["--inject", "1:inf"],
        ["assoc", "--dir", "fwd", "--in", "U_FILE", "--N=-1"],
        ["quatuor", "gcoeffs", "--r0", "1/t", "--N=-1"],
        ["verify", "table", "--N=-1"],
        ["verify", "roundtrip", "--order=-1"],
        ["verify", "roundtrip", "--count=-1"],
        ["poles", "--in", "Q_NO_LEVELS", "--levels", "0"],
        ["poles", "--in", "LIST", "--levels", "0"],
        ["poles", "--in", "Q_LEVELS_LIST", "--levels", "0"],
        ["poles", "--in", "Q_LEVEL_INT", "--levels", "0"],
        ["poles", "--in", "Q_GEN_LEVEL_LIST", "--levels", "0"],
        ["assoc", "--dir", "fwd", "--in", "LIST"],
        ["assoc", "--dir", "fwd", "--in", "S_COEFFS_INT"],
        ["assoc", "--dir", "fwd", "--in", "S_COEFFS_INTS"],
        ["eval", "kolberg", "--x", "1/10", "--prec", "1000000"],
        IDENTITY + ["--prec", "65537"],
    ], ids=["tol-abc", "tol-inf", "tol-exponent", "inject-abc",
            "inject-inf", "assoc-N", "gcoeffs-N", "table-N",
            "roundtrip-order", "roundtrip-count", "quatuor-no-levels",
            "quatuor-list", "quatuor-levels-list", "quatuor-level-int",
            "quatuor-gen-level-list", "sequence-list", "sequence-coeffs-int",
            "sequence-coeffs-ints", "eval-prec", "identity-prec"])
    def test_exit_2_without_traceback(self, argv, tmp_path):
        for name, text in PAYLOADS.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a) if a in PAYLOADS else a for a in argv]
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "kolberg.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 2
        assert "error: " in proc.stderr
        assert "Traceback" not in proc.stderr


def random_sequence(kind: str, order: int) -> str:
    rng = random.Random(order)
    return sequence_to_json(CoeffSeq(kind, QQ, tuple(
        Fraction(rng.randint(-999, 999), rng.randint(1, 99))
        for _ in range(order + 1))))


# (argv with SEQ for a sequence file of order n and {n} for n, limit)
SIZE_LIMITS = {
    "assoc-N": (["assoc", "--dir", "inv", "--in", "SEQ", "--N", "{n}"],
                cli.MAX_ASSOC_ORDER),
    "assoc-order": (["assoc", "--dir", "inv", "--in", "SEQ"],
                    cli.MAX_ASSOC_ORDER),
    "hcoeffs-N": (["quatuor", "hcoeffs", "--r0", "1 + 2/y + t^2",
                   "--N", "{n}"], cli.MAX_COEFF_ORDER),
    "gcoeffs-N": (["quatuor", "gcoeffs", "--r0", "1 + 2/y + t^2",
                   "--N", "{n}"], cli.MAX_COEFF_ORDER),
    "table-N": (["verify", "table", "--N", "{n}"], cli.MAX_TABLE_ORDER),
    "roundtrip-order": (["verify", "roundtrip", "--count", "1",
                         "--order", "{n}"], cli.MAX_ROUNDTRIP_ORDER),
    "roundtrip-count": (["verify", "roundtrip", "--count", "{n}"],
                        cli.MAX_ROUNDTRIP_COUNT),
}


class TestSizeLimits:
    """Each CLI size runs at its limit; one past it exits 2 within 1 s."""

    @pytest.mark.parametrize("name", list(SIZE_LIMITS))
    @pytest.mark.parametrize("past", [0, 1], ids=["at", "past"])
    def test_limit(self, name, past, capsys, tmp_path):
        argv, limit = SIZE_LIMITS[name]
        n = limit + past
        seq = tmp_path / "seq.json"
        seq.write_text(random_sequence("v", n))
        argv = [str(seq) if a == "SEQ" else a.format(n=n) for a in argv]
        start = time.perf_counter()
        code = run(argv)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        if past:
            assert code == 2 and elapsed < 1
            assert f"must be at most {limit}, got {n}" in err
        else:
            assert code == 0 and err == ""

    @pytest.mark.parametrize("past", [0, 1], ids=["at", "past"])
    def test_assoc_denominator_degree(self, past, capsys, tmp_path):
        # v_m = 1/(y + m): n distinct linear denominators at order n
        assert cli.MAX_ASSOC_DEGREE == 80 * 80
        n = 80 + past
        seq = tmp_path / "seq.json"
        seq.write_text(sequence_to_json(CoeffSeq("v", QY, tuple(
            parse_qy(f"1/(y + {m})") for m in range(n + 1)))))
        start = time.perf_counter()
        code = run(["assoc", "--dir", "inv", "--in", str(seq)])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        if past:
            assert code == 2 and elapsed < 1
            assert f"must be at most {80 * 80}, got {n * n}" in err
        else:
            assert code == 0 and err == ""


class TestAssoc:
    def test_inverse_prints_expanded_u7(self, capsys, diese_v_file):
        code = run(["assoc", "--dir", "inv", "--in", diese_v_file,
                    "--N", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "u_7 = y^7 + 44*y^6 + 861*y^5 + 9590*y^4 + 64435*y^3" \
               " + 255192*y^2 + 535423*y + 436982" in out

    def test_forward_inverse_cycle(self, capsys, diese_v_file, tmp_path):
        run(["assoc", "--dir", "inv", "--in", diese_v_file, "--json"])
        u_text = capsys.readouterr().out
        u_path = tmp_path / "u.json"
        u_path.write_text(u_text)
        run(["assoc", "--dir", "fwd", "--in", str(u_path), "--json"])
        v_text = capsys.readouterr().out
        assert json.loads(v_text) == json.loads(
            open(diese_v_file).read())

    def test_kind_mismatch(self, capsys, diese_v_file):
        assert run(["assoc", "--dir", "fwd", "--in", diese_v_file]) == 2


class TestQuatuor:
    def test_gen_to_file_and_poles(self, capsys, tmp_path):
        out = tmp_path / "q.json"
        code = run(["quatuor", "gen", "--r0", "1+2/y+t^2", "--level", "0",
                    "--range=-2:3", "--out", str(out)])
        assert code == 0
        code = run(["poles", "--in", str(out), "--levels", "0,1", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rational_poles"] == ["0", "-1", "-2", "-3"]

    def test_hcoeffs_from_file(self, capsys, diese_file):
        code = run(["quatuor", "hcoeffs", "--in", diese_file,
                    "--level", "0", "--N", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "u_2 = y^2 + 4*y + 6" in out

    def test_gcoeffs_inline(self, capsys):
        code = run(["quatuor", "gcoeffs", "--r0", "1+2/y+t^2", "--N", "2"])
        assert code == 0
        assert "v_2 = y^2 + 2*y + 2" in capsys.readouterr().out

    def test_needs_exactly_one_source(self, capsys, diese_file):
        assert run(["quatuor", "hcoeffs", "--N", "2"]) == 2
        assert run(["quatuor", "hcoeffs", "--in", diese_file, "--r0", "1",
                    "--N", "2"]) == 2

    def test_tampered_file_fails_verification(self, capsys, tmp_path):
        obj = json.loads(quatuor_to_json(diese_quatuor(-1, 1)))
        obj["levels"]["-1"] = "t + y"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code = run(["quatuor", "hcoeffs", "--in", str(path), "--level", "0",
                    "--N", "2"])
        assert code == 1
        assert "neighbor" in capsys.readouterr().err


class TestVerify:
    def test_identity_pass(self, capsys):
        code = run(["verify", "identity", "--r0", "1+2/y+t^2",
                    "--level", "0", "--r", "1/2", "--x", "1/5",
                    "--tol", "1e-30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "residual" in out

    def test_identity_json(self, capsys):
        code = run(["verify", "identity", "--r0", "1+2/y+t^2",
                    "--level", "0", "--r", "1/2", "--x=-1/5", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert data["form"] == "G"

    def test_table(self, capsys):
        assert run(["verify", "table", "--N", "8"]) == 0
        assert "match" in capsys.readouterr().out

    def test_roundtrip(self, capsys):
        assert run(["verify", "roundtrip", "--count", "10",
                    "--order", "20"]) == 0
        assert "10/10" in capsys.readouterr().out


class TestGolden:
    """Byte-stable JSON at fixed precision for a pinned command set."""

    def check(self, argv, name, capsys, golden_dir):
        assert run(argv) == 0
        out = capsys.readouterr().out
        golden = golden_dir / name
        assert out == golden.read_text(), f"golden mismatch for {name}"

    @pytest.fixture
    def golden_dir(self):
        import pathlib
        return pathlib.Path(__file__).parent / "golden"

    def test_eval_json(self, capsys, golden_dir):
        self.check(["eval", "kolberg", "--a", "1", "--x", "1/10",
                    "--tol", "1e-40", "--json"],
                   "eval_kolberg.json", capsys, golden_dir)

    def test_eval_sharp_json(self, capsys, golden_dir):
        self.check(["eval", "sharp", "--a", "3", "--r", "1", "--x", "1/10",
                    "--json"],
                   "eval_sharp.json", capsys, golden_dir)

    def test_quatuor_gen_json(self, capsys, golden_dir):
        self.check(["quatuor", "gen", "--r0", "1+2/y+t^2", "--level", "0",
                    "--range=-1:1", "--json"],
                   "quatuor_gen.json", capsys, golden_dir)

    def test_verify_identity_json(self, capsys, golden_dir):
        self.check(["verify", "identity", "--r0", "1+2/y+t^2",
                    "--level", "0", "--r", "1/2", "--x", "1/5", "--json"],
                   "verify_identity.json", capsys, golden_dir)
