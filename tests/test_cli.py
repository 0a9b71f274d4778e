import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import eoa
from eoa import cli, oa as oa_module
from eoa.cli import _resolve_d_dual, main
from eoa.codes import LinearCode, hamming_code, write_code
from eoa.gf import gf_new
from eoa.euler import read_eulerian_oa
from eoa.oa import max_strength, read_oa


@pytest.fixture()
def dual_code_file(tmp_path):
    path = tmp_path / "dualham42.txt"
    assert main(["code", "hamming", "--q", "4", "--m", "2", "--dual",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture()
def oa16_file(tmp_path, dual_code_file):
    path = tmp_path / "oa16.txt"
    assert main(["oa", "build", "--code", str(dual_code_file),
                 "--out", str(path)]) == 0
    return path


@pytest.fixture()
def eoa256_file(tmp_path, dual_code_file):
    path = tmp_path / "eoa256.txt"
    assert main(["euler", "build", "--code", str(dual_code_file),
                 "--out", str(path)]) == 0
    return path


def _tamper_symbol(lines):
    """An array file's lines with the first symbol of row 0 changed."""
    row = lines[1].split()
    row[0] = "1" if row[0] == "0" else "0"
    return [lines[0], " ".join(row), *lines[2:]]


def _shuffle_columns(lines):
    """An array file's lines with its columns in a seeded random order."""
    arr = np.array([ln.split() for ln in lines[1:-1]])
    arr = arr[:, np.random.default_rng(5).permutation(arr.shape[1])]
    return [lines[0], *(" ".join(r) for r in arr), lines[-1]]


def test_code_hamming_dual_report(tmp_path, capsys):
    out = tmp_path / "c.txt"
    assert main(["code", "hamming", "--q", "4", "--m", "2", "--dual",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "[5, 2, 4, 3]" in captured
    header = out.read_text().splitlines()[0]
    assert header == "CODE 4 5 2"


def test_code_hamming_binary(tmp_path, capsys):
    out = tmp_path / "h.txt"
    assert main(["code", "hamming", "--q", "2", "--m", "3", "--out", str(out)]) == 0
    assert "[7, 4, 3, 4]" in capsys.readouterr().out


@pytest.mark.parametrize("q, m, plain, dual", [
    (2, 2, "[3, 1, 3, 2]", "[3, 2, 2, 3]"),
    (2, 3, "[7, 4, 3, 4]", "[7, 3, 4, 3]"),
    (2, 5, "[31, 26, 3, 16]", "[31, 5, 16, 3]"),
    (3, 2, "[4, 2, 3, 3]", "[4, 2, 3, 3]"),
    (4, 2, "[5, 3, 3, 4]", "[5, 2, 4, 3]"),
    (4, 3, "[21, 18, 3, 16]", "[21, 3, 16, 3]"),
    (4, 4, "[85, 81, 3, 64]", "[85, 4, 64, 3]"),
    (4, 5, "[341, 336, 3, 256]", "[341, 5, 256, 3]"),
    (9, 2, "[10, 8, 3, 9]", "[10, 2, 9, 3]"),
])
def test_code_hamming_prints_both_distances(tmp_path, capsys, q, m, plain, dual):
    """The Hamming side prints its distance 3 and the dual side its counted
    distance, with and without --dual."""
    for flags, report in (([], plain), (["--dual"], dual)):
        out = tmp_path / "c.txt"
        assert main(["code", "hamming", "--q", str(q), "--m", str(m),
                     "--out", str(out), *flags]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"[n, k, d_min, d_dual] = {report}", f"wrote {out}"]


def test_code_info_identity_generator(tmp_path, capsys):
    path = tmp_path / "ident.txt"
    path.write_text("CODE 4 3 3\n1 0 0\n0 1 0\n0 0 1\n")
    assert main(["code", "info", "--in", str(path)]) == 0
    assert "[3, 3, 1, 4]" in capsys.readouterr().out   # trivial dual: n + 1


@pytest.mark.parametrize("q, m, dual, report", [
    (9, 2, True, "[10, 2, 9, 3]"),     # the dual code C^perp has 9^8 words
    (4, 3, False, "[21, 18, 3, 16]"),  # C has 4^18 words
])
def test_code_info_counts_the_smaller_code(tmp_path, capsys, q, m, dual, report):
    """Both distances come from whichever of C and C^perp has fewer words:
    a weight pass for its own distance, Delsarte's strength for the other."""
    path = tmp_path / "code.txt"
    assert main(["code", "hamming", "--q", str(q), "--m", str(m), "--out", str(path)]
                + (["--dual"] if dual else [])) == 0
    capsys.readouterr()
    assert main(["code", "info", "--in", str(path)]) == 0
    assert report in capsys.readouterr().out


def test_code_info_unknown_only_when_both_codes_are_too_large(tmp_path, capsys):
    """A [40, 20]_4 code and its dual both have 4^20 > ENUMERATION_CAP words."""
    gen = np.vstack([np.eye(20, dtype=np.int64),
                     np.random.default_rng(0).integers(0, 4, size=(20, 20))])
    path = tmp_path / "big.txt"
    path.write_text("CODE 4 40 20\n" + "".join(" ".join(map(str, row)) + "\n"
                                               for row in gen))
    assert main(["code", "info", "--in", str(path)]) == 0
    assert "[40, 20, ?, ?]" in capsys.readouterr().out


def simplex_code_file(path, m):
    """The GF(4) dual Hamming code of redundancy m, generated by the
    projective points of F_4^m (first nonzero entry 1) as its rows."""
    points = [vec for vec in itertools.product(range(4), repeat=m)
              if next((v for v in vec if v), 0) == 1]
    path.write_text(f"CODE 4 {len(points)} {m}\n"
                    + "".join(" ".join(map(str, p)) + "\n" for p in points))
    return path


@pytest.mark.parametrize("m, report", [(5, "[341, 5, 256, 3]"),
                                       (6, "[1365, 6, 1024, ?]")])
def test_code_info_strength_search_is_bounded(tmp_path, capsys, m, report):
    """The strength pass behind d(C^perp) counts at most STRENGTH_WORK_CAP
    column tuples: the m = 5 code's C(341, 2) * 4^5 = 5.9e7 still gives
    d_dual = 3, the m = 6 code's 3.8e9 gives '?' in seconds, and a build
    that needs the unknown distance exits 2."""
    path = simplex_code_file(tmp_path / "simplex.txt", m)
    start = time.perf_counter()
    assert main(["code", "info", "--in", str(path)]) == 0
    assert time.perf_counter() - start < 20.0
    assert report in capsys.readouterr().out
    if report.endswith("?]"):
        assert main(["oa", "build", "--code", str(path),
                     "--out", str(tmp_path / "oa.txt")]) == 2
        assert "pass --d-dual" in capsys.readouterr().err


def test_code_info_builds_no_dual_basis_for_the_smaller_code(tmp_path, capsys,
                                                            monkeypatch):
    """A [21, 3]_4 code is smaller than its dual, so code info enumerates it
    and never builds the [21, 18] dual basis."""
    path = simplex_code_file(tmp_path / "simplex.txt", 3)

    def no_dual(self):
        raise AssertionError("dual basis built")

    monkeypatch.setattr(LinearCode, "dual", no_dual)
    assert main(["code", "info", "--in", str(path)]) == 0
    assert "[21, 3, 16, 3]" in capsys.readouterr().out


def test_code_info_stops_strength_search_past_N(tmp_path, capsys, monkeypatch):
    """The [20, 2]_256 code with generator rows (1, a), a < 19, and (0, 1)
    has N = 256^2 codewords, so no strength 3 (256^3 tuples) is counted:
    its (20, 256^3) histogram would take 2.5 GiB.  It reports d_dual = 3."""
    path = tmp_path / "c256.txt"
    path.write_text("CODE 256 20 2\n" + "".join(f"1 {a}\n" for a in range(19))
                    + "0 1\n")
    strengths, verify = [], oa_module.verify_strength

    def spy(entries, q, t):
        strengths.append(t)
        return verify(entries, q, t)

    monkeypatch.setattr(oa_module, "verify_strength", spy)
    assert main(["code", "info", "--in", str(path)]) == 0
    assert "[20, 2, 19, 3]" in capsys.readouterr().out
    assert max(strengths) == 2


def test_code_rejects_bad_params():
    assert main(["code", "hamming", "--q", "6", "--m", "2", "--out", "x"]) == 2


def test_oa_build_and_verify(tmp_path, dual_code_file, capsys):
    oa_path = tmp_path / "oa.txt"
    assert main(["oa", "build", "--code", str(dual_code_file),
                 "--out", str(oa_path)]) == 0
    assert "OA(16, 5, 4, 2) lambda = 1" in capsys.readouterr().out
    assert main(["oa", "verify", "--in", str(oa_path)]) == 0
    assert main(["oa", "verify", "--in", str(oa_path), "--t", "1"]) == 0
    assert "lambda = 4" in capsys.readouterr().out


# (p, m, r, dual): the Hamming code of redundancy r over GF(p^m), or its
# dual; strength passes on a Hamming code's own words run up to q^(r-1) - 1,
# so the larger Hamming codes enter through their duals only
SMALL_CODES = [(p, m, r, dual) for p, m, r in [(2, 1, 2), (2, 1, 3), (3, 1, 2),
                                                (2, 2, 2)]
               for dual in (False, True)] + [(2, 1, 4, True), (3, 1, 3, True)]


@pytest.mark.parametrize("p, m, r, dual", SMALL_CODES)
def test_dual_distance_routes_agree(p, m, r, dual):
    """Delsarte: 1 + the codewords' OA strength is the dual's minimum
    distance; the resolver counts whichever code has fewer words."""
    code = hamming_code(gf_new(p, m), r)
    if dual:
        code = code.dual()
    d_dual = code.dual().min_distance()
    assert 1 + max_strength(code.codewords(), code.q) == d_dual
    assert _resolve_d_dual(code, None) == d_dual


@pytest.fixture()
def dual_ham92_file(tmp_path):
    path = tmp_path / "dualham92.txt"
    assert main(["code", "hamming", "--q", "9", "--m", "2", "--dual",
                 "--out", str(path)]) == 0
    return path


def test_builds_from_gf9_dual_hamming_without_distance(tmp_path, dual_ham92_file,
                                                        capsys):
    """The [10, 8]_9 dual has 9^8 words; the strength comes from the 81
    codewords instead, so neither --d-dual nor --t is needed."""
    capsys.readouterr()
    assert main(["oa", "build", "--code", str(dual_ham92_file),
                 "--out", str(tmp_path / "oa81.txt")]) == 0
    assert "OA(81, 10, 9, 2) lambda = 1" in capsys.readouterr().out
    assert main(["euler", "build", "--code", str(dual_ham92_file),
                 "--out", str(tmp_path / "eoa6561.txt")]) == 0
    assert "Eulerian OA(6561, 10, 9, 2)" in capsys.readouterr().out
    assert main(["euler", "verify", "--in", str(tmp_path / "eoa6561.txt")]) == 0


def test_oa_verify_tampered_exits_1(tmp_path, oa16_file, capsys):
    tampered = tmp_path / "tampered.txt"
    tampered.write_text("\n".join(_tamper_symbol(oa16_file.read_text().splitlines())) + "\n")
    assert main(["oa", "verify", "--in", str(tampered), "--t", "2"]) == 1
    assert "rows (" in capsys.readouterr().err


def assert_one_fail_line(capsys, out_path):
    """A built array that failed its own certificate: one FAIL: line, no
    output file."""
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("FAIL: strength-3 verification failed")
    assert captured.out == "" and not out_path.exists()


def test_oa_build_wrong_dual_distance_exits_1(tmp_path, dual_code_file, capsys):
    capsys.readouterr()
    assert main(["oa", "build", "--code", str(dual_code_file),
                 "--d-dual", "4", "--out", str(tmp_path / "bad.txt")]) == 1
    assert_one_fail_line(capsys, tmp_path / "bad.txt")


def test_euler_build_failed_certificate_exits_1(tmp_path, capsys):
    """Strength 3 of the strength-2 [21, 3]_4 dual Hamming code is a
    verdict, not an input error."""
    code = tmp_path / "dualham43.txt"
    assert main(["code", "hamming", "--q", "4", "--m", "3", "--dual",
                 "--out", str(code)]) == 0
    capsys.readouterr()
    assert main(["euler", "build", "--code", str(code), "--t", "3",
                 "--out", str(tmp_path / "bad.txt")]) == 1
    assert_one_fail_line(capsys, tmp_path / "bad.txt")


def test_euler_build_and_verify(tmp_path, dual_code_file, capsys):
    eoa_path = tmp_path / "eoa.txt"
    assert main(["euler", "build", "--code", str(dual_code_file),
                 "--out", str(eoa_path)]) == 0
    captured = capsys.readouterr().out
    assert "Eulerian OA(256, 5, 4, 2)" in captured
    assert "edge multiplicity = 1" in captured
    assert main(["euler", "verify", "--in", str(eoa_path)]) == 0
    assert "all full group" in capsys.readouterr().out


def test_euler_toy_cycle_file(tmp_path, capsys):
    out = tmp_path / "toy.txt"
    assert main(["euler", "build", "--q", "2", "--k", "1", "--rows", "1",
                 "--out", str(out)]) == 0
    text = out.read_text().splitlines()
    assert text[0] == "OA 4 1 2 1 2"
    assert text[1] == "0 0 1 1"
    assert text[2] == "EULER 1 1"


def test_euler_verify_shuffled_exits_1(tmp_path, eoa256_file):
    shuffled = tmp_path / "shuffled.txt"
    shuffled.write_text("\n".join(_shuffle_columns(eoa256_file.read_text().splitlines()))
                        + "\n")
    assert main(["euler", "verify", "--in", str(shuffled)]) == 1


def test_euler_verify_non_field_order_exits_2(tmp_path, capsys):
    path = tmp_path / "q6.txt"
    path.write_text("OA 36 2 6 2 1\n{}\n{}\n".format(
        " ".join(str(j % 6) for j in range(36)),
        " ".join(str(j // 6) for j in range(36))))
    assert main(["euler", "verify", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "prime power" in err
    assert len(err.strip().splitlines()) == 1


def test_euler_verify_strength_from_header_or_flag(tmp_path, eoa256_file, capsys):
    """Without a trailer the header's t is checked; --t overrides both."""
    lines = eoa256_file.read_text().splitlines()
    bare = tmp_path / "bare.txt"
    bare.write_text("\n".join(lines[:-1]) + "\n")
    assert main(["euler", "verify", "--in", str(bare)]) == 0
    assert "Eulerian strength 2" in capsys.readouterr().out
    assert main(["euler", "verify", "--in", str(eoa256_file), "--t", "1"]) == 0
    assert "Eulerian strength 1" in capsys.readouterr().out


@pytest.mark.parametrize("edit, fail", [
    (lambda lines: lines[:-1] + ["EULER 2 7"],
     "FAIL: trailer claims edge multiplicity = 7, counted 1"),
    (lambda lines: [lines[0].rsplit(" ", 1)[0] + " 3"] + lines[1:],
     "FAIL: header claims lambda = 3, counted 16"),
    (lambda lines: ["OA 256 5 4 1 99"] + lines[1:],
     "FAIL: header claims lambda = 99, counted 64"),
], ids=["trailer", "header", "header-other-t"])
def test_euler_verify_checks_file_claims(tmp_path, eoa256_file, capsys, edit, fail):
    """A file whose header lambda or trailer edge multiplicity disagrees
    with the counts prints its OK line, then exits 1 with one FAIL line, as
    `oa verify` does; a header at another t than the trailer's is counted
    at its own t.  --t checks the arrays alone."""
    tampered = tmp_path / "tampered.txt"
    tampered.write_text("\n".join(edit(eoa256_file.read_text().splitlines())) + "\n")
    assert main(["euler", "verify", "--in", str(tampered)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("OK: Eulerian strength 2, lambda = 16")
    assert captured.err.splitlines() == [fail]
    assert main(["euler", "verify", "--in", str(tampered), "--t", "2"]) == 0


@pytest.mark.parametrize("kind, edit, refuted", [
    ("oa", lambda lines: ["OA 16 5 4 2 3"] + lines[1:],
     "header claims lambda = 3, counted 1"),
    ("oa", _tamper_symbol, "strength 2: rows (0, 1): tuple "),
    ("euler", lambda lines: lines[:-1] + ["EULER 2 7"],
     "trailer claims edge multiplicity = 7, counted 1"),
    ("euler", lambda lines: ["OA 256 5 4 2 3"] + lines[1:],
     "header claims lambda = 3, counted 16"),
    ("euler", lambda lines: ["OA 256 5 4 1 99"] + lines[1:],
     "header claims lambda = 99, counted 64"),
    ("euler", lambda lines: ["OA 256 5 4 3 4"] + lines[1:],
     "strength 3: rows (0, 1, 2): tuple "),
    ("euler", _tamper_symbol, "strength 2: rows (0, 1): tuple "),
    ("euler", _shuffle_columns, "eulerian 2: rows (0, 1): (vertex "),
], ids=["oa-header", "oa-tamper", "trailer", "header", "header-other-t",
        "header-strength-other-t", "tamper", "shuffle"])
def test_refuted_claims_read_the_same_from_loaders_and_verifiers(
        tmp_path, oa16_file, eoa256_file, capsys, kind, edit, refuted):
    """Each refuted claim or failed verdict of a file reads the same from
    its loader's ValueError (after "path: "), from the CLI commands that
    load it (exit 2) and from its verifier's FAIL: line (exit 1)."""
    source, loader, load = (
        (oa16_file, read_oa, ["sim", "bangbang", "--oa"]) if kind == "oa" else
        (eoa256_file, read_eulerian_oa,
         ["schedule", "export", "--out", str(tmp_path / "s.json"), "--oa"]))
    path = tmp_path / "claim.txt"
    path.write_text("\n".join(edit(source.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError) as info:
        loader(path)
    message = str(info.value)
    assert message.startswith(f"{path}: {refuted}")
    capsys.readouterr()
    assert main([kind, "verify", "--in", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "FAIL: " + message.removeprefix(f"{path}: ")]
    assert main([*load, str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("kind, edit, where", [
    ("euler", lambda lines: ["OA 256 5 4 9 1"] + lines[1:], "header"),
    ("euler", lambda lines: lines[:-1] + ["EULER 9 1"], "trailer"),
    ("oa", lambda lines: ["OA 16 5 4 9 1"] + lines[1:], "header"),
], ids=["euler-header", "euler-trailer", "oa-header"])
@pytest.mark.parametrize("command", [
    ["euler", "verify", "--in"], ["oa", "verify", "--in"],
    ["schedule", "export", "--delta", "0.1", "--out", "s.json", "--oa"],
    ["sim", "bangbang", "--oa"]], ids=["euler-verify", "oa-verify", "export", "sim"])
def test_strength_out_of_range_names_the_file(tmp_path, oa16_file, eoa256_file,
                                              capsys, kind, edit, where, command):
    """A header or trailer t outside [1, n] exits 2 with one error line
    that names the file, from every command that reads it."""
    source = oa16_file if kind == "oa" else eoa256_file
    path = tmp_path / "claim9.txt"
    path.write_text("\n".join(edit(source.read_text().splitlines())) + "\n")
    command = [str(tmp_path / a) if a == "s.json" else a for a in command]
    capsys.readouterr()
    assert main([*command, str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: {where} strength t = 9 out of range for 5 rows"]


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace("OA 256 ", "OA 256x ", 1), "malformed OA header"),
    (lambda text: text.replace("EULER 2 1", "EULER 2 x"), "malformed EULER trailer"),
], ids=["header", "trailer"])
@pytest.mark.parametrize("blank", [False, True], ids=["written", "blank-line"])
@pytest.mark.parametrize("command", [["euler", "verify", "--in"],
                                     ["oa", "verify", "--in"]],
                         ids=["euler-verify", "oa-verify"])
def test_non_integer_header_or_trailer_names_the_file(tmp_path, eoa256_file, capsys,
                                                      edit, message, blank, command):
    """A header or trailer field that is not an integer exits 2 with one
    line that names the file, the same with a blank line after the header
    (which sends the rows through the text parser)."""
    text = edit(eoa256_file.read_text())
    if blank:
        text = text.replace("\n", "\n\n", 1)
    path = tmp_path / "bad.txt"
    path.write_text(text)
    capsys.readouterr()
    assert main([*command, str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]


@pytest.mark.parametrize("text, message", [
    ("CODE 4 5 2\n1 0\n0 1\n1 1\n1 2\nx 3\n",
     "invalid literal for int() with base 10: 'x'"),
    ("CODE 4 5 2\n1 0\n0 1\n1 1\n1 2\n7 3\n",
     "generator entries must be symbols in [0, q)")], ids=["token", "symbol"])
@pytest.mark.parametrize("command", [
    ["code", "info", "--in"], ["oa", "build", "--out", "oa.txt", "--code"],
    ["euler", "build", "--out", "eoa.txt", "--code"]], ids=["info", "oa", "euler"])
def test_bad_code_file_names_the_file(tmp_path, capsys, text, message, command):
    """A generator token that is not an integer, or a symbol outside [0, q),
    exits 2 with one line that names the code file."""
    path = tmp_path / "code.txt"
    path.write_text(text)
    command = [str(tmp_path / a) if a.endswith(".txt") else a for a in command]
    capsys.readouterr()
    assert main([*command, str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]


NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position {}: invalid start byte"


@pytest.mark.parametrize("command, data, message", [
    ("oa verify --in", b"OA 2 2 4 1 1\n0 1\n2 \xff\n", NOT_UTF8.format(19)),
    ("euler verify --in", b"OA 2 2 4 1 1\n0 1\n2 \xff\n", NOT_UTF8.format(19)),
    ("code info --in", b"CODE 4 2\n\xff\n", NOT_UTF8.format(9)),
    ("sim eulerian --oa {eoa256} --n 5 --t 2 --drift", b'{"n": \xff}',
     NOT_UTF8.format(6)),
    ("sim eulerian --oa {eoa256} --n 5 --t 2 --drift", b'{"n": 5 "d": 2}',
     "Expecting ',' delimiter: line 1 column 9 (char 8)"),
    ("sim eulerian --oa {eoa256} --n 5 --t 2 --drift",
     b'{"n": 5, "d": 2, "d_env": 1, "env_only": [[0, 0]], '
     b'"terms": [{"support": [0], "sys": [[1, 0, 0]], "env": [[1, 0]]}]}',
     "malformed drift document: terms[0].sys: too many values to unpack "
     "(expected 2)")],
    ids=["oa", "euler", "code", "drift-bytes", "drift-json", "drift-field"])
def test_undecodable_file_names_the_file(tmp_path, eoa256_file, capsys, command,
                                         data, message):
    """An array, code or drift file that is not UTF-8, and a drift file that
    is not JSON or holds [re, im, x] triples, exit 2 with one line that
    names the file (and the field)."""
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    capsys.readouterr()
    assert main([*command.format(eoa256=eoa256_file).split(), str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]


def test_sim_eulerian_histogram_cap_exits_2(tmp_path, capsys):
    """Arity-6 terms over GF(4) need 4^12 (vertex, transition) bins."""
    path = tmp_path / "rows6.txt"
    path.write_text("OA 4 6 4 1 1\n" + "0 1 2 3\n" * 6)
    assert main(["sim", "eulerian", "--oa", str(path), "--t", "6"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: projection group squared, 16777216, exceeds cap 1048576"]


def test_euler_build_deterministic(tmp_path, dual_code_file, eoa256_file):
    again = tmp_path / "again.txt"
    assert main(["euler", "build", "--code", str(dual_code_file),
                 "--out", str(again)]) == 0
    assert again.read_bytes() == eoa256_file.read_bytes()


def test_schedule_export(tmp_path, eoa256_file, capsys):
    out = tmp_path / "sched.json"
    assert main(["schedule", "export", "--oa", str(eoa256_file),
                 "--delta", "0.1", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "256 segments x 5 qudits" in captured
    data = json.loads(out.read_text())
    assert data["N"] == 256 and data["mode"] == "eulerian"
    assert np.array(data["index"]).shape == (256, 5)
    # one labelled table row per GF(4) transition symbol, each used by some
    # segment
    table = np.array(data["hamiltonians"])
    assert table.shape == (4, 4, 2) and np.array(data["labels"]).shape == (4, 2)
    assert set(np.ravel(data["index"]).tolist()) == set(range(4))
    # every exported h satisfies ||h|| <= pi/delta
    h = (table[..., 0] + 1j * table[..., 1]).reshape(-1, 2, 2)
    assert np.linalg.norm(h, 2, axis=(1, 2)).max() <= np.pi / 0.1 + 1e-9


def test_schedule_export_requires_eulerian_file(tmp_path, oa16_file):
    assert main(["schedule", "export", "--oa", str(oa16_file),
                 "--out", str(tmp_path / "s.json")]) == 2


def test_sim_bangbang_pass_and_report(tmp_path, oa16_file):
    report = tmp_path / "rep.json"
    assert main(["sim", "bangbang", "--oa", str(oa16_file), "--n", "5",
                 "--t", "2", "--seed", "7", "--denv", "2",
                 "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["passed"] is True
    assert data["residual_norm"] <= 1e-10
    assert data["tolerance"] == 1e-10
    assert len(data["per_term_norms"]) == 20


def test_sim_bangbang_three_body_exits_1(tmp_path, oa16_file):
    """The strength-2 array averages every string of weight <= 2 away, so
    the report's top strings, largest first, are 3-body strings whose
    squared norms make up part of the residual's."""
    report = tmp_path / "rep.json"
    assert main(["sim", "bangbang", "--oa", str(oa16_file), "--n", "5",
                 "--t", "3", "--seed", "7", "--report", str(report)]) == 1
    data = json.loads(report.read_text())
    tops = data["top_strings"]
    norms = [entry["norm"] for entry in tops]
    assert len(tops) == 5 and norms == sorted(norms, reverse=True) and norms[-1] > 1e-3
    assert all(len(entry["string"]) == 3 for entry in tops)
    assert all(0 <= k < 5 and 0 < s < 4 for entry in tops for k, s in entry["string"])
    assert sum(x**2 for x in norms) <= data["residual_norm"] ** 2


def test_sim_eulerian_pass(tmp_path, eoa256_file):
    report = tmp_path / "rep.json"
    assert main(["sim", "eulerian", "--oa", str(eoa256_file), "--n", "5",
                 "--t", "2", "--seed", "7", "--denv", "2",
                 "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["residual_norm"] <= 1e-9
    assert data["env_shift_norm"] <= 1e-12
    assert data["method"] == "exact"


def test_sim_eulerian_names_non_eulerian_array(tmp_path, eoa256_file, capsys):
    """A column-shuffled array keeps strength 2, so sim accepts it, but the
    residual fails; the failure line names the first Eulerian violation,
    after the residual line."""
    shuffled = tmp_path / "shuffled.txt"
    shuffled.write_text("\n".join(_shuffle_columns(eoa256_file.read_text().splitlines()))
                        + "\n")
    capsys.readouterr()
    assert main(["sim", "eulerian", "--oa", str(shuffled), "--n", "5",
                 "--t", "2", "--seed", "7"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("residual = ")
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("FAIL: residual ")
    assert "not Eulerian at strength 2: rows (0, 1): (vertex" in err[0]


def test_sim_eulerian_sweep_reports_slope(tmp_path, capsys):
    # 2-qubit identity-code array keeps the full space small for the sweep
    eoa2 = tmp_path / "eoa2.txt"
    assert main(["euler", "build", "--q", "4", "--k", "2", "--out", str(eoa2)]) == 0
    report = tmp_path / "rep.json"
    with mock.patch.object(eoa.decoupling, "embed",
                           wraps=eoa.decoupling.embed) as embed:
        assert main(["sim", "eulerian", "--oa", str(eoa2), "--t", "2",
                     "--seed", "11", "--denv", "2", "--sweep-tc", "3",
                     "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert 1.7 <= data["sweep"]["slope"] <= 2.3
    assert len(data["sweep"]["errors"]) == 3
    # the full drift Hamiltonian is built once for the three sweep points:
    # one embed per term (a system and a coupling term on the one support)
    assert embed.call_count == 2


def test_sim_missing_file_exits_2():
    assert main(["sim", "bangbang", "--oa", "nosuch.txt", "--t", "2"]) == 2


def test_sim_wrong_n_exits_2(oa16_file):
    assert main(["sim", "bangbang", "--oa", str(oa16_file), "--n", "4",
                 "--t", "2"]) == 2


def test_sim_drift_file(tmp_path, oa16_file):
    from eoa.decoupling import random_drift, write_drift
    drift_path = tmp_path / "drift.json"
    write_drift(drift_path, random_drift(5, 2, 2, 2, seed=7))
    assert main(["sim", "bangbang", "--oa", str(oa16_file),
                 "--drift", str(drift_path)]) == 0


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["oa", "definitely-not-a-subcommand"])
    assert excinfo.value.code == 2


# Different subcommands, an input error and two argparse errors, with each
# option given in one call and left to its default in a later one.
SESSION = [
    "code hamming --q 4 --m 2 --dual --out {w}/dual.txt",
    "oa build --code {w}/dual.txt --out {w}/oa16.txt",
    "oa verify --in {w}/oa16.txt --t 1",
    "oa verify --in {w}/oa16.txt",
    "oa verify --in {w}/oa16.txt --t 9",
    "sim bangbang --oa {w}/oa16.txt --n 5 --t 2 --seed 7 --denv 2 --report {w}/a.json",
    "sim bangbang --oa {w}/oa16.txt --n 5 --report {w}/b.json",
    "oa verify",
    "sim eulerian --oa {w}/oa16.txt --n 5 --method magic",
    "code info --in {w}/dual.txt",
]


def test_successive_main_calls_share_one_parser(tmp_path, capsys):
    """main builds its parser on the first call and reuses it: a session of
    successive calls gives the exit codes, outputs and reports of a parser
    built afresh for every call, and no option of one call leaks into the
    next (--t, --seed and --denv fall back to their defaults)."""
    def run():
        results = []
        for line in SESSION:
            try:
                code = main(line.format(w=tmp_path).split())
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            reports = [json.loads((tmp_path / f"{name}.json").read_text())
                       for name in "ab" if (tmp_path / f"{name}.json").exists()]
            results.append((code, captured.out, captured.err, reports))
        return results

    cached = run()
    assert cli.build_parser() is cli.build_parser()
    for name in "ab":
        (tmp_path / f"{name}.json").unlink()
    with mock.patch.object(cli, "build_parser", cli.build_parser.__wrapped__):
        fresh = run()
    assert cached == fresh
    assert [code for code, *_ in cached] == [0, 0, 0, 0, 2, 0, 0, 2, 2, 0]
    assert "strength 1 with" in cached[2][1] and "strength 2 with" in cached[3][1]
    assert "usage: eoa" in cached[7][2] and "invalid choice" in cached[8][2]
    first, second = cached[-1][3]
    assert (first["seed"], first["d_env"]) == (7, 2)
    assert (second["seed"], second["d_env"], second["drift_arity"]) == (0, 1, 2)


def test_parser_is_not_built_at_import():
    """Importing eoa.cli builds no parser: the first main call does."""
    src = str(Path(eoa.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import eoa.cli; print(eoa.cli.build_parser.cache_info().currsize)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "0"


def test_sim_bangbang_exact_zero_lists_no_top_strings(tmp_path, oa16_file):
    """The [5, 2]_4 array averages the seed-7 2-body drift to exactly 0.0,
    so no Weyl string carries a share and the report lists none."""
    report = tmp_path / "bb.json"
    assert main(["sim", "bangbang", "--oa", str(oa16_file), "--n", "5",
                 "--t", "2", "--seed", "7", "--denv", "2",
                 "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["residual_norm"] == 0.0
    assert data["top_strings"] == []


# a header claiming the prime field order 2^31 - 1 (trial division to p
# would take minutes, a q^t count 16 GiB), and one claiming 10^20 rows
BIG_Q = "OA 2 1 2147483647 1 1\n0 1\nEULER 1 1\n"
HUGE_N = "OA 1 99999999999999999999 4 1 1\n0\n"


@pytest.mark.parametrize("command, text, message", [
    ("oa verify --in", BIG_Q, "projection group, 2147483647, exceeds cap 1048576"),
    ("euler verify --in", BIG_Q, "field order 2147483647 exceeds cap 256"),
    ("code info --in", "CODE 2147483647 1 1\n1\n",
     "{path}: field order 2147483647 exceeds cap 256"),
    ("oa verify --in", HUGE_N,
     "{path}: array shape (1, 1) != (99999999999999999999, 1)")],
    ids=["oa-big-q", "euler-big-q", "code-big-q", "oa-huge-n"])
def test_huge_header_claims_exit_2_with_pinned_line(tmp_path, capsys, command,
                                                     text, message):
    """A field order past the cap is refused before its factoring, a q^t
    past the pair cap before its count, and a claimed row block past the
    file's end is left to the text path, which words the shape error."""
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main([*command.split(), str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {message.format(path=path)}"]


BAD_INPUTS = [
    "oa verify --in {oa16} --t 0",
    "oa verify --in {oa16} --t 9",
    "euler verify --in {eoa256} --t 0",
    "euler build --q 4 --k 2 --t 0 --out {w}/e.txt",
    "euler build --q 4 --k 2 --t 5 --out {w}/e.txt",
    "oa build --code {dual} --d-dual 0 --out {w}/oa.txt",
    "oa build --code {dual} --d-dual 1 --out {w}/oa.txt",
    "oa build --code {dual} --d-dual 9 --out {w}/oa.txt",
    "sim bangbang --oa {q6}",
    "sim bangbang --oa {oa16} --n 5 --t 0",
    "sim bangbang --oa {oa16} --n 5 --t 2 --denv 0",
    "sim bangbang --oa {oa16} --n 5 --t 7",
    "sim bangbang --oa {oa16} --drift {empty}",
    "sim bangbang --oa {oa16} --n 5 --t 3 --seed 7 --tol nan",
    "sim bangbang --oa {oa16} --n 5 --t 3 --seed 7 --tol inf",
    "sim bangbang --oa {oa16} --n 5 --t 3 --seed 7 --tol -0.001",
    "sim bangbang --oa {oa16} --t 2 --tol -1e-3",
    "sim eulerian --oa {eoa256} --n 5 --t 2 --delta 0",
    "sim eulerian --oa {eoa256} --n 5 --t 2 --delta -0.1",
    "sim eulerian --oa {eoa256} --n 5 --t 2 --delta nan",
    "schedule export --oa {eoa256} --delta 0 --out {w}/sched.json",
    "sim eulerian --oa {eoa256} --n 5 --t 2 --method quadrature --order 0",
    "sim eulerian --oa {eoa256} --n 5 --t 2 --sweep-tc 1",
    "sim eulerian --oa {eoa256} --n 5 --t 2 --sweep-tc 2 --sweep-base 0",
    "oa verify --in {w}/ragged.txt",
    "euler verify --in {w}/ragged.txt",
    "oa verify --in {w}/huge.txt",
    "code info --in {w}/hugecode.txt",
    "oa verify --in {w}/bigq.txt",
    "euler verify --in {w}/bigq.txt",
    "schedule export --oa {w}/bigq.txt --out {w}/sched.json",
    "sim eulerian --oa {w}/bigq.txt --n 1 --t 1",
    "code info --in {w}/bigqcode.txt",
    "oa verify --in {w}/hugen.txt",
    "euler verify --in {w}/hugen.txt",
    "code hamming --q 4 --m 2 --out {w}/missing/c.txt",
    "oa build --code {dual} --out {w}/missing/oa.txt",
    "euler build --code {dual} --out {w}/missing/eoa.txt",
    "schedule export --oa {eoa256} --out {w}/missing/sched.json",
    "sim bangbang --oa {oa16} --n 5 --t 2 --seed 7 --report {w}/missing/bb.json",
    "sim bangbang --oa {oa16} --drift {w}/nokeys.json",
    "sim bangbang --oa {oa16} --drift {w}/badsys.json",
    "sim bangbang --oa {oa16} --drift {w}/toplist.json",
    "euler build --q 4 --k 11 --out {w}/big.txt",
    "oa build --code {w}/ham43.txt --d-dual 16 --out {w}/x.txt",
    "euler build --code {w}/ham43.txt --t 2 --out {w}/y.txt",
]


@pytest.mark.parametrize("line", BAD_INPUTS)
def test_bad_input_exits_2_with_one_line(line, tmp_path, dual_code_file, oa16_file,
                                         eoa256_file, capsys):
    """Out-of-range strengths, drift parameters, pulse lengths, quadrature
    orders and sweep lengths, a tolerance that no residual could fail (the
    3-body drift leaves about 1.2, and `residual > nan` is False), ragged
    array rows, symbols beyond int64, headers that claim the prime field
    order 2^31 - 1 or 10^20 rows,
    malformed drift files, size caps ([21, 18]_4 Hamming code: 4^18 words)
    and output paths that cannot be written are input errors: exit 2 and
    one stderr line, never a traceback, a hang or a vacuous OK."""
    from eoa.decoupling import (DriftHamiltonian, drift_to_json, random_drift,
                                write_drift)
    q6 = tmp_path / "q6.txt"
    q6.write_text("OA 36 2 6 2 1\n{}\n{}\n".format(
        " ".join(str(j % 6) for j in range(36)),
        " ".join(str(j // 6) for j in range(36))))
    (tmp_path / "ragged.txt").write_text("OA 2 2 4 1 1\n0 1\n2\nEULER 1 1\n")
    (tmp_path / "huge.txt").write_text("OA 2 1 4 1 1\n0 99999999999999999999\n")
    (tmp_path / "hugecode.txt").write_text("CODE 4 2 1\n99999999999999999999\n1\n")
    (tmp_path / "bigq.txt").write_text(BIG_Q)
    (tmp_path / "bigqcode.txt").write_text("CODE 2147483647 1 1\n1\n")
    (tmp_path / "hugen.txt").write_text(HUGE_N)
    empty = tmp_path / "empty.json"
    write_drift(empty, DriftHamiltonian(5, 2, 1, (), np.zeros((1, 1), dtype=complex)))
    bad_sys = drift_to_json(random_drift(5, 2, 2, 1, seed=0))
    bad_sys["terms"][0]["sys"] = [1, 2, 3]
    for name, doc in [("nokeys", {"n": 5, "d": 2}), ("badsys", bad_sys),
                      ("toplist", [1, 2])]:
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    write_code(tmp_path / "ham43.txt", hamming_code(gf_new(2, 2), 3))
    capsys.readouterr()
    argv = line.format(dual=dual_code_file, oa16=oa16_file, eoa256=eoa256_file,
                       q6=q6, empty=empty, w=tmp_path).split()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "OK" not in captured.out
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_runtime_imports_no_scipy():
    """import eoa and eoa.cli load numpy only: no scipy, and no
    concurrent.futures, since counting is serial.  A fresh interpreter,
    since this test process imports scipy for the tests' oracles."""
    src = str(Path(eoa.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, eoa, eoa.cli; "
         "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "False False"


def test_schedule_verdicts_import_no_numpy_ma(tmp_path, eoa256_file):
    """Exporting a schedule and reading it back with verify_schedule,
    `euler verify` and `sim eulerian` never load numpy.ma, which a plain
    np.unique imports on its first call."""
    src = str(Path(eoa.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    sched = tmp_path / "sched.json"
    script = (
        "import sys, eoa, eoa.cli\n"
        f"argv = ['schedule', 'export', '--oa', {str(eoa256_file)!r}, "
        f"'--delta', '0.1', '--out', {str(sched)!r}]\n"
        "assert eoa.cli.main(argv) == 0\n"
        f"assert eoa.verify_schedule(eoa.read_schedule({str(sched)!r})) <= 1e-12\n"
        f"assert eoa.cli.main(['euler', 'verify', '--in', {str(eoa256_file)!r}]) == 0\n"
        f"assert eoa.cli.main(['sim', 'eulerian', '--oa', {str(eoa256_file)!r}, "
        "'--n', '5', '--t', '2', '--seed', '7', '--denv', '2']) == 0\n"
        "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.splitlines()[-1] == "False"
