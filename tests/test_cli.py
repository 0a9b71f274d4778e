import json

import numpy as np
import pytest

from eoa.cli import _resolve_d_dual, main
from eoa.codes import hamming_code
from eoa.gf import gf_new
from eoa.oa import max_strength


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
    lines = oa16_file.read_text().splitlines()
    row = lines[1].split()
    row[0] = "1" if row[0] == "0" else "0"
    lines[1] = " ".join(row)
    tampered = tmp_path / "tampered.txt"
    tampered.write_text("\n".join(lines) + "\n")
    assert main(["oa", "verify", "--in", str(tampered), "--t", "2"]) == 1
    assert "rows (" in capsys.readouterr().err


def test_oa_build_wrong_dual_distance_exits_1(tmp_path, dual_code_file):
    assert main(["oa", "build", "--code", str(dual_code_file),
                 "--d-dual", "4", "--out", str(tmp_path / "bad.txt")]) == 1


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
    lines = eoa256_file.read_text().splitlines()
    arr = np.array([ln.split() for ln in lines[1:-1]])
    rng = np.random.default_rng(5)
    arr = arr[:, rng.permutation(arr.shape[1])]
    out = [lines[0]] + [" ".join(r) for r in arr] + [lines[-1]]
    shuffled = tmp_path / "shuffled.txt"
    shuffled.write_text("\n".join(out) + "\n")
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


def test_sim_eulerian_histogram_cap_exits_2(tmp_path, capsys):
    """Arity-6 terms over GF(4) need 4^12 (vertex, transition) bins."""
    path = tmp_path / "rows6.txt"
    path.write_text("OA 4 6 4 1 1\n" + "0 1 2 3\n" * 6)
    assert main(["sim", "eulerian", "--oa", str(path), "--t", "6"]) == 2
    assert "histogram of 16777216" in capsys.readouterr().err


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
    assert len(data["segments"]) == 256
    assert len(data["segments"][0]["labels"]) == 5
    assert len(data["segments"][0]["hamiltonians"]) == 5
    # one table row per GF(4) transition symbol, each used by some segment
    table = np.array(data["hamiltonians"])
    assert table.shape == (4, 4, 2)
    used = {i for seg in data["segments"] for i in seg["hamiltonians"]}
    assert used == set(range(4))
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


def test_sim_bangbang_three_body_exits_1(oa16_file):
    assert main(["sim", "bangbang", "--oa", str(oa16_file), "--n", "5",
                 "--t", "3", "--seed", "7"]) == 1


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
    lines = eoa256_file.read_text().splitlines()
    arr = np.array([ln.split() for ln in lines[1:-1]])
    arr = arr[:, np.random.default_rng(5).permutation(arr.shape[1])]
    shuffled = tmp_path / "shuffled.txt"
    shuffled.write_text("\n".join([lines[0]] + [" ".join(r) for r in arr]
                                  + [lines[-1]]) + "\n")
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
    assert main(["sim", "eulerian", "--oa", str(eoa2), "--t", "2",
                 "--seed", "11", "--denv", "2", "--sweep-tc", "3",
                 "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert 1.7 <= data["sweep"]["slope"] <= 2.3
    assert len(data["sweep"]["errors"]) == 3


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


BAD_INPUTS = [
    "oa verify --in {oa16} --t 0",
    "oa verify --in {oa16} --t 9",
    "euler verify --in {eoa256} --t 0",
    "sim bangbang --oa {q6}",
    "sim bangbang --oa {oa16} --n 5 --t 0",
    "sim bangbang --oa {oa16} --n 5 --t 2 --denv 0",
    "sim bangbang --oa {oa16} --n 5 --t 7",
    "sim bangbang --oa {oa16} --drift {empty}",
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
]


@pytest.mark.parametrize("line", BAD_INPUTS)
def test_bad_input_exits_2_with_one_line(line, tmp_path, oa16_file, eoa256_file,
                                         capsys):
    """Out-of-range strengths, drift parameters, pulse lengths, quadrature
    orders and sweep lengths, ragged array rows and symbols beyond int64
    are input errors: exit 2 and one stderr line, never a traceback or a
    vacuous OK."""
    from eoa.decoupling import DriftHamiltonian, write_drift
    q6 = tmp_path / "q6.txt"
    q6.write_text("OA 36 2 6 2 1\n{}\n{}\n".format(
        " ".join(str(j % 6) for j in range(36)),
        " ".join(str(j // 6) for j in range(36))))
    (tmp_path / "ragged.txt").write_text("OA 2 2 4 1 1\n0 1\n2\nEULER 1 1\n")
    (tmp_path / "huge.txt").write_text("OA 2 1 4 1 1\n0 99999999999999999999\n")
    (tmp_path / "hugecode.txt").write_text("CODE 4 2 1\n99999999999999999999\n1\n")
    empty = tmp_path / "empty.json"
    write_drift(empty, DriftHamiltonian(5, 2, 1, (), np.zeros((1, 1), dtype=complex)))
    capsys.readouterr()
    argv = line.format(oa16=oa16_file, eoa256=eoa256_file, q6=q6, empty=empty,
                       w=tmp_path).split()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "OK" not in captured.out
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
