import argparse
import json
import re
import time
from pathlib import Path

import pytest

from codelattice import cli, constructions
from codelattice.cli import main
from codelattice.gf2core import BinaryMatrix, BinaryVector, complete_to_full_rank
from codelattice.matio import data_path, read_matrix, write_f2_matrix, write_z_matrix
from codelattice.zlattice import WALK_RANK_CAP, Lattice


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_code_info_golay_text(capsys):
    code, out, err = run(capsys, ["code-info", data_path("golay24.txt")])
    assert (code, err) == (0, "")
    assert out == (
        "block length n = 24\n"
        "dimension    k = 12\n"
        "min distance d = 8\n"
        "kissing kappa0 = 759\n"
        "  min-weight word: 0 0 0 0 0 0 0 0 0 0 0 1 0 1 0 1 1 1 0 0 0 1 1 1\n"
        "  min-weight word: 0 0 0 0 0 0 0 0 0 0 1 0 1 0 1 1 1 0 0 0 1 1 0 1\n"
        "  min-weight word: 0 0 0 0 0 0 0 0 0 0 1 1 1 1 1 0 0 1 0 0 1 0 1 0\n"
        "  min-weight word: 0 0 0 0 0 0 0 0 0 1 0 0 0 0 1 0 1 1 0 1 1 1 1 0\n"
        "  min-weight word: 0 0 0 0 0 0 0 0 0 1 0 1 0 1 1 1 0 0 0 1 1 0 0 1\n"
    )


def test_code_info_golay_json(capsys, tmp_path):
    dest = str(tmp_path / "info.json")
    code, out, _ = run(
        capsys, ["code-info", data_path("golay24.txt"), "--format", "json", "--out", dest]
    )
    assert code == 0 and out == ""
    rep = json.loads(open(dest).read())
    assert (rep["n"], rep["k"], rep["d"], rep["kappa0"]) == (24, 12, 8, 759)
    assert len(rep["min_weight_sample"]) == 5


def test_exit_2_on_malformed_and_missing_input(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("17 banana F2\n")
    code, _, err = run(capsys, ["code-info", str(bad)])
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, ["code-info", str(tmp_path / "nope.txt")])
    assert code == 2
    # a header with one zero dimension is refused before anything is built
    bad.write_text("10000000 0 F2\n")
    code, _, err = run(capsys, ["code-info", str(bad)])
    assert code == 2 and "one zero dimension" in err
    bad.write_text("0 10000000 Z\n")
    code, _, err = run(capsys, ["lattice-analyze", str(bad)])
    assert code == 2 and "one zero dimension" in err
    # an entry past the interpreter's digit limit is named too long
    bad.write_text("1 1 Z " + "7" * 5000 + "\n")
    code, _, err = run(capsys, ["lattice-analyze", str(bad)])
    assert code == 2 and "5000 digits is too long" in err
    # an --out that cannot be written is a usage error, not an internal one
    code, out, err = run(capsys, ["verify", "cor25", "--out", str(tmp_path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "internal" not in err
    # flags no command read are gone: verify --delta, construct --seed
    for argv in (
        ["verify", "cor25", "--delta", "1/2"],
        ["construct", data_path("golay24.txt"), "--construction", "a", "--seed", "3"],
    ):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_exit_2_on_a_non_ascii_byte(capsys, tmp_path):
    # a byte >= 0x80 fails the ASCII decode, which is a parse error naming
    # the file, in a matrix file, a tower manifest and a level file alike
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"3 1 F2\n1\n\xff\n1\n")
    code, _, err = run(capsys, ["code-info", str(bad)])
    assert code == 2 and str(bad) in err and "decode" in err
    manifest = tmp_path / "tower.txt"
    manifest.write_bytes(b"tower 4 2\nc1.txt\nc2.txt\xc3\xa9\n")
    code, _, err = run(capsys, ["construct", str(manifest), "--construction", "d-bar"])
    assert code == 2 and str(manifest) in err
    manifest.write_bytes(b"tower 4 2\nc1.txt\nc2.txt\n")
    Path(tmp_path / "c1.txt").write_bytes(Path(data_path("tower_nonclosed_c1.txt")).read_bytes())
    Path(tmp_path / "c2.txt").write_bytes(b"4 1 F2\n1 1 0 \x801\n")
    code, _, err = run(capsys, ["verify", "dbar-schur", "--tower", str(manifest), "--no-timing"])
    assert code == 2 and str(tmp_path / "c2.txt") in err


# the verify-only flags each target reads; every other pairing is refused
VERIFY_FLAGS = {"--m": ["18"], "--p": ["1"], "--seed": ["1"], "--budget": ["5"],
                "--full-enum": [], "--tower": ["x.txt"]}
READS = {
    "thm22": {"--m", "--seed"},
    "cor23": {"--m", "--seed", "--full-enum", "--budget"},
    "thm24": {"--m", "--p"},
    "cor25": {"--m", "--p"},
    "cstar-collapse": {"--seed"},
    "dbar-schur": {"--tower"},
    "golay-lp": {"--p"},
}


def test_verify_refuses_flags_the_target_does_not_read(capsys):
    assert sum(map(len, READS.values())) == 13
    assert {t: {flag for flag, _ in flags} for t, (flags, _) in cli.THEOREMS.items()} == READS
    unread = [
        ["verify", target, flag, *value]
        for target in READS
        for flag, value in VERIFY_FLAGS.items()
        if flag not in READS[target]
    ]
    assert len(unread) == 7 * 6 - 13
    for argv in unread + [
        "verify cor25 --no-timing --full-enum --budget 1 --seed 9 --tower x".split(),
        ["verify", "golay-lp", "--budget", "5"],
        # shared flags follow the target; the verify parser itself has none
        ["verify", "--no-timing", "cor25"],
    ]:
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_parser_built_once_keeps_no_value_between_calls(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["verify", "cor25", "--m", "0"])
    assert ei.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, ["verify", "cor23", "--m", "18", "--no-timing"])
    assert code == 0 and json.loads(out)["params"]["m"] == 18
    code, out, _ = run(capsys, ["verify", "cor25", "--no-timing"])
    golden = Path(__file__).resolve().parent / "golden" / "verify-cor25.json"
    assert code == 0 and out == golden.read_text(encoding="utf-8")


def test_exit_3_on_oversized_sweep(capsys, tmp_path):
    p = str(tmp_path / "id29.txt")
    write_f2_matrix(p, BinaryMatrix.identity(29))
    code, _, err = run(capsys, ["code-info", p])
    assert code == 3 and "error:" in err
    # seven levels of F2^3: a quotient of 2^21 cosets, decided by the count alone
    write_f2_matrix(str(tmp_path / "f3.txt"), BinaryMatrix.identity(3))
    man = tmp_path / "tower7.txt"
    man.write_text("tower 3 7\n" + "f3.txt\n" * 7)
    code, _, err = run(capsys, ["construct", str(man), "--construction", "d-bar"])
    assert code == 0 and "# is_lattice: True" in err
    # 21 levels of the even [3, 2] code, not closed under products: the
    # worst case of the witness descent, 2^21 + 2^21 + 2^20 digits, passes
    # the cap, but the descent reaches its witness after 23 prefix tests
    write_f2_matrix(str(tmp_path / "even3.txt"), BinaryMatrix.from_rows([[1, 1], [1, 0], [0, 1]]))
    man = tmp_path / "tower21.txt"
    man.write_text("tower 3 21\n" + "even3.txt\n" * 21)
    code, _, err = run(capsys, ["construct", str(man), "--construction", "d-bar"])
    assert code == 0 and "# is_lattice: False" in err
    # one level, the even [30, 29] code: the span's generators stop at the sweep cap
    even30 = [BinaryVector.from_support(30, (0, i)) for i in range(1, 30)]
    write_f2_matrix(str(tmp_path / "even30.txt"), BinaryMatrix.from_columns(even30, 30))
    man = tmp_path / "tower_even30.txt"
    man.write_text("tower 30 1\neven30.txt\n")
    for argv in (
        ["construct", str(man), "--construction", "d-bar"],
        ["verify", "dbar-schur", "--tower", str(man)],
    ):
        code, out, err = run(capsys, argv)
        assert code == 3 and out == ""
        assert err == "error: rank 29 > sweep cap 28\n"


def test_exit_70_on_internal_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ArithmeticError("pivot does not divide 2^a (bug)")

    monkeypatch.setattr(cli, "verify_dbar_schur", broken)
    code, out, err = run(capsys, ["verify", "dbar-schur"])
    assert code == 70 and out == ""
    assert err == "error: internal: ArithmeticError: pivot does not divide 2^a (bug)\n"


def test_exit_1_on_hypotheses_fail_with_report(capsys):
    code, _, err = run(capsys, ["verify", "thm24", "--m", "3"])
    assert code == 1
    assert "below minimum" in err
    assert '"theorem": "thm24"' in err  # the failing report lands on stderr


def test_exit_1_when_min_m_passes_the_digit_limit(capsys):
    # min_m is about 2^15000, past the 4300 digits that str() of an int allows
    for target in ("thm24", "cor25"):
        code, _, err = run(capsys, ["verify", target, "--p", "15000"])
        assert code == 1
        assert err.startswith("error: replication m = 4 below minimum of 15001 bits\n")


def test_cor25_hypothesis_failure_names_cor25(capsys):
    # the report that the failure carries is verify_thm24's, renamed
    code, _, err = run(capsys, ["verify", "cor25", "--p", "15000"])
    assert code == 1
    assert '"theorem": "cor25"' in err
    assert '"theorem": "thm24"' not in err


def test_p_cap_corners_finish(capsys):
    # the largest numerator over the largest denominators, and over 2
    for target, p, want in (
        ("thm24", "100000/9999", 1),
        ("cor25", "99999/10000", 1),
        ("thm24", "99999/2", 1),
        ("golay-lp", "19999/10000", 0),
        ("golay-lp", "10001/10000", 0),
        ("golay-lp", "300000/200000", 0),  # 3/2 in lowest terms
    ):
        t0 = time.perf_counter()
        code, _, _ = run(capsys, ["verify", target, "--p", p, "--no-timing"])
        assert (code, target, p) == (want, target, p)
        assert time.perf_counter() - t0 < 2.0, (target, p)


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["verify", "golay-lp", "--p", "3"],
        ["verify", "cor23", "--m", "10"],
        ["verify", "cor25", "--m", "0"],
        ["verify", "cor25", "--p", "1/2"],
        ["verify", "thm24", "--p", "100001"],
        ["verify", "thm24", "--p", "100001/2"],
        ["verify", "cor25", "--p", "20001/10003"],
        ["verify", "golay-lp", "--p", "10002/10001"],
        ["verify", "golay-lp", "--p", "1e999999999"],
        ["lattice-analyze", "x.txt", "--budget", "0"],
        ["verify", "nope"],
        [],
    ):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2
        capsys.readouterr()


def _exit_0(tmp_path, monkeypatch):
    return ["code-info", data_path("golay24.txt")]


def _exit_1(tmp_path, monkeypatch):
    return ["verify", "thm24", "--m", "3"]


def _exit_2(tmp_path, monkeypatch):
    p = tmp_path / "empty.txt"
    p.write_text("3 0 F2\n")
    return ["code-info", str(p)]


def _exit_3(tmp_path, monkeypatch):
    p = str(tmp_path / "id29.txt")
    write_f2_matrix(p, BinaryMatrix.identity(29))
    return ["code-info", p]


def _exit_4(tmp_path, monkeypatch):
    write_f2_matrix(str(tmp_path / "k0.txt"), BinaryMatrix.identity(4))
    write_f2_matrix(str(tmp_path / "k1.txt"), BinaryMatrix.from_rows([[1], [0], [0], [0]]))
    man = tmp_path / "tower.txt"
    man.write_text("tower 4 2\nk0.txt\nk1.txt\n")
    return ["construct", str(man), "--construction", "d"]


def _exit_5(tmp_path, monkeypatch):
    p = str(tmp_path / "l.txt")
    write_z_matrix(p, 4, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)])
    return ["lattice-analyze", p, "--budget", "1"]


def _exit_70(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "verify_dbar_schur", broken)
    return ["verify", "dbar-schur"]


EXIT_ARGV = {
    0: _exit_0,
    1: _exit_1,
    2: _exit_2,
    3: _exit_3,
    4: _exit_4,
    5: _exit_5,
    70: _exit_70,
}


@pytest.mark.parametrize("expected", sorted(EXIT_ARGV))
def test_documented_exit_codes(capsys, tmp_path, monkeypatch, expected):
    # one command per row of the exit-code table in the cli docstring and README
    code, _, err = run(capsys, EXIT_ARGV[expected](tmp_path, monkeypatch))
    assert code == expected
    assert ("error:" in err) == (expected != 0)


def test_construct_c_star_of_length_0_code_exits_4(capsys, tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("0 0 F2\n")
    code, out, err = run(capsys, ["construct", str(p), "--construction", "c-star"])
    assert (code, out) == (4, "")
    assert err == "error: C* takes ambient dimension 1 <= n <= 32, got 0\n"


def test_construct_a_round_trip(capsys, tmp_path):
    src = str(tmp_path / "rep3.txt")
    write_f2_matrix(src, BinaryMatrix.from_rows([[1], [1], [1]]))
    dest = str(tmp_path / "lattice.txt")
    code, out, _ = run(
        capsys, ["construct", src, "--construction", "a", "--out", dest]
    )
    assert code == 0
    assert "determinant: 4" in out
    assert "rank: 3" in out
    rows, k, cols = read_matrix(dest)
    assert (rows, k) == (3, 3)
    assert Lattice.from_generators(rows, cols).basis == ((1, 1, 1), (0, 2, 0), (0, 0, 2))
    # without --out the matrix goes to stdout and the report to stderr
    code, out, err = run(capsys, ["construct", src, "--construction", "a"])
    assert code == 0
    assert out.startswith("3 3 Z\n")
    assert "# determinant: 4" in err


def test_construct_json_includes_basis(capsys, tmp_path):
    src = str(tmp_path / "rep3.txt")
    write_f2_matrix(src, BinaryMatrix.from_rows([[1], [1], [1]]))
    code, out, _ = run(
        capsys, ["construct", src, "--construction", "simplified-d", "--format", "json"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["construction"] == "simplified-d"
    assert rep["basis"] == [[1, 1, 1]]
    assert rep["determinant"] == "sqrt(3)"


REP3_MATRIX = "3 3 Z\n1 0 0\n1 2 0\n1 0 2\n"
REP3_JSON = json.dumps(
    {"construction": "a", "n": 3, "rank": 3, "determinant": "4",
     "basis": [[1, 1, 1], [0, 2, 0], [0, 0, 2]]},
    indent=2,
) + "\n"
REP3_LINES = "construction: a\nn: 3\nrank: 3\ndeterminant: 4\n"


@pytest.mark.parametrize(
    "fmt, to_file, want_out, want_err, want_file",
    [
        ("text", False, REP3_MATRIX, "# construction: a\n# n: 3\n# rank: 3\n# determinant: 4\n", None),
        ("text", True, REP3_LINES, "", REP3_MATRIX),
        ("json", False, REP3_JSON, "", None),
        ("json", True, REP3_JSON, "", REP3_MATRIX),
    ],
)
def test_construct_output_modes(capsys, tmp_path, fmt, to_file, want_out, want_err, want_file):
    # text: the report goes to stdout beside an --out file, else to stderr
    # with the matrix on stdout; json: the report (basis included) always
    # goes to stdout, and the matrix only to an --out file
    src = str(tmp_path / "rep3.txt")
    write_f2_matrix(src, BinaryMatrix.from_rows([[1], [1], [1]]))
    dest = tmp_path / "lattice.txt"
    argv = ["construct", src, "--construction", "a", "--format", fmt]
    code, out, err = run(capsys, argv + (["--out", str(dest)] if to_file else []))
    assert (code, out, err) == (0, want_out, want_err)
    assert (dest.read_text() if dest.exists() else None) == want_file


def test_construct_json_formats_no_matrix_text(capsys, tmp_path, monkeypatch):
    # without --out the JSON report carries the basis, so no matrix text is made
    src = str(tmp_path / "rep3.txt")
    write_f2_matrix(src, BinaryMatrix.from_rows([[1], [1], [1]]))

    def refuse(rows, columns):
        raise AssertionError("matrix text formatted but never written")

    monkeypatch.setattr(cli, "format_z_matrix", refuse)
    code, out, err = run(capsys, ["construct", src, "--construction", "a", "--format", "json"])
    assert (code, out, err) == (0, REP3_JSON, "")


def test_construct_d_bar_builds_its_span_once(capsys, monkeypatch):
    calls = []
    build = Lattice.from_generators.__func__

    def counted(cls, n, columns):
        calls.append(n)
        return build(cls, n, columns)

    monkeypatch.setattr(Lattice, "from_generators", classmethod(counted))
    man = data_path("tower_nonclosed.manifest.txt")
    code, out, _ = run(capsys, ["construct", man, "--construction", "d-bar", "--format", "json"])
    assert code == 0 and json.loads(out)["is_lattice"] is False
    assert calls == [4]


def test_d_bar_descent_cap_counts_prefix_tests(capsys, tmp_path, monkeypatch):
    # 18 levels of the even [3, 2] code: the witness descent runs 20 prefix
    # tests, so a cap of 19 refuses it and a cap of 20 decides the tower
    write_f2_matrix(str(tmp_path / "even3.txt"), BinaryMatrix.from_rows([[1, 1], [1, 0], [0, 1]]))
    man = tmp_path / "tower18.txt"
    man.write_text("tower 3 18\n" + "even3.txt\n" * 18)
    argv = ["construct", str(man), "--construction", "d-bar", "--format", "json"]
    monkeypatch.setattr(constructions, "DBAR_DESCENT_CAP", 19)
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "") and "cap of 19 prefix tests" in err
    monkeypatch.setattr(constructions, "DBAR_DESCENT_CAP", 20)
    code, out, _ = run(capsys, argv)
    rep = json.loads(out)
    assert code == 0 and rep["is_lattice"] is False and rep["witness"] == [0, 0, 2]


def test_construct_d_bar_reports_verdict(capsys):
    man = data_path("tower_nonclosed.manifest.txt")
    code, out, _ = run(
        capsys, ["construct", man, "--construction", "d-bar", "--format", "json"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["is_lattice"] is False
    assert rep["witness"] == [0, 0, 0, 2]
    assert rep["n"] == 4 and rep["rank"] == 4


def test_construct_d_from_manifest(capsys, tmp_path):
    # a = 1 with the repetition code: L_D = 2 bar K_0 + bar K_1 = L_A(C_1)
    K1 = BinaryMatrix.from_rows([[1], [1], [1], [1]])
    write_f2_matrix(str(tmp_path / "k0.txt"), complete_to_full_rank(K1))
    write_f2_matrix(str(tmp_path / "k1.txt"), K1)
    man = tmp_path / "tower.txt"
    man.write_text("tower 4 2\nk0.txt\nk1.txt\n")
    argv = ["construct", str(man), "--construction", "d", "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    rep = json.loads(out)
    assert (rep["n"], rep["rank"], rep["determinant"]) == (4, 4, "8")
    # one block is no tower: a construction error, not a crash
    man.write_text("tower 4 1\nk0.txt\n")
    code, out, err = run(capsys, argv)
    assert code == 4 and out == ""
    assert err == "error: need at least K_0 and K_1\n"


def test_construct_d_special_from_manifest(capsys, tmp_path):
    # blocks: K0 (3 cols), middle c1 (weight 4), Ka (1 col), n = 5
    write_f2_matrix(
        str(tmp_path / "k0.txt"),
        BinaryMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0]]),
    )
    write_f2_matrix(
        str(tmp_path / "c1.txt"),
        BinaryMatrix.from_rows([[1], [1], [1], [1], [0]]),
    )
    write_f2_matrix(
        str(tmp_path / "ka.txt"),
        BinaryMatrix.from_rows([[0], [0], [0], [0], [1]]),
    )
    man = tmp_path / "tower.txt"
    man.write_text("tower 5 3\nk0.txt\nc1.txt\nka.txt\n")
    code, out, _ = run(
        capsys,
        ["construct", str(man), "--construction", "d-special", "--format", "json"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["determinant"] == "128"


def test_verify_cor23_deterministic_output(capsys):
    code1, out1, _ = run(capsys, ["verify", "cor23", "--no-timing"])
    code2, out2, _ = run(capsys, ["verify", "cor23", "--no-timing"])
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["exact_values"]["d"] == 16
    assert "runtime_ms" not in rep
    # the full-enumeration report is pinned byte for byte to the benchmark's golden copy
    golden = Path(__file__).resolve().parents[1] / "perfbench/golden/cor23-m17-seed0.json"
    argv = ["verify", "cor23", "--full-enum", "--no-timing", "--m", "17", "--seed", "0"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == golden.read_text()


def test_verify_text_format(capsys):
    code, out, _ = run(capsys, ["verify", "cor25", "--format", "text"])
    assert code == 0
    assert out.splitlines()[-1].startswith("verdict: PASS")
    assert "[pass] code parameters are exactly [18, 3, 9]" in out


def test_verify_text_lists_witnesses_and_certificates(capsys):
    # the whole text of a report whose hypotheses carry witnesses and whose
    # conclusion carries a certificate, pinned literally
    code, out, _ = run(capsys, ["verify", "golay-lp", "--p", "1", "--format", "text", "--no-timing"])
    assert code == 0
    vector = ", ".join(["2", "-2"] + ["0"] * 22)
    assert out == (
        "theorem: golay-lp\n"
        "params: p=1\n"
        "hypotheses:\n"
        "  [pass] code distance is exactly 8\n"
        "         witness: {'observed': 8}\n"
        "  [pass] code kissing number is exactly 759\n"
        "         witness: {'observed': 759}\n"
        "conclusions:\n"
        "  [pass] a nonzero member has p-power sum strictly below 8\n"
        f"         certificate: {{'vector': [{vector}], 'l1': 4, 'l2sq': 8}}\n"
        "exact values:\n"
        "  d = 8\n"
        "  kappa0 = 759\n"
        "  p = 1\n"
        "  pair_members_found = 276\n"
        "  pairs_probed = 276\n"
        "  witness_l1 = 4\n"
        "verdict: PASS\n"
    )


@pytest.mark.parametrize("target", cli.THEOREMS)
def test_verify_runtime_is_timed_by_the_cli(capsys, target):
    # the command line times the whole target and appends runtime_ms as the
    # last key; --no-timing drops it and leaves the rest of the report alone
    code, out, _ = run(capsys, ["verify", target, "--format", "json"])
    assert code == 0
    timed = json.loads(out)
    assert list(timed)[-1] == "runtime_ms"
    ms = timed.pop("runtime_ms")
    assert isinstance(ms, float) and ms >= 0
    code, out, _ = run(capsys, ["verify", target, "--format", "json", "--no-timing"])
    assert code == 0 and json.loads(out) == timed
    code, out, _ = run(capsys, ["verify", target, "--format", "text"])
    assert code == 0
    assert re.fullmatch(r"verdict: PASS \(\d+\.\d+ ms\)", out.splitlines()[-1])
    code, out, _ = run(capsys, ["verify", target, "--format", "text", "--no-timing"])
    assert code == 0 and out.splitlines()[-1] == "verdict: PASS"
    assert " ms)" not in out


def test_verify_dbar_schur_with_tower_flag(capsys):
    man = data_path("tower_nonclosed.manifest.txt")
    code, out, _ = run(capsys, ["verify", "dbar-schur", "--tower", man])
    assert code == 0
    rep = json.loads(out)
    assert rep["exact_values"] == {"schur_closed": False, "is_lattice": False}


def test_verify_golay_lp(capsys):
    code, out, _ = run(capsys, ["verify", "golay-lp", "--p", "1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["exact_values"]["witness_l1"] == 4


def test_verify_thm22(capsys):
    code, out, _ = run(capsys, ["verify", "thm22"])
    assert code == 0
    rep = json.loads(out)
    assert rep["theorem"] == "thm22"
    assert all(h["pass"] for h in rep["hypotheses"])


def test_lattice_analyze_z1(capsys, tmp_path):
    p = str(tmp_path / "z1.txt")
    write_z_matrix(p, 1, [(1,)])
    code, out, _ = run(capsys, ["lattice-analyze", p])
    assert code == 0
    assert "lambda1^2 = 1" in out
    assert "kappa2 = 2" in out


def test_lattice_analyze_text_bytes_past_the_vector_cap(capsys, tmp_path, monkeypatch):
    p = str(tmp_path / "l.txt")
    write_z_matrix(p, 4, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)])
    monkeypatch.setattr(cli, "TEXT_VECTOR_CAP", 3)
    code, out, err = run(capsys, ["lattice-analyze", p])
    assert (code, err) == (0, "")
    assert out == (
        "rank = 4 of n = 4\n"
        "lambda1^2 = 4\n"
        "kappa2 = 8\n"
        "  -2 0 0 0\n"
        "  0 -2 0 0\n"
        "  0 0 -2 0\n"
        "  ... (5 more)\n"
    )


def test_lattice_analyze_2z4_json(capsys, tmp_path):
    p = str(tmp_path / "l.txt")
    write_z_matrix(p, 4, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)])
    code, out, _ = run(capsys, ["lattice-analyze", p, "--format", "json"])
    assert code == 0
    vectors = sorted([s if j == i else 0 for j in range(4)] for i in range(4) for s in (2, -2))
    expected = {"lambda1_sq": 4, "kissing": 8, "vectors": vectors}
    assert out == json.dumps(expected, indent=2) + "\n"
    # an F2 file is a usage-level error here
    f2 = str(tmp_path / "f2.txt")
    write_f2_matrix(f2, BinaryMatrix.identity(2))
    code, _, err = run(capsys, ["lattice-analyze", f2])
    assert code == 2


def test_removed_settings_exit_2(capsys):
    # LLL runs at one delta, and a tower's depth is read off its manifest
    man = data_path("tower_nonclosed.manifest.txt")
    for argv in (
        ["lattice-analyze", "x.txt", "--delta", "3/4"],
        ["construct", man, "--construction", "d-bar", "--a", "2"],
    ):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_walk_rank_cap(capsys, tmp_path):
    # the walk recurses once per level: Z^cap finishes in process, and one
    # rank more is refused with exit 3 before LLL, not crashed on with 70
    for n, want in ((WALK_RANK_CAP, 0), (WALK_RANK_CAP + 1, 3)):
        p = str(tmp_path / f"z{n}.txt")
        write_z_matrix(p, n, [tuple(int(t == j) for t in range(n)) for j in range(n)])
        code, out, err = run(capsys, ["lattice-analyze", p, "--format", "json"])
        assert code == want
        if want == 0:
            rep = json.loads(out)
            assert (rep["lambda1_sq"], rep["kissing"]) == (1, 2 * n)
        else:
            assert err == f"error: rank {n} > walk cap {WALK_RANK_CAP}\n"
    # verify cor23 --m 330 walks a rank-1006 lattice
    code, _, err = run(capsys, ["verify", "cor23", "--m", "330", "--full-enum"])
    assert code == 3 and err == f"error: rank 1006 > walk cap {WALK_RANK_CAP}\n"

def _option_strings(parser) -> set:
    """Every option string of ``parser`` and of its subcommands, at any depth."""
    found = set()
    for action in parser._actions:
        found.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= _option_strings(sub)
    return found


def test_readme_names_exactly_the_parser_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    assert documented == _option_strings(cli._PARSER) - {"-h", "--help"}


def test_dump_json_matches_indented_json_dumps():
    # the scalars the C encoder spells differently from str(), int keys,
    # empty and nested containers, tuples, non-ASCII text and huge ints
    cases = [
        True,
        None,
        -7,
        "a\"b\\c\né☃",
        [],
        {},
        [[], {}, [[]], [True, False, None, 0, 1]],
        {"x": (1, -2, 3), 4: "four", True: [False], None: {}, "nested": {"k": [{"a": 1}]}},
        [10**40, -(10**40), (2, (3, (4,)))],
    ]
    for obj in cases:
        assert cli._dump_json(obj) == json.dumps(obj, indent=2)
