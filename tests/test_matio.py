import os
import random
import sys
import time

import pytest

from codelattice.errors import ParseError
from codelattice.gf2core import BinaryMatrix, BinaryVector, min_distance
from codelattice.matio import (
    cor23_matrices,
    cor25_matrices,
    data_path,
    format_f2_matrix,
    format_z_matrix,
    golay_code,
    load_code_tower,
    load_matrix_tower,
    nonclosed_tower,
    parse_matrix,
    read_matrix,
    read_tower_manifest,
    write_f2_matrix,
    write_z_matrix,
)


def test_parse_f2_round_trip():
    rng = random.Random(40)
    for _ in range(10):
        n, k = rng.randrange(1, 7), rng.randrange(1, 7)
        rows = [[rng.randrange(2) for _ in range(k)] for _ in range(n)]
        M = BinaryMatrix.from_rows(rows)
        assert parse_matrix(format_f2_matrix(M)) == M


def test_parse_z_round_trip():
    rng = random.Random(41)
    for _ in range(10):
        n, k = rng.randrange(1, 6), rng.randrange(1, 6)
        cols = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(k)]
        rows, kk, parsed = parse_matrix(format_z_matrix(n, cols))
        assert (rows, kk) == (n, k)
        assert parsed == cols


def test_parse_errors():
    with pytest.raises(ParseError, match="header"):
        parse_matrix("")
    with pytest.raises(ParseError, match="two integers"):
        parse_matrix("a b F2 0")
    with pytest.raises(ParseError, match="field"):
        parse_matrix("1 1 Q7 0")
    with pytest.raises(ParseError, match="expected 4 entries"):
        parse_matrix("2 2 F2 1 0 1")
    with pytest.raises(ParseError, match="non-integer"):
        parse_matrix("1 1 Z x")
    with pytest.raises(ParseError, match="0 or 1"):
        parse_matrix("1 1 F2 2")
    with pytest.raises(ParseError, match="negative"):
        parse_matrix("-1 1 Z")


def test_parse_f2_refuses_entries_past_one():
    # every column is packed from its entries, so a bad entry anywhere,
    # negative or too large for a byte included, is named the same way
    for body in ("0 1 1 2", "0 1 -1 1", "1 1 1 " + "9" * 40):
        with pytest.raises(ParseError, match=r"^<string>: F2 entries must be 0 or 1$"):
            parse_matrix("2 2 F2 " + body)
    assert parse_matrix("2 3 F2 1 0 1 0 1 1") == BinaryMatrix.from_rows([[1, 0, 1], [0, 1, 1]])


def test_parse_f2_bit_strings_match_from_rows():
    # bodies of one-character bits are packed from their joined string;
    # every other body keeps the integer-token rule and its messages
    rng = random.Random(42)
    for _ in range(40):
        n, k = rng.randrange(1, 40), rng.randrange(1, 30)
        rows = [[rng.randrange(2) for _ in range(k)] for _ in range(n)]
        seps = [rng.choice((" ", "\n", "\t", "  ")) for _ in range(n * k)]
        body = "".join(f"{e}{sep}" for e, sep in zip((e for row in rows for e in row), seps))
        assert parse_matrix(f"{n} {k} F2\n{body}") == BinaryMatrix.from_rows(rows)
    for tokens, bits in (("01 +1 -0 00", [1, 1, 0, 0]), ("1 0 1 01", [1, 0, 1, 1])):
        assert parse_matrix("2 2 F2 " + tokens) == BinaryMatrix.from_rows([bits[:2], bits[2:]])
    for body, message in (
        ("0 1 2 1", "F2 entries must be 0 or 1"),
        ("0 1 a 1", "non-integer entry"),
        ("0 1 \u0661 1", "non-integer entry"),
        ("0 1 10 1", "F2 entries must be 0 or 1"),
    ):
        with pytest.raises(ParseError, match=f"^<string>: {message}$"):
            parse_matrix("2 2 F2 " + body)
    assert parse_matrix("0 0 F2") == BinaryMatrix(0, ())


def test_parse_one_token_rule():
    # int() alone reads 1_0 as 10, 0_1 as the F2 entry 1 and accepts
    # non-ASCII digits; only [+-]?[0-9]+ is an entry
    for text in ("1 1 Z 1_0", "1 1 F2 0_1", "1 1 Z \u0663", "1 1 Z +", "1 1 Z 1.0"):
        with pytest.raises(ParseError, match="non-integer entry"):
            parse_matrix(text)
    with pytest.raises(ParseError, match="two integers"):
        parse_matrix("1_0 1 Z " + "0 " * 10)
    assert parse_matrix("1 2 Z +3 -04") == (1, 2, [(3,), (-4,)])
    # past the interpreter's digit limit an entry is named too long, not
    # a non-integer; at the limit it still parses
    limit = sys.get_int_max_str_digits()
    assert parse_matrix("1 1 Z -" + "9" * limit)[2] == [(-(10**limit - 1),)]
    with pytest.raises(ParseError, match=f"{limit + 1} digits is too long \\(limit {limit}\\)"):
        parse_matrix("1 2 Z 1 " + "9" * (limit + 1))


def test_parse_refuses_one_zero_dimension():
    # no entries back the nonzero dimension, so it is refused before any
    # row or column is built, however large it claims to be
    for header in ("0 3 F2", "3 0 F2", "0 3 Z", "3 0 Z", "0 10000000 Z", "10000000 0 F2"):
        t0 = time.perf_counter()
        with pytest.raises(ParseError, match="one zero dimension"):
            parse_matrix(header)
        assert time.perf_counter() - t0 < 0.5


def test_parse_empty_matrix():
    assert parse_matrix("0 0 F2") == BinaryMatrix(0, ())
    assert parse_matrix("0 0 Z") == (0, 0, [])


def test_file_round_trip(tmp_path):
    M = BinaryMatrix.from_rows([[1, 0], [1, 1], [0, 1]])
    p = str(tmp_path / "m.txt")
    write_f2_matrix(p, M)
    assert read_matrix(p) == M
    q = str(tmp_path / "z.txt")
    write_z_matrix(q, 2, [(1, -3), (0, 7)])
    assert read_matrix(q) == (2, 2, [(1, -3), (0, 7)])
    with pytest.raises(ParseError):
        read_matrix(str(tmp_path / "missing.txt"))


def test_tower_manifest(tmp_path):
    write_f2_matrix(str(tmp_path / "c1.txt"), BinaryMatrix.identity(3))
    write_f2_matrix(
        str(tmp_path / "c2.txt"),
        BinaryMatrix.from_rows([[1], [1], [1]]),
    )
    man = tmp_path / "tower.txt"
    man.write_text("# comment line\ntower 3 2\nc1.txt\nc2.txt\n")
    n, files = read_tower_manifest(str(man))
    assert n == 3 and [os.path.basename(f) for f in files] == ["c1.txt", "c2.txt"]
    T = load_code_tower(str(man))
    assert T.n == 3 and T.a == 2 and T.levels[1].dimension == 1
    n2, mats = load_matrix_tower(str(man))
    assert n2 == 3 and [M.k for M in mats] == [3, 1]

    bad = tmp_path / "bad.txt"
    bad.write_text("tower 3 5\nc1.txt\n")
    with pytest.raises(ParseError, match="level files"):
        read_tower_manifest(str(bad))
    bad.write_text("lattice 3 1\nc1.txt\n")
    with pytest.raises(ParseError, match="header"):
        read_tower_manifest(str(bad))
    bad.write_text("tower 3 1_0\nc1.txt\n")
    with pytest.raises(ParseError, match="header numbers"):
        read_tower_manifest(str(bad))
    bad.write_text("")
    with pytest.raises(ParseError, match="empty"):
        read_tower_manifest(str(bad))
    # level with the wrong block length
    write_f2_matrix(str(tmp_path / "c3.txt"), BinaryMatrix.identity(2))
    bad.write_text("tower 3 1\nc3.txt\n")
    with pytest.raises(ParseError, match="rows"):
        load_code_tower(str(bad))
    # Z matrix cannot be a tower level
    write_z_matrix(str(tmp_path / "zz.txt"), 3, [(1, 0, 0)])
    bad.write_text("tower 3 1\nzz.txt\n")
    with pytest.raises(ParseError, match="F2"):
        load_code_tower(str(bad))


def test_bundled_golay():
    C = golay_code()
    assert C.n == 24 and C.dimension == 12
    assert min_distance(C) == 8
    # self-dual: every generator pair has even overlap
    cols = read_matrix(data_path("golay24.txt")).columns()
    for x in cols:
        for y in cols:
            overlap = sum(a & b for a, b in zip(x.coords(), y.coords()))
            assert overlap % 2 == 0


def test_bundled_gadget_matrices():
    A, B, w = cor23_matrices()
    assert (A.n, A.k) == (16, 3) and (B.n, B.k) == (3, 3)
    assert w.n == 3
    A2, B2, z = cor25_matrices()
    assert (A2.n, A2.k) == (2, 4) and (B2.n, B2.k) == (4, 4)
    assert len(z) == 4 and all(isinstance(e, int) for e in z)
    T = nonclosed_tower()
    assert T.n == 4 and T.a == 2
    assert os.path.exists(data_path("golay24.txt"))