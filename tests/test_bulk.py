"""The bulk conversions on code-construct's path against the per-entry
loops they replaced: the Z writer, the reduced echelon form, Construction
A's lift and the F2 bit test of the parser."""

import random

import pytest

from codelattice import gf2core, matio
from codelattice.cli import main
from codelattice.constructions import (
    _lift,
    construction_a,
    construction_c_star,
    construction_d,
    d_bar_span,
    simplified_d,
    vladut_special_d,
)
from codelattice.errors import ParseError
from codelattice.gf2core import BinaryMatrix, BinaryVector, Code, CodeTower, complete_to_full_rank
from codelattice.matio import format_z_matrix, parse_matrix
from codelattice.zlattice import Lattice

from oracles import format_z_matrix_entrywise, reduced_echelon_pivot_sweep


def rand_code(rng, n, k):
    """A seeded code of length n and rank exactly k."""
    while True:
        C = Code(BinaryMatrix(n, [rng.getrandbits(n) for _ in range(k)]))
        if C.dimension == k:
            return C


def no_str(monkeypatch):
    """Make the writer's per-entry ``str`` fail, so only the bulk path passes."""

    def refuse(x):
        raise AssertionError("an entry went through str")

    monkeypatch.setattr(matio, "str", refuse, raising=False)


def test_z_writer_matches_entrywise_reference_on_random_matrices(monkeypatch):
    # entries at the edges of the digit path (-1, 0, 9, 10, 255, 256) and
    # far past it (+-2^70), all-digit matrices that take the bulk path, and
    # the shapes n x 0, 0 x 0, 0 x k, 1 x k and n x 1
    rng = random.Random(51)
    edges = (-1, 0, 1, 2, 9, 10, 255, 256, 2**70, -(2**70))
    for shape in ((0, 0), (5, 0), (0, 3), (1, 1), (1, 7), (7, 1)):
        rows, cols = shape
        for draw in (lambda: rng.randrange(10), lambda: rng.choice(edges)):
            columns = [tuple(draw() for _ in range(rows)) for _ in range(cols)]
            assert format_z_matrix(rows, columns) == format_z_matrix_entrywise(rows, columns)
    # ragged columns never take the bulk path: a short column is refused as
    # the reference refuses it, even when the lengths add up to rows * cols
    for columns in ([(1,), (2, 3, 4)], [(1, 2), (3,)]):
        with pytest.raises(IndexError):
            format_z_matrix_entrywise(2, columns)
        with pytest.raises(IndexError):
            format_z_matrix(2, columns)
    columns = [(1, 2, 3), (4, 5)]
    assert format_z_matrix(2, columns) == format_z_matrix_entrywise(2, columns)
    kinds = {"digits": 0, "other": 0}
    for _ in range(400):
        rows, cols = rng.randrange(1, 30), rng.randrange(1, 30)
        top = rng.choice((2, 3, 10))
        columns = [tuple(rng.randrange(top) for _ in range(rows)) for _ in range(cols)]
        if rng.random() < 0.5:
            c, r = rng.randrange(cols), rng.randrange(rows)
            col = list(columns[c])
            col[r] = rng.choice(edges)
            columns[c] = tuple(col)
        want = format_z_matrix_entrywise(rows, columns)
        digits = all(0 <= e < 10 for col in columns for e in col)
        kinds["digits" if digits else "other"] += 1
        if digits:
            with monkeypatch.context() as m:
                no_str(m)
                assert format_z_matrix(rows, columns) == want
        else:
            assert format_z_matrix(rows, columns) == want
    assert min(kinds.values()) > 100


def test_z_writer_matches_entrywise_reference_on_every_construction(monkeypatch):
    # the HNF bases the six constructions write, on seeded codes; c-star at
    # n >= 9 has entries 2^(n-1) >= 256, and simplified D negative ones
    rng = random.Random(52)
    lattices = []
    for n, k in ((48, 20), (48, 19), (24, 12), (12, 0), (12, 12), (9, 4), (16, 5)):
        C = rand_code(rng, n, k)
        lattices.append(construction_a(C))
        if k:
            lattices.append(simplified_d(C))
        if n <= 32:
            lattices.append(construction_c_star(C))
    for n in (6, 10):
        blocks = [BinaryMatrix(n, [rng.getrandbits(n) for _ in range(m)]) for m in (2, 3, 2)]
        lattices.append(construction_d(blocks, strict=False))
    c1 = BinaryVector.from_coords((1, 1, 1, 1, 0))
    Ka = BinaryMatrix.from_columns([BinaryVector.from_coords((0, 0, 0, 0, 1))])
    K0 = complete_to_full_rank(BinaryMatrix.from_columns([c1]).hstack(Ka))
    lattices.append(vladut_special_d(K0, [c1], Ka))
    for n in (8, 12):
        top = rand_code(rng, n, 5)
        lattices.append(d_bar_span(CodeTower([top, Code(BinaryMatrix(n, top.words[:2]))])))
    assert any(e < 0 for L in lattices for col in L.basis for e in col)
    assert any(e >= 256 for L in lattices for col in L.basis for e in col)
    for L in lattices:
        assert format_z_matrix(L.n, L.basis) == format_z_matrix_entrywise(L.n, L.basis)
    # Construction A's basis, 0/1/2 entries, never reaches str
    no_str(monkeypatch)
    L = construction_a(rand_code(rng, 48, 21))
    assert format_z_matrix(L.n, L.basis) == format_z_matrix_entrywise(L.n, L.basis)


def test_reduced_echelon_matches_pivot_sweep():
    # random sets with n <= 96 and up to 30 vectors, zero and dependent
    # vectors included, and the empty set
    rng = random.Random(53)
    for _ in range(3000):
        n = rng.randrange(1, 97)
        vecs = [rng.getrandbits(n) if rng.random() < 0.85 else 0 for _ in range(rng.randrange(31))]
        for _ in range(rng.randrange(3)):
            if vecs:
                vecs.insert(rng.randrange(len(vecs) + 1), rng.choice(vecs) ^ rng.choice(vecs))
        table = gf2core._reduced_echelon(vecs, n)
        assert len(table) == n
        assert tuple(filter(None, reversed(table))) == reduced_echelon_pivot_sweep(vecs)
        assert Code(BinaryMatrix(n, vecs)).words == reduced_echelon_pivot_sweep(vecs)
    assert gf2core._reduced_echelon([], 0) == ()


def test_construction_a_columns_are_the_lift_of_the_basis():
    # word columns equal _lift(1, C.basis()) at their leading rows, and the
    # rest are 2 e_r; rank 0 and full rank included
    rng = random.Random(54)
    for n in (1, 2, 7, 24, 48):
        for k in sorted({0, 1, n // 2, n - 1, n}):
            C = rand_code(rng, n, k)
            L = construction_a(C)
            words = C.basis()
            lifted = dict(zip((w.support()[0] for w in words), _lift(1, words)))
            for r, col in enumerate(L.basis):
                assert col == lifted.get(r, tuple(2 * (t == r) for t in range(n)))
            assert L.pivots == tuple(range(n))
            assert L == Lattice(n, L.basis, L.pivots)


def test_lift_by_one_is_coords():
    rng = random.Random(55)
    words = [BinaryVector(n, rng.getrandbits(n)) for n in (0, 1, 5, 48, 67) for _ in range(3)]
    assert _lift(1, words) == [w.coords() for w in words]
    assert _lift(4, words) == [tuple(4 * e for e in w.coords()) for w in words]


@pytest.mark.parametrize(
    "body, message",
    [
        ("1 0 2 1", "F2 entries must be 0 or 1"),
        ("1 -1 0 1", "F2 entries must be 0 or 1"),
        ("10 0 1 1", "F2 entries must be 0 or 1"),
        ("1 x 0 1", "non-integer entry"),
        ("1 \x80 0 1", "non-integer entry"),
        ("1 ١ 0 1", "non-integer entry"),
        ("1 1_0 0 1", "non-integer entry"),
    ],
)
def test_f2_bit_test_keeps_refusals_messages_and_exit_codes(capsys, tmp_path, body, message):
    # the bodies the former strip("01") test refused are refused with the
    # same message, and code-info exits 2 on them; a byte >= 0x80 in a
    # file fails the ASCII read first
    with pytest.raises(ParseError, match=f"^m.txt: {message}$"):
        parse_matrix(f"2 2 F2 {body}", "m.txt")
    path = tmp_path / "m.txt"
    path.write_bytes(f"2 2 F2\n{body}\n".encode("utf-8"))
    assert main(["code-info", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if body.isascii():
        assert message in err


def test_f2_multi_digit_tokens_read_as_before():
    # tokens that are not one bit character go through the integer rule
    assert parse_matrix("2 2 F2 01 0 +1 00") == BinaryMatrix(2, (3, 0))
    assert parse_matrix("2 2 F2\n1 0\n0 1\n") == BinaryMatrix.identity(2)
    assert parse_matrix("0 0 F2") == BinaryMatrix(0, ())
