import random
import time
import tracemalloc

import pytest

from codelattice.errors import (
    LengthMismatch,
    NotATower,
    RankTooLarge,
    ShapeMismatch,
    ZeroCode,
)
from codelattice import gf2core
from codelattice.gf2core import (
    BinaryMatrix,
    BinaryVector,
    Code,
    CodeTower,
    code_kissing_number,
    complete_to_full_rank,
    is_schur_closed_tower,
    is_subcode,
    kernel_basis,
    min_distance,
    min_weight_codewords,
    rank,
    schur_product,
    solve,
)
from oracles import (
    chunks_ripple,
    complete_to_full_rank_pivot_dict,
    coords_shift_loop,
    echelon_pivot_dict,
    kernel_basis_pivot_dict,
    min_weight_words_gray,
    rank_pivot_dict,
    reduced_echelon_pivot_dict,
    solve_pivot_dict,
)

bv = BinaryVector.from_coords


def rand_vec(rng, n):
    return bv(tuple(rng.randrange(2) for _ in range(n)))


def rand_matrix(rng, n, k):
    return BinaryMatrix.from_columns([rand_vec(rng, n) for _ in range(k)], n=n)


def test_vector_basics():
    v = bv((1, 0, 1))
    assert len(v) == 3
    assert v.coords() == (1, 0, 1)
    assert v.weight == 2
    assert v.support() == (0, 2)
    assert v[0] == 1 and v[1] == 0 and v[2] == 1
    assert BinaryVector(3, 0).is_zero()
    assert not v.is_zero()
    assert BinaryVector.from_support(5, [1, 3]).coords() == (0, 1, 0, 1, 0)


def test_coords_matches_shift_loop():
    # the digits of bits under a leading 1 must give the same int tuple as
    # one shift per coordinate, leading zeros and n = 0 included; from_coords
    # packs it back to the same vector
    rng = random.Random(16)
    for n in range(71):
        for bits in (0, (1 << n) - 1, 1 << n >> 1, rng.getrandbits(n), rng.getrandbits(n)):
            v = BinaryVector(n, bits)
            got = v.coords()
            assert got == coords_shift_loop(v)
            assert all(type(e) is int for e in got)
            assert BinaryVector.from_coords(got) == v


def test_from_coords_refuses_non_bits():
    for coords in ((0, 2), (1, -1), [256], (1, 0, 10**30)):
        with pytest.raises(ValueError, match="coordinates must be 0 or 1"):
            BinaryVector.from_coords(coords)
    # a float, a str and a bare int are no coordinate sequences; bytes(3)
    # alone would read the int as three zero coordinates
    for coords in ((1, 0.0), "01", 3, 0):
        with pytest.raises(TypeError):
            BinaryVector.from_coords(coords)
    assert BinaryVector.from_coords(()) == BinaryVector(0, 0)


def test_vector_add_is_xor():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randrange(1, 12)
        x, y = rand_vec(rng, n), rand_vec(rng, n)
        s = x + y
        assert s.coords() == tuple(a ^ b for a, b in zip(x.coords(), y.coords()))
    with pytest.raises(LengthMismatch):
        bv((1,)) + bv((1, 0))


def test_vector_order_is_lexicographic():
    rng = random.Random(2)
    vecs = [rand_vec(rng, 6) for _ in range(40)]
    assert [v.coords() for v in sorted(set(vecs))] == sorted({v.coords() for v in vecs})


def test_schur_product_bilinear():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(1, 10)
        x, y, z = (rand_vec(rng, n) for _ in range(3))
        assert schur_product(x, y).coords() == tuple(
            a & b for a, b in zip(x.coords(), y.coords())
        )
        assert schur_product(x + y, z) == schur_product(x, z) + schur_product(y, z)


def test_matrix_views_consistent():
    rng = random.Random(4)
    for _ in range(20):
        n, k = rng.randrange(1, 8), rng.randrange(1, 8)
        rows = [[rng.randrange(2) for _ in range(k)] for _ in range(n)]
        M = BinaryMatrix.from_rows(rows)
        assert M.n == n and M.k == k
        assert M.to_rows() == rows
        for j in range(k):
            assert M.column(j).coords() == tuple(rows[i][j] for i in range(n))
        # row i, packed, holds entry i of every column
        for i, row in enumerate(M.to_rows()):
            assert bv(row) == BinaryVector.from_support(k, [j for j in range(k) if M.column(j)[i]])
        assert BinaryMatrix.from_columns(M.columns(), n=n) == M


def test_matrix_rows_empty_shapes_and_ragged():
    for n in range(4):
        M = BinaryMatrix.from_rows([[] for _ in range(n)])
        assert (M.n, M.k, M.cols) == (n, 0, ())
        assert M.to_rows() == [[] for _ in range(n)]
    assert BinaryMatrix(0, (0, 0)).to_rows() == []
    with pytest.raises(ShapeMismatch, match="ragged rows"):
        BinaryMatrix.from_rows([[1, 0], [1]])
    with pytest.raises(ShapeMismatch, match="ragged rows"):
        BinaryMatrix.from_rows([[], [1]])
    with pytest.raises(ValueError, match="0 or 1"):
        BinaryMatrix.from_rows([[1, 0], [0, 2]])


def test_matrix_constructor_refuses_bad_shapes():
    with pytest.raises(ValueError, match="negative row count"):
        BinaryMatrix(-1, ())
    for cols in ((4,), (-1,), (1, 4)):
        with pytest.raises(ValueError, match="column out of range"):
            BinaryMatrix(2, cols)
    # the columns are read once, so an iterator is checked and kept alike
    assert BinaryMatrix(2, iter((3, 1))) == BinaryMatrix(2, (3, 1))
    with pytest.raises(ValueError, match="column out of range"):
        BinaryMatrix(2, iter((3, 4)))


def test_matrix_mul_matches_column_xor():
    rng = random.Random(5)
    for _ in range(30):
        n, k = rng.randrange(1, 8), rng.randrange(1, 8)
        M = rand_matrix(rng, n, k)
        x = rand_vec(rng, k)
        acc = BinaryVector(n, 0)
        for j in x.support():
            acc = acc + M.column(j)
        assert M.mul(x) == acc
    with pytest.raises(ShapeMismatch):
        BinaryMatrix.identity(3).mul(bv((1, 0)))


def test_replicate_rows_scales_image_weight():
    rng = random.Random(6)
    for _ in range(20):
        n, k, m = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 5)
        M = rand_matrix(rng, n, k)
        R = M.replicate_rows(m)
        assert R.n == m * n
        x = rand_vec(rng, k)
        assert R.mul(x).weight == m * M.mul(x).weight
        # each row repeats m times in place: copy i of row r is row r*m + i
        r_rows, m_rows = R.to_rows(), M.to_rows()
        for r in range(n):
            for i in range(m):
                assert r_rows[r * m + i] == m_rows[r]


def test_hstack():
    A = BinaryMatrix.identity(3)
    B = BinaryMatrix.from_columns([bv((1, 1, 1))])
    H = A.hstack(B)
    assert H.k == 4 and H.column(3).coords() == (1, 1, 1)
    with pytest.raises(ShapeMismatch):
        A.hstack(BinaryMatrix.identity(2))


def test_rank_examples():
    assert rank(BinaryMatrix.identity(5)) == 5
    assert rank(BinaryMatrix(4, (0,) * 3)) == 0
    rep3 = BinaryMatrix.from_columns([bv((1, 1, 1))])
    assert rank(rep3) == 1
    assert rank(rep3.hstack(rep3)) == 1


def test_kernel_basis_properties():
    rng = random.Random(7)
    for _ in range(40):
        n, k = rng.randrange(1, 8), rng.randrange(1, 8)
        M = rand_matrix(rng, n, k)
        ker = kernel_basis(M)
        assert len(ker) == k - rank(M)
        for v in ker:
            assert M.mul(v).is_zero()
        # basis actually spans the kernel: every random kernel hit reduces
        if ker:
            K = BinaryMatrix.from_columns(ker, n=k)
            assert rank(K) == len(ker)
        for _ in range(20):
            x = rand_vec(rng, k)
            if M.mul(x).is_zero() and not x.is_zero():
                span = BinaryMatrix.from_columns(ker + [x], n=k)
                assert rank(span) == len(ker)


def test_kernel_basis_sorted_and_reduced():
    M = BinaryMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]])
    ker = kernel_basis(M)
    assert [v.coords() for v in ker] == [(0, 0, 1, 1), (1, 1, 0, 0)]


def test_solve_matches_brute_force():
    rng = random.Random(27)
    for _ in range(300):
        n, k = rng.randrange(0, 6), rng.randrange(0, 6)
        M = rand_matrix(rng, n, k)
        images = {M.mul(BinaryVector(k, b)) for b in range(1 << k)}
        for _ in range(4):
            y = rand_vec(rng, n) if rng.random() < 0.5 else rng.choice(sorted(images))
            x = solve(M, y)
            if y in images:
                assert x is not None and M.mul(x) == y
            else:
                assert x is None
    with pytest.raises(ShapeMismatch):
        solve(BinaryMatrix.identity(3), bv((1, 0)))


def seeded_matrix(rng, n, k):
    """An n x k matrix of random columns, with zero columns and columns
    that are sums of earlier ones mixed in."""
    cols = []
    for _ in range(k):
        roll = rng.random()
        if roll < 0.15:
            cols.append(0)
        elif roll < 0.35 and cols:
            cols.append(rng.choice(cols) ^ rng.choice(cols))
        else:
            cols.append(rng.getrandbits(n))
    return BinaryMatrix(n, cols)


@pytest.mark.parametrize("seed", [59, 60])
def test_pivot_table_matches_pivot_dict_references(seed):
    # the dense pivot table gives the former pivot dict's rows, reduced
    # form, rank, kernel, completions (seed 0 and a shuffled order) and
    # solutions, in and out of the span, on random matrices with n <= 96
    # and k <= 30, zero and dependent columns and 0-row, 0-column and
    # 0 x 0 matrices included
    rng = random.Random(seed)
    shapes = [(0, 0), (0, 3), (5, 0)] + [(rng.randrange(97), rng.randrange(31)) for _ in range(300)]
    for n, k in shapes:
        M = seeded_matrix(rng, n, k)
        table = gf2core._echelon(M.cols, n)
        assert len(table) == n
        assert {h: r for h, r in enumerate(table) if r} == echelon_pivot_dict(M.cols)
        reduced = gf2core._reduced_echelon(M.cols, n)
        assert tuple(filter(None, reversed(reduced))) == reduced_echelon_pivot_dict(M.cols)
        assert rank(M) == rank_pivot_dict(M)
        assert kernel_basis(M) == kernel_basis_pivot_dict(M)
        for order in (0, seed):
            assert complete_to_full_rank(M, order) == complete_to_full_rank_pivot_dict(M, order)
        inside = M.mul(BinaryVector(k, rng.getrandbits(k)))
        for y in (inside, BinaryVector(n, rng.getrandbits(n))):
            assert solve(M, y) == solve_pivot_dict(M, y)
        assert solve(M, inside) is not None


def test_complete_to_full_rank():
    M = BinaryMatrix.from_columns([bv((1, 1, 0)), bv((0, 1, 1))])
    added = complete_to_full_rank(M)
    assert [c.coords() for c in added.columns()] == [(1, 0, 0)]
    assert rank(added.hstack(M)) == 3

    rng = random.Random(8)
    for seed in range(5):
        n = rng.randrange(1, 9)
        M = rand_matrix(rng, n, rng.randrange(0, n + 1))
        added = complete_to_full_rank(M, seed=seed)
        assert added.k == n - rank(M)
        for c in added.columns():
            assert c.weight == 1
        assert rank(added.hstack(M)) == n


def test_code_codewords_match_direct_span():
    rng = random.Random(9)
    for _ in range(20):
        n, k = rng.randrange(1, 9), rng.randrange(1, 5)
        M = rand_matrix(rng, n, k)
        C = Code(M)
        direct = set()
        for mask in range(1 << k):
            w = BinaryVector(n, 0)
            for j in range(k):
                if (mask >> j) & 1:
                    w = w + M.column(j)
            direct.add(w)
        assert set(C.codewords()) == direct
        assert C.dimension == rank(M)
        for w in direct:
            assert C.contains(w)
        for _ in range(10):
            probe = rand_vec(rng, n)
            assert C.contains(probe) == (probe in direct)
        # codewords() yields each word exactly once
        assert len(list(C.codewords())) == 1 << C.dimension


def test_code_has_prefix_matches_codeword_prefixes():
    rng = random.Random(17)
    for _ in range(40):
        n, k = rng.randrange(1, 9), rng.randrange(0, 5)
        C = Code(rand_matrix(rng, n, k))
        words = list(C.codewords())
        for length in range(n + 1):
            prefixes = {w.coords()[:length] for w in words}
            for _ in range(8):
                probe = rand_vec(rng, n)
                assert C.has_prefix(probe, length) == (probe.coords()[:length] in prefixes)
            assert C.has_prefix(words[-1], length)


def test_code_basis_is_reduced_with_leading_rows_ascending():
    # each word's leading row is its lowest-index nonzero coordinate, the
    # leading rows ascend, and every other word is zero on them
    rng = random.Random(18)
    for _ in range(60):
        n = rng.randrange(1, 40)
        C = Code(rand_matrix(rng, n, rng.randrange(0, n + 2)))
        words = C.basis()
        leads = [w.support()[0] for w in words]
        assert leads == sorted(set(leads))
        for w in words:
            assert [w[r] for r in leads] == [int(r == w.support()[0]) for r in leads]
        assert Code(BinaryMatrix.from_columns(words, n=n)) == C


def test_code_equality_ignores_generator_choice():
    C1 = Code(BinaryMatrix.from_columns([bv((1, 1, 0)), bv((0, 1, 1))]))
    C2 = Code(BinaryMatrix.from_columns([bv((1, 0, 1)), bv((0, 1, 1)), bv((1, 1, 0))]))
    assert C1 == C2
    assert hash(C1) == hash(C2)
    assert is_subcode(C1, C2) and is_subcode(C2, C1)


def test_min_distance_brute_force():
    rng = random.Random(10)
    for _ in range(25):
        n, k = rng.randrange(2, 10), rng.randrange(1, 6)
        M = rand_matrix(rng, n, k)
        C = Code(M)
        if C.dimension == 0:
            with pytest.raises(ZeroCode):
                min_distance(C)
            continue
        span = set()
        for mask in range(1 << k):
            w = BinaryVector(n, 0)
            for j in range(k):
                if (mask >> j) & 1:
                    w = w + M.column(j)
            span.add(w)
        weights = [w.weight for w in span if not w.is_zero()]
        assert min_distance(C) == min(weights)
        words = min_weight_codewords(C)
        assert [w.coords() for w in words] == sorted(
            {w.coords() for w in words}
        )  # sorted, unique
        assert all(w.weight == min(weights) for w in words)
        assert code_kissing_number(C) == weights.count(min(weights))
        # a fresh code queried in reverse order agrees
        fresh = Code(M)
        assert code_kissing_number(fresh) == len(words)
        assert min_weight_codewords(fresh) == words
        assert min_distance(fresh) == min(weights)
        # callers own the returned list: mutating it changes no later answer
        words.append(BinaryVector(n, 0))
        min_weight_codewords(fresh).clear()
        assert min_weight_codewords(fresh) == words[:-1]
        assert code_kissing_number(fresh) == len(words) - 1


def rand_code(rng, n, k):
    """A seeded code of length n and rank exactly k."""
    while True:
        C = Code(BinaryMatrix(n, [rng.getrandbits(n) for _ in range(k)]))
        if C.dimension == k:
            return C


def systematic_code(rng, n, k):
    """[I_k; P] with random P and its rows shuffled, as code-construct draws them."""
    rows = [1 << (k - 1 - i) for i in range(k)]
    rows += [rng.getrandbits(k) for _ in range(n - k)]
    rng.shuffle(rows)
    return Code(BinaryMatrix.from_rows([[r >> (k - 1 - c) & 1 for c in range(k)] for r in rows]))


def test_bit_sliced_sweep_matches_gray_oracle():
    # every chunk width against the one-word Gray walk: ranks below, at and
    # past the width (one, two and four chunks), length 1, all-zero
    # coordinates, and code-construct's [48, 19-21] systematic codes
    rng = random.Random(11)
    sweep = gf2core._min_weight_words
    for c in (1, 3, 8, 16):
        for k in range(max(c - 1, 1), c + 3):
            for zeros in (0, 3):
                n = k + rng.randrange(0, 8)
                C = rand_code(rng, n, k)
                # spread the code over n + zeros coordinates, zeros of them never set
                gaps = sorted(rng.sample(range(n + zeros), zeros))
                cols = []
                for col in C.words:
                    for g in gaps:
                        col = col >> g << 1 | col & ((1 << g) - 1)
                    cols.append(col)
                C = Code(BinaryMatrix(n + zeros, cols))
                assert sweep(C.n, C.words, c) == min_weight_words_gray(C)
    one = Code(BinaryMatrix(1, (1,)))
    for c in (1, 3, 8, 16):
        assert sweep(1, one.words, c) == (1,)
    for k in (19, 20, 21):
        C = systematic_code(random.Random(k), 48, k)
        assert sweep(C.n, C.words, 16) == min_weight_words_gray(C)


def test_bit_sliced_sweep_finds_words_outside_chunk_zero():
    # codes whose every minimum-weight word needs a high basis word, so
    # chunk 0 (the span of the first c basis words) holds none of them
    rng = random.Random(12)
    for c in (1, 3, 8):
        for _ in range(200):
            C = rand_code(rng, c + 6, c + 2)
            want = min_weight_words_gray(C)
            chunk0 = Code(BinaryMatrix(C.n, C.words[:c]))
            if min_weight_words_gray(chunk0)[0].bit_count() > want[0].bit_count():
                break
        else:
            pytest.fail(f"no code with its minimum words outside chunk 0 at width {c}")
        assert gf2core._min_weight_words(C.n, C.words, c) == want


def chunk_weights(chunk, n):
    # the positions of each weight 0 .. n, one mask each, where a position
    # weighs const + its planes value: the constant alone may differ from
    # the ripple oracle's, which keeps every flip inside its planes
    _, const, planes, full = chunk
    masks = []
    for w in range(n + 1):
        v = w - const
        eq = full if 0 <= v < 1 << len(planes) else 0
        for b, p in enumerate(planes):
            eq &= p if v >> b & 1 else ~p
        masks.append(eq)
    return masks


def test_carry_save_chunks_match_ripple_oracle():
    # every chunk width c = 1 .. k against the former ripple-carry chunks:
    # the same offsets and masks, and the same weight at every position;
    # k = 1 and k = n included
    rng = random.Random(15)
    shapes = [(1, 1), (2, 2), (7, 7), (10, 10), (40, 1), (40, 9)]
    shapes += [(n, rng.randrange(1, min(n, 9) + 1)) for n in rng.sample(range(1, 41), 14)]
    for n, k in shapes:
        C = rand_code(rng, n, k)
        for c in range(1, k + 1):
            got, want = list(gf2core._chunks(n, C.words, c)), list(chunks_ripple(n, C.words, c))
            assert len(got) == len(want) == 1 << (k - c)
            for chunk, oracle in zip(got, want):
                assert (chunk[0], chunk[3]) == (oracle[0], oracle[3])
                assert chunk_weights(chunk, n) == chunk_weights(oracle, n)
            assert gf2core._min_weight_words(n, C.words, c) == min_weight_words_gray(C)


def test_anchored_chunks_match_ripple_oracle(monkeypatch):
    # a chunk adds only the varying coordinates V where its offset differs
    # from the nearer anchor (none of V complemented, or all of it), at
    # most |V|/2 of them, onto a seed of at most one int per plane, and
    # its weights must equal the ripple oracle's: |V| of 0, 1, odd and
    # even, the tie |F| = |V|/2, the chunk that complements all of V,
    # lengths where n.bit_length() steps (each code holding the all-ones
    # word, so weight n occurs) and code-construct's [48, 19-21]
    # systematic codes at c = 16
    rng = random.Random(16)
    seen = set()
    compress, added = gf2core._compress, []

    def counted(pending, ints, at, width):
        ints = list(ints)
        if at:
            added.append(len(ints))
            assert all(len(p) <= 1 for p in pending)
        return compress(pending, ints, at, width)

    monkeypatch.setattr(gf2core, "_compress", counted)

    def check(C, c):
        n, basis = C.n, C.words
        lows = highs = 0
        for w in basis[:c]:
            lows |= w
        for w in basis[c:]:
            highs |= w
        v = (lows & highs).bit_count()
        seen.add(min(v, 2) + v % 2 * (v > 1))  # 0, 1, even or odd past 1
        added.clear()
        got = list(gf2core._chunks(n, basis, c))
        want = list(chunks_ripple(n, basis, c))
        assert [(o, full) for o, _, _, full in got] == [(o, full) for o, _, _, full in want]
        assert all(chunk_weights(g, n) == chunk_weights(w, n) for g, w in zip(got, want))
        assert len(added) == len(got) and max(added) <= v // 2
        for offset, _, _, _ in got:
            f = (offset & lows & highs).bit_count()
            if v and 2 * f == v:
                seen.add("tie")
            if v and f == v:
                seen.add("all")
        assert gf2core._min_weight_words(n, basis, c) == min_weight_words_gray(C)

    check(Code(BinaryMatrix.identity(6)), 3)
    check(Code(BinaryMatrix.from_rows([[1, 0], [0, 1], [1, 1]])), 1)
    for n in (31, 32, 63, 64, 127, 128):
        C = Code(BinaryMatrix(n, [(1 << n) - 1] + [rng.getrandbits(n) for _ in range(5)]))
        for c in range(1, C.dimension + 1):
            check(C, c)
    for _ in range(30):
        n = rng.randrange(2, 20)
        C = rand_code(rng, n, rng.randrange(2, min(n, 8) + 1))
        for c in range(1, C.dimension):
            check(C, c)
    for k in (19, 20, 21):
        check(systematic_code(random.Random(k + 100), 48, k), 16)
    assert seen == {0, 1, 2, 3, "tie", "all"}


def test_sweep_work_is_pinned(monkeypatch):
    # work counter: the ints entering _compress, as arguments or in its
    # seed planes, over one sweep of a seeded systematic [48, 20] code
    # (16 chunks of 2^16 words); the sweep that pushed the bits of each
    # chunk's -min(|F|, |G|) through its adders, and summed the varying
    # ints twice, took 380 here
    compress, count = gf2core._compress, [0]

    def counted(pending, ints, at, width):
        ints = list(ints)
        count[0] += len(ints) + sum(map(len, pending))
        return compress(pending, ints, at, width)

    monkeypatch.setattr(gf2core, "_compress", counted)
    C = systematic_code(random.Random(120), 48, 20)
    assert gf2core._min_weight_words(C.n, C.words, 16) == min_weight_words_gray(C)
    assert count[0] == 323


def test_patterns_match_their_definition():
    # bit i of M_j is bit j of i, for every chunk width c = 0 .. 16 (the
    # zero code sweeps at c = 0), at every i below 2^8 and at 200 sampled
    # i above it
    rng = random.Random(17)
    for c in range(17):
        got = gf2core._patterns(c)
        assert len(got) == c
        size = 1 << c
        sample = list(range(min(size, 256))) + [rng.randrange(size) for _ in range(200 * (c > 8))]
        for j, m in enumerate(got):
            assert m >> size == 0
            for i in sample:
                assert m >> i & 1 == i >> j & 1


def test_sweep_memory_is_bounded_by_chunk_width():
    # n * 2^c <= 2^24 bits: a [2048, 15] code sweeps in chunks of 2^13
    # words, whose 2048 coordinate ints hold 2 MB together
    assert gf2core._chunk_width(48, 24) == 16
    assert gf2core._chunk_width(48, 5) == 5
    assert gf2core._chunk_width(2048, 15) == 13
    assert gf2core._chunk_width(1 << 30, 20) == 1
    C = rand_code(random.Random(13), 2048, 15)
    tracemalloc.start()
    try:
        got = C._min_weight_bits()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert got == min_weight_words_gray(C)


def test_min_distance_rank_24_under_a_second():
    # the one-word Gray walk took about 3 s on this code and found the
    # same five words of weight 7
    C = systematic_code(random.Random(24), 48, 24)
    t0 = time.perf_counter()
    d = min_distance(C)
    assert time.perf_counter() - t0 < 1.0
    assert (d, code_kissing_number(C)) == (7, 5)
    assert all(C.contains(w) and w.weight == 7 for w in min_weight_codewords(C))


def assert_light_words_match_codewords(C):
    weights = sorted(w.weight for w in C.codewords())
    for limit in range(-1, C.n + 2):
        want = sorted(w for w in C.codewords() if 0 < w.weight <= limit)
        assert sorted(C.light_words(limit)) == want
        above = [w for w in weights if w > limit]
        assert C.least_weight_above(limit) == (above[0] if above else None)


def test_light_words_and_least_weight_above_match_codewords():
    rng = random.Random(14)
    for _ in range(40):
        n, k = rng.randrange(1, 12), rng.randrange(0, 7)
        assert_light_words_match_codewords(Code(rand_matrix(rng, n, k)))
    with pytest.raises(RankTooLarge):
        next(Code(BinaryMatrix.identity(29)).light_words(3))
    with pytest.raises(RankTooLarge):
        Code(BinaryMatrix.identity(29)).least_weight_above(3)


def test_light_words_and_least_weight_above_across_chunks(monkeypatch):
    # chunk widths of 2-4 below the rank, so _at_most and _least read
    # several chunks, the zero word in chunk 0 only
    rng = random.Random(17)
    for _ in range(30):
        monkeypatch.setattr(gf2core, "_CHUNK_RANK", rng.randrange(2, 5))
        C = rand_code(rng, rng.randrange(6, 13), rng.randrange(gf2core._CHUNK_RANK + 1, 7))
        assert C._swept()[1] == gf2core._CHUNK_RANK < C.dimension
        assert_light_words_match_codewords(C)


def information_sets(C, monkeypatch):
    """The information sets the search weighs on, recorded from its calls
    to ``_groups``: the leading rows of the reduced echelon basis, then the
    keys of the second basis."""
    infos = []
    groups = gf2core._groups

    def recorded(n, words, info, g):
        infos.append(info)
        return groups(n, words, info, g)

    with monkeypatch.context() as m:
        m.setattr(gf2core, "_groups", recorded)
        found = gf2core._information_set_words(C.n, C.words)
    return found, infos


def test_code_equality_and_hash_follow_the_span():
    # a random invertible mix of the generator columns, with dependent
    # columns added and the order shuffled, spans the same code: equal and
    # hashing alike; one more column outside the span, or the same words
    # at another length, make a different code
    rng = random.Random(67)
    for _ in range(300):
        n = rng.randrange(0, 49)
        gens = [rng.getrandbits(n) for _ in range(rng.randrange(0, 21))]
        C = Code(BinaryMatrix(n, gens))
        mixed = list(gens)
        for _ in range(3 * len(mixed)):
            i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
            if i != j:
                mixed[i] ^= mixed[j]  # an elementary column operation
        for _ in range(rng.randrange(4)):
            extra = 0
            for g in gens:
                if rng.random() < 0.5:
                    extra ^= g
            mixed.append(extra)
        rng.shuffle(mixed)
        D = Code(BinaryMatrix(n, mixed))
        assert D == C and hash(D) == hash(C) and len({C, D}) == 1
        assert D.words == C.words and D.dimension == C.dimension
        if C.dimension < n:
            v = rng.getrandbits(n)
            while C.contains(BinaryVector(n, v)):
                v = rng.getrandbits(n)
            assert Code(BinaryMatrix(n, gens + [v])) != C
        longer = Code(BinaryMatrix(n + 1, gens))
        assert longer.words == C.words and longer != C


def test_code_equals_only_a_code():
    # a code's fields, an int and a tuple of ints, have a matrix's shape:
    # the pivot table (1, 0) of the span of (1,) is also a matrix's columns
    C = Code(BinaryMatrix(2, (1,)))
    M = BinaryMatrix(2, (1, 0))
    assert tuple(C) == tuple(M)
    assert C != M and M != C and not C == M and not M == C
    assert C != tuple(C) and not C == tuple(C)
    assert len({C, M}) == 2
    assert C == Code(BinaryMatrix(2, (1, 1))) and hash(C) == hash(Code(BinaryMatrix(2, (1,))))


def test_second_basis_is_systematic_on_disjoint_coordinates():
    # same span, each word alone on its key and setting no other key; the
    # keys are r coordinates outside the leading rows, r the rank there,
    # and k - r inside them; both r = k and r < k occur
    rng = random.Random(41)
    outcomes = set()
    for _ in range(300):
        n = rng.randrange(2, 20)
        C = rand_code(rng, n, rng.randrange(1, n + 1))
        lead = 0
        for v in C.words:
            lead |= 1 << (v.bit_length() - 1)
        words, info = gf2core._second_basis(C.words, lead)
        rest = Code(BinaryMatrix(n, [v & ~lead for v in C.words])).dimension
        outcomes.add(rest < C.dimension)
        assert Code(BinaryMatrix(n, words)) == C
        assert (info & ~lead).bit_count() == rest
        assert (info & lead).bit_count() == C.dimension - rest
        for v in words:
            assert (v & info).bit_count() == 1
        assert len({v & info for v in words}) == C.dimension
    assert outcomes == {True, False}


def test_layer_patterns_and_words_follow_colex_order():
    # bit s of pattern i is set when the s-th w-subset of range(k) in colex
    # order holds i, and _layer_words reads each position back to the XOR
    # of that subset's words
    from itertools import combinations

    rng = random.Random(42)
    for k in range(1, 11):
        words = [rng.getrandbits(30) for _ in range(k)]
        patterns = [1 << i for i in range(k)]
        for w in range(1, k + 1):
            if w > 1:
                patterns = gf2core._layer_patterns(patterns, w)
            subsets = sorted(combinations(range(k), w), key=lambda s: s[::-1])
            for i, p in enumerate(patterns):
                assert p == sum(1 << s for s, sub in enumerate(subsets) if i in sub)
            xors = []
            for sub in subsets:
                x = 0
                for i in sub:
                    x ^= words[i]
                xors.append(x)
            mask = (1 << len(subsets)) - 1
            assert gf2core._layer_words(words, w, mask) == xors[::-1]


def test_information_set_search_matches_gray_oracle(monkeypatch):
    # the search on its own (no hand-over: _LAYER_COST = 0) against the
    # one-word Gray walk, with two disjoint bases and with a second basis
    # keyed partly inside the first information set; codes whose
    # stop bound is tight (some minimum-weight word first weighed on the
    # very pass the stop rule ends on) must occur for each, so a search
    # that stops one pass or one layer early fails here
    monkeypatch.setattr(gf2core, "_LAYER_COST", 0)
    rng = random.Random(43)
    seen = set()
    for _ in range(800):
        n = rng.randrange(4, 22)
        C = rand_code(rng, n, rng.randrange(2, min(n, 9) + 1))
        want = min_weight_words_gray(C)
        found, infos = information_sets(C, monkeypatch)
        assert found == want
        k, d = C.dimension, want[0].bit_count()
        assert len(infos) == 2 and all(info.bit_count() == k for info in infos)
        overlaps = [0, (infos[0] & infos[1]).bit_count()]
        kind = min(overlaps[1], 1)
        seen.add(("bases", kind))

        def bound(w, done):
            # a word unweighed after layer w of bases 1..done and w - 1 of
            # the rest has over w_j ones on information set j, overlaps[j]
            # of which may lie on the first one's
            return sum(max(0, w + (j < done) - o) for j, o in enumerate(overlaps))

        # the pass (w, j) weighs layer w in basis j; the search ends on the
        # first one after which the bound exceeds d
        end = next(
            (w, j)
            for w in range(2, k + 2)
            for j in (1, 2)
            if bound(w, j) > d or w > k
        )
        first = max(
            min(((word & info).bit_count(), j) for j, info in enumerate(infos, 1))
            for word in want
        )
        assert first <= end
        if first == end:
            seen.add(("tight", kind, d % 2))
    assert {
        ("bases", 0), ("bases", 1),
        ("tight", 0, 0), ("tight", 0, 1), ("tight", 1, 0), ("tight", 1, 1),
    } <= seen, seen


def test_information_set_search_on_code_construct_shapes(monkeypatch):
    # code-construct's [48, 19-21] systematic codes take the search, not
    # the sweep, and keep the sweep's and the Gray walk's answers: d,
    # kissing number and words; seed 201 draws a [48, 20] code whose other
    # 28 coordinates have rank 19, so one key of its second basis lies
    # inside the first information set, and it bounds an unweighed word by
    # 2w + 1 rather than 2w + 2 after layer w
    def no_chunk(*args):
        raise AssertionError("a sweep chunk ran")

    calls = []
    search = gf2core._information_set_words

    def counted(n, basis):
        calls.append(search(n, basis))
        return calls[-1]

    for seed in (200, 202, 203, 204, 205, 201):
        C = systematic_code(random.Random(seed), 48, 19 + (seed - 200) % 3)
        want = gf2core._min_weight_words(48, C.words, 16)
        assert want == min_weight_words_gray(C)
        found, infos = information_sets(C, monkeypatch)
        assert found == want and len(infos) == 2
        shared = (infos[0] & infos[1]).bit_count()
        assert shared == (1 if seed == 201 else 0)
        with monkeypatch.context() as m:
            m.setattr(gf2core, "_chunks", no_chunk)
            m.setattr(gf2core, "_information_set_words", counted)
            words = min_weight_codewords(C)
            assert (min_distance(C), code_kissing_number(C)) == (want[0].bit_count(), len(want))
        assert tuple(w.bits for w in words) == want and calls[-1] == want
    # one search per call: min_weight_codewords, min_distance and
    # code_kissing_number each search, on each of the six codes
    assert len(calls) == 18


def test_information_set_search_hands_over_to_the_sweep(monkeypatch):
    # a [64, 17] code of distance 14 needs more passes than the sweep costs,
    # and a layer past 2^24 bits is refused: both decided from layer 1 alone,
    # before any bit-sliced pass, and the code still gets the sweep's answer
    def no_pass(*args):
        raise AssertionError("a bit-sliced pass ran")

    C = systematic_code(random.Random(44), 64, 17)
    monkeypatch.setattr(gf2core, "_layer_patterns", no_pass)
    assert gf2core._information_set_words(64, C.words) is None
    monkeypatch.undo()
    assert C._min_weight_bits() == min_weight_words_gray(C)
    assert min_distance(C) == 14
    D = systematic_code(random.Random(45), 48, 20)
    monkeypatch.setattr(gf2core, "_layer_patterns", no_pass)
    monkeypatch.setattr(gf2core, "_CHUNK_BITS", 1 << 12)
    assert gf2core._information_set_words(48, D.words) is None
    monkeypatch.undo()
    want = gf2core._min_weight_words(48, D.words, 16)
    assert gf2core._information_set_words(48, D.words) == want


def test_rank_16_and_below_go_straight_to_the_sweep(monkeypatch):
    # the bundled codes (Golay [24, 12], the cor23 [67, 3] and cor25 stacked
    # codes, the non-closed tower's levels) and a [48, 16] code never try
    # the search, and keep their answers; forced through the search, they
    # get the same ones
    from codelattice.gadgets import stack_with_replication
    from codelattice.matio import cor23_matrices, cor25_matrices, golay_code, nonclosed_tower

    A, B, _ = cor23_matrices()
    A5, B5, _ = cor25_matrices()
    codes = [
        golay_code(),
        Code(stack_with_replication(A, B, 17)),
        Code(stack_with_replication(A5, B5, 4)),
        *nonclosed_tower().levels,
        systematic_code(random.Random(46), 48, 16),
    ]
    pinned = [(24, 12, 8, 759), (67, 3, 16, 1), (18, 3, 9, 4), (4, 2, 2, 1), (4, 2, 2, 1)]
    want = [min_weight_words_gray(C) for C in codes]

    def refuse(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(gf2core, "_information_set_words", refuse)
    for C, words in zip(codes, want):
        assert C._min_weight_bits() == words
    for C, pin in zip(codes, pinned):
        assert (C.n, C.dimension, min_distance(C), code_kissing_number(C)) == pin
    monkeypatch.undo()
    monkeypatch.setattr(gf2core, "_LAYER_COST", 0)
    for C, words in zip(codes, want):
        assert gf2core._information_set_words(C.n, C.words) == words


def test_min_distance_rank_cap():
    with pytest.raises(RankTooLarge):
        min_distance(Code(BinaryMatrix.identity(29)))


def test_zero_code():
    with pytest.raises(ZeroCode):
        min_distance(Code(BinaryMatrix(4, (0,) * 2)))


def test_tower_validation():
    rep4 = Code(BinaryMatrix.from_columns([bv((1, 1, 1, 1))]))
    even = Code(
        BinaryMatrix.from_columns([bv((1, 1, 0, 0)), bv((0, 1, 1, 0)), bv((0, 0, 1, 1))])
    )
    T = CodeTower([even, rep4])
    assert T.n == 4 and T.a == 2
    assert T.levels[0] == even
    with pytest.raises(NotATower):
        CodeTower([rep4, even])  # inclusion the wrong way
    with pytest.raises(NotATower):
        CodeTower([])
    with pytest.raises(NotATower):
        CodeTower([rep4, Code(BinaryMatrix.identity(3))])


def test_schur_closed_tower_accepts():
    # even weight over rep: c * c' has even weight for c, c' even? no --
    # use the classic closed pair: C_1 = full space, C_2 = anything.
    full = Code(BinaryMatrix.identity(4))
    rep4 = Code(BinaryMatrix.from_columns([bv((1, 1, 1, 1))]))
    ok, wit = is_schur_closed_tower(CodeTower([full, rep4]))
    assert ok and wit is None
    # single level: no product constraint at all
    ok, wit = is_schur_closed_tower(CodeTower([rep4]))
    assert ok and wit is None


def test_schur_closed_tower_rejects_with_witness():
    c1 = bv((1, 1, 1, 0))
    c2 = bv((0, 1, 1, 1))
    C1 = Code(BinaryMatrix.from_columns([c1, c2]))
    T = CodeTower([C1, C1])
    ok, wit = is_schur_closed_tower(T)
    assert not ok
    level, x, y = wit
    assert level == 2
    prod = schur_product(x, y)
    assert T.levels[0].contains(x) and T.levels[0].contains(y)
    assert not T.levels[level - 2].contains(prod)
