import random
import time
from itertools import combinations, product as iter_product

import pytest

from codelattice import constructions, zlattice
from codelattice.constructions import (
    _lift,
    c_star_definitional,
    construction_a,
    construction_a_member,
    construction_c_star,
    construction_d,
    d_bar_is_lattice,
    d_bar_member,
    d_bar_span,
    embed_sum_identity_check,
    mod2_reduction,
    simplified_d,
    vladut_special_d,
)
from codelattice.errors import (
    LengthMismatch,
    NotFullRank,
    QuotientTooLarge,
    ShapeMismatch,
    TowerViolation,
    WeightViolation,
)
from codelattice.gf2core import (
    BinaryMatrix,
    BinaryVector,
    Code,
    CodeTower,
    complete_to_full_rank,
    is_schur_closed_tower,
)
from codelattice.matio import nonclosed_tower
from codelattice.zlattice import (
    Lattice,
    determinant,
    scale,
    shortest_vectors,
    vectors_up_to,
)
import oracles
from oracles import dbar_span_all_codewords, dbar_walk_is_lattice


bv = BinaryVector.from_coords


def rand_code(rng, n, k):
    cols = [bv(tuple(rng.randrange(2) for _ in range(n))) for _ in range(k)]
    return Code(BinaryMatrix.from_columns(cols, n=n))


def test_embed_shapes():
    assert bv((1, 0, 1)).coords() == (1, 0, 1)
    M = BinaryMatrix.from_columns([bv((1, 1)), bv((0, 1))])
    assert _lift(1, M.columns()) == [(1, 1), (0, 1)]
    assert BinaryVector(0, 0).coords() == ()
    assert _lift(1, BinaryMatrix(0, ()).columns()) == []
    assert _lift(1, BinaryMatrix(0, (0, 0)).columns()) == [(), ()]


def test_embed_is_not_additive_but_identity_holds():
    c, cp = bv((1, 0)), bv((1, 1))
    assert (c + cp).coords() == (0, 1)
    assert tuple(a + b for a, b in zip(c.coords(), cp.coords())) == (2, 1)
    assert embed_sum_identity_check(c, cp)
    rng = random.Random(30)
    for _ in range(300):
        n = rng.randrange(1, 12)
        x = bv(tuple(rng.randrange(2) for _ in range(n)))
        y = bv(tuple(rng.randrange(2) for _ in range(n)))
        assert embed_sum_identity_check(x, y)


def test_mod2_reduction():
    assert mod2_reduction((3, -2, 5, 0)) == bv((1, 0, 1, 0))
    assert mod2_reduction((-1, -4)) == bv((1, 0))


def test_construction_a_rep3():
    L = construction_a(Code(BinaryMatrix.from_columns([bv((1, 1, 1))])))
    assert L.basis == ((1, 1, 1), (0, 2, 0), (0, 0, 2))
    assert determinant(L).value == 4
    # all vectors of squared norm <= 4, zero included
    assert len(vectors_up_to(L, 4)) == 15


def test_construction_a_membership_law():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randrange(1, 7)
        C = rand_code(rng, n, rng.randrange(1, 4))
        L = construction_a(C)
        assert determinant(L).value == 2 ** (n - C.dimension)
        for _ in range(25):
            v = [rng.randint(-5, 5) for _ in range(n)]
            assert construction_a_member(C, v) == L.contains(v)
    with pytest.raises(LengthMismatch):
        construction_a_member(rand_code(rng, 3, 1), (1, 0))


def units(n, f):
    return [tuple(f if t == j else 0 for t in range(n)) for j in range(n)]


def test_construction_a_of_a_dense_64_32_code_is_fast():
    # these dense generators listed before the units blow the HNF's entries
    # up (about 10 s); units first, then the reduced basis, keep them <= 2
    rng = random.Random(6432)
    C = rand_code(rng, 64, 32)
    assert C.dimension == 32
    t0 = time.perf_counter()
    L = construction_a(C)
    assert time.perf_counter() - t0 < 2.0
    assert determinant(L).value == 2 ** (64 - 32)
    leading = {w.support()[0] for w in C.basis()}
    assert {r for j, r in enumerate(L.pivots) if L.basis[j][r] == 1} == leading
    assert all(L.basis[j][r] == 2 for j, r in enumerate(L.pivots) if r not in leading)
    assert all(L.contains(w.coords()) for w in C.basis())
    assert all(C.contains(mod2_reduction(col)) for col in L.basis)


def test_construction_a_matches_generators_before_units():
    # the reference lists the generator columns first and 2 e_j last
    rng = random.Random(33)
    for _ in range(40):
        n = rng.randrange(1, 21)
        cols = [bv(tuple(rng.randrange(2) for _ in range(n))) for _ in range(rng.randrange(1, n + 2))]
        C = Code(BinaryMatrix.from_columns(cols, n=n))
        ref = Lattice.from_generators(n, [c.coords() for c in cols] + units(n, 2))
        L = construction_a(C)
        assert (L.basis, L.pivots) == (ref.basis, ref.pivots)


def test_construction_a_never_runs_hnf(monkeypatch):
    def refuse(*args):
        raise AssertionError("construction_a ran an HNF")

    monkeypatch.setattr(zlattice, "_hnf_columns", refuse)
    C = rand_code(random.Random(34), 24, 12)
    L = construction_a(C)
    assert L.pivots == tuple(range(24))
    assert determinant(L).value == 2 ** (24 - C.dimension)


def test_construction_a_matches_units_then_basis():
    # the generator list construction_a fed the HNF before its basis was
    # written down: the units 2 e_j first, then the lifted reduced basis
    rng = random.Random(35)
    for n in (1, 2, 3, 9, 24, 64):
        for k in range(n + 1):
            while True:
                C = Code(BinaryMatrix(n, [rng.getrandbits(n) for _ in range(k)]))
                if C.dimension == k:
                    break
            ref = Lattice.from_generators(n, units(n, 2) + [w.coords() for w in C.basis()])
            L = construction_a(C)
            assert (L.basis, L.pivots) == (ref.basis, ref.pivots)


def test_spanning_blocks_do_not_put_2Zn_in_construction_d():
    # K_0 | K_1 spans F2^4, yet no 2 e_j lies in the lattice: a modulus 2^a
    # for the HNF of construction_d would give a wrong basis
    K0 = BinaryMatrix.from_columns([bv((0, 1, 1, 1)), bv((1, 1, 0, 0))])
    K1 = BinaryMatrix.from_columns([bv((1, 0, 0, 1)), bv((1, 0, 1, 0))])
    L = construction_d((K0, K1), strict=False)
    assert [L.basis[j][r] for j, r in enumerate(L.pivots)] == [1, 2, 1, 6]
    assert determinant(L).value == 12
    assert not any(L.contains(e) for e in units(4, 2))
    assert vladut_special_d(K0, [], K1) == L


def test_construction_d_checks_block_shapes():
    I2 = BinaryMatrix.identity(2)
    for strict in (True, False):
        with pytest.raises(ShapeMismatch, match="at least K_0 and K_1"):
            construction_d((I2,), strict=strict)
        with pytest.raises(ShapeMismatch, match="different row counts"):
            construction_d((I2, BinaryMatrix.identity(3)), strict=strict)
        with pytest.raises(ShapeMismatch, match="different row counts"):
            construction_d((I2, BinaryMatrix.identity(3), I2), strict=strict)


def test_construction_d_accepts_and_matches_a():
    # a = 1 with the repetition code: L_D = 2 bar K_0 + bar K_1 = L_A(C_1)
    K1 = BinaryMatrix.from_columns([bv((1, 1, 1, 1))])
    K0 = complete_to_full_rank(K1)
    L = construction_d((K0, K1))
    assert L == construction_a(Code(K1))
    assert determinant(L).value == 8


def test_construction_d_strict_rejections():
    K1 = BinaryMatrix.from_columns([bv((1, 1, 1, 1))])
    K0 = complete_to_full_rank(K1)
    # widths must sum to n
    with pytest.raises(TowerViolation):
        construction_d((K0.hstack(K0), K1))
    # concatenation must be invertible
    dup = BinaryMatrix.from_columns([bv((1, 0, 0, 0)), bv((1, 0, 0, 0)), bv((0, 1, 0, 0))])
    with pytest.raises(TowerViolation):
        construction_d((dup, K1))
    # distance bound d(C_1) >= 4
    weak = BinaryMatrix.from_columns([bv((1, 0, 0, 0))])
    wide0 = complete_to_full_rank(weak)
    with pytest.raises(TowerViolation):
        construction_d((wide0, weak))
    # ... which non-strict mode skips
    L = construction_d((wide0, weak), strict=False)
    assert L.rank == 4
    # empty top block: the level-a code is the zero code
    with pytest.raises(TowerViolation):
        construction_d((BinaryMatrix.identity(4), BinaryMatrix(4, ())))


def test_construction_d_distance_bound_second_level():
    # d(C_1) = 4 passes but d(C_2) = 8 < 16 must be rejected
    k2 = bv((1,) * 8)
    k1 = bv((1, 1, 1, 1, 0, 0, 0, 0))
    K2 = BinaryMatrix.from_columns([k2])
    K1 = BinaryMatrix.from_columns([k1])
    K0 = complete_to_full_rank(K1.hstack(K2))
    with pytest.raises(TowerViolation, match="C_2"):
        construction_d((K0, K1, K2))
    L = construction_d((K0, K1, K2), strict=False)
    assert L.contains(k2.coords())
    assert L.contains(tuple(2 * e for e in k1.coords()))


def test_vladut_special_d():
    c1 = bv((1, 1, 1, 1, 0))
    Ka = BinaryMatrix.from_columns([bv((0, 0, 0, 0, 1))])
    K0 = complete_to_full_rank(BinaryMatrix.from_columns([c1]).hstack(Ka))
    L = vladut_special_d(K0, [c1], Ka)
    assert determinant(L).value == 128
    assert L.contains((0, 0, 0, 0, 1))  # bar K_a at scale 1
    assert L.contains((2, 2, 2, 2, 0))  # 2 bar c_1
    assert L.contains((4, 0, 0, 0, 0))  # 4 bar K_0
    assert not L.contains((1, 1, 1, 1, 0))

    with pytest.raises(WeightViolation):
        vladut_special_d(K0, [bv((1, 1, 1, 0, 0))], Ka)
    with pytest.raises(NotFullRank):
        vladut_special_d(K0.hstack(K0), [c1], Ka)
    # right column count but singular stack
    sing = BinaryMatrix.from_columns([c1, bv((0, 0, 0, 0, 1)), bv((1, 1, 1, 1, 1))])
    with pytest.raises(NotFullRank):
        vladut_special_d(sing, [c1], Ka)


def test_simplified_d_uses_only_min_weight_words():
    rep3 = Code(BinaryMatrix.from_columns([bv((1, 1, 1))]))
    L = simplified_d(rep3)
    assert L.basis == ((1, 1, 1),)
    assert L.rank == 1
    # a code whose min-weight words span a proper sublattice of L_A
    assert Lattice.from_generators(3, L.basis + ((2, 0, 0),)) != L


def test_c_star_collapse_small_cases():
    rep2 = Code(BinaryMatrix.from_columns([bv((1, 1))]))
    L = construction_c_star(rep2)
    assert L.basis == ((2, 2), (0, 4))
    assert L == scale(construction_a(rep2), 2)

    rng = random.Random(32)
    for _ in range(8):
        n = rng.randrange(2, 7)
        C = rand_code(rng, n, rng.randrange(1, 4))
        # n <= 8 runs the symbolic intersection cross-check internally
        L = construction_c_star(C)
        assert L == scale(construction_a(C), 2 ** (n - 1))
        rep = shortest_vectors(L)
        base = shortest_vectors(construction_a(C))
        assert rep.lambda1_sq == 4 ** (n - 1) * base.lambda1_sq
        assert rep.kissing == base.kissing


def test_c_star_definitional_already_holds_2nZn():
    # term 1 lists 2^n e_j among its generators, so adding them again
    # leaves the basis as it is
    rng = random.Random(34)
    for _ in range(12):
        n = rng.randrange(1, 7)
        C = rand_code(rng, n, rng.randrange(1, n + 1))
        D = c_star_definitional(C)
        ref = Lattice.from_generators(n, list(D.basis) + units(n, 2**n))
        assert (D.basis, D.pivots) == (ref.basis, ref.pivots)
        scaled = [tuple(2 ** (n - 1) * e for e in col) for col in construction_a(C).basis]
        assert D == Lattice.from_generators(n, scaled)


def test_c_star_ambient_cap():
    C = Code(BinaryMatrix.identity(33))
    with pytest.raises(ValueError):
        construction_c_star(C)


def test_c_star_refuses_length_0():
    # the scale 2^(n-1) is no integer at n = 0: both routes refuse up front
    C = Code(BinaryMatrix(0, ()))
    for route in (construction_c_star, c_star_definitional):
        with pytest.raises(ValueError, match="1 <= n <="):
            route(C)


def test_d_bar_member_traces():
    T = nonclosed_tower()
    assert d_bar_member(T, (1, 2, 2, 1)) is False
    dec = d_bar_member(T, (1, 1, 1, 0))
    assert dec == (bv((1, 1, 1, 0)), bv((0, 0, 0, 0)), (0, 0, 0, 0))
    dec = d_bar_member(T, (4, 0, 0, 0))
    assert dec == (bv((0, 0, 0, 0)), bv((0, 0, 0, 0)), (1, 0, 0, 0))
    with pytest.raises(LengthMismatch):
        d_bar_member(T, (1, 0))


def test_d_bar_member_reconstructs():
    # any decomposition must evaluate back to the input vector
    T = nonclosed_tower()
    rng = random.Random(33)
    hits = 0
    for _ in range(200):
        v = tuple(rng.randint(-4, 7) for _ in range(4))
        dec = d_bar_member(T, v)
        if dec is False:
            continue
        hits += 1
        c2, c1, tail = dec
        recon = tuple(
            c2.coords()[t] + 2 * c1.coords()[t] + 4 * tail[t] for t in range(4)
        )
        assert recon == v
        assert T.levels[1].contains(c2) and T.levels[0].contains(c1)
    assert hits > 0


def _random_word(rng, code):
    return sum((b for b in code.basis() if rng.randrange(2)), BinaryVector(code.n, 0))


def test_d_bar_member_peels_negative_entries():
    # each peel halves v - (v mod 2) as e >> 1, negative e included: shifting
    # v by 2^a z with negative entries in z keeps the verdict, and every
    # decomposition rebuilds its input exactly
    points = list(iter_product((0, 1), repeat=4))
    monomials = [()] + [(i,) for i in range(4)] + list(combinations(range(4), 2))
    evals = [bv(tuple(int(all(x[i] for i in m)) for x in points)) for m in monomials]
    reed_muller = CodeTower([
        Code(BinaryMatrix.from_columns(evals)), Code(BinaryMatrix.from_columns(evals[:5]))
    ])
    rng = random.Random(61)
    for T in (nonclosed_tower(), reed_muller):
        n, a = T.n, T.a
        verdicts, negative = set(), False
        for _ in range(150):
            words = [_random_word(rng, level) for level in T.levels]  # c_1 .. c_a
            tail = tuple(rng.randint(-6, 6) for _ in range(n))
            member = tuple(
                2**a * tail[t] + sum(2 ** (a - i) * c.coords()[t] for i, c in enumerate(words, 1))
                for t in range(n)
            )
            assert d_bar_member(T, member) == (*words[::-1], tail)
            noise = tuple(rng.randint(-9, 9) for _ in range(n))
            for v in (member, noise):
                z = (-rng.randint(1, 4),) + tuple(rng.randint(-4, 4) for _ in range(n - 1))
                shifted = tuple(e - 2**a * s for e, s in zip(v, z))
                negative |= min(shifted) < 0
                dv, ds = d_bar_member(T, v), d_bar_member(T, shifted)
                assert (dv is False) == (ds is False)
                verdicts.add(dv is False)
                for u, dec in ((v, dv), (shifted, ds)):
                    if dec is not False:
                        *cs, rest = dec  # c_a, ..., c_1, tail
                        recon = [2**a * e for e in rest]
                        for k, c in enumerate(cs):
                            recon = [r + 2**k * e for r, e in zip(recon, c.coords())]
                        assert tuple(recon) == u
        assert verdicts == {True, False} and negative


def test_d_bar_span_contains_all_embeddings():
    T = nonclosed_tower()
    L = d_bar_span(T)
    for idx, level in enumerate(T.levels):
        f = 2 ** (T.a - (idx + 1))
        for c in level.codewords():
            assert L.contains(tuple(f * e for e in c.coords()))
    for i in range(T.n):
        e = [0] * T.n
        e[i] = 2**T.a
        assert L.contains(e)


def test_d_bar_is_lattice_closed_tower():
    full = Code(BinaryMatrix.identity(2))
    rep2 = Code(BinaryMatrix.from_columns([bv((1, 1))]))
    ok, wit = d_bar_is_lattice(CodeTower([full, rep2]))
    assert ok and wit is None

    even4 = Code(
        BinaryMatrix.from_columns([bv((1, 1, 0, 0)), bv((0, 1, 1, 0)), bv((0, 0, 1, 1))])
    )
    rep4 = Code(BinaryMatrix.from_columns([bv((1, 1, 1, 1))]))
    ok, wit = d_bar_is_lattice(CodeTower([even4, rep4]))
    assert ok and wit is None


def test_d_bar_is_lattice_nonclosed_tower():
    T = nonclosed_tower()
    ok, wit = d_bar_is_lattice(T)
    assert not ok
    # the witness is genuine: inside the span, outside the set
    assert d_bar_span(T).contains(wit)
    assert d_bar_member(T, wit) is False
    # the classic witness of this shape: a sum of two embeddings
    v = (1, 2, 2, 1)
    assert d_bar_span(T).contains(v)
    assert d_bar_member(T, v) is False


def test_d_bar_is_lattice_coset_cap(monkeypatch):
    # the cap bounds the prefix tests the witness descent runs: a closed
    # tower is decided by the count whatever the cap, and the bundled
    # non-closed tower's descent runs 2 tests, so a cap of 1 refuses it
    monkeypatch.setattr(constructions, "DBAR_DESCENT_CAP", 1)
    with pytest.raises(QuotientTooLarge):
        d_bar_is_lattice(nonclosed_tower())
    full = Code(BinaryMatrix.identity(2))
    assert d_bar_is_lattice(CodeTower([full, full])) == (True, None)
    monkeypatch.setattr(constructions, "DBAR_DESCENT_CAP", 2)
    assert d_bar_is_lattice(nonclosed_tower()) == (False, (0, 0, 0, 2))


def test_d_bar_large_quotient_closed_tower_needs_no_walk():
    # one level F2^21: 2^21 cosets of 2 Z^21, every one of them in the set
    T = CodeTower([Code(BinaryMatrix.identity(21))])
    assert d_bar_is_lattice(T) == (True, None)


def test_d_bar_reed_muller_3_over_2_witness():
    # RM(3,4) > RM(2,4), 2^27 cosets in the span: x0x1 * x2x3 = x0x1x2x3 is
    # not in RM(3,4), so the tower is not closed and the descent must name
    # a coset the set misses
    points = list(iter_product((0, 1), repeat=4))
    monomials = [m for r in range(4) for m in combinations(range(4), r)]
    evals = [bv(tuple(int(all(x[i] for i in m)) for x in points)) for m in monomials]
    T = CodeTower([
        Code(BinaryMatrix.from_columns(evals)), Code(BinaryMatrix.from_columns(evals[:11]))
    ])
    ok, wit = d_bar_is_lattice(T)
    assert not ok and not is_schur_closed_tower(T)[0]
    assert d_bar_span(T).contains(wit)
    assert d_bar_member(T, wit) is False


def random_tower(rng, n, a):
    """Nested C_1 >= ... >= C_a: each level adds random words to the next."""
    words: list[BinaryVector] = []
    levels = []
    for _ in range(a):
        words += [bv(tuple(rng.randrange(2) for _ in range(n))) for _ in range(rng.randrange(3))]
        levels.append(Code(BinaryMatrix.from_columns(words, n=n)))
    return CodeTower(levels[::-1])


def test_d_bar_matches_all_codeword_span_and_full_walk():
    rng = random.Random(2014)
    decisions = set()
    for _ in range(300):
        T = random_tower(rng, rng.randint(1, 7), rng.randint(1, 3))
        want = dbar_walk_is_lattice(T)
        assert d_bar_span(T) == dbar_span_all_codewords(T)
        assert d_bar_is_lattice(T) == want
        assert want[0] == is_schur_closed_tower(T)[0]
        decisions.add(want[0])
    assert decisions == {True, False}


def test_d_bar_closed_reed_muller_tower_walks_no_coset(monkeypatch):
    # RM(2,4) > RM(1,4) from monomials of degree <= 2 and <= 1 evaluated on F2^4;
    # its quotient by 4 Z^16 has 2^16 cosets, all of them in the set sum
    points = list(iter_product((0, 1), repeat=4))
    monomials = [()] + [(i,) for i in range(4)] + list(combinations(range(4), 2))
    evals = [bv(tuple(int(all(x[i] for i in m)) for x in points)) for m in monomials]
    T = CodeTower([
        Code(BinaryMatrix.from_columns(evals)), Code(BinaryMatrix.from_columns(evals[:5]))
    ])
    calls = []
    member = constructions.d_bar_member
    monkeypatch.setattr(
        constructions, "d_bar_member", lambda *args: calls.append(1) or member(*args)
    )
    assert d_bar_is_lattice(T) == (True, None)
    assert calls == []

def test_d_bar_deep_witness_found_without_walking(monkeypatch):
    # even-on-flat [16, 15] > the four linear functions of RM(1,4), with the
    # 2-flat {x1 = x2 = 1} on coordinates 0..3: every coset the walk meets
    # before a flat digit moves is in the set sum, so the first missing one
    # is coset 8193 of the walk; the descent must find the same vector
    points = sorted(iter_product((0, 1), repeat=4), key=lambda x: -(x[0] & x[1]))
    flat = [p for p, x in enumerate(points) if x[0] & x[1]]
    even = [BinaryVector.from_support(16, [i]) for i in range(16) if i not in flat]
    even += [BinaryVector.from_support(16, [flat[0], f]) for f in flat[1:]]
    linear = [bv(tuple(x[i] for x in points)) for i in range(4)]
    T = CodeTower([Code(BinaryMatrix.from_columns(even)), Code(BinaryMatrix.from_columns(linear))])
    walked = []
    monkeypatch.setattr(
        oracles, "d_bar_member", lambda *args: walked.append(1) or d_bar_member(*args)
    )
    want = dbar_walk_is_lattice(T)
    assert want[0] is False and len(walked) == 8193
    calls = []
    monkeypatch.setattr(
        constructions, "d_bar_member", lambda *args: calls.append(1) or d_bar_member(*args)
    )
    assert d_bar_is_lattice(T) == want
    assert len(calls) == 1  # the check of the witness itself
