import itertools
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from codelattice import gadgets
from codelattice.constructions import construction_a, simplified_d
from codelattice.errors import (
    HypothesesFail,
    LengthMismatch,
    ModTwoMismatch,
    ShapeMismatch,
    SupportTooLarge,
)
from codelattice.gadgets import (
    SIGN_SUPPORT_CAP,
    Thm22Gadget,
    Thm24Gadget,
    _minimum_replication,
    _sign_walk,
    build_cor23,
    build_cor25,
    check_thm22_hypotheses,
    check_thm24_hypotheses,
    golay_lp_check,
    min_m,
    passed,
    stack_with_replication,
    ternary_sign_search,
    verify_cor23,
    verify_cor25,
    verify_cstar_collapse,
    verify_dbar_schur,
    verify_thm24,
)
from codelattice.gf2core import (
    BinaryMatrix,
    BinaryVector,
    Code,
    CodeTower,
    kernel_basis,
    min_distance,
    min_weight_codewords,
)
from codelattice.matio import cor23_matrices, cor25_matrices
from codelattice.zlattice import (
    Lattice,
    adjugate_solve,
    determinant,
    lp_power_sum_cmp,
    shortest_vectors,
    vectors_up_to,
)

from oracles import min_m_gallop, min_m_linear, sign_walk_tuples, thm22_mod4_sweep, thm24_kernel_walk

bv = BinaryVector.from_coords


def test_stack_with_replication_weight_law():
    rng = random.Random(50)
    for _ in range(20):
        k = rng.randrange(1, 5)
        na, nb, m = rng.randrange(1, 5), rng.randrange(1, 5), rng.randrange(1, 6)
        A = BinaryMatrix.from_columns(
            [bv(tuple(rng.randrange(2) for _ in range(na))) for _ in range(k)], n=na
        )
        B = BinaryMatrix.from_columns(
            [bv(tuple(rng.randrange(2) for _ in range(nb))) for _ in range(k)], n=nb
        )
        S = stack_with_replication(A, B, m)
        assert S.n == na + m * nb
        x = bv(tuple(rng.randrange(2) for _ in range(k)))
        assert S.mul(x).weight == A.mul(x).weight + m * B.mul(x).weight


def test_gadget_validation():
    A, B, w = cor23_matrices()
    with pytest.raises(ValueError):
        Thm22Gadget(A=A, B=B, w=w, a=1, m=17)
    with pytest.raises(ValueError):
        Thm22Gadget(A=A, B=B, w=w, a=2, m=16)
    with pytest.raises(ShapeMismatch):
        Thm22Gadget(A=A, B=B, w=bv((1, 1)), a=2, m=17)
    A2, B2, z = cor25_matrices()
    with pytest.raises(ShapeMismatch):
        Thm24Gadget(A=A2, B=B2, z=(1, -1), m=4)
    with pytest.raises(ValueError):
        Thm24Gadget(A=A2, B=B2, z=z, m=0)


def test_gadgets_and_results_refuse_every_assignment():
    # named tuples with __slots__ = (): no field, property or new name can be set
    A, B, w = cor23_matrices()
    A2, B2, z = cor25_matrices()
    L = Lattice.from_generators(2, [(1, 1)])
    values = [
        Thm22Gadget(A=A, B=B, w=w, a=2, m=17),
        Thm24Gadget(A=A2, B=B2, z=z, m=4),
        determinant(L),
        shortest_vectors(L),
        L,
        A,
        CodeTower([Code(A), Code(A.hstack(A))]),
        Code(A),
    ]
    for obj in values:
        assert isinstance(obj, tuple) and not hasattr(obj, "__dict__")
        for name in (*obj._fields, "k", "n", "ell", "rank", "a", "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)


def test_thm22_hypotheses_pass_on_bundled_instance():
    g, _, _ = build_cor23()
    rep = check_thm22_hypotheses(g)
    assert passed(rep)
    assert [h["pass"] for h in rep["hypotheses"]] == [True, True, True]
    assert rep["exact_values"]["Aw_weight"] == 16
    assert rep["exact_values"]["kernel_dim"] == 1
    assert rep["theorem"] == "thm22"


def test_thm22_negative_control_zero_b():
    A, B, w = cor23_matrices()
    g = Thm22Gadget(A=A, B=BinaryMatrix(3, (0,) * 3), w=w, a=2, m=17)
    rep = check_thm22_hypotheses(g)
    assert not passed(rep)
    assert not rep["hypotheses"][1]["pass"]  # kernel is all of F2^3
    assert len(rep["hypotheses"][1]["witness"]["kernel_basis"]) == 3
    assert not rep["hypotheses"][2]["pass"]  # zero image is 0 mod 4


def test_thm22_negative_control_wrong_w():
    A, B, _ = cor23_matrices()
    e0 = BinaryVector.from_support(3, [0])
    g = Thm22Gadget(A=A, B=B, w=e0, a=2, m=17)
    rep = check_thm22_hypotheses(g)
    assert not rep["hypotheses"][0]["pass"]
    assert rep["hypotheses"][0]["witness"]["observed_weight"] == A.column(0).weight != 16


def test_thm22_mod4_sweep_covers_all_integer_offsets():
    # the verdict on item 3 holds for every offset in Z^k: spot-check random ones
    g, _, _ = build_cor23()
    brows = g.B.to_rows()
    wc = g.w.coords()
    rng = random.Random(51)
    for _ in range(100):
        t = [rng.randint(-50, 50) for _ in range(g.k)]
        y = [wc[j] + 2 * t[j] for j in range(g.k)]
        imgs = [sum(r[j] * y[j] for j in range(g.k)) for r in brows]
        assert any(e % 4 != 0 for e in imgs)


def rand_f2_matrix(rng, n, k, density):
    return BinaryMatrix.from_rows(
        [[int(rng.random() < density) for _ in range(k)] for _ in range(n)]
    )


def test_thm22_mod4_solve_matches_offset_sweep():
    # sparse B makes B w even often, so both verdicts occur in numbers
    rng = random.Random(2022)
    verdicts = []
    for _ in range(2000):
        k = rng.randint(1, 7)
        B = rand_f2_matrix(rng, rng.randint(1, 6), k, rng.choice((0.2, 0.4, 0.6)))
        w = BinaryVector(k, rng.getrandbits(k))
        g = Thm22Gadget(A=rand_f2_matrix(rng, 3, k, 0.5), B=B, w=w, a=2, m=17)
        h = check_thm22_hypotheses(g)["hypotheses"][2]
        assert h["pass"] == thm22_mod4_sweep(g)[0]
        verdicts.append(h["pass"])
        if not h["pass"]:
            y = h["witness"]["y"]
            assert [e & 1 for e in y] == list(w.coords())
            assert all(sum(r[j] * y[j] for j in range(k)) % 4 == 0 for r in B.to_rows())
    assert 200 < verdicts.count(False) < 1800


def test_thm24_outside_kernel_matches_kernel_walk():
    rng = random.Random(2024)
    verdicts = []
    while len(verdicts) < 2000:
        ell = rng.randint(1, 7)
        A = rand_f2_matrix(rng, rng.randint(1, 5), ell, rng.choice((0.2, 0.5)))
        B = rand_f2_matrix(rng, rng.randint(1, 6), ell, rng.choice((0.3, 0.5)))
        if not any(A.cols) or not any(B.cols):
            continue  # the zero code has no distance
        g = Thm24Gadget(A=A, B=B, z=(1,) * ell, m=1)
        rep = check_thm24_hypotheses(g)
        h = rep["hypotheses"][2]
        dB = rep["exact_values"]["d_CB"]
        assert h["pass"] == thm24_kernel_walk(g, kernel_basis(A), dB)[0]
        verdicts.append(h["pass"])
        if not h["pass"]:
            x = BinaryVector.from_coords(h["witness"]["x"])
            bx = B.mul(x)
            assert A.mul(x).is_zero() and not bx.is_zero()
            assert bx.weight == h["witness"]["Bx_weight"] <= dB
    assert 200 < verdicts.count(False) < 1800


def test_build_cor23_instance_shape():
    g, lat, code = build_cor23()
    assert lat.n == 67 and code.n == 67
    assert code.dimension == 3
    assert min_distance(code) == 16
    assert len(min_weight_codewords(code)) == 1
    # scaled unit vectors of the top block are members
    assert lat.contains((4,) + (0,) * 66)
    assert not lat.contains((1,) + (0,) * 66)
    with pytest.raises(ValueError):
        build_cor23(m=16)


def test_build_cor23_other_seeds():
    for seed in (1, 2, 3):
        g, lat, code = build_cor23(seed=seed)
        assert min_distance(code) == 16
        assert passed(check_thm22_hypotheses(g))
        assert lat.n == 67


def test_ternary_sign_search_completeness_small():
    rng = random.Random(52)
    cases = 0
    while cases < 10:
        n = rng.randrange(2, 9)
        k = rng.randrange(1, 4)
        cols = [bv(tuple(rng.randrange(2) for _ in range(n))) for _ in range(k)]
        C = Code(BinaryMatrix.from_columns(cols, n=n))
        if C.dimension == 0:
            continue
        cases += 1
        L = construction_a(C)
        got = ternary_sign_search(L, C, 4)
        expect = [
            v
            for v in vectors_up_to(L, 16)
            if any(v) and all(-1 <= e <= 1 for e in v)
        ]
        assert got == expect


def test_ternary_sign_search_guards():
    rep3 = Code(BinaryMatrix.from_columns([bv((1, 1, 1))]))
    L = construction_a(rep3)
    assert ternary_sign_search(L, rep3, 0) == []
    with pytest.raises(ModTwoMismatch):
        ternary_sign_search(Lattice.from_generators(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), rep3, 4)
    with pytest.raises(LengthMismatch):
        ternary_sign_search(L, Code(BinaryMatrix.identity(4)), 4)
    rep25 = Code(BinaryMatrix.from_columns([bv((1,) * 25)]))
    with pytest.raises(SupportTooLarge):
        ternary_sign_search(construction_a(rep25), rep25, 5)


def test_mod_two_check_skips_only_columns_with_no_odd_entry():
    # the check skips columns with no odd entry, which reduce to the zero
    # word; the odd column (0, 0, 2, 1), whose first nonzero entry is even,
    # comes after two skipped columns and reduces outside C
    C = Code(BinaryMatrix.from_columns([bv((1, 1, 0, 0))]))
    L = Lattice.from_generators(4, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 1), (0, 0, 0, 4)])
    assert L.basis == ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 1), (0, 0, 0, 4))
    with pytest.raises(ModTwoMismatch):
        ternary_sign_search(L, C, 2)
    # a basis of even columns only reduces into every code
    L = Lattice.from_generators(4, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 4), (0, 0, 0, 4)])
    assert ternary_sign_search(L, C, 2) == []
    assert ternary_sign_search(L, Code(BinaryMatrix.from_columns([bv((0, 0, 0, 1))])), 2) == []


def test_sign_search_refuses_iff_a_support_between_cap_and_bound():
    # words of weight 25 and 26 (and 1): refused at bound 5 and 6, naming
    # the lighter one; words of weight 26 and 27 lie beyond bound 5, so the
    # search runs and finds only the weight-1 word's signs
    n = SIGN_SUPPORT_CAP + 3
    ones = lambda w, lead=0: bv((0,) * lead + (1,) * w + (0,) * (n - lead - w))
    C = Code(BinaryMatrix.from_columns([ones(25), ones(26)]))
    for bound in (5, 6):
        with pytest.raises(SupportTooLarge, match="candidate support 25 exceeds 24"):
            ternary_sign_search(construction_a(C), C, bound)
    C = Code(BinaryMatrix.from_columns([ones(26), ones(1, n - 1)]))
    e = (0,) * (n - 1)
    assert ternary_sign_search(construction_a(C), C, 5) == [e + (-1,), e + (1,)]
    with pytest.raises(SupportTooLarge, match="candidate support 26 exceeds 24"):
        ternary_sign_search(construction_a(C), C, 6)


def test_ternary_sign_search_matches_brute_force():
    # the meet-in-the-middle join over a support of size 12 against
    # membership of every pattern
    rep12 = Code(BinaryMatrix.from_columns([bv((1,) * 12)]))
    L = construction_a(rep12)
    found = ternary_sign_search(L, rep12, 4)
    brute = sorted(v for v in itertools.product((-1, 1), repeat=12) if L.contains(v))
    assert found == brute
    # every sign assignment of the all-ones word reduces into the code
    assert len(found) == 4096


def _reduced_modulus(L, c):
    """D / g for the sign search on supp(c): the order of the residues it joins."""
    D, x_plus, _ = adjugate_solve(L, c.coords())
    units = [tuple(int(t == i) for t in range(L.n)) for i in c.support()]
    cols = [adjugate_solve(L, e)[1] for e in units]
    return D // gcd(D, *x_plus, *(2 * x for col in cols for x in col))


def test_ternary_sign_search_partial_hits_match_brute_force():
    # full-rank lattices whose basis reduces mod 2 into C: embedded codewords
    # of C (random signs), twice the words of a second code, and mZ^n with
    # m = 8 as well as 4 so that D/g can exceed 2; every ternary vector of
    # Z^n is tested for membership directly
    rng = random.Random(61)
    weights, partial, wide = set(), set(), 0
    for _ in range(40):
        n = rng.randrange(3, 7)
        cols = [BinaryVector(n, rng.getrandbits(n)) for _ in range(rng.randrange(1, 3))]
        low = rng.sample(range(n), rng.randrange(1, 3))  # a word of weight 1 or 2
        cols.append(BinaryVector.from_coords([int(i in low) for i in range(n)]))
        C = Code(BinaryMatrix.from_columns(cols, n=n))
        twice = [BinaryVector(n, rng.getrandbits(n)) for _ in range(rng.randrange(1, 3))]
        m = rng.choice((4, 8))
        gens = [tuple(rng.choice((-1, 1)) * e for e in c.coords()) for c in cols]
        gens += [tuple(2 * e for e in c.coords()) for c in twice]
        gens += [tuple(m * (t == i) for t in range(n)) for i in range(n)]
        L = Lattice.from_generators(n, gens)
        found = ternary_sign_search(L, C, 3)  # 3^2 >= n: every support
        brute = sorted(
            (v for v in itertools.product((-1, 0, 1), repeat=n) if any(v) and L.contains(v)),
            key=lambda v: (sum(e * e for e in v), v),
        )
        assert found == brute
        for c in C.codewords():
            w = c.weight
            if w == 0:
                continue
            weights.add(w)
            on = [v for v in found if [int(e != 0) for e in v] == list(c.coords())]
            if 0 < len(on) < 1 << w:
                partial.add(w)
            wide += _reduced_modulus(L, c) > 2
    assert {1, 2} <= weights
    assert any(w % 2 for w in partial) and any(w % 2 == 0 for w in partial)
    assert wide > 0


def test_ternary_sign_search_lower_rank_matches_brute_force():
    # rank < n lattices spanned by up to three signed embedded codewords of
    # C, each scaled by 1, 2 or 3 (so the pivot product D exceeds 1 and the
    # off-pivot entries w of the adjugate keys exceed 1 in size); every
    # ternary vector of squared norm <= bound^2 is tested directly
    rng = random.Random(67)
    cases, partial, big_d, big_w = 0, 0, False, False
    while cases < 30:
        n = rng.randrange(3, 9)
        cols = [BinaryVector(n, rng.getrandbits(n)) for _ in range(rng.randrange(1, n))]
        C = Code(BinaryMatrix.from_columns(cols, n=n))
        words = [c for c in C.codewords() if not c.is_zero()]
        if not words:
            continue
        picks = rng.sample(words, rng.randrange(1, min(len(words), 3) + 1))
        scales = [rng.choice((1, 2, 3)) for _ in picks]
        L = Lattice.from_generators(
            n,
            [
                tuple(s * rng.choice((-1, 1)) * e for e in c.coords())
                for c, s in zip(picks, scales)
            ],
        )
        if L.rank == n:
            continue
        cases += 1
        for i in range(n):
            D, _, w = adjugate_solve(L, tuple(int(t == i) for t in range(n)))
            big_d |= D > 1
            big_w |= max(map(abs, w)) > 1
        for bound in (2, 3):
            found = ternary_sign_search(L, C, bound)
            brute = sorted(
                (
                    v
                    for v in itertools.product((-1, 0, 1), repeat=n)
                    if 0 < sum(e * e for e in v) <= bound * bound and L.contains(v)
                ),
                key=lambda v: (sum(e * e for e in v), v),
            )
            assert found == brute
        for c in words:
            on = [v for v in found if [int(e != 0) for e in v] == list(c.coords())]
            partial += 0 < len(on) < 1 << c.weight
    assert partial > 0
    assert big_d and big_w


def _sign_walk_brute(Q, x_plus, cols2):
    """Every pattern S with x_plus - sum_{b in S} cols2[b] = 0 mod Q, one by one."""
    return [
        S
        for S in range(1 << len(cols2))
        if all(
            (x - sum(col[t] for b, col in enumerate(cols2) if S >> b & 1)) % Q == 0
            for t, x in enumerate(x_plus)
        )
    ]


@pytest.mark.parametrize("Q", [1, 2, 3, 6, 255, 256, 2**64 + 13])
def test_packed_sign_walk_matches_tuple_walk_and_brute_force(Q):
    # random residue keys with a planted hit S0 (x_plus is the sum of the
    # columns S0 picks), so an empty answer cannot pass; the last Q makes
    # each packed field wider than a machine word.  The brute force runs
    # on short keys (at Q = 1 every pattern is a hit), the tuple walk also
    # on keys of cor23's length 67.
    rng = random.Random(Q)
    for w in (1, 2, 7, 16):
        for n in (1, 3, 67):
            cols2 = tuple(tuple(rng.randrange(Q) for _ in range(n)) for _ in range(w))
            S0 = rng.getrandbits(w)
            x_plus = tuple(
                sum(col[t] for b, col in enumerate(cols2) if S0 >> b & 1) % Q
                for t in range(n)
            )
            got = _sign_walk(Q, x_plus, cols2)
            assert S0 in got
            assert got == sign_walk_tuples(Q, x_plus, cols2)
            if Q == 1:
                assert got == list(range(1 << w))
            elif n == 1 or (n == 3 and w < 16):
                assert got == _sign_walk_brute(Q, x_plus, cols2)
            # a random x_plus: mostly no hit once Q^n is large
            x_rand = tuple(rng.randrange(Q) for _ in range(n))
            assert _sign_walk(Q, x_rand, cols2) == sign_walk_tuples(Q, x_rand, cols2)


def test_sign_search_at_the_support_cap():
    # the length-24 repetition code over L = Z(1, ..., 1) + 4Z^24 and over
    # the rank-1 L = Z(1, ..., 1): the only ternary members are
    # +-(1, ..., 1); a walk over all 2^24 patterns of the cap-sized support
    # would not finish in time.  A rank-0 L holds none.
    n = SIGN_SUPPORT_CAP
    rep = Code(BinaryMatrix.from_columns([bv((1,) * n)]))
    four = [tuple(4 * (t == i) for t in range(n)) for i in range(n)]
    for gens in ([(1,) * n] + four, [(1,) * n]):
        L = Lattice.from_generators(n, gens)
        t0 = time.perf_counter()
        found = ternary_sign_search(L, rep, 5)
        assert time.perf_counter() - t0 < 1.0
        assert found == [(-1,) * n, (1,) * n]
    assert ternary_sign_search(Lattice.from_generators(n, []), rep, 5) == []


def test_thm24_hypotheses_pass_on_bundled_instance():
    rep = check_thm24_hypotheses(build_cor25())
    assert passed(rep)
    assert rep["exact_values"]["d_CA"] == 1
    assert rep["exact_values"]["d_CB"] == 2
    assert rep["exact_values"]["A_image_l2sq"] == 8


def test_thm24_negative_controls():
    A, B, z = cor25_matrices()
    rep = check_thm24_hypotheses(Thm24Gadget(A=A, B=B, z=(0, 0, 0, 0), m=4))
    assert not rep["hypotheses"][3]["pass"]
    rep = check_thm24_hypotheses(Thm24Gadget(A=B, B=B, z=z, m=4))
    assert not rep["hypotheses"][3]["pass"]  # A-lift of z vanishes along with B's
    # kernel inclusion violated: ker(B) reaches outside ker(A)
    A2 = BinaryMatrix.identity(2)
    B2 = BinaryMatrix.from_rows([[1, 1]])
    rep = check_thm24_hypotheses(Thm24Gadget(A=A2, B=B2, z=(1, -1), m=1))
    assert not rep["hypotheses"][1]["pass"]
    # column weights: the first heavy column is reported, A's before B's
    tri = BinaryMatrix.from_rows([[1, 1, 1], [0, 1, 1], [0, 0, 1]])  # weights 1, 2, 3; d = 1
    for A3, matrix in ((tri, "A"), (BinaryMatrix.identity(3), "B")):
        rep = check_thm24_hypotheses(Thm24Gadget(A=A3, B=tri, z=(1, 0, 0), m=1))
        assert rep["hypotheses"][0]["witness"] == {
            "matrix": matrix, "column": 1, "weight": 2, "distance": 1
        }


def test_min_m_per_exponent():
    g = build_cor25()
    assert min_m(g, 2) == 4
    assert min_m(g, 1) == 2
    assert min_m(g, Fraction(3, 2)) == 3


def test_min_m_matches_linear_count():
    g = build_cor25()
    rep = check_thm24_hypotheses(g)
    z, dA, dB = (rep["exact_values"][k] for k in ("A_image_of_z", "d_CA", "d_CB"))
    for p in (1, Fraction(3, 2), 2, Fraction(7, 3), Fraction(5, 2), 3, 8, 20):
        assert min_m(g, p) == min_m_linear(z, p, dA, dB)


def test_min_m_of_a_large_exponent_returns_at_once():
    # min_m grows like 2^p (2^64, then about 2^100000); counting up to it
    # would never end, and an integer p is one exact power sum
    g = build_cor25()
    rep = check_thm24_hypotheses(g)
    z, dA, dB = (rep["exact_values"][k] for k in ("A_image_of_z", "d_CA", "d_CB"))
    t0 = time.perf_counter()
    assert min_m(g, 64) == 2**64
    m = min_m(g, 100000)
    assert time.perf_counter() - t0 < 1.0
    s = sum(abs(e) ** 100000 for e in z)
    assert m >= dA and dA + (m - 1) * dB <= s < dA + m * dB


def _replication(z, p, dA, dB):
    """min_m of a passed thm24 report with these exact values."""
    exact = {"d_CA": dA, "d_CB": dB, "A_image_of_z": z}
    rep = {"theorem": "thm24", "params": {}, "hypotheses": [], "conclusions": [],
           "exact_values": exact}
    return _minimum_replication(rep, Fraction(p))


def test_min_m_matches_galloping_search():
    rng = random.Random(41)
    for _ in range(40):
        z = tuple(rng.randint(-9, 9) for _ in range(rng.randrange(1, 7)))
        v = rng.randrange(1, 1001)
        p = Fraction(rng.randrange(v, 3 * v + 1), v)
        dA, dB = rng.randrange(1, 10), rng.randrange(1, 10)
        assert _replication(z, p, dA, dB) == min_m_gallop(z, p, dA, dB), (z, p, dA, dB)


def test_min_m_on_exact_boundaries():
    # (S - dA)/dB an integer: S = dA + m*dB is not below, so min_m is one more
    for z, p, dA, dB, m in (
        ((4,), Fraction(3, 2), 2, 3, 3),  # S = 4^(3/2) = 8 = 2 + 2*3
        ((4,), Fraction(3, 2), 1, 7, 2),  # 8 = 1 + 1*7
        ((3, -4), 2, 5, 5, 5),  # S = 25 = 5 + 4*5
        ((8, -8, 1), Fraction(4, 3), 1, 32, 2),  # S = 16 + 16 + 1 = 1 + 1*32
        ((1, 1), Fraction(7, 5), 1, 1, 2),  # S = 2 = 1 + 1*1
        ((0, 0), Fraction(3, 2), 4, 1, 4),  # S = 0: min_m is dA
        ((4,), Fraction(3, 2), 20, 1, 20),  # S far below dA
        # the first bracket straddles a floor; lo's floor, then hi's, is wrong
        ((3, -7, 9, -6), Fraction(26, 11), 8, 6, 60),
        ((-3, -8), Fraction(12, 5), 1, 2, 80),  # 3^(12/5) + 8^(12/5) = 160.9999996...
    ):
        assert _replication(z, p, dA, dB) == m == min_m_gallop(z, p, dA, dB)
        assert m == min_m_linear(z, p, dA, dB)


def test_min_m_at_a_fine_exponent_brackets_once():
    # the galloping search this replaced re-bracketed the sum for every m it
    # tried: about 2.5 s for this call on 2 CPUs
    g = build_cor25()
    rep = check_thm24_hypotheses(g)
    z, dA, dB = (rep["exact_values"][k] for k in ("A_image_of_z", "d_CA", "d_CB"))
    p = Fraction(20001, 10000)
    t0 = time.perf_counter()
    m = min_m(g, p)
    assert time.perf_counter() - t0 < 1.0
    assert m >= dA
    assert lp_power_sum_cmp(z, p, dA + m * dB) < 0
    assert m == dA or lp_power_sum_cmp(z, p, dA + (m - 1) * dB) >= 0


def test_min_m_rejects_broken_gadget():
    A, B, _ = cor25_matrices()
    with pytest.raises(HypothesesFail) as ei:
        min_m(Thm24Gadget(A=A, B=B, z=(0, 0, 0, 0), m=4))
    assert ei.value.report is not None
    assert not passed(ei.value.report)


def test_verify_cor25_default():
    rep = verify_cor25()
    assert passed(rep)
    assert rep["theorem"] == "cor25"
    assert rep["conclusions"][0]["claim"] == "code parameters are exactly [18, 3, 9]"
    assert rep["exact_values"]["lambda1_sq"] == 8
    assert rep["exact_values"]["kissing"] == 2
    assert rep["exact_values"]["min_m"] == 4
    wit = next(c for c in rep["conclusions"] if c["claim"].startswith("witness"))
    assert wit["certificate"]["vector"] == [2, -2] + [0] * 16
    assert wit["certificate"]["l2sq"] == 8


def test_verify_thm24_larger_m_and_below_minimum():
    rep = verify_thm24(build_cor25(5))
    assert passed(rep)
    assert rep["exact_values"]["d_Cm"] == 11
    with pytest.raises(HypothesesFail, match="below minimum"):
        verify_thm24(build_cor25(3))


def test_verify_thm24_other_exponents():
    rep = verify_thm24(build_cor25(3), p=Fraction(3, 2))
    assert passed(rep)
    assert "lambda1_sq" not in rep["exact_values"]  # enumeration is l2-only
    rep = verify_thm24(build_cor25(2), p=1)
    assert passed(rep)


def test_distance_identity_family():
    for m in range(4, 11):
        Cm = Code(build_cor25(m).level_matrix())
        assert min_distance(Cm) == 1 + 2 * m


def test_verify_cor23_default():
    rep = verify_cor23()
    assert passed(rep)
    assert rep["theorem"] == "cor23"
    assert rep["exact_values"]["n"] == 67
    assert rep["exact_values"]["d"] == 16
    assert rep["exact_values"]["code_kissing"] == 1
    assert rep["exact_values"]["ternary_count"] == 0
    assert len(rep["conclusions"]) == 3


def test_verify_cor23_full_enum_budget_overflow_is_reported():
    rep = verify_cor23(full_enum=True, budget=1000)
    assert passed(rep)  # overflow is recorded, not failed
    assert rep["exact_values"]["full_enum_status"].startswith("budget exhausted")
    assert len(rep["conclusions"]) == 3


def test_verify_cor23_full_enum_claim_fails_on_a_ternary_vector(monkeypatch):
    # no cor23 lattice holds a nonzero ternary vector, so the enumeration
    # claim's failing path is reached by adding one to what the walk
    # returns; a vector with one entry -2 is not ternary and keeps it passing
    claim = "exhaustive enumeration to squared norm 16 finds no nonzero ternary vector"
    walk = gadgets.vectors_up_to
    for extra, ok in (((-1, 1) + (0,) * 64 + (1,), False), ((1, -2) + (0,) * 64 + (1,), True)):
        monkeypatch.setattr(gadgets, "vectors_up_to", lambda *args: walk(*args) + [extra])
        rep = verify_cor23(full_enum=True)
        (item,) = [c for c in rep["conclusions"] if c["claim"] == claim]
        assert item["pass"] is ok and passed(rep) is ok
        assert rep["exact_values"]["norm_le16_nonzero_count"] == 150 + 1  # the added vector


def test_sign_search_control_finds_vectors_when_they_exist():
    # the mod-2 lattice over the same stacked code is full of ternary
    # vectors; the search must see them (search-blindness control)
    _, _, code = build_cor23()
    found = ternary_sign_search(construction_a(code), code, 4)
    assert len(found) >= 2
    assert len(found) == 65536  # all sign patterns of the single octad-like word


def test_golay_lp_p1():
    rep = golay_lp_check(1)
    assert passed(rep)
    assert rep["exact_values"]["witness_l1"] == 4
    assert rep["exact_values"]["pair_members_found"] == 276
    assert rep["exact_values"]["pairs_probed"] == 276
    cert = rep["conclusions"][0]["certificate"]
    assert cert["l1"] == 4 and cert["l2sq"] == 8


def test_golay_lp_p32():
    rep = golay_lp_check(Fraction(3, 2))
    assert passed(rep)
    assert rep["conclusions"][0]["certificate"]["l1"] == 4


def test_golay_lp_p2_vacuous():
    rep = golay_lp_check(2)
    assert passed(rep)
    assert "no strict witness" in rep["conclusions"][0]["claim"]
    assert rep["exact_values"]["d"] == 8 and rep["exact_values"]["kappa0"] == 759


def test_golay_lp_rejects_out_of_range_p():
    with pytest.raises(ValueError):
        golay_lp_check(3)
    with pytest.raises(ValueError):
        golay_lp_check(Fraction(1, 2))


def test_verify_cstar_collapse():
    rep = verify_cstar_collapse(seed=0)
    assert passed(rep)
    assert len(rep["exact_values"]["codes"]) == 20
    rep3 = Code(BinaryMatrix.from_columns([bv((1, 1, 1))]))
    single = verify_cstar_collapse(C=rep3)
    assert passed(single)
    assert single["exact_values"]["codes"][0]["d"] == 3


def test_verify_cstar_collapse_refuses_length_0():
    with pytest.raises(ValueError, match="1 <= n <="):
        verify_cstar_collapse(C=Code(BinaryMatrix(0, ())))


def test_verify_dbar_schur_default_and_closed():
    rep = verify_dbar_schur()
    assert passed(rep)
    assert rep["exact_values"] == {"schur_closed": False, "is_lattice": False}
    cert = rep["conclusions"][0]["certificate"]
    assert cert["schur_witness"]["level"] == 2
    assert "span_witness" in cert

    full = Code(BinaryMatrix.identity(2))
    rep2 = Code(BinaryMatrix.from_columns([bv((1, 1))]))
    rep = verify_dbar_schur(CodeTower([full, rep2]))
    assert passed(rep)
    assert rep["exact_values"] == {"schur_closed": True, "is_lattice": True}
    cert = rep["conclusions"][0]["certificate"]
    assert "schur_witness" not in cert and "span_witness" not in cert


def test_report_serialization():
    d = verify_cor25()
    assert set(d) == {
        "theorem",
        "params",
        "hypotheses",
        "conclusions",
        "exact_values",
    }
    for h in d["hypotheses"]:
        assert set(h) <= {"name", "pass", "witness"}
        assert h["pass"] is True and "witness" not in h
    for c in d["conclusions"]:
        assert set(c) <= {"claim", "pass", "certificate"}
    assert d["exact_values"]["p"] == "2"  # Fractions serialize as strings
    assert "runtime_ms" not in d  # the command line times a report, the library does not
    import json

    json.dumps(d)  # everything JSON-safe

    rep32 = verify_thm24(build_cor25(3), p=Fraction(3, 2))
    assert rep32["exact_values"]["p"] == "3/2"