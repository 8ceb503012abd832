"""Acceptance suite: one test per published criterion, each printing a
single PASS line with the measured exact values.  Run with -s to see them.
"""

import random
import time
from fractions import Fraction

from codelattice.constructions import (
    construction_a,
    d_bar_member,
    d_bar_span,
    embed_sum_identity_check,
)
from codelattice.gadgets import (
    build_cor23,
    build_cor25,
    check_thm22_hypotheses,
    golay_lp_check,
    passed,
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
    min_distance,
    min_weight_codewords,
)
from codelattice.matio import nonclosed_tower
from codelattice.zlattice import Lattice, shortest_vectors, vectors_up_to

from oracles import box_vectors, reduce_columns


def test_acceptance_1_short_span_instance():
    t0 = time.perf_counter()
    rep = verify_cor25()
    elapsed = time.perf_counter() - t0
    assert passed(rep)
    assert rep["conclusions"][0]["claim"] == "code parameters are exactly [18, 3, 9]"
    assert rep["conclusions"][0]["pass"]
    assert rep["exact_values"]["lambda1_sq"] == 8
    assert rep["exact_values"]["d_Cm"] == 9
    assert 8 < 9
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 1: PASS ([18, 3, 9] code, lambda1^2 = 8 < 9, "
        f"{elapsed:.2f} s)"
    )


def test_acceptance_2_replication_family():
    t0 = time.perf_counter()
    results = []
    for m in range(4, 9):
        rep = verify_thm24(build_cor25(m))
        assert passed(rep)
        d = rep["exact_values"]["d_Cm"]
        lam = rep["exact_values"]["lambda1_sq"]
        assert d == 1 + 2 * m
        assert lam <= 8 < d
        results.append((m, d, lam))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 2: PASS (m = 4..8, d = 1+2m, lambda1^2 <= 8 < d in all "
        f"cases: {results}, {elapsed:.2f} s)"
    )


def test_acceptance_3_scaled_tower_instance():
    th0 = time.perf_counter()
    g, lat, code = build_cor23()
    hyp = check_thm22_hypotheses(g)
    hyp_elapsed = time.perf_counter() - th0
    assert passed(hyp)
    assert hyp_elapsed < 1.0

    t0 = time.perf_counter()
    for seed in range(5):
        rep = verify_cor23(m=17, seed=seed)
        assert passed(rep)
        assert rep["exact_values"]["d"] == 16
        assert rep["exact_values"]["ternary_count"] == 0
        # the unique min-weight codeword does not embed into the lattice
        g2, lat2, code2 = build_cor23(seed=seed)
        S = min_weight_codewords(code2)
        assert len(S) == 1
        assert not lat2.contains(S[0].coords())
    search_elapsed = time.perf_counter() - t0
    assert search_elapsed < 60.0

    # negative control: the plain mod-2 lattice of the same code is full of
    # ternary vectors and the search must find them
    control = ternary_sign_search(construction_a(code), code, 4)
    assert len(control) >= 2
    print(
        f"ACCEPTANCE 3: PASS (hypotheses {hyp_elapsed * 1000:.0f} ms, d = 16, "
        f"empty ternary search over 5 seeds in {search_elapsed:.2f} s, "
        f"negative control found {len(control)} vectors)"
    )


def test_acceptance_4_full_enumeration():
    t0 = time.perf_counter()
    rep = verify_cor23(full_enum=True, budget=10**9)
    elapsed = time.perf_counter() - t0
    assert passed(rep)
    if "full_enum_status" in rep["exact_values"]:
        # overflow is reported, never a failure of criterion 3
        print(
            f"ACCEPTANCE 4: PASS (enumeration budget exhausted and reported: "
            f"{rep['exact_values']['full_enum_status']}, {elapsed:.2f} s)"
        )
        return
    enum_claims = [c for c in rep["conclusions"] if c["claim"].startswith("exhaustive")]
    assert len(enum_claims) == 1 and enum_claims[0]["pass"]
    count = rep["exact_values"]["norm_le16_nonzero_count"]
    assert elapsed < 600.0
    print(
        f"ACCEPTANCE 4: PASS (complete enumeration to norm^2 = 16: "
        f"{count} nonzero vectors, none ternary, {elapsed:.2f} s)"
    )


def test_acceptance_5_mod2_lattice_laws():
    rng = random.Random(500)
    checked = 0
    high_distance_cases = 0
    while checked < 20:
        n = rng.randrange(2, 15)
        if checked < 4:
            # low-dimension draws so codes with d >= 5 actually appear
            col = BinaryVector(n, rng.getrandbits(n))
            if col.weight < 5:
                continue
            C = Code(BinaryMatrix.from_columns([col], n))
        else:
            k = rng.randrange(1, 5)
            cols = [BinaryVector(n, rng.getrandbits(n)) for _ in range(k)]
            C = Code(BinaryMatrix.from_columns(cols, n))
            if C.dimension == 0:
                continue
        checked += 1
        d = min_distance(C)
        L = construction_a(C)
        sv = shortest_vectors(L)
        assert sv.lambda1_sq == min(d, 4)
        if d >= 5:
            high_distance_cases += 1
            units = set()
            for i in range(n):
                e = [0] * n
                e[i] = 2
                units.add(tuple(e))
                e[i] = -2
                units.add(tuple(e))
            assert set(sv.vectors) == units
            assert sv.kissing == 2 * n
    assert high_distance_cases >= 2
    print(
        f"ACCEPTANCE 5: PASS (20 codes, lambda1^2 = min(d, 4) in all; "
        f"{high_distance_cases} cases with d >= 5 had exactly the 2n signed "
        f"doubled units)"
    )


def test_acceptance_6_nested_intersection_collapse():
    rep = verify_cstar_collapse(seed=0)
    assert passed(rep)
    assert len(rep["exact_values"]["codes"]) == 20
    print(
        "ACCEPTANCE 6: PASS (20 random codes with n <= 8: nested-intersection "
        "lattice equals the scaled mod-2 lattice, lambda1^2 law holds)"
    )


def test_acceptance_7_set_sum_vs_closure():
    rng = random.Random(700)
    agreements = 0
    lattice_outcomes = {True: 0, False: 0}
    while agreements < 10:
        n = rng.randrange(2, 9)
        k = rng.randrange(1, min(n, 4) + 1)
        cols = [BinaryVector(n, rng.getrandbits(n)) for _ in range(k)]
        C1 = Code(BinaryMatrix.from_columns(cols, n))
        if C1.dimension == 0:
            continue
        basis = C1.basis()
        sub = [b for b in basis if rng.random() < 0.7]
        if not sub:
            sub = [basis[0]]
        C2 = Code(BinaryMatrix.from_columns(sub, n))
        rep = verify_dbar_schur(CodeTower([C1, C2]))
        assert passed(rep)  # the two decisions agree
        agreements += 1
        lattice_outcomes[rep["exact_values"]["is_lattice"]] += 1

    # the bundled non-closed tower, with its explicit witness vector
    T = nonclosed_tower()
    rep = verify_dbar_schur(T)
    assert passed(rep)
    assert rep["exact_values"] == {"schur_closed": False, "is_lattice": False}
    v = (1, 2, 2, 1)
    assert d_bar_span(T).contains(v)
    assert d_bar_member(T, v) is False
    print(
        f"ACCEPTANCE 7: PASS ({agreements} random towers agree "
        f"(lattice: {lattice_outcomes[True]}, not: {lattice_outcomes[False]}); "
        f"bundled tower not a lattice, span vector (1, 2, 2, 1) is outside "
        f"the set sum)"
    )


def test_acceptance_8_embedding_identity():
    rng = random.Random(800)
    for _ in range(10**4):
        n = rng.randrange(1, 17)
        c = BinaryVector(n, rng.getrandbits(n))
        cp = BinaryVector(n, rng.getrandbits(n))
        assert embed_sum_identity_check(c, cp)
    print("ACCEPTANCE 8: PASS (10^4 random pairs satisfy the embedding identity)")


def test_acceptance_9_oracle_equivalence():
    rng = random.Random(900)
    done = 0
    while done < 50:
        n = rng.randrange(1, 7)
        k = rng.randrange(1, 5)
        cols = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
        L = Lattice.from_generators(n, cols)
        if L.rank == 0 or L.rank > 4:
            continue
        done += 1
        basis = reduce_columns([list(c) for c in L.basis])
        r0 = min(sum(e * e for e in c) for c in basis)
        ref = box_vectors(basis, r0)
        lam = min(nrm for nrm, v in ref if nrm > 0)
        rep = shortest_vectors(L)
        assert rep.lambda1_sq == lam
        assert list(rep.vectors) == sorted(v for nrm, v in ref if nrm == lam)
        R = rng.randrange(0, 13)
        assert vectors_up_to(L, R) == [v for _, v in box_vectors(basis, R)]
    print(
        "ACCEPTANCE 9: PASS (50 random lattices: enumeration matches the "
        "coefficient-box brute force exactly)"
    )


def test_acceptance_10_golay_lp_witness():
    outcomes = []
    for p in (1, Fraction(3, 2)):
        rep = golay_lp_check(p)
        assert all(h["pass"] for h in rep["hypotheses"])  # d = 8 and kappa0 = 759
        assert rep["exact_values"]["d"] == 8
        assert rep["exact_values"]["kappa0"] == 759
        assert passed(rep)  # witness found (the bundled expected outcome)
        assert rep["exact_values"]["witness_l1"] == 4
        outcomes.append((p, rep["conclusions"][0]["certificate"]["vector"][:4]))
    print(
        f"ACCEPTANCE 10: PASS (p = 1 and p = 3/2 both certified a member "
        f"witness with l1 norm 4; d = 8, kappa0 = 759 exact)"
    )