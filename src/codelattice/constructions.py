"""Lattices built from binary codes.

The embedding bar, read by ``BinaryVector.coords``, lifts F2 vectors to
{0,1}-vectors in Z^n.  It is not additive: over Z,

    bar(c + c') = bar c + bar c' - 2 * bar(c o c')

with ``o`` the coordinate-wise product.  Every generator made here from
code words is a scaled lift 2^e bar(w) from the one helper ``_lift``; the
unit columns 2^e e_j are written directly by ``_units``.  Everything in
this module is an exact integer-lattice construction on top of those:

* ``construction_a``      -- bar C + 2 Z^n, equivalently {z : z mod 2 in C}
* ``construction_d``      -- scaled generator blocks 2^(a-i) bar K_i of a tower
* ``vladut_special_d``    -- the special shape (2^a bar K_0, 2^(a-1) bar c_1,
                             ..., 2 bar c_(a-1), bar K_a)
* ``simplified_d``        -- span of the embedded minimum-weight codewords
* ``construction_c_star`` -- 2^n Z^n plus nested intersections of scaled
                             Construction-A cosets; collapses to 2^(n-1) L_A
* ``d_bar_member`` / ``d_bar_span`` / ``d_bar_is_lattice`` -- the set sum
  2^a Z^n + 2^(a-1) bar C_1 + ... + bar C_a, which is a lattice iff the
  tower is Schur-closed; membership is decided by digit peeling, the span
  is generated by scaled coordinate products of level basis words, and
  latticehood by counting cosets of 2^a Z^n in the span.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import reduce
from itertools import combinations
from math import prod

from .errors import (
    LengthMismatch,
    NotFullRank,
    QuotientTooLarge,
    RankTooLarge,
    ShapeMismatch,
    TowerViolation,
    WeightViolation,
)
from .gf2core import (
    SWEEP_RANK_CAP,
    BinaryMatrix,
    BinaryVector,
    Code,
    CodeTower,
    min_distance,
    min_weight_codewords,
    rank,
    schur_product,
)
from .zlattice import IntVec, Lattice, scale

__all__ = [
    "embed_sum_identity_check",
    "mod2_reduction",
    "construction_a",
    "construction_a_member",
    "construction_d",
    "vladut_special_d",
    "simplified_d",
    "construction_c_star",
    "c_star_definitional",
    "d_bar_member",
    "d_bar_span",
    "d_bar_is_lattice",
    "DBAR_DESCENT_CAP",
]

# Most prefix tests the witness descent of a non-lattice set sum may run
DBAR_DESCENT_CAP = 1 << 20

C_STAR_AMBIENT_CAP = 32
C_STAR_CROSSCHECK_CAP = 8


def embed_sum_identity_check(c: BinaryVector, cp: BinaryVector) -> bool:
    """Evaluate bar(c+c') = bar c + bar c' - 2 bar(c o c') over Z exactly."""
    if c.n != cp.n:
        raise LengthMismatch(f"{c.n} != {cp.n}")
    lhs = (c + cp).coords()
    e1, e2, e3 = c.coords(), cp.coords(), schur_product(c, cp).coords()
    rhs = tuple(e1[t] + e2[t] - 2 * e3[t] for t in range(c.n))
    return lhs == rhs


def mod2_reduction(v: Sequence[int]) -> BinaryVector:
    """Entry-wise reduction of an integer vector to F2."""
    return BinaryVector.from_coords([e & 1 for e in v])


def _lift(factor: int, words: Iterable[BinaryVector]) -> list[IntVec]:
    """factor * bar(w) for each word w: the one lift of code words to Z^n.

    With factor 1 the lift is ``coords()`` itself, with no product per entry.
    """
    if factor == 1:
        return [w.coords() for w in words]
    return [tuple([factor * e for e in w.coords()]) for w in words]


def _units(q: int, n: int, rows: Iterable[int]) -> list[IntVec]:
    """q * e_r in Z^n for each row r, written directly rather than lifted."""
    col = [0] * n
    out = []
    for r in rows:
        col[r] = q
        out.append(tuple(col))
        col[r] = 0
    return out


def construction_a(C: Code) -> Lattice:
    """bar C + 2 Z^n, with its canonical HNF basis written down, not computed.

    Column r is the lifted reduced basis word whose leading row is r, and
    2 e_r where no word leads.  That basis is lower triangular with pivots
    1 or 2 at rows 0 .. n-1 and determinant 2^(n-k), and it generates bar C
    + 2 Z^n (each 2 e_r with r a leading row is 2 w minus the other 2 e_t).
    It is already canonical: an earlier column holds 0 or 1 in a 2 e_r
    pivot row, and 0 in a word's, since reduced words vanish on each
    other's leading rows.

    Membership law (cross-checked by tests): v is a member iff its mod-2
    reduction is a codeword.
    """
    n = C.n
    words = C.basis()
    lead = [n - w.bits.bit_length() for w in words]
    free = sorted(set(range(n)).difference(lead))
    columns = dict(zip(lead, _lift(1, words)))
    columns.update(zip(free, _units(2, n, free)))
    return Lattice(n, tuple(columns[r] for r in range(n)), tuple(range(n)))


def construction_a_member(C: Code, v: Sequence[int]) -> bool:
    """The mod-2 membership law for Construction A."""
    if len(v) != C.n:
        raise LengthMismatch(f"{len(v)} != {C.n}")
    return C.contains(mod2_reduction(v))


def _stack(n: int, blocks: Sequence[BinaryMatrix]) -> BinaryMatrix:
    """The blocks side by side."""
    return BinaryMatrix(n, [col for M in blocks for col in M.cols])


def construction_d(blocks: Sequence[BinaryMatrix], strict: bool = True) -> Lattice:
    """Lattice generated by the scaled embedded blocks 2^(a-i) bar K_i.

    ``blocks`` are K_0 .. K_a, all with n rows; level C_i is the span of
    K_i .. K_a.  Strict mode validates the tower: the concatenated blocks
    must be a basis of F2^n (so every suffix block stack has independent
    columns), no level C_i may be zero, and d(C_i) >= 4^i for i >= 1.
    Non-strict only checks shapes, which the special instances below need
    (they may violate the distance bounds).
    """
    if len(blocks) < 2:
        raise ShapeMismatch("need at least K_0 and K_1")
    n, a = blocks[0].n, len(blocks) - 1
    if any(M.n != n for M in blocks):
        raise ShapeMismatch("generator blocks have different row counts")
    if strict:
        supplied = sum(M.k for M in blocks)
        if supplied != n:
            raise TowerViolation(f"blocks supply {supplied} columns for ambient dimension {n}")
        if rank(_stack(n, blocks)) != n:
            raise TowerViolation("concatenated blocks do not span F2^n")
        for i in range(1, a + 1):
            Ci = Code(_stack(n, blocks[i:]))
            if Ci.dimension == 0:
                raise TowerViolation(f"level {i} is the zero code")
            if min_distance(Ci) < 4**i:
                raise TowerViolation(f"d(C_{i}) < 4^{i}")
    gens = [g for i, M in enumerate(blocks) for g in _lift(2 ** (a - i), M.columns())]
    return Lattice.from_generators(n, gens)


def vladut_special_d(K0: BinaryMatrix, c_list: Sequence[BinaryVector], Ka: BinaryMatrix) -> Lattice:
    """L(2^a bar K_0, 2^(a-1) bar c_1, ..., 2 bar c_(a-1), bar K_a), a = len(c_list) + 1.

    Validates Hamming weight ||c_i|| = 4^i and that the concatenation
    (K_0 | c_1 | ... | c_(a-1) | K_a) is square and invertible over F2.
    """
    n = K0.n
    if Ka.n != n or any(c.n != n for c in c_list):
        raise ShapeMismatch("blocks have different block lengths")
    for i, c in enumerate(c_list, start=1):
        if c.weight != 4**i:
            raise WeightViolation(f"||c_{i}|| = {c.weight}, need 4^{i} = {4 ** i}")
    total = K0.k + len(c_list) + Ka.k
    if total != n:
        raise NotFullRank(f"{total} columns for ambient dimension {n}")
    blocks = (K0, *[BinaryMatrix(n, (c.bits,)) for c in c_list], Ka)
    if rank(_stack(n, blocks)) != n:
        raise NotFullRank("(K_0 | c_1 | ... | K_a) is singular over F2")
    return construction_d(blocks, strict=False)


def simplified_d(C: Code) -> Lattice:
    """Lattice generated by the embedded minimum-weight codewords bar S_C."""
    return Lattice.from_generators(C.n, _lift(1, min_weight_codewords(C)))


def _l_a_scaled_by(C: Code, e: int) -> Lattice:
    """2^e * L_A(C) from 2^(e+1) e_j, then the scaled codeword embeddings."""
    f = 2**e
    gens = _units(2 * f, C.n, range(C.n))
    gens += _lift(f, [c for c in C.codewords() if not c.is_zero()])
    return Lattice.from_generators(C.n, gens)


def c_star_definitional(C: Code) -> Lattice:
    """The intersection form evaluated symbolically (small n only).

    Term i of the definition is the coset union 2^(n-i) bar C + 2^(n-i+1) Z^n,
    which as a set equals the scaled Construction-A lattice 2^(n-i) L_A(C).
    The terms are therefore nested, so the n-fold intersection collapses to
    the first term; the nesting is verified here by explicit membership of
    every basis vector, not assumed; term 1 already holds the 2^n Z^n summand.
    """
    n = C.n
    if not 0 < n <= C_STAR_CROSSCHECK_CAP:
        raise ValueError(f"definitional route takes 1 <= n <= {C_STAR_CROSSCHECK_CAP}, got {n}")
    terms = [_l_a_scaled_by(C, n - i) for i in range(1, n + 1)]
    for inner, outer in zip(terms, terms[1:]):
        if not all(outer.contains(col) for col in inner.basis):
            raise ArithmeticError("term nesting violated (bug)")
    return terms[0]


def construction_c_star(C: Code) -> Lattice:
    """2^(n-1) * L_A(C), with the definitional route cross-checked for small n."""
    n = C.n
    if not 0 < n <= C_STAR_AMBIENT_CAP:
        raise ValueError(f"C* takes ambient dimension 1 <= n <= {C_STAR_AMBIENT_CAP}, got {n}")
    collapsed = scale(construction_a(C), 2 ** (n - 1))
    if n <= C_STAR_CROSSCHECK_CAP and c_star_definitional(C) != collapsed:
        raise ArithmeticError("intersection form disagrees with collapse (bug)")
    return collapsed


# ---------------------------------------------------------------------------
# the code formula (set sum), which need not be a lattice
# ---------------------------------------------------------------------------

def d_bar_member(T: CodeTower, v: Sequence[int]):
    """Digit-peeling membership in 2^a Z^n + sum_i 2^(a-i) bar C_i.

    Each level's residue mod 2 is forced, so the greedy decomposition is
    the only candidate: c_a must equal v mod 2 and must lie in C_a, then
    recurse on (v - bar c_a) / 2 against C_(a-1), and so on.  Returns the
    decomposition ``(c_a, ..., c_1, tail)`` with tail in Z^n, or False.
    """
    n = T.n
    if len(v) != n:
        raise LengthMismatch(f"{len(v)} != {n}")
    cur = [int(e) for e in v]
    peeled: list[BinaryVector] = []
    for idx in range(T.a - 1, -1, -1):  # levels C_a down to C_1
        c = mod2_reduction(cur)
        if not T.levels[idx].contains(c):
            return False
        cur = [e >> 1 for e in cur]  # (e - (e mod 2)) / 2, negative e included
        peeled.append(c)
    return tuple(peeled) + (tuple(cur),)


def d_bar_span(T: CodeTower) -> Lattice:
    """The lattice generated by the set sum (its Z-span L').

    The embedding is not additive, but for bits it expands by inclusion and
    exclusion: bar(x_1 + ... + x_r) = sum over nonempty U of
    (-2)^(|U|-1) bar(prod_U x_u), with products taken coordinate-wise.
    This change of generators is triangular with +-1 on the diagonal, so
    the embedded codewords of C_i span the same lattice as the monomials
    2^(|S|-1) bar(prod_S b_s), S a nonempty subset of a basis of C_i.
    Scaled by 2^(a-i), a product of more than i basis words lies in
    2^a Z^n, so only subsets with |S| <= i are kept: sum_(r<=i) C(k_i, r)
    generators per level instead of 2^(k_i) codewords.
    """
    n, a = T.n, T.a
    gens = _units(2**a, n, range(n))
    for i, level in enumerate(T.levels, start=1):
        # sum_(r<=i) C(k, r) < 2^k, so the sweep cap still bounds the generators
        if level.dimension > SWEEP_RANK_CAP:
            raise RankTooLarge(f"rank {level.dimension} > sweep cap {SWEEP_RANK_CAP}")
        basis = level.basis()
        for size in range(1, i + 1):
            products = (reduce(schur_product, S) for S in combinations(basis, size))
            gens += _lift(2 ** (a - i + size - 1), [p for p in products if not p.is_zero()])
    return Lattice.from_generators(n, gens)


def d_bar_is_lattice(T: CodeTower):
    """Decide whether the set sum equals its own Z-span.

    Digit peeling (``d_bar_member``) is unique, and membership is invariant
    under 2^a Z^n shifts, so the set sum meets exactly 2^(sum_i dim C_i)
    cosets of 2^a Z^n, all inside the span L'.  It is a lattice iff L' has
    no other coset, that is iff |L' / 2^a Z^n| = prod_j 2^a / pivot_j equals
    that count, whatever the quotient's size.  Only when the counts differ
    is the witness searched for: the first coset in the order of the HNF
    digit expansion that the set misses (see ``_first_missing_coset``).
    That descent raises QuotientTooLarge when it would run more than
    ``DBAR_DESCENT_CAP`` prefix tests.  Returns ``(True, None)`` or
    ``(False, witness)`` with a span vector outside the set.
    """
    return _d_bar_verdict(T, d_bar_span(T))


def _d_bar_verdict(T: CodeTower, L: Lattice):
    """``d_bar_is_lattice(T)`` given the span ``L = d_bar_span(T)``."""
    n, a = T.n, T.a
    mod = 2**a
    radii = []
    for j in range(n):
        p = L.basis[j][j]
        if mod % p:
            raise ArithmeticError("pivot does not divide 2^a (bug)")
        radii.append(mod // p)
    if prod(radii) == 1 << sum(level.dimension for level in T.levels):
        return True, None
    return False, _first_missing_coset(T, L, radii)


def _first_missing_coset(T: CodeTower, L: Lattice, radii: list[int]):
    """First coset of L' / 2^a Z^n outside the set sum in the order of the
    HNF digit expansion (digit 0 slowest), found by descending the digits.

    The digits up to t fix coordinates 0..t of the representative mod 2^a
    and leave prod_(j>t) radii[j] cosets below.  The set sum's members are
    the vectors whose bit plane b lies in C_(a-b), so it meets
    prod_b #{words of C_(a-b) that start with plane b's prefix} of them:
    none if some prefix starts no word, else 2^(number of reduced basis
    words of all levels that vanish on 0..t).  A subtree misses a coset iff
    that count falls short.  Taking the first digit whose subtree misses
    one, coordinate by coordinate, reaches the first missing coset of the
    digit order without visiting the cosets before it, after at most
    a * sum(radii) prefix tests.  The tests are counted as they run, and
    the one that would pass ``DBAR_DESCENT_CAP`` raises QuotientTooLarge
    instead.
    """
    n, a = T.n, T.a
    mod = 2**a
    firsts = [v.support()[0] for level in T.levels for v in level.basis()]
    below = sum(r.bit_length() - 1 for r in radii)
    rep = [0] * n
    planes = [0] * a  # bit b of rep[0..t-1] mod 2^a, coordinate s at bit n-1-s
    tests = 0

    def full(t: int, e: int) -> bool:
        """Whether every plane's prefix, with digit e at coordinate t, starts
        a word of its level; each test counts against the cap."""
        nonlocal tests
        for b in range(a):
            tests += 1
            if tests > DBAR_DESCENT_CAP:
                raise QuotientTooLarge(
                    f"witness descent exceeds cap of {DBAR_DESCENT_CAP} prefix tests"
                )
            if not T.levels[a - 1 - b].has_prefix(
                BinaryVector(n, planes[b] | ((e >> b) & 1) << (n - 1 - t)), t + 1
            ):
                return False
        return True

    for t in range(n):
        below -= radii[t].bit_length() - 1  # log2 of the cosets under coordinate t
        short = sum(f > t for f in firsts) < below
        col = L.basis[t]
        for x in range(radii[t] - 1):  # the last digit left needs no test
            if short or not full(t, (rep[t] + x * col[t]) % mod):
                break
        else:
            x = radii[t] - 1
        for s in range(t, n):
            rep[s] += x * col[s]
        e = rep[t] % mod
        for b in range(a):
            planes[b] |= ((e >> b) & 1) << (n - 1 - t)
    witness = tuple(e % mod for e in rep)
    if d_bar_member(T, witness) is not False:
        raise ArithmeticError("descent ended on a coset inside the set sum (bug)")
    return witness
