"""Exact GF(2) and integer references that share no code with ``codelattice``.

A vector over GF(2) of length n is a Python int whose most significant bit
(bit n - 1) is coordinate 0.  Everything here is plain integer arithmetic:
echelon forms keyed by leading bit, a Gray-code weight sweep, Reed-Muller
generators, and the two membership tests of the d-bar decision.
"""

from __future__ import annotations


def coords(n: int, v: int) -> list[int]:
    return [(v >> (n - 1 - i)) & 1 for i in range(n)]


def from_coords(entries) -> int:
    v = 0
    for e in entries:
        v = (v << 1) | (e & 1)
    return v


def echelon(vectors) -> dict[int, int]:
    """Pivot map (leading bit -> vector) of the span of ``vectors``."""
    piv: dict[int, int] = {}
    for v in vectors:
        v = reduce(v, piv)
        if v:
            piv[v.bit_length() - 1] = v
    return piv


def reduce(v: int, piv: dict[int, int]) -> int:
    while v:
        p = piv.get(v.bit_length() - 1)
        if p is None:
            return v
        v ^= p
    return 0


def in_span(v: int, piv: dict[int, int]) -> bool:
    return reduce(v, piv) == 0


def reduced_basis(vectors) -> list[int]:
    """Reduced echelon basis: each pivot bit is set in exactly one vector."""
    piv = echelon(vectors)
    for h in sorted(piv):
        for g in piv:
            if g != h and (piv[g] >> h) & 1:
                piv[g] ^= piv[h]
    return [piv[h] for h in sorted(piv, reverse=True)]


def weight_distribution(n: int, basis: list[int]) -> list[int]:
    """A_w for w = 0..n over the span of an independent ``basis`` (Gray sweep)."""
    counts = [0] * (n + 1)
    counts[0] = 1
    word = 0
    for i in range(1, 1 << len(basis)):
        word ^= basis[(i & -i).bit_length() - 1]
        counts[word.bit_count()] += 1
    return counts


def min_weight_profile(n: int, basis: list[int]) -> tuple[int, int]:
    """(d, number of words of weight d) of a nonzero code."""
    counts = weight_distribution(n, basis)
    d = next(w for w in range(1, n + 1) if counts[w])
    return d, counts[d]


def construction_a_basis(n: int, basis: list[int]) -> list[list[int]]:
    """Integer basis of bar C + 2Z^n from a reduced echelon basis of C.

    The lifts of the reduced basis words plus 2 e_i for every coordinate
    that is no pivot form a basis of determinant 2^(n - k).
    """
    pivots = {n - 1 - (b.bit_length() - 1) for b in basis}
    cols = [coords(n, b) for b in basis]
    for i in range(n):
        if i not in pivots:
            cols.append([2 if t == i else 0 for t in range(n)])
    return cols


def construction_a_kissing(n: int, counts: list[int]) -> tuple[int, int]:
    """(lambda_1^2, kissing number) of bar C + 2Z^n from the weight counts.

    The shortest vectors are the sign patterns on minimum-weight words
    (2^d A_d of them) when d < 4, the vectors +-2 e_i (2n) when d > 4, and
    both kinds when d = 4.
    """
    d = next(w for w in range(1, n + 1) if counts[w])
    if d < 4:
        return d, (1 << d) * counts[d]
    if d == 4:
        return 4, 2 * n + 16 * counts[4]
    return 4, 2 * n


def reed_muller(r: int, m: int, perm: list[int], lowest: int = 0) -> list[int]:
    """Monomials of degree lowest..r on F2^m: generators of RM(r, m) when lowest = 0.

    Point p of F2^m sits at coordinate perm[p].
    """
    n = 1 << m
    gens = []
    for mask in range(1 << m):
        if not lowest <= mask.bit_count() <= r:
            continue
        v = 0
        for p in range(n):
            if p & mask == mask:
                v |= 1 << (n - 1 - perm[p])
        gens.append(v)
    return gens


def even_on_flat(m: int, perm: list[int]) -> list[int]:
    """Generators of the [2^m, 2^m - 1] code of words meeting the 2-flat
    {x_1 = x_2 = 1} of F2^m in an even number of points."""
    n = 1 << m
    flat = [perm[p] for p in range(n) if p & 3 == 3]
    gens = [1 << (n - 1 - i) for i in range(n) if i not in flat]
    gens += [(1 << (n - 1 - flat[0])) | (1 << (n - 1 - f)) for f in flat[1:]]
    return gens


def schur_closed(inner: list[int], outer: list[int]) -> bool:
    """Whether every product of two ``inner`` generators lies in span(outer)."""
    piv = echelon(outer)
    return all(in_span(a & b, piv) for a in inner for b in inner)


def dbar_member(n: int, levels: list[list[int]], v: list[int]) -> bool:
    """v in 2^a Z^n + 2^(a-1) bar C_1 + ... + bar C_a (levels = C_1 .. C_a).

    Each level's word is forced to be the current residue mod 2.
    """
    cur = list(v)
    for gens in reversed(levels):
        c = from_coords(x & 1 for x in cur)
        if not in_span(c, echelon(gens)):
            return False
        cur = [(x - (x & 1)) // 2 for x in cur]
    return True


def dbar_span_member(n: int, levels: list[list[int]], v: list[int]) -> bool:
    """v in the Z-span of 4Z^n + 2 bar C_1 + bar C_2 (two-level towers).

    Modulo 4 the span of bar C_2 is generated by the lifts of a basis b_i
    and by 2 bar(b_i o b_j), because XOR = sum - 2 (pairwise products) mod 4.
    So v is a member iff v mod 2 = sum x_i b_i lies in C_2 and
    (v - sum x_i bar b_i) / 2 reduces mod 2 into C_1 + span(b_i o b_j).
    """
    if len(levels) != 2:
        raise ValueError("span membership is implemented for two-level towers")
    c1, c2 = levels
    basis = reduced_basis(c2)
    low = from_coords(x & 1 for x in v)
    piv = {b.bit_length() - 1: b for b in basis}
    if reduce(low, piv):
        return False
    s = [0] * n
    for b in basis:
        if (low >> (b.bit_length() - 1)) & 1:
            for t, e in enumerate(coords(n, b)):
                s[t] += e
    half = from_coords(((x - y) // 2) & 1 for x, y in zip(v, s))
    extra = [a & b for i, a in enumerate(basis) for b in basis[i + 1 :]]
    return in_span(half, echelon(list(c1) + extra))


def lattice_det_from_hnf(columns: list[list[int]]) -> int:
    """Determinant of a full-rank column HNF: the product of its pivots."""
    det = 1
    for col in columns:
        det *= next(e for e in col if e)
    return det
