"""Exact linear algebra over GF(2): vectors, generator matrices, codes, towers.

Bit convention: a length-n vector is backed by a single Python integer whose
most significant bit is coordinate 0.  With that layout, comparing backing
integers compares coordinate tuples lexicographically, so sorting vectors
needs no conversion.

Every elimination keeps one dense pivot table: entry h holds the row whose
leading bit is h, or 0 (see :func:`_echelon`).  Codes are column-generated:
``Code(G)`` is the F2-span of the columns of G, held as its reduced pivot
table, and its dimension is the F2-rank of G.  Distance, minimum-weight
words and kissing number each run one search per call, with nothing cached
(see :meth:`Code._min_weight_bits`).  A code of rank k > 16 first tries
Brouwer-Zimmermann on two information sets: it weighs the messages of
weight w = 1, 2, ... in two systematic bases, disjoint as far as the code
allows, one bit-sliced pass per basis and weight, and stops once every
unweighed word is provably heavier than the least weight found.  It hands
over to the sweep when the layers it would still need cost more than the
sweep.  The sweep is the
general path: it weighs all 2^k codewords bit-sliced, up to 2^16 of them
per big-integer pass, and each chunk adds only the coordinates where it
differs from the nearer of two anchor chunks, keeping the count of those
flips in an integer constant beside its weight planes.  The ternary sign
search reads no minimum-weight words: :meth:`Code.light_words` lists its
light words from a sweep of its own, and when the search radius
passes the support cap, :meth:`Code.least_weight_above` runs one more.
Every search is hard-capped at rank 28 and refuses larger inputs with
:class:`RankTooLarge`.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from math import comb

from .errors import LengthMismatch, NotATower, RankTooLarge, ShapeMismatch, ZeroCode

__all__ = [
    "BinaryVector",
    "BinaryMatrix",
    "Code",
    "CodeTower",
    "rank",
    "kernel_basis",
    "solve",
    "min_distance",
    "min_weight_codewords",
    "code_kissing_number",
    "schur_product",
    "is_subcode",
    "is_schur_closed_tower",
    "complete_to_full_rank",
    "SWEEP_RANK_CAP",
]

SWEEP_RANK_CAP = 28
# The bit-sliced sweep weighs 2^c codewords per pass, c <= 16, with its n
# coordinate ints of 2^c bits held together: n * 2^c <= 2^24 bits (2 MB).
# Codes of rank <= 16 go straight to it, without trying Brouwer-Zimmermann
_CHUNK_RANK = 16
_CHUNK_BITS = 1 << 24
# Brouwer-Zimmermann hands a code over to the sweep when the layers it still
# needs would cost more than 2^k sweep words.  A layer costs about this many
# sweep words per message and basis: 1.5-6 were measured on layers of 6k-40k
# messages at n = 48-96 and k = 17-22, where the sweep weighs a word in
# 0.6-3 ns (Python 3.11 on a 2-CPU Xeon)
_LAYER_COST = 4
_DIGITS = bytes.maketrans(b"01", b"\0\1")  # digit characters to bit values
_PACK = b"01" + b"x" * 254  # bit values to digit characters, other bytes to "x"


class BinaryVector:
    """Immutable vector over F2.

    Coordinate i lives at bit position (n - 1 - i) of ``bits``.  Unlike the
    named-tuple value types it is a sequence of its coordinates, so it keeps
    its own slots: a tuple base would change ``iter``, ``in`` and ``bytes()``.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int) -> None:
        if n < 0:
            raise ValueError("negative length")
        if bits >> n:
            raise ValueError("bits out of range for length")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("BinaryVector is immutable")

    @classmethod
    def from_coords(cls, coords: Sequence[int]) -> "BinaryVector":
        # the one pack of 0/1 integers into the bit layout, the inverse of coords():
        # other bytes become an "x" that int() refuses; bytes(3) is three zero bytes
        if isinstance(coords, int):
            raise TypeError("coordinates must be a sequence, not an int")
        try:
            raw = bytes(coords)
            bits = int(raw.translate(_PACK) or b"0", 2)
        except ValueError:
            raise ValueError("coordinates must be 0 or 1") from None
        return cls(len(raw), bits)

    @classmethod
    def from_support(cls, n: int, support: Iterable[int]) -> "BinaryVector":
        bits = 0
        for i in support:
            if not 0 <= i < n:
                raise ValueError("support index out of range")
            bits |= 1 << (n - 1 - i)
        return cls(n, bits)

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.coords()) if e)

    def coords(self) -> tuple[int, ...]:
        # the one read of the bit layout as integers: the digits of bits under
        # a leading 1, which keeps leading zeros (and n = 0), then dropped
        return tuple(bin(self.bits | 1 << self.n)[3:].encode().translate(_DIGITS))

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> (self.n - 1 - i)) & 1

    def __len__(self) -> int:
        return self.n

    def __add__(self, other: "BinaryVector") -> "BinaryVector":
        if self.n != other.n:
            raise LengthMismatch(f"{self.n} != {other.n}")
        return BinaryVector(self.n, self.bits ^ other.bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryVector)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __lt__(self, other: "BinaryVector") -> bool:
        if self.n != other.n:
            raise LengthMismatch(f"{self.n} != {other.n}")
        return self.bits < other.bits

    def __repr__(self) -> str:
        return f"BinaryVector('{''.join(map(str, self.coords()))}')"


def schur_product(x: BinaryVector, y: BinaryVector) -> BinaryVector:
    """Coordinate-wise product x o y (AND of the bit strings)."""
    if x.n != y.n:
        raise LengthMismatch(f"{x.n} != {y.n}")
    return BinaryVector(x.n, x.bits & y.bits)


def _same_type_eq(self, other) -> bool:
    """Tuple equality that also asks for the type: a ``Code`` and a
    ``BinaryMatrix`` both hold an int and a tuple of ints."""
    return isinstance(other, type(self)) and tuple.__eq__(self, other)


class BinaryMatrix(namedtuple("BinaryMatrix", "n cols")):
    """Matrix over F2 stored column-wise; n rows, k columns.

    Each column uses the BinaryVector bit layout (row 0 at the MSB).
    """

    __slots__ = ()
    # object.__ne__ negates __eq__, where a tuple's would still call the
    # pair equal; defining __eq__ drops the inherited __hash__
    __eq__, __ne__, __hash__ = _same_type_eq, object.__ne__, tuple.__hash__

    def __new__(cls, n: int, cols: Sequence[int]):
        if n < 0:
            raise ValueError("negative row count")
        cols = tuple(cols)  # once, so a one-shot iterator is checked and kept alike
        for c in cols:
            if c >> n:
                raise ValueError("column out of range for row count")
        return super().__new__(cls, n, cols)

    @property
    def k(self) -> int:
        return len(self.cols)

    @classmethod
    def from_columns(cls, columns: Sequence[BinaryVector], n: int | None = None) -> "BinaryMatrix":
        if not columns:
            if n is None:
                raise ValueError("empty matrix needs an explicit row count")
            return cls(n, ())
        m = columns[0].n
        if n is not None and n != m:
            raise ShapeMismatch(f"declared {n} rows, columns have {m}")
        for c in columns:
            if c.n != m:
                raise ShapeMismatch("ragged columns")
        return cls(m, tuple(c.bits for c in columns))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BinaryMatrix":
        k = len(rows[0]) if rows else 0
        if any(len(row) != k for row in rows):
            raise ShapeMismatch("ragged rows")
        return cls(len(rows), [BinaryVector.from_coords(col).bits for col in zip(*rows)])

    @classmethod
    def identity(cls, n: int) -> "BinaryMatrix":
        return cls(n, tuple(1 << (n - 1 - i) for i in range(n)))

    def column(self, j: int) -> BinaryVector:
        return BinaryVector(self.n, self.cols[j])

    def columns(self) -> list[BinaryVector]:
        return [BinaryVector(self.n, c) for c in self.cols]

    def to_rows(self) -> list[list[int]]:
        """The rows as 0/1 lists: the columns' coords(), transposed."""
        if not self.k:
            return [[] for _ in range(self.n)]
        return [list(row) for row in zip(*(c.coords() for c in self.columns()))]

    def mul(self, x: BinaryVector) -> BinaryVector:
        """Matrix-vector product M x over F2 (x has one entry per column)."""
        if x.n != self.k:
            raise ShapeMismatch(f"vector length {x.n} != column count {self.k}")
        acc = 0
        for c, e in zip(self.cols, x.coords()):
            if e:
                acc ^= c
        return BinaryVector(self.n, acc)

    def hstack(self, other: "BinaryMatrix") -> "BinaryMatrix":
        if self.n != other.n:
            raise ShapeMismatch(f"{self.n} != {other.n} rows")
        return BinaryMatrix(self.n, self.cols + other.cols)

    def replicate_rows(self, m: int) -> "BinaryMatrix":
        """Repeat each row m times in consecutive positions (Kronecker with 1_m)."""
        if m < 1:
            raise ValueError("replication factor must be >= 1")
        return BinaryMatrix.from_rows([row for row in self.to_rows() for _ in range(m)])


def _reduce(bits: int, pivots: Sequence[int]) -> int:
    """Reduce an integer bitset against a pivot table (see :func:`_echelon`)."""
    while bits:
        p = pivots[bits.bit_length() - 1]
        if not p:
            return bits
        bits ^= p
    return 0


def _echelon(vecs: Iterable[int], width: int) -> list[int]:
    """Pivot table of the span of ``vecs``, each below 2^width.

    Entry h holds the row whose leading bit is h, or 0 when no row leads
    there, so the table has ``width`` entries and width - rank zeros.
    """
    pivots = [0] * width
    for v in vecs:
        r = _reduce(v, pivots)
        if r:
            pivots[r.bit_length() - 1] = r
    return pivots


def _reduced_echelon(vecs: Iterable[int], width: int) -> tuple[int, ...]:
    """The pivot table of :func:`_echelon`, reduced: the span's canonical form.

    Each pivot bit occurs in exactly one row, so the table is a span
    invariant: two generating sets of vectors below 2^width span the same
    subspace iff their reduced tables are equal.  The rows are reduced in
    place from the lowest leading bit up: a row only carries leading bits
    below its own, and XORs in just the reduced rows whose leading bit it
    carries, one per set bit of ``row & leads`` (a reduced row changes no
    other row's leading bit, so their order does not matter).
    """
    rows = _echelon(vecs, width)
    leads = 0
    for h, v in enumerate(rows):
        if v:
            hits = v & leads
            while hits:
                g = hits.bit_length() - 1
                v ^= rows[g]
                hits ^= 1 << g
            rows[h] = v
            leads |= 1 << h
    return tuple(rows)


def rank(M: BinaryMatrix) -> int:
    """F2-rank of the matrix."""
    return M.n - _echelon(M.cols, M.n).count(0)


def kernel_basis(M: BinaryMatrix) -> list[BinaryVector]:
    """Basis of {x in F2^k : Mx = 0}, canonicalized.

    The basis is in reduced echelon form (each vector has a 1 at its own
    free column and 0 at every other free column) and sorted in ascending
    lexicographic order.  Empty list iff M has full column rank.
    """
    k = M.k
    # reduced echelon rows of M; bit h is column k-1-h, free unless a row leads there
    rows = _reduced_echelon((BinaryVector.from_coords(row).bits for row in M.to_rows()), k)
    basis = []
    for f in range(k):
        if rows[f]:
            continue
        bits = 1 << f
        for h, r in enumerate(rows):
            if (r >> f) & 1:
                bits |= 1 << h
        basis.append(BinaryVector(k, bits))
    basis.sort(key=lambda v: v.bits)
    return basis


def solve(M: BinaryMatrix, y: BinaryVector) -> BinaryVector | None:
    """Some x with Mx = y over F2, or None when y is not in the column span.

    Each column is tagged with its own unit vector below it, c << k | e_j,
    so eliminating the tagged columns records which columns sum to each
    pivot; reducing y << k then leaves M x + y above bit k and x below.
    """
    if y.n != M.n:
        raise ShapeMismatch(f"vector length {y.n} != row count {M.n}")
    k = M.k
    pivots = _echelon((c << k | 1 << (k - 1 - j) for j, c in enumerate(M.cols)), M.n + k)
    r = _reduce(y.bits << k, pivots)
    if r >> k:
        return None
    return BinaryVector(k, r)


def complete_to_full_rank(M: BinaryMatrix, seed: int = 0) -> BinaryMatrix:
    """Standard basis columns K0 such that (K0 | M) has full rank n.

    Greedy over e_0, e_1, ... in natural order for seed 0; any other seed
    shuffles the candidate order deterministically.  Returns only the added
    columns (n - rank(M) of them), in the order they were picked.
    """
    n = M.n
    pivots = _echelon(M.cols, n)
    order = list(range(n))
    if seed != 0:
        random.Random(seed).shuffle(order)
    added = []
    for i in order:
        e = 1 << (n - 1 - i)
        r = _reduce(e, pivots)
        if r:
            pivots[r.bit_length() - 1] = r
            added.append(e)
    return BinaryMatrix(n, added)


def _chunk_width(n: int, k: int) -> int:
    """Widest chunk, at least 1, with c <= min(k, 16) and n * 2^c <= 2^24 bits."""
    c = min(k, _CHUNK_RANK)
    while c > 1 and n << c > _CHUNK_BITS:
        c -= 1
    return c


def _compress(pending: list[list[int]], ints: Iterable[int], at: int, width: int) -> list[int]:
    """The LSB-first weight planes, mod 2^width, of a start weight plus 2^at times the 0/1 ints.

    pending[b] lists the at most two ints of weight 2^b that make up the
    start weight, and is consumed; it holds a list, maybe empty, for every
    b < at.  An int that meets two others at its weight goes through a
    full adder, written inline: their sum stays at 2^b, and their carry
    moves on to 2^(b+1), or is dropped past 2^(width-1).  At the end one
    ripple pass adds each weight's ints and the carry from below.  A full
    adder costs five big-int operations and retires one int, however far a
    ripple-carry add would have carried, and only O(width) ints are held
    beside ``ints``.  Returns ``width`` planes, one per weight.
    """
    for x in ints:
        b = at
        while b < width:
            if b == len(pending):
                pending.append([x])
                break
            pend = pending[b]
            if len(pend) < 2:
                pend.append(x)
                break
            y, z = pend
            s = x ^ y
            pending[b] = [s ^ z]
            x = x & y | s & z
            if not x:
                break
            b += 1
    planes = []
    carry = 0
    for b in range(width):
        pend = pending[b] if b < len(pending) else ()
        if not carry:
            if len(pend) == 2:
                y, z = pend
                carry, x = y & z, y ^ z
            else:
                x = pend[0] if pend else 0
        elif len(pend) == 2:
            y, z = pend
            s = y ^ z
            carry, x = y & z | s & carry, s ^ carry
        elif pend:
            y = pend[0]
            carry, x = y & carry, y ^ carry
        else:
            carry, x = 0, carry
        planes.append(x)
    return planes


def _patterns(c: int) -> list[int]:
    """The patterns M_j, j < c, of 2^c bits each: bit i of M_j is bit j of i.

    M_(c-1) is the top half of the 2^c bits, and M_(j-1) = M_j ^ (M_j >> 2^(j-1)),
    as adding 2^(j-1) to i flips bit j of i just when bit j - 1 is set.
    """
    pattern = []
    if c:
        h = 1 << (c - 1)
        m = ((1 << h) - 1) << h
        pattern.append(m)
        while h > 1:
            h >>= 1
            m ^= m >> h
            pattern.append(m)
    return pattern[::-1]


def _chunks(n: int, basis: Sequence[int], c: int) -> Iterator[tuple[int, int, list[int], int]]:
    """Weigh the span of ``basis`` in 2^(k-c) chunks of 2^c words, c <= k.

    With low = basis[:c] and high = basis[c:], chunk g holds the words
    offset ^ (sum of low[j] over the bits j of i), for i < 2^c, where
    offset runs over the span of high in Gray order from 0.  Each chunk
    yields ``(offset, const, planes, full)``: the weight of word i is
    const + sum_b (bit i of planes[b]) << b, and full = 2^(2^c) - 1.  The
    constant may be negative.

    Coordinate t of word i, over all i, is one 2^c-bit int: x_t, the XOR
    of the patterns M_j (see :func:`_patterns`) of the low words that set
    t, or x_t ^ full when the offset sets t.  A coordinate no high word
    sets is never complemented, so those are summed once into the base
    planes; one no low word sets adds the constant bit of the offset.  Only
    the rest, V, vary: n - k of them at most for a reduced echelon basis.
    Two anchors add them to the base once per sweep, from the one sum S_V
    of their x_t: T0 = base + S_V, and T1 = base + |V| - S_V, the sum of
    the x_t ^ full, which is S_V complemented plane by plane plus the
    constant |V| + 1.  A chunk whose offset sets F of V, and not G, weighs
    T0 - |F| + 2 * sum(x_t ^ full, t in F) = T1 - |G| + 2 * sum(x_t, t in G),
    so :func:`_compress` adds only the smaller of F and G (F at a tie), at
    weight 2, to the nearer anchor, and the chunk's constant takes the
    -min(|F|, |G|).  The planes hold that anchor plus twice the sum, at
    most n + |V| // 2, in W = (n + |V| // 2).bit_length() planes, so the
    sum never wraps.
    """
    low, high = basis[:c], basis[c:]
    full = (1 << (1 << len(low))) - 1
    xs = [0] * n  # x_t at index t, the bit of coordinate n - 1 - t
    lows = touched = 0
    for w, m in zip(low, _patterns(len(low))):
        lows |= w
        while w:
            t = w.bit_length() - 1
            xs[t] ^= m
            w ^= 1 << t
    for h in high:
        touched |= h
    spread = lows & touched
    constant = touched ^ spread
    varying = [(t, xs[t]) for t in range(n) if spread >> t & 1]
    v = len(varying)
    width = (n + v // 2).bit_length()
    base = _compress([], (x for t, x in enumerate(xs) if x and not touched >> t & 1), 0, width)
    total = _compress([], (x for _, x in varying), 0, width)
    # |V| - S_V = (S_V complemented over the width) + |V| + 1, mod 2^width
    rest = [[s ^ full] + [full] * ((v + 1) >> b & 1) for b, s in enumerate(total)]
    rest = _compress(rest, (), 0, width)
    anchors = [_compress([[p, s] for p, s in zip(base, o)], (), 0, width) for o in (total, rest)]
    offset = 0
    for g in range(1 << len(high)):
        if g:
            offset ^= high[(g & -g).bit_length() - 1]
        flips = (offset & spread).bit_count()
        if 2 * flips <= v:
            anchor, ints = anchors[0], (x ^ full for t, x in varying if offset >> t & 1)
        else:
            flips = v - flips
            anchor, ints = anchors[1], (x for t, x in varying if not offset >> t & 1)
        planes = _compress([[p] if p else [] for p in anchor], ints, 1, width)
        yield offset, (offset & constant).bit_count() - flips, planes, full


def _least(planes: list[int], cand: int, m: int, cap: int) -> tuple[int, int]:
    """Least m + (planes value) over the positions in ``cand``, and where.

    Reads the planes from the top: a bit of the minimum is 0 when some
    candidate has it clear, and only those candidates stay.  Gives up (with
    m > cap) as soon as the minimum is known to exceed ``cap``.
    """
    for b in range(len(planes) - 1, -1, -1):
        if m > cap:
            break
        z = cand ^ cand & planes[b]
        if z:
            cand = z
        else:
            m += 1 << b
    return m, cand


def _at_most(planes: list[int], w: int, full: int) -> int:
    """Mask of the positions whose planes value is <= w."""
    if w < 0:
        return 0
    if w >> len(planes):
        return full
    lt, eq = 0, full
    for b in range(len(planes) - 1, -1, -1):
        p = eq & planes[b]
        if w >> b & 1:
            lt |= eq ^ p
            eq = p
        else:
            eq ^= p
    return lt | eq


def _decoder(low: Sequence[int]):
    """Map (offset, chunk mask) to the words at the mask's set bits.

    Word i of a chunk is offset ^ T0[low half of i] ^ T1[high half of i],
    with T0 and T1 the spans of the two halves of ``low`` (2^8 entries at
    most), read off ``bin(mask)``.
    """
    h = len(low) // 2
    t0, t1 = [0], [0]
    for w in low[:h]:
        t0 += [x ^ w for x in t0]
    for w in low[h:]:
        t1 += [x ^ w for x in t1]
    lo = (1 << h) - 1

    def words(offset: int, mask: int) -> list[int]:
        s = bin(mask)
        top = len(s) - 1
        out = []
        q = s.find("1", 2)
        while q != -1:
            i = top - q
            out.append(offset ^ t0[i & lo] ^ t1[i >> h])
            q = s.find("1", q + 1)
        return out

    return words


def _min_weight_words(n: int, basis: Sequence[int], c: int) -> tuple[int, ...]:
    """Sorted minimum-weight words of the span of ``basis`` (nonzero, independent).

    Chunks of width min(c, k); the zero word is position 0 of chunk 0.
    """
    words = _decoder(basis[:c])
    best = n + 1
    found: list[int] = []
    for offset, const, planes, full in _chunks(n, basis, c):
        m, mask = _least(planes, full if offset else full ^ 1, const, best)
        if m > best:
            continue
        if m < best:
            best, found = m, []
        found += words(offset, mask)
    found.sort()
    return tuple(found)


def _layer_patterns(prev: list[int], w: int) -> list[int]:
    """The patterns of the weight-w subsets of range(k), from those of weight w - 1.

    The C(k, w) subsets are in colex order, so those whose largest member
    is M fill positions C(M, w) .. C(M + 1, w) - 1, the recursion
    C(M + 1, w) = C(M, w) + C(M, w - 1) read one M at a time; bit s of
    pattern i is set when subset s holds i.  In the block of M, pattern M
    is all ones, pattern i < M repeats the first C(M, w - 1) bits of its
    weight-(w - 1) pattern (the subsets of range(M)), and pattern i > M is
    zero.  ``prev`` is the k patterns of weight w - 1.
    """
    k = len(prev)
    out = [((1 << comb(i, w - 1)) - 1) << comb(i, w) for i in range(k)]
    for m in range(1, k):
        keep, at = (1 << comb(m, w - 1)) - 1, comb(m, w)
        for i in range(m):
            out[i] |= (prev[i] & keep) << at
    return out


def _layer_words(basis: Sequence[int], w: int, mask: int) -> list[int]:
    """The words at the set bits of ``mask``, a layer-w position mask.

    Position s is the colex rank sum_j C(a_j, j) of the subset
    a_1 < ... < a_w, read back from the top: a_w is the largest M with
    C(M, w) <= s, then the rest from s - C(a_w, w) at weight w - 1.
    """
    out = []
    s = bin(mask)
    top = len(s) - 1
    q = s.find("1", 2)
    while q != -1:
        pos, word, m = top - q, 0, len(basis) - 1
        for j in range(w, 0, -1):
            while comb(m, j) > pos:
                m -= 1
            word ^= basis[m]
            pos -= comb(m, j)
            m -= 1
        out.append(word)
        q = s.find("1", q + 1)
    return out


def _second_basis(basis: Sequence[int], lead: int) -> tuple[list[int], int]:
    """A basis of the same span, systematic on k coordinates, and their mask.

    As many of the k as the rank allows lie outside the mask ``lead``.

    Gauss-Jordan elimination keyed on each word's highest bit outside
    ``lead``, or on its highest bit when it has none left there: each
    word keeps its own key and is cleared from every other word, so no word
    sets another's key.  A word left with no bit outside ``lead`` has its
    part there in the span of the earlier keyed words' parts, so r keys lie
    outside ``lead``, r the rank of the coordinates there, and k - r inside.
    """
    rest = ~lead
    words = list(basis)
    keys = 0
    for r in range(len(words)):
        v = words[r]
        key = 1 << ((v & rest or v).bit_length() - 1)
        keys |= key
        words = [u ^ v if u & key else u for u in words]
        words[r] = v
    return words, keys


def _groups(n: int, words: Sequence[int], info: int, g: int) -> list[tuple[int, ...]]:
    """Which words set each coordinate outside ``info``, in four g-bit indices.

    Each word, zeroed on ``info``, is spread to one byte per coordinate
    (byte t is its coordinate t); the words of group j, shifted by their
    place in it and summed, give byte t = the group-j index of coordinate
    t, g <= 7 bits at rank 28.  Coordinates that no word sets are left out.
    """
    rest = ~info
    indices = []
    for j in range(0, 4 * g, g):
        acc = 0
        for r, v in enumerate(words[j:j + g]):
            acc |= int.from_bytes(f"{v & rest:0{n}b}".encode().translate(_DIGITS), "big") << r
        indices.append(acc.to_bytes(n, "big"))
    return [ix for ix in zip(*indices) if any(ix)]


def _passes(k: int, best: int, overlap: int) -> list[tuple[int, int, int]]:
    """The bit-sliced passes ``(w, j, bound)`` still needed while ``best`` is the least weight found.

    Pass (w, j) weighs layer w in basis j, for w = 2, 3, ...: the first
    basis, then the second, whose information set shares ``overlap``
    coordinates with the first's.  A word that no pass before (w, j) has
    weighed has over w ones on the information set of each basis done at
    layer w, and over w - 1 on the other: at least w + j on the first, and
    max(0, w - overlap) more on the rest of the second.  ``bound`` is that
    sum, and the list ends before the first pass whose bound exceeds
    ``best``, when every minimum-weight word has been weighed.
    """
    out = []
    for w in range(2, k + 1):
        rest = max(0, w - overlap)
        for j in (0, 1):
            if w + j + rest > best:
                return out
            out.append((w, j, w + j + rest))
    return out


def _information_set_words(n: int, basis: Sequence[int]) -> tuple[int, ...] | None:
    """Sorted minimum-weight words by Brouwer-Zimmermann, or None to hand over.

    ``basis`` is reduced echelon, so systematic on its leading coordinates;
    :func:`_second_basis` adds one systematic on k others: all outside
    them when those coordinates have rank k, else r outside and k - r
    inside.  The messages of weight w in a basis form layer w: layer 1 is
    the basis words themselves, and from w = 2 on one bit-sliced pass per
    basis weighs all C(k, w).  Each coordinate int outside the basis's
    information set is the XOR of the patterns (:func:`_layer_patterns`)
    of the words that set it, read from four tables of the XORs of
    g = ceil(k / 4) patterns each; :func:`_compress` sums those ints, and
    the information set adds exactly w.  The passes (see :func:`_passes`)
    stop before the first whose bound, the least weight of a word no pass
    has weighed, exceeds the least weight found.  After layer w of the
    first ``done`` bases that bound is 2w + done for two disjoint bases,
    and 2w + done - 1 when one key of the second lies inside the first
    information set.

    As the least weight found only falls, the passes it still requires
    after layer 1 bound all the rest.  When those would cost more than the
    sweep (see _LAYER_COST), or one of them would hold more than 2^24 bits
    in its at most 2n + 2^(g+2) ints of C(k, w) bits, it returns None at
    once.
    """
    k = len(basis)
    g = -(-k // 4)
    lead = 0
    for v in basis:
        lead |= 1 << (v.bit_length() - 1)
    other, keys = _second_basis(basis, lead)
    layer1 = [*basis, *other]
    best = min(v.bit_count() for v in layer1)
    found = {v for v in layer1 if v.bit_count() == best}
    bases = [(basis, lead), (other, keys)]
    passes = _passes(k, best, (keys & lead).bit_count())
    sizes = [comb(k, w) for w, _, _ in passes]
    peak = (2 * n + (4 << g)) * max(sizes, default=0)
    if _LAYER_COST * sum(sizes) > 1 << k or peak > _CHUNK_BITS:
        return None
    groups = [_groups(n, words, info, g) for words, info in bases]
    patterns = [1 << i for i in range(k)]
    for w, j, bound in passes:
        if bound > best:
            break
        if not j:
            patterns = _layer_patterns(patterns, w)
            tables = []
            for i in range(0, 4 * g, g):
                table = [0]
                for p in patterns[i:i + g]:
                    table += [x ^ p for x in table]
                tables.append(table)
            t0, t1, t2, t3 = tables
            full = (1 << comb(k, w)) - 1
        xs = [t0[a] ^ t1[b] ^ t2[c] ^ t3[d] for a, b, c, d in groups[j]]
        planes = _compress([], xs, 0, len(xs).bit_length())
        m, mask = _least(planes, full, w, best)
        if m <= best:
            if m < best:
                best, found = m, set()
            found.update(_layer_words(bases[j][0], w, mask))
    return tuple(sorted(found))


class Code(namedtuple("Code", "n pivots")):
    """F2-linear code: the span of the columns of a generator matrix.

    ``Code(G)`` keeps the length and the span's pivot table, the reduced
    echelon rows of :func:`_reduced_echelon` over n bits: entry h holds
    the word whose leading bit is h, or 0.  The table is a span invariant,
    so two codes are equal, and hash alike, exactly when their lengths and
    spans are, whatever generators they came from.  Nothing is cached on
    a code: each search runs when it is called.  A code equals only a code.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = _same_type_eq, object.__ne__, tuple.__hash__

    def __new__(cls, gen: BinaryMatrix):
        return super().__new__(cls, gen.n, _reduced_echelon(gen.cols, gen.n))

    @property
    def words(self) -> tuple[int, ...]:
        """The reduced basis words' backing ints, in ascending order of leading row."""
        return tuple(filter(None, reversed(self.pivots)))

    @property
    def dimension(self) -> int:
        return self.n - self.pivots.count(0)

    def basis(self) -> list[BinaryVector]:
        """Canonical reduced-echelon basis of the span.

        The leading row of a word is its lowest-index nonzero coordinate.
        The words come in ascending order of leading row, and each word is
        zero on every other word's leading row.
        """
        return [BinaryVector(self.n, b) for b in self.words]

    def contains(self, v: BinaryVector) -> bool:
        if v.n != self.n:
            raise LengthMismatch(f"{v.n} != {self.n}")
        return _reduce(v.bits, self.pivots) == 0

    def has_prefix(self, v: BinaryVector, length: int) -> bool:
        """Whether some codeword agrees with v on coordinates 0..length-1."""
        if v.n != self.n:
            raise LengthMismatch(f"{v.n} != {self.n}")
        return _reduce(v.bits, self.pivots).bit_length() <= self.n - length

    def _swept(self) -> tuple[tuple[int, ...], int]:
        """The basis and chunk width of a sweep, refused past the rank cap."""
        r = self.dimension
        if r > SWEEP_RANK_CAP:
            raise RankTooLarge(f"rank {r} > sweep cap {SWEEP_RANK_CAP}")
        return self.words, _chunk_width(self.n, r)

    def codewords(self) -> Iterator[BinaryVector]:
        """All 2^k codewords via a Gray-code walk (zero word first)."""
        basis, _ = self._swept()
        word = 0
        yield BinaryVector(self.n, 0)
        for i in range(1, 1 << len(basis)):
            word ^= basis[(i & -i).bit_length() - 1]
            yield BinaryVector(self.n, word)

    def _min_weight_bits(self) -> tuple[int, ...]:
        """Sorted backing integers of the minimum-weight codewords.

        Rank k <= 16, which the sweep weighs in one pass at n <= 256, goes
        straight to the sweep.  Above that, Brouwer-Zimmermann runs first
        (see _information_set_words): a second basis, systematic on k
        coordinates, as many of them outside the leading rows of the
        reduced echelon basis as those rows' complement has rank; one
        bit-sliced pass per basis over the messages of each weight w; and
        a stop once the least weight of a word no pass has weighed (2w +
        bases done at w, for disjoint bases) exceeds the least weight
        found.  From the least weight of the basis words it decides once
        whether the passes still needed fit the sweep's cost and 2^24-bit
        memory; if not it hands over.  A systematic [48, 20] code takes about 0.35 ms this way,
        against about 1 ms for the sweep.

        The sweep is the general path.  It weighs the 2^k codewords in
        2^(k-c) chunks of 2^c, c = min(k, 16) cut down until
        n * 2^c <= 2^24 bits (see _chunks).  The coordinate ints that vary,
        v <= n - k of them, are summed once per sweep, and both anchor
        chunks are derived from that sum and the base planes.  Every other
        chunk starts from the nearer anchor and a carry-save compressor of
        full adders adds only the ints where it differs, at most v // 2 of
        them, into (n + v // 2).bit_length() weight planes, while the
        chunk's integer constant takes the count of those flips; reading
        the planes from the top gives the chunk's least weight and its
        positions.  The coordinate ints hold n * 2^c <= 2^24 bits (2 MB)
        whatever k is, and the compressor O(log n) ints of 2^c bits more.
        At the rank-28 cap, a systematic [48, 28] code takes about 0.09 s
        (a one-word Gray walk about 40 s).

        The search runs on every call, and nothing is cached: a caller
        that needs the distance and the words reads both off one
        :func:`min_weight_codewords`.
        """
        basis, c = self._swept()
        if not basis:
            raise ZeroCode("the zero code has no nonzero codeword")
        found = None
        if len(basis) > _CHUNK_RANK:
            found = _information_set_words(self.n, basis)
        if found is None:
            found = _min_weight_words(self.n, basis, c)
        return found

    def light_words(self, limit: int) -> Iterator[BinaryVector]:
        """The nonzero codewords of weight <= limit, one bit-sliced chunk at a time.

        Each word is yielded once, in no fixed order; only one chunk's
        words are held at a time.
        """
        basis, c = self._swept()
        words = _decoder(basis[:c])
        for offset, const, planes, full in _chunks(self.n, basis, c):
            mask = _at_most(planes, limit - const, full)
            for b in words(offset, mask if offset else mask & ~1):
                yield BinaryVector(self.n, b)

    def least_weight_above(self, w: int) -> int | None:
        """Least weight > w of a codeword, or None when none weighs more than w."""
        best = self.n + 1
        for offset, const, planes, full in _chunks(self.n, *self._swept()):
            cand = full ^ _at_most(planes, w - const, full)
            if cand:
                best = min(best, _least(planes, cand, const, best)[0])
        return best if best <= self.n else None

    def __repr__(self) -> str:
        return f"Code(n={self.n}, k={self.dimension})"


def is_subcode(sub: Code, sup: Code) -> bool:
    """True iff every basis word of ``sub`` lies in the span of ``sup``."""
    if sub.n != sup.n:
        raise LengthMismatch(f"{sub.n} != {sup.n}")
    return all(sup.contains(w) for w in sub.basis())


def min_distance(C: Code) -> int:
    """Least Hamming weight over nonzero codewords (exhaustive sweep)."""
    return C._min_weight_bits()[0].bit_count()


def min_weight_codewords(C: Code) -> list[BinaryVector]:
    """The set S_C of all minimum-weight codewords, lexicographically sorted."""
    return [BinaryVector(C.n, b) for b in C._min_weight_bits()]


def code_kissing_number(C: Code) -> int:
    """Number of codewords achieving the minimum distance."""
    return len(C._min_weight_bits())


class CodeTower(namedtuple("CodeTower", "levels")):
    """Nested codes C_1 >= C_2 >= ... >= C_a of common block length.

    levels[0] is the largest code C_1.  C_0 = F2^n is implicit.  Inclusions
    are validated at construction; violations raise :class:`NotATower`.
    """

    __slots__ = ()

    def __new__(cls, levels: Sequence[Code]):
        if not levels:
            raise NotATower("a tower needs at least one level")
        n = levels[0].n
        for C in levels:
            if C.n != n:
                raise NotATower("levels have different block lengths")
        for i in range(len(levels) - 1):
            if not is_subcode(levels[i + 1], levels[i]):
                raise NotATower(f"level {i + 2} is not a subcode of level {i + 1}")
        return super().__new__(cls, tuple(levels))

    @property
    def n(self) -> int:
        return self.levels[0].n

    @property
    def a(self) -> int:
        return len(self.levels)


def is_schur_closed_tower(T: CodeTower):
    """Decide whether level-i products always land in level i-1.

    Returns ``(True, None)`` or ``(False, (i, c, c'))`` with a violating
    pair of codewords from level i (1-based).  Checking generator pairs
    suffices: the coordinate-wise product is F2-bilinear, so products of
    spans lie in the span of generator products.
    """
    for idx in range(1, T.a):  # products of level 1 land in C_0 = F2^n
        level = T.levels[idx]
        parent = T.levels[idx - 1]
        gens = level.basis()
        for gi in range(len(gens)):
            for gj in range(gi, len(gens)):
                prod = schur_product(gens[gi], gens[gj])
                if not parent.contains(prod):
                    return False, (idx + 1, gens[gi], gens[gj])
    return True, None
