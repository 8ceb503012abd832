"""Exact linear algebra over GF(2): vectors, generator matrices, codes, towers.

Bit convention: a length-n vector is backed by a single Python integer whose
most significant bit is coordinate 0.  With that layout, comparing backing
integers compares coordinate tuples lexicographically, so sorting vectors
needs no conversion.

Codes are column-generated: ``Code(G)`` is the F2-span of the columns of G,
its dimension is the F2-rank of G.  Distance, minimum-weight words and
kissing number all read one cached sweep per code: a Gray-code walk over
all 2^k codewords that keeps the minimum-weight words.  The sweep is
hard-capped at rank 28 and refuses larger inputs with :class:`RankTooLarge`.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Optional, Sequence

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


class BinaryVector:
    """Immutable vector over F2.

    Coordinate i lives at bit position (n - 1 - i) of ``bits``.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int) -> None:
        if n < 0:
            raise ValueError("negative length")
        if bits < 0 or bits >> n:
            raise ValueError("bits out of range for length")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("BinaryVector is immutable")

    @classmethod
    def from_coords(cls, coords: Sequence[int]) -> "BinaryVector":
        bits = 0
        for c in coords:
            if c not in (0, 1):
                raise ValueError("coordinates must be 0 or 1")
            bits = (bits << 1) | c
        return cls(len(coords), bits)

    @classmethod
    def zero(cls, n: int) -> "BinaryVector":
        return cls(n, 0)

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
        n = self.n
        return tuple(i for i in range(n) if (self.bits >> (n - 1 - i)) & 1)

    def coords(self) -> tuple[int, ...]:
        n = self.n
        return tuple((self.bits >> (n - 1 - i)) & 1 for i in range(n))

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


class BinaryMatrix:
    """Matrix over F2 stored column-wise; n rows, k columns.

    Each column uses the BinaryVector bit layout (row 0 at the MSB).
    """

    __slots__ = ("n", "k", "cols")

    def __init__(self, n: int, cols: Sequence[int]) -> None:
        if n < 0:
            raise ValueError("negative row count")
        for c in cols:
            if c < 0 or c >> n:
                raise ValueError("column out of range for row count")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", len(cols))
        object.__setattr__(self, "cols", tuple(cols))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("BinaryMatrix is immutable")

    @classmethod
    def from_columns(cls, columns: Sequence[BinaryVector], n: Optional[int] = None) -> "BinaryMatrix":
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
        n = len(rows)
        k = len(rows[0]) if n else 0
        cols = [0] * k
        for i, row in enumerate(rows):
            if len(row) != k:
                raise ShapeMismatch("ragged rows")
            for j, e in enumerate(row):
                if e not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                if e:
                    cols[j] |= 1 << (n - 1 - i)
        return cls(n, cols)

    @classmethod
    def identity(cls, n: int) -> "BinaryMatrix":
        return cls(n, tuple(1 << (n - 1 - i) for i in range(n)))

    def column(self, j: int) -> BinaryVector:
        return BinaryVector(self.n, self.cols[j])

    def columns(self) -> list[BinaryVector]:
        return [BinaryVector(self.n, c) for c in self.cols]

    def row(self, i: int) -> BinaryVector:
        bits = 0
        shift = self.n - 1 - i
        for c in self.cols:
            bits = (bits << 1) | ((c >> shift) & 1)
        return BinaryVector(self.k, bits)

    def row_bits(self) -> list[int]:
        """All rows as k-bit integers (column 0 at the MSB)."""
        return [self.row(i).bits for i in range(self.n)]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i).coords()) for i in range(self.n)]

    def mul(self, x: BinaryVector) -> BinaryVector:
        """Matrix-vector product M x over F2 (x has one entry per column)."""
        if x.n != self.k:
            raise ShapeMismatch(f"vector length {x.n} != column count {self.k}")
        acc = 0
        for j in range(self.k):
            if (x.bits >> (self.k - 1 - j)) & 1:
                acc ^= self.cols[j]
        return BinaryVector(self.n, acc)

    def hstack(self, other: "BinaryMatrix") -> "BinaryMatrix":
        if self.n != other.n:
            raise ShapeMismatch(f"{self.n} != {other.n} rows")
        return BinaryMatrix(self.n, self.cols + other.cols)

    def replicate_rows(self, m: int) -> "BinaryMatrix":
        """Repeat each row m times in consecutive positions (Kronecker with 1_m)."""
        if m < 1:
            raise ValueError("replication factor must be >= 1")
        rows = self.to_rows()
        out = []
        for row in rows:
            out.extend([row] * m)
        return BinaryMatrix.from_rows(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryMatrix)
            and self.n == other.n
            and self.cols == other.cols
        )

    def __hash__(self) -> int:
        return hash((self.n, self.cols))

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.n}x{self.k})"


def _reduce(bits: int, pivots: dict[int, int]) -> int:
    """Reduce an integer bitset against pivot rows keyed by leading bit position."""
    while bits:
        h = bits.bit_length() - 1
        p = pivots.get(h)
        if p is None:
            return bits
        bits ^= p
    return 0


def _echelon(vecs: Iterable[int]) -> dict[int, int]:
    """Pivot map (leading-bit position -> vector) for the span of ``vecs``."""
    pivots: dict[int, int] = {}
    for v in vecs:
        r = _reduce(v, pivots)
        if r:
            pivots[r.bit_length() - 1] = r
    return pivots


def _reduced_echelon(vecs: Iterable[int]) -> tuple[int, ...]:
    """Canonical reduced echelon basis of the span, sorted descending.

    Each pivot bit occurs in exactly one basis vector, so the tuple is a
    span invariant: two generating sets span the same subspace iff their
    reduced echelon tuples are equal.
    """
    pivots = _echelon(vecs)
    for h in sorted(pivots, reverse=True):
        v = pivots[h]
        for g in pivots:
            if g != h and (pivots[g] >> h) & 1:
                pivots[g] ^= v
    return tuple(sorted(pivots.values(), reverse=True))


def rank(M: BinaryMatrix) -> int:
    """F2-rank of the matrix."""
    return len(_echelon(M.cols))


def kernel_basis(M: BinaryMatrix) -> list[BinaryVector]:
    """Basis of {x in F2^k : Mx = 0}, canonicalized.

    The basis is in reduced echelon form (each vector has a 1 at its own
    free column and 0 at every other free column) and sorted in ascending
    lexicographic order.  Empty list iff M has full column rank.
    """
    k = M.k
    # reduced echelon rows of M; bit h is column k-1-h, free unless it leads a row
    rows = _reduced_echelon(M.row_bits())
    leads = {r.bit_length() - 1 for r in rows}
    basis = []
    for f in range(k):
        if f in leads:
            continue
        bits = 1 << f
        for r in rows:
            if (r >> f) & 1:
                bits |= 1 << (r.bit_length() - 1)
        basis.append(BinaryVector(k, bits))
    basis.sort(key=lambda v: v.bits)
    return basis


def solve(M: BinaryMatrix, y: BinaryVector) -> Optional[BinaryVector]:
    """Some x with Mx = y over F2, or None when y is not in the column span.

    Each column is tagged with its own unit vector below it, c << k | e_j,
    so eliminating the tagged columns records which columns sum to each
    pivot; reducing y << k then leaves M x + y above bit k and x below.
    """
    if y.n != M.n:
        raise ShapeMismatch(f"vector length {y.n} != row count {M.n}")
    k = M.k
    pivots = _echelon(c << k | 1 << (k - 1 - j) for j, c in enumerate(M.cols))
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
    pivots = _echelon(M.cols)
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


class Code:
    """F2-linear code given as the span of generator-matrix columns."""

    __slots__ = ("gen", "_basis", "_pivots", "_min_words")

    def __init__(self, gen: BinaryMatrix) -> None:
        object.__setattr__(self, "gen", gen)
        basis = _reduced_echelon(gen.cols)
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(
            self, "_pivots", {b.bit_length() - 1: b for b in basis}
        )
        object.__setattr__(self, "_min_words", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Code is immutable")

    @classmethod
    def from_columns(cls, columns: Sequence[BinaryVector], n: Optional[int] = None) -> "Code":
        return cls(BinaryMatrix.from_columns(columns, n=n))

    @property
    def n(self) -> int:
        return self.gen.n

    @property
    def dimension(self) -> int:
        return len(self._basis)

    def basis(self) -> list[BinaryVector]:
        """Canonical reduced-echelon basis of the span."""
        return [BinaryVector(self.n, b) for b in self._basis]

    def contains(self, v: BinaryVector) -> bool:
        if v.n != self.n:
            raise LengthMismatch(f"{v.n} != {self.n}")
        return _reduce(v.bits, self._pivots) == 0

    def has_prefix(self, v: BinaryVector, length: int) -> bool:
        """Whether some codeword agrees with v on coordinates 0..length-1."""
        if v.n != self.n:
            raise LengthMismatch(f"{v.n} != {self.n}")
        return _reduce(v.bits, self._pivots).bit_length() <= self.n - length

    def codewords(self) -> Iterator[BinaryVector]:
        """All 2^k codewords via a Gray-code walk (zero word first)."""
        r = self.dimension
        if r > SWEEP_RANK_CAP:
            raise RankTooLarge(f"rank {r} > sweep cap {SWEEP_RANK_CAP}")
        basis = self._basis
        word = 0
        yield BinaryVector(self.n, 0)
        for i in range(1, 1 << r):
            word ^= basis[(i & -i).bit_length() - 1]
            yield BinaryVector(self.n, word)

    def _min_weight_bits(self) -> tuple[int, ...]:
        """Sorted backing integers of the minimum-weight codewords.

        The Gray-code sweep runs on the first call only; the tuple is
        cached on the code, which is immutable, so it never goes stale.
        """
        if self._min_words is None:
            r = self.dimension
            if r == 0:
                raise ZeroCode("the zero code has no nonzero codeword")
            if r > SWEEP_RANK_CAP:
                raise RankTooLarge(f"rank {r} > sweep cap {SWEEP_RANK_CAP}")
            basis = self._basis
            word = 0
            best = self.n + 1
            found: list[int] = []
            for i in range(1, 1 << r):
                word ^= basis[(i & -i).bit_length() - 1]
                w = word.bit_count()
                if w > best:
                    continue
                if w < best:
                    best = w
                    found = []
                found.append(word)
            found.sort()
            object.__setattr__(self, "_min_words", tuple(found))
        return self._min_words

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Code)
            and self.n == other.n
            and self._basis == other._basis
        )

    def __hash__(self) -> int:
        return hash((self.n, self._basis))

    def __repr__(self) -> str:
        return f"Code(n={self.n}, k={self.dimension})"


def is_subcode(sub: Code, sup: Code) -> bool:
    """True iff every generator column of ``sub`` lies in the span of ``sup``."""
    if sub.n != sup.n:
        raise LengthMismatch(f"{sub.n} != {sup.n}")
    return all(sup.contains(BinaryVector(sub.n, c)) for c in sub.gen.cols)


def min_distance(C: Code) -> int:
    """Least Hamming weight over nonzero codewords (exhaustive sweep)."""
    return C._min_weight_bits()[0].bit_count()


def min_weight_codewords(C: Code) -> list[BinaryVector]:
    """The set S_C of all minimum-weight codewords, lexicographically sorted."""
    return [BinaryVector(C.n, b) for b in C._min_weight_bits()]


def code_kissing_number(C: Code) -> int:
    """Number of codewords achieving the minimum distance."""
    return len(C._min_weight_bits())


class CodeTower:
    """Nested codes C_1 >= C_2 >= ... >= C_a of common block length.

    levels[0] is the largest code C_1.  C_0 = F2^n is implicit.  Inclusions
    are validated at construction; violations raise :class:`NotATower`.
    """

    __slots__ = ("levels",)

    def __init__(self, levels: Sequence[Code]) -> None:
        if not levels:
            raise NotATower("a tower needs at least one level")
        n = levels[0].n
        for C in levels:
            if C.n != n:
                raise NotATower("levels have different block lengths")
        for i in range(len(levels) - 1):
            if not is_subcode(levels[i + 1], levels[i]):
                raise NotATower(f"level {i + 2} is not a subcode of level {i + 1}")
        object.__setattr__(self, "levels", tuple(levels))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("CodeTower is immutable")

    @property
    def n(self) -> int:
        return self.levels[0].n

    @property
    def a(self) -> int:
        return len(self.levels)

    def __repr__(self) -> str:
        dims = ",".join(str(C.dimension) for C in self.levels)
        return f"CodeTower(n={self.n}, dims=[{dims}])"


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
