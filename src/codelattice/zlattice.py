"""Exact integer lattices: canonical HNF, membership, LLL, enumeration.

Everything here is exact.  Bases are kept in a canonical column Hermite
normal form (pivot rows strictly increasing, pivots positive, entries to the
left of each pivot reduced into [0, pivot)), so two lattices are equal iff
their stored bases are identical tuples.  Membership, the adjugate solve
and the HNF's own canonical step share one top-down reduction by those
columns, which leaves a canonical residue of v + L for any rank.  One
integral Gram-Schmidt (the integers d_i and lambda_ij of Cohen Alg. 2.6.7)
drives both the fraction-free LLL and the enumeration that follows it:
shortest vectors come from one sign-symmetric Fincke-Pohst walk (each +-v
pair reached once) on those integers, with no pruning and an explicit node
budget.  The walk runs on their least common scale: each GSO column is
divided by the gcd of its entries and its d, and norms are scaled by the
least common denominator of the level weights, which keeps every test
exact and the tree the same on any scale.  A shortest-vector walk
tightens its radius at each shorter leaf, so a candidate drawn before
that can fall outside the new radius and is skipped.  The walk steps
through a run of forced zeros (levels whose one candidate is 0) in one
loop, one node each.  The GSO is built one row at a time, by one
routine: LLL fills row k when it first reaches column k,
and the determinant of a lattice of lower rank is the square root of the
last d of all rows.  LLL runs at delta = 99/100, and the walk, one frame
per level, refuses a rank above ``WALK_RANK_CAP`` before LLL starts and
a kept set past ``WALK_OUTPUT_CAP`` entries (vectors times n) as it grows.
Exact l_p decisions for rational p = u/v read one generator of dyadic
brackets of the power sum, at precisions 16, 32, 64, ... bits, from
floor v-th roots of integers; an integer p gives an exact bracket at once.
``Fraction`` appears only in the exact l_p comparisons; floating point
appears nowhere.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import compress
from math import gcd, isqrt, lcm, prod
from operator import getitem, neg

from .errors import DimensionMismatch, EnumerationBudgetExceeded, OutputTooLarge, RankTooLarge, ZeroRank

__all__ = [
    "IntVec",
    "Lattice",
    "ShortVectorReport",
    "Determinant",
    "hnf",
    "contains",
    "determinant",
    "lll_reduce",
    "shortest_vectors",
    "vectors_up_to",
    "lp_norm",
    "lp_power_sum_brackets",
    "lp_power_sum_cmp",
    "scale",
    "adjugate_solve",
    "iroot",
    "DEFAULT_BUDGET",
    "WALK_RANK_CAP",
    "WALK_OUTPUT_CAP",
]

IntVec = tuple[int, ...]

DEFAULT_BUDGET = 10**9
WALK_RANK_CAP = 768  # one walk frame per level, with room under the recursion limit 1000
WALK_OUTPUT_CAP = 1 << 24  # entries a walk may keep: vectors times n, v and -v apart
_DELTA = (99, 100)  # LLL's delta = 99/100, as (numerator, denominator)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g; (|a|, +-1, 0)
    when a divides b, so an HNF pivot that divides the new entry stays."""
    if a and b % a == 0:
        return (a, 1, 0) if a > 0 else (-a, -1, 0)
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _residue(
    basis: Sequence[Sequence[int]], pivots: Sequence[int], v: Sequence[int]
) -> tuple[list[int], list[int]]:
    """``(q, w)``: v reduced top-down by HNF columns, w = v - sum_j q_j basis[j].

    Each column, in pivot order, floors w's pivot-row entry into [0, pivot)
    by subtracting q_j times itself in place, skipping its zero entries.
    It is zero above its pivot row, so no later column touches a reduced
    row: w is the same for all of v + L, at any rank, and v is in L iff w = 0.
    """
    w = list(v)
    n = len(w)
    q = [0] * len(pivots)
    for j, r in enumerate(pivots):
        if w[r]:
            col = basis[j]
            k = w[r] // col[r]
            if k:
                q[j] = k
                for t in range(r, n):
                    c = col[t]
                    if c:
                        w[t] -= k * c
    return q, w


def _hnf_columns(n: int, columns: Iterable[Sequence[int]]) -> tuple[tuple[IntVec, ...], tuple[int, ...]]:
    """Canonical column HNF of the integer span of ``columns``.

    Returns (basis, pivot_rows).  Zero columns are dropped and a column of
    another length raises DimensionMismatch.  Each generator v walks down
    its nonzero rows.  At a row r that already has a pivot column u, a u[r]
    that divides v[r] stays the pivot and v loses a multiple of u where u
    is nonzero; any other pair is replaced by its extended-gcd combination
    and the v that it clears at row r.  Pivots are made positive, then
    each column becomes its :func:`_residue` against the later columns, so
    entries left of each pivot lie in [0, pivot).
    """
    piv: dict[int, list[int]] = {}  # pivot row -> column
    for col in columns:
        v = list(col)
        if len(v) != n:
            raise DimensionMismatch(f"column length {len(v)} != ambient {n}")
        r = 0
        while r < n:
            if v[r] == 0:
                r += 1
                continue
            u = piv.get(r)
            if u is None:
                piv[r] = v
                break
            a, b = u[r], v[r]
            g, x, y = _xgcd(a, b)
            if y:
                aa, bb = a // g, b // g
                piv[r] = [x * u[t] + y * v[t] for t in range(n)]
                v = [aa * v[t] - bb * u[t] for t in range(n)]
            else:
                # a divides b: u stays the pivot column and v loses q*u,
                # where u is nonzero; both are zero above row r
                q = b // a
                for t in range(r + 1, n):
                    c = u[t]
                    if c:
                        v[t] -= q * c
                v[r] = 0
            # v[r] is now exactly 0; keep walking down
            r += 1
    order = sorted(piv)
    basis = [piv[r] for r in order]
    for j, r in enumerate(order):
        if basis[j][r] < 0:
            basis[j] = [-e for e in basis[j]]
    basis = [_residue(basis[i + 1:], order[i + 1:], basis[i])[1] for i in range(len(order))]
    return tuple(map(tuple, basis)), tuple(order)


class Lattice(namedtuple("Lattice", "n basis pivots")):
    """Integer lattice with a canonical HNF basis.

    Construct via :meth:`from_generators` (alias :func:`hnf`); direct
    instances must already be canonical, so tuple equality is lattice
    equality (the pivots follow from the basis).
    """

    __slots__ = ()

    @classmethod
    def from_generators(cls, n: int, columns: Iterable[Sequence[int]]) -> "Lattice":
        basis, pivots = _hnf_columns(n, columns)
        return cls(n, basis, pivots)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence[int]) -> bool:
        """Exact membership: v lies in L iff its :func:`_residue` is zero."""
        if len(v) != self.n:
            raise DimensionMismatch(f"vector length {len(v)} != ambient {self.n}")
        return not any(_residue(self.basis, self.pivots, v)[1])

    def __repr__(self) -> str:  # the default would print the whole basis
        return f"Lattice(n={self.n}, rank={self.rank})"


# the two Lattice methods as functions: hnf(n, columns) and contains(L, v)
hnf = Lattice.from_generators
contains = Lattice.contains


class Determinant(namedtuple("Determinant", "value squared")):
    """Exact lattice determinant.

    ``squared`` False: ``value`` = det(L) (an integer for these lattices).
    ``squared`` True: det(Gram) is not a perfect square; ``value`` holds it
    and det(L) = sqrt(value).
    """

    __slots__ = ()

    def __str__(self) -> str:
        return f"sqrt({self.value})" if self.squared else str(self.value)


def determinant(L: Lattice) -> Determinant:
    """det(L), exact.

    Product of HNF pivots when L has full rank.  Otherwise det(Gram) is the
    last d of the integral Gram-Schmidt of the HNF columns, filled row by
    row by :func:`_gso_row` (the columns are independent, so its divisions
    are exact), and det(L) is its square root.
    """
    if L.rank == 0:
        raise ZeroRank("determinant of a rank-0 lattice")
    m = L.rank
    if m == L.n:
        return Determinant(prod(col[r] for col, r in zip(L.basis, L.pivots)), squared=False)
    lam, d = [[0] * m for _ in range(m)], [1] * (m + 1)
    for k in range(m):
        _gso_row(L.basis, lam, d, k)
    s = isqrt(d[m])
    if s * s == d[m]:
        return Determinant(s, squared=False)
    return Determinant(d[m], squared=True)


# ---------------------------------------------------------------------------
# fraction-free Gram-Schmidt and LLL (Cohen, Alg. 2.6.7)
# ---------------------------------------------------------------------------

def _gso_row(basis: Sequence[Sequence[int]], lam: list[list[int]], d: list[int], k: int) -> None:
    """Fill ``lam[k][:k]`` and ``d[k+1]``, the integral GSO row of ``basis[k]``.

    Rows 0..k-1 must already hold the GSO of ``basis[:k]``, and row k must
    still be all zero.  ``d[0] = 1``, ``d[i+1] = det Gram(b_0..b_i) > 0``
    and, for j < i, ``lam[i][j] = d[j+1] * mu_ij``; so ``B_i = d[i+1] / d[i]``.
    All are integers and every division below is exact.  Cohen's recurrence
    u <- (d_{i+1} u - lam_ki lam_ji) / d_i starts from <b_k, b_j>, for all
    j <= k in one list pass per nonzero entry of b_k (one ``compress``
    finds them; a column q e_r has one), the first one first:
    the callers pass independent columns (an HNF basis, or LLL's transform
    of one), so b_k is not zero.  Below the first nonzero <b_k, b_j> every
    u stays 0, so ``lam[k][j]`` is 0 there and the recurrence starts at
    that j; <b_k, b_k> > 0 bounds it.  It skips the zero products: over a
    run i = s..e-1 of them u_i / d_i is constant, so the run is the one
    exact step u <- u d_e / d_s, which u = 0 skips too.
    """
    cols, bk = basis[:k + 1], basis[k]
    ts = compress(range(len(bk)), bk)  # the rows where b_k is nonzero
    t = next(ts)
    x = bk[t]
    g = [x * bj[t] for bj in cols]  # g[j] = <b_k, b_j>
    for t in ts:
        x = bk[t]
        g = [a + x * bj[t] for a, bj in zip(g, cols)]
    lk, nk = lam[k], []  # nk: the columns i < j with lam[k][i] != 0
    for j in range(next(compress(range(k + 1), g)), k + 1):
        lj = lam[j]
        u, s = g[j], 0
        for i in nk:
            if lj[i]:
                if i > s:
                    u = u * d[i] // d[s]
                u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]
                s = i + 1
        if j > s and u:
            u = u * d[j] // d[s]
        if j < k:
            lk[j] = u
            if u:
                nk.append(j)
        else:
            d[k + 1] = u


def _swap(lam: list[list[int]], d: list[int], clean: list[int], k: int, kmax: int) -> None:
    """Update the integral GSO in place for swapping columns k-1 and k (Cohen SWAPI).

    Rows k-1 and k exchange their lists, so their first k-1 entries trade
    places with no copy; only column k-1 is fixed, where lam[k][k-1] keeps
    its value and row k-1 takes a 0.  Of the later rows only k+1..kmax are
    visited, since the rows LLL has not reached yet are still all zero; one
    with lam_ik = lam_i,k-1 = 0 keeps both zero and is skipped.  ``clean``
    is :func:`lll_reduce`'s count of size-reduced leading entries per row:
    the two swapped rows and each changed later row keep at most k-1.
    """
    lam[k - 1], lam[k] = lam[k], lam[k - 1]
    lprev, lk = lam[k - 1], lam[k]
    lkk = lprev[k - 1]
    lprev[k - 1], lk[k - 1] = 0, lkk
    clean[k - 1] = clean[k] = k - 1
    dk, dk1 = d[k], d[k + 1]
    dnew = (d[k - 1] * dk1 + lkk * lkk) // dk
    for i in range(k + 1, kmax + 1):
        li = lam[i]
        t, a = li[k], li[k - 1]
        if t or a:
            li[k] = (dk1 * a - lkk * t) // dk
            li[k - 1] = (dnew * t + lkk * li[k]) // dk1
            if clean[i] >= k:
                clean[i] = k - 1
    d[k] = dnew


def lll_reduce(L: Lattice) -> tuple[tuple[IntVec, ...], list[list[int]], list[int]]:
    """``(basis, lam, d)``: the LLL-reduced basis of L and its integral GSO.

    Fraction-free LLL (Cohen Alg. 2.6.7) from the HNF basis: GSO row k is
    filled by :func:`_gso_row` when the loop first reaches column k
    (``kmax``), while b_k is still HNF column k, so nothing is computed up
    front.  Each step size-reduces b_k against b_{k-1} .. b_0, then tests
    the Lovasz condition with delta = 99/100, swaps and steps back on
    failure.  The GSO of an ordered basis is unique, so the integers and
    every decision are those of a full GSO of the HNF basis.

    ``clean[k]`` is the length of a prefix of ``lam[k]`` known to be
    size-reduced (2|lam_kj| <= d_{j+1}), and the scan stops there unless
    it reduces: a reduction at j changes only lam[k][:j+1], so the scan
    then goes on down to 0 as before, and without one the entries below
    ``clean[k]`` are unchanged and stay reduced.  A swap at k changes only
    d_k, the bound of column k-1: the new rows k-1 and k, whose first k-1
    entries come from size-reduced rows, are clean up to k-1, and so is
    every row past k that it changes (:func:`_swap`).  A zero lam_kj
    needs no reduction, so the scan tests only the nonzero ones, and a
    reduction at j changes b_k and lam[k][i] only where b_j and lam_ji are
    nonzero.  So every decision, basis and GSO integer is that of the full
    scan.  Exact and deterministic; L is not modified.
    """
    dp, dq = _DELTA
    m = L.rank
    basis = list(L.basis)
    lam, d = [[0] * m for _ in range(m)], [1] * (m + 1)
    clean = [0] * m
    if m:
        _gso_row(basis, lam, d, 0)
    k, kmax = 1, 0
    while k < m:
        if k > kmax:
            kmax = k
            _gso_row(basis, lam, d, k)
        bk, lk, low = basis[k], lam[k], clean[k]
        for j in range(k - 1, -1, -1):
            if j < low:
                break
            # |mu_kj| > 1/2  <=>  2|lam_kj| > d_{j+1}; q = floor(mu_kj + 1/2)
            lkj = lk[j]
            if lkj and 2 * abs(lkj) > (dj := d[j + 1]):
                q = (2 * lkj + dj) // (2 * dj)
                bj, bk = basis[j], list(bk)
                for t in compress(range(len(bj)), bj):
                    bk[t] -= q * bj[t]
                lj = lam[j]
                lk[j] = lkj - q * dj
                for i in compress(range(j), lj):
                    lk[i] -= q * lj[i]
                low = 0  # lam[k][:j] changed: scan it all
        basis[k] = bk
        clean[k] = k
        # Lovasz: B_k >= (dp/dq - mu^2) B_{k-1}, multiplied by d_k d_{k-1} dq
        lkk = lk[k - 1]
        if dq * (d[k + 1] * d[k - 1] + lkk * lkk) >= dp * d[k] * d[k]:
            k += 1
            continue
        basis[k - 1], basis[k] = bk, basis[k - 1]
        _swap(lam, d, clean, k, kmax)
        k = max(k - 1, 1)
    return tuple(map(tuple, basis)), lam, d


# ---------------------------------------------------------------------------
# Fincke-Pohst enumeration
# ---------------------------------------------------------------------------

def _walk_scale(
    lam: list[list[int]], d: list[int]
) -> tuple[int, list[int], list[int], list[list[tuple[int, int]]]]:
    """``(P, w, D, rows)``: the least common integer scale of the walk.

    Column j of the integral GSO has g_j = gcd(d_{j+1}, lam_kj for all
    k > j).  Level j's coefficient multiplier is D_j = d_{j+1} / g_j, and
    ``rows[k]`` holds the (j, lam_kj / g_j) pairs of row k's nonzero
    entries.  With g_j^2 / (d_j d_{j+1}) = a_j / s_j in lowest terms,
    P = lcm_j s_j and w_j = a_j P / s_j, an integer, so that

        P ||sum_k x_k b_k||^2 = sum_j w_j (D_j x_j + sum_(k>j) x_k lam_kj / g_j)^2.

    Each s_j divides d_j d_{j+1}, so P divides lcm_j(d_j d_{j+1}).
    """
    r = range(len(lam))
    nz = [list(compress(r, row)) for row in lam]
    g = d[1:]
    for row, js in zip(lam, nz):
        for j in js:
            g[j] = gcd(g[j], row[j])
    rows = [[(j, row[j] // g[j]) for j in js] for row, js in zip(lam, nz)]
    D = [dj // gj for dj, gj in zip(d[1:], g)]
    den = [dj * q for dj, q in zip(d, D)]  # g_j^2 / (d_j d_{j+1}) = g_j / (d_j D_j)
    P = lcm(*(dn // gcd(gj, dn) for gj, dn in zip(g, den)))
    return P, [P * gj // dn for gj, dn in zip(g, den)], D, rows


def _enumerate(
    lam: list[list[int]],
    d: list[int],
    radius: int,
    budget: int,
    shortest: bool,
    n: int = 1,
) -> tuple[int, list[tuple[int, tuple[int, ...]]]]:
    """One sign-symmetric depth-first walk over coefficient vectors with norm^2 <= radius.

    Walks the integral GSO (lam, d) on the least common integer scale P of
    :func:`_walk_scale`: with c_i = sum_(k>i) x_k lam_ki / g_i, level i adds
    w_i (D_i x_i + c_i)^2, and a leaf's rho is P times its norm^2, so the
    walk never leaves the integers.  Level i's candidates are the x_i with
    |D_i x_i + c_i| <= isqrt((bound - rho) // w_i), the exact solutions of
    w_i (D_i x_i + c_i)^2 <= bound - rho.  Every test is the rational
    inequality that any common scale gives, so the tree, its order and its
    node counts do not depend on P.  While ``sym`` (all x_k above level i
    zero) c_i = 0 and only x_i >= 0 is walked.  Each kept leaf charges the
    kept set n entries per vector it stands for (n the ambient dimension;
    1 counts vectors), and a set past ``WALK_OUTPUT_CAP`` entries raises
    OutputTooLarge with the count and the radius at the time.

    Returns ``(radius, leaves)``, leaves as ``(norm_sq, coeffs)``; a leaf of
    positive norm stands for v and -v.  Without ``shortest`` all leaves in
    the radius are kept, zero once.  With it zero is skipped and a shorter
    leaf tightens the radius, dropping the leaves kept so far; a candidate
    of the interval taken before a deeper leaf tightened it can then land
    past the new bound, so ``rho2 > bound`` is tested and skips it.  A node
    is one candidate coefficient, (plain-walk nodes + rank) / 2 at a fixed
    radius; over ``budget`` nodes raise EnumerationBudgetExceeded.  A
    forced zero, a level with centre 0 and ``bound - rho < PB[i] = P B_i``
    (isqrt(t) < D_i iff t < D_i^2), has the one candidate 0, which changes
    neither rho nor acc: ``rec`` steps down a run of them in one loop, one
    node per level, so every count and budget edge stays.
    """
    m = len(d) - 1
    x = [0] * m
    P, w, D, rows = _walk_scale(lam, d)
    PB = [wi * q * q for wi, q in zip(w, D)]
    levels = list(zip(D, w, rows))
    bound = radius * P
    left, kept = budget, 0
    leaves: list[tuple[int, tuple[int, ...]]] = []

    def rec(i: int, rho: int, acc: list[int], sym: bool) -> None:
        nonlocal bound, left, kept
        rem = bound - rho
        while i >= 0 and not acc[i] and rem < PB[i]:
            left -= 1
            if left < 0:
                raise EnumerationBudgetExceeded(budget)
            i -= 1
        if i < 0:
            if shortest:
                if not rho:
                    return
                if rho < bound:
                    bound = rho
                    leaves.clear()
                    kept = 0
            kept += 2 * n if rho else n
            if kept > WALK_OUTPUT_CAP:
                raise OutputTooLarge(
                    f"walk keeps {kept} entries > output cap {WALK_OUTPUT_CAP}"
                    f" at squared radius {bound // P}"
                )
            leaves.append((rho // P, tuple(x)))
            return
        c = acc[i]
        q, wi, row = levels[i]
        r = isqrt(rem // wi)
        for xi in range(0 if sym else -((r + c) // q), (r - c) // q + 1):
            left -= 1
            if left < 0:
                raise EnumerationBudgetExceeded(budget)
            e = xi * q + c
            rho2 = rho + wi * e * e
            if rho2 > bound:
                continue
            x[i] = xi
            if xi:
                acc2 = acc[:i]
                for j, v in row:
                    acc2[j] += xi * v
                rec(i - 1, rho2, acc2, False)
            else:
                # levels below i only read acc[:i] and copy before they write
                rec(i - 1, rho2, acc, sym)
        x[i] = 0

    rec(m - 1, 0, [0] * m, True)
    return bound // P, leaves


def _vectors(L: Lattice, R: int | None, budget: int) -> tuple[int, list[IntVec]]:
    """``(radius, vectors)`` sorted by norm, then value; ``R=None`` asks for the shortest.

    A rank above ``WALK_RANK_CAP`` raises RankTooLarge first, and a walk
    that would keep more than ``WALK_OUTPUT_CAP`` entries of these vectors
    raises OutputTooLarge before they are built.  One LLL
    call, through the module-level name, so callers that wrap it to time
    LLL see every reduction.  Each leaf is rebuilt over its nonzero
    coefficients and the nonzero entries of their reduced columns only.
    """
    if L.rank > WALK_RANK_CAP:
        raise RankTooLarge(f"rank {L.rank} > walk cap {WALK_RANK_CAP}")
    reduced, lam, d = lll_reduce(L)
    shortest = R is None
    r0 = min(sum(e * e for e in col) for col in reduced) if shortest else R
    R, leaves = _enumerate(lam, d, r0, budget, shortest, L.n)
    sparse = [[(t, e) for t, e in enumerate(col) if e] for col in reduced]
    out = []
    for norm, coeffs in leaves:
        v = [0] * L.n
        for xi, col in compress(zip(coeffs, sparse), coeffs):
            for t, e in col:
                v[t] += xi * e
        out.append((norm, tuple(v)))
        if norm:
            out.append((norm, tuple(map(neg, v))))
    out.sort()
    return R, [v for _, v in out]


# Exact shortest-vector data: squared length, kissing number, full set.
# ``kissing`` counts signed vectors (v and -v separately); ``vectors`` is
# canonically ordered (ascending lexicographic).
ShortVectorReport = namedtuple("ShortVectorReport", "lambda1_sq kissing vectors")


def shortest_vectors(L: Lattice, budget: int = DEFAULT_BUDGET) -> ShortVectorReport:
    """Exact lambda_1^2 and the complete set of vectors achieving it.

    Fincke-Pohst after LLL(99/100) in one walk: the radius starts at the
    smallest reduced basis-vector norm and tightens to each shorter nonzero
    vector found, dropping the vectors kept at the old radius.
    """
    if L.rank == 0:
        raise ZeroRank("shortest vector of a rank-0 lattice")
    lam1, found = _vectors(L, None, budget)
    return ShortVectorReport(lambda1_sq=lam1, kissing=len(found), vectors=tuple(found))


def vectors_up_to(L: Lattice, R: int, budget: int = DEFAULT_BUDGET) -> list[IntVec]:
    """All lattice vectors with squared norm <= R (zero vector included)."""
    if R < 0:
        raise ValueError("radius must be >= 0")
    return _vectors(L, R, budget)[1]


# ---------------------------------------------------------------------------
# norms and exact l_p comparisons
# ---------------------------------------------------------------------------

def lp_norm(v: Sequence[int], p) -> int:
    """Sigma |v_i|^p for an integer p >= 1, reported as the p-th power (no roots taken).

    Fractional p raises ``ValueError``: that sum is irrational in general,
    so compare it exactly with :func:`lp_power_sum_cmp` instead.
    """
    pf = Fraction(p)
    if pf < 1:
        raise ValueError("p must be >= 1")
    if pf.denominator != 1:
        raise ValueError("lp_norm needs an integer p; use lp_power_sum_cmp for fractional p")
    return sum(abs(x) ** pf.numerator for x in v)


def iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for x >= 0, k >= 1, exact (Newton on integers).

    The seed is 1 + the bisected root of x >> s*k, shifted back by s, with s
    chosen so that about 8 + k.bit_length() root bits are bisected.  It
    lies above the root by a relative error below 1/(64 k), inside the
    range where Newton's step is quadratic (each step from a relative error
    e leaves about k e^2 / 2), so Newton descends straight to the floor,
    doubling the correct bits each step, whatever the size of k.
    """
    if x < 0 or k < 1:
        raise ValueError("iroot needs x >= 0, k >= 1")
    if x == 0 or k == 1:
        return x
    s = max(0, -(-x.bit_length() // k) - 8 - k.bit_length())
    y = x >> (s * k)
    lo, hi = 0, 1 << (-(-y.bit_length() // k))  # lo**k <= y < hi**k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**k <= y else (lo, mid)
    r = hi << s
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


def lp_power_sum_brackets(entries: Sequence[int], p):
    """Dyadic brackets (lo, hi, prec) with lo <= S * 2^prec <= hi, where
    S = Sigma |e_i|^p for rational p = u/v >= 1, at prec = 16, 32, 64, ...

    Each distinct |e|^u is rooted once, to index v, and weighted by its
    count.  lo == hi exactly when every term is a perfect v-th power (always
    for an integer p); otherwise S is irrational and lies strictly inside.
    A p < 1 raises ``ValueError`` when the first bracket is drawn.
    """
    pf = Fraction(p)
    if pf < 1:
        raise ValueError("p must be >= 1")
    u, v = pf.numerator, pf.denominator
    counts = Counter(abs(int(e)) ** u for e in entries if e)
    prec = 16
    while True:
        lo = hi = 0
        for P, c in counts.items():
            x = P << prec * v
            r = iroot(x, v)
            lo, hi = lo + c * r, hi + c * (r + (r**v != x))
        yield lo, hi, prec
        prec *= 2


def lp_power_sum_cmp(entries: Sequence[int], p, threshold) -> int:
    """Exact sign of (Sigma |e_i|^p) - threshold for rational p >= 1.

    Reads :func:`lp_power_sum_brackets` until one bracket lies strictly on
    one side of the threshold, or is exact.  This terminates because a sum
    of real radicals of integers can only equal the rational threshold when
    every term is itself rational, and then the first bracket is exact.
    """
    thr = Fraction(threshold)
    for lo, hi, prec in lp_power_sum_brackets(entries, p):
        t = thr.numerator << prec
        lo, hi = lo * thr.denominator, hi * thr.denominator
        if lo > t or hi < t or lo == hi:
            return (lo > t) - (hi < t)


def scale(L: Lattice, s: int) -> Lattice:
    """The lattice s*L for a positive integer s, with no HNF pass: s times
    a canonical HNF is canonical, with positive pivots s*p in the same rows
    and each entry s*h left of a pivot in [0, s*p)."""
    if s < 1:
        raise ValueError("scale factor must be a positive integer")
    return Lattice(L.n, tuple(tuple(s * e for e in col) for col in L.basis), L.pivots)


def adjugate_solve(L: Lattice, v: Sequence[int]) -> tuple[int, list[int], list[int]]:
    """(D, X, w) with H X + w = D v, D the product of the HNF pivots.

    (X, w) is the :func:`_residue` of D v.  On the pivot rows H is lower
    triangular with det D, so X = adj(H_I) v_I there and w is zero on
    them.  X and w are linear in v, and v lies in L iff D divides every
    X_i and w = 0: batches of membership tests become sums of these keys,
    which the sign-pattern search joins meet-in-the-middle.  At full rank
    D = det(L) and w = 0.  Only the nonzero entries of v are scaled by D, so
    the key of a unit vector costs one product before the reduction.
    """
    if L.rank == 0:
        raise ZeroRank("adjugate solve of a rank-0 lattice")
    if len(v) != L.n:
        raise DimensionMismatch(f"vector length {len(v)} != ambient {L.n}")
    D = prod(map(getitem, L.basis, L.pivots))
    Dv = [0] * L.n
    for t in compress(range(L.n), v):
        Dv[t] = D * v[t]
    X, w = _residue(L.basis, L.pivots, Dv)
    if any(map(w.__getitem__, L.pivots)):
        raise ArithmeticError("adjugate solve lost integrality (bug)")
    return D, X, w
