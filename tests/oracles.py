"""Exact brute-force references, independent of the package internals.

Everything here works from first principles on plain integer column lists:
Gaussian elimination over Fraction, pseudo-inverse coefficient bounds, and
box enumeration.  Deliberately no reuse of the package's HNF or GSO code,
except in the references at the end: they are the package's former d-bar
all-codeword span and exhaustive coset walk, and its former 2^k sweeps of
the Thm 2.2 and Thm 2.4 gadget hypotheses, kept as they were so that the
monomial span, the counting decision and the F2 solves that replaced them
have an independent path to match, its former one-word Gray sweep for
the minimum-weight words, which the bit-sliced sweep must match, its
former plain Fincke-Pohst walk, whose leaves and node count the
sign-symmetric walk must match, its former level-by-level sign-symmetric
walk, whose leaves and node count the walk that skips forced-zero levels
in one loop must match (both walk the former full scale
P = lcm_i(d_i d_{i+1}) through the former closed-form coefficient
interval, so they also check the walk on the least common scale), its
former dense integral GSO loop and
the LLL run on it, whose integers the row-by-row GSO and LLL must match
exactly, its former per-coordinate shift loop of ``BinaryVector.coords``,
which the one read of the bit layout must match, its former tuple-keyed
sign walk, which the packed-int walk must match, and its former count of
the thm24 replication minimum one m at a time and its former galloping
search for that minimum, which the floor read off one bracketed power sum
must match, its former integer k-th root from a bit-length seed, which the
bisection-seeded root must match,
its former ripple-carry chunks of the bit-sliced sweep, whose weight
planes the carry-save planes must match at every position, and its former
HNF elimination, which combines every pivot pair on all n rows and whose
basis and pivots the one that leaves a dividing pivot alone must match,
its former Z matrix writer, one ``str`` per entry, whose text the bulk
digit writer must match byte for byte, and its former reduced echelon
form, a pivot map then a pairwise sweep over every pivot pair, whose
canonical tuple the reduction driven by carried leading bits must match,
and its former pivot dict keyed by leading bit, with the reduced echelon
form and the rank, solve, completion and kernel built on it, whose answers
the dense pivot table must match.
"""

import random
from fractions import Fraction
from itertools import product
from math import isqrt, lcm

from codelattice.constructions import d_bar_member
from codelattice.errors import EnumerationBudgetExceeded, QuotientTooLarge
from codelattice.gf2core import BinaryMatrix, BinaryVector
from codelattice.zlattice import Lattice, _residue, _xgcd, lp_power_sum_cmp

# Most cosets the exhaustive d-bar walk below visits
WALK_COSET_CAP = 1 << 20


def frac_solve(A, rhs):
    """Solve A x = rhs exactly (A square nonsingular, Fractions)."""
    m = len(A)
    M = [[Fraction(A[i][j]) for j in range(m)] + [Fraction(rhs[i])] for i in range(m)]
    for col in range(m):
        piv = next(r for r in range(col, m) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [e * inv for e in M[col]]
        for r in range(m):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [M[i][m] for i in range(m)]


def gram(cols):
    return [[sum(a * b for a, b in zip(ci, cj)) for cj in cols] for ci in cols]


def frac_det(A):
    """Determinant by fraction-based elimination."""
    m = len(A)
    M = [[Fraction(A[i][j]) for j in range(m)] for i in range(m)]
    det = Fraction(1)
    for col in range(m):
        piv = next((r for r in range(col, m) if M[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det *= M[col][col]
        inv = 1 / M[col][col]
        for r in range(col + 1, m):
            if M[r][col]:
                f = M[r][col] * inv
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return det


def pinv_rows(cols):
    """Rows of (B^T B)^{-1} B^T for independent columns B, exact."""
    G = gram(cols)
    m = len(cols)
    n = len(cols[0])
    ginv_cols = []
    for j in range(m):
        e = [Fraction(i == j) for i in range(m)]
        ginv_cols.append(frac_solve(G, e))
    # row i of P is sum_j Ginv[i][j] * col_j transposed
    rows = []
    for i in range(m):
        rows.append(
            [sum(ginv_cols[j][i] * Fraction(cols[j][t]) for j in range(m)) for t in range(n)]
        )
    return rows


def coeff_bounds(cols, R):
    """Per-coefficient bounds: |x_i| <= sqrt(rowsq_i * R), exact floor."""
    rows = pinv_rows(cols)
    bounds = []
    for row in rows:
        rowsq = sum(e * e for e in row)
        cap = rowsq * R
        bounds.append(isqrt(cap.numerator // cap.denominator))
    return bounds


def box_vectors(cols, R):
    """All integer-combination vectors of norm^2 <= R, sorted (norm, lex).

    Requires independent columns.  Complete: any v = B x with ||v||^2 <= R
    has x = P v, so |x_i| <= ||P_i|| * ||v||.
    """
    if not cols:
        return []
    n = len(cols[0])
    bounds = coeff_bounds(cols, R)
    out = []
    for x in product(*[range(-b, b + 1) for b in bounds]):
        v = tuple(sum(x[i] * cols[i][t] for i in range(len(cols))) for t in range(n))
        nrm = sum(e * e for e in v)
        if nrm <= R:
            out.append((nrm, v))
    out.sort()
    return out


def reduce_columns(cols):
    """Greedy pairwise size reduction (integer, unimodular column ops).

    Shrinks the coefficient box dramatically on skewed bases while spanning
    the same lattice; deliberately not the package's reduction code.
    """
    cs = [list(c) for c in cols]

    def norm(c):
        return sum(e * e for e in c)

    changed = True
    while changed:
        changed = False
        cs.sort(key=norm)
        for i in range(len(cs)):
            ni = norm(cs[i])
            if ni == 0:
                continue
            for j in range(len(cs)):
                if i == j:
                    continue
                dot = sum(a * b for a, b in zip(cs[i], cs[j]))
                q = (2 * dot + ni) // (2 * ni)  # nearest integer to dot/ni
                if q:
                    cand = [a - q * b for a, b in zip(cs[j], cs[i])]
                    if norm(cand) < norm(cs[j]):
                        cs[j] = cand
                        changed = True
    return cs


def box_member(cols, v):
    """Exact membership of v in the integer span of independent columns."""
    G = gram(cols)
    rhs = [sum(Fraction(c[t]) * v[t] for t in range(len(v))) for c in cols]
    x = frac_solve(G, rhs)
    if any(e.denominator != 1 for e in x):
        return False
    n = len(v)
    recon = [sum(int(x[i]) * cols[i][t] for i in range(len(cols))) for t in range(n)]
    return tuple(recon) == tuple(v)


def _frac_gso(cols):
    """Exact Gram-Schmidt data (mu, squared norms) for independent columns."""
    m = len(cols)
    n = len(cols[0]) if m else 0
    mu = [[Fraction(0)] * m for _ in range(m)]
    B = [Fraction(0)] * m
    bstar = []
    for i in range(m):
        v = [Fraction(x) for x in cols[i]]
        for j in range(i):
            num = Fraction(0)
            cj = bstar[j]
            ci = cols[i]
            for t in range(n):
                if cj[t]:
                    num += ci[t] * cj[t]
            mij = num / B[j]
            mu[i][j] = mij
            if mij:
                v = [v[t] - mij * cj[t] for t in range(n)]
        bstar.append(v)
        B[i] = sum(x * x for x in v)
        mu[i][i] = Fraction(1)
    return mu, B


def frac_lll(cols, delta):
    """LLL over ``fractions.Fraction``: the reference for the integral LLL.

    Same decision order as the package: size-reduce k against k-1 .. 0,
    then test the Lovasz condition, swap and step back on failure.
    """
    delta = Fraction(delta)
    m = len(cols)
    if m <= 1:
        return [tuple(c) for c in cols]
    n = len(cols[0])
    basis = [list(c) for c in cols]
    mu, B = _frac_gso(basis)
    half = Fraction(1, 2)

    def size_reduce(k, j):
        mkj = mu[k][j]
        if mkj > half or mkj < -half:
            q = (mkj + half).__floor__()
            if q:
                bj = basis[j]
                bk = basis[k]
                for t in range(n):
                    bk[t] -= q * bj[t]
                mu[k][j] -= q
                mrow_k, mrow_j = mu[k], mu[j]
                for i in range(j):
                    if mrow_j[i]:
                        mrow_k[i] -= q * mrow_j[i]

    k = 1
    while k < m:
        for j in range(k - 1, -1, -1):
            size_reduce(k, j)
        if B[k] >= (delta - mu[k][k - 1] ** 2) * B[k - 1]:
            k += 1
            continue
        basis[k - 1], basis[k] = basis[k], basis[k - 1]
        mu_old = mu[k][k - 1]
        Bnew = B[k] + mu_old * mu_old * B[k - 1]
        mu[k][k - 1] = mu_old * B[k - 1] / Bnew
        B[k] = B[k - 1] * B[k] / Bnew
        B[k - 1] = Bnew
        for j in range(k - 1):
            mu[k - 1][j], mu[k][j] = mu[k][j], mu[k - 1][j]
        for i in range(k + 1, m):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - mu_old * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
        k = max(k - 1, 1)
    return [tuple(c) for c in basis]


def dbar_span_all_codewords(T):
    """The Z-span of the d-bar set sum from every embedded codeword."""
    n, a = T.n, T.a
    gens = [tuple(2**a if t == i else 0 for t in range(n)) for i in range(n)]
    for idx, level in enumerate(T.levels):
        f = 2 ** (a - (idx + 1))
        for c in level.codewords():
            if not c.is_zero():
                gens.append(tuple(f * e for e in c.coords()))
    return Lattice.from_generators(n, gens)


def dbar_walk_is_lattice(T):
    """Decide d-bar latticehood by walking every coset of L' / 2^a Z^n.

    Returns ``(True, None)`` or ``(False, witness)``, the first coset in
    HNF digit order that digit peeling rejects.
    """
    n, a = T.n, T.a
    L = dbar_span_all_codewords(T)
    mod = 2**a
    radii = []
    for j in range(n):
        p = L.basis[j][j]
        if mod % p:
            raise ArithmeticError("pivot does not divide 2^a (bug)")
        radii.append(mod // p)
    count = 1
    for r in radii:
        count *= r
        if count > WALK_COSET_CAP:
            raise QuotientTooLarge(f"quotient exceeds {WALK_COSET_CAP} cosets")
    for digits in product(*[range(r) for r in radii]):
        rep = [0] * n
        for j, x in enumerate(digits):
            if x:
                col = L.basis[j]
                for t in range(j, n):
                    rep[t] += x * col[t]
        rep = [e % mod for e in rep]
        if d_bar_member(T, rep) is False:
            return False, tuple(rep)
    return True, None


def thm22_mod4_sweep(g):
    """Item 3 of the Thm 2.2 hypotheses by sweeping every offset t in {0,1}^k.

    Returns ``(ok, witness)``: the first y = w + 2t, in the order of t's
    bits, whose B-lift vanishes mod 4.
    """
    k = g.k
    brows = g.B.to_rows()
    wc = g.w.coords()
    mod4_ok = True
    mod4_witness = None
    for bits in range(1 << k):
        y = [wc[j] + 2 * ((bits >> j) & 1) for j in range(k)]
        if all(sum(r[j] * y[j] for j in range(k)) % 4 == 0 for r in brows):
            mod4_ok = False
            mod4_witness = {"y": y}
            break
    return mod4_ok, mod4_witness


def thm24_kernel_walk(g, kerA, dB):
    """The Thm 2.4 "outside kernel" hypothesis by a Gray walk over ker(A).

    ``kerA`` is a basis of ker(A) and ``dB`` the distance of C(B).  Returns
    ``(ok, witness)``: the first x of the walk with 0 < wt(Bx) <= dB.
    """
    out_witness = None
    cur = BinaryVector(g.ell, 0)
    for t in range(1, 1 << len(kerA)):
        cur = cur + kerA[(t & -t).bit_length() - 1]
        bx = g.B.mul(cur)
        if not bx.is_zero() and bx.weight <= dB:
            out_witness = {"x": cur.coords(), "Bx_weight": bx.weight}
            break
    return out_witness is None, out_witness


def min_weight_words_gray(code):
    """Sorted backing ints of the minimum-weight words, one word per step.

    The Gray walk over all 2^k codewords that ``Code._min_weight_bits``
    ran before the bit-sliced sweep replaced it.
    """
    basis = code.words
    word = 0
    best = code.n + 1
    found = []
    for i in range(1, 1 << len(basis)):
        word ^= basis[(i & -i).bit_length() - 1]
        w = word.bit_count()
        if w > best:
            continue
        if w < best:
            best = w
            found = []
        found.append(word)
    found.sort()
    return tuple(found)


def _coeff_interval(N, q, t):
    """All integers x with (x*q - N)^2 <= t (q > 0), as [lo, hi]; empty iff lo > hi.

    Closed form, exact: the condition is |x*q - N| <= r = isqrt(t).  The
    package's walk computes the same interval inline.
    """
    if t < 0:
        return 1, 0
    r = isqrt(t)
    return -((r - N) // q), (N + r) // q


def fincke_pohst_plain(lam, d, radius, shortest):
    """``(radius, leaves, nodes)`` of the plain Fincke-Pohst walk.

    The walk ``zlattice._enumerate`` ran before it became sign-symmetric:
    every coefficient interval is walked in full, so each nonzero vector is
    reached twice, once as v and once as -v.  ``nodes`` counts one per
    candidate coefficient, the unit the package's budget counts.
    """
    m = len(d) - 1
    x = [0] * m
    P = 1
    for i in range(m):
        P = lcm(P, d[i] * d[i + 1])
    w = [P // (d[i] * d[i + 1]) for i in range(m)]
    bound = radius * P
    nodes = 0
    leaves = []
    nz = [[j for j in range(i) if lam[i][j]] for i in range(m)]

    def rec(i, rho, acc):
        nonlocal bound, nodes
        if i < 0:
            if shortest:
                if not rho:
                    return
                if rho < bound:
                    bound = rho
                    leaves.clear()
            leaves.append((rho // P, tuple(x)))
            return
        N, q, wi = -acc[i], d[i + 1], w[i]
        lo, hi = _coeff_interval(N, q, (bound - rho) // wi)
        for xi in range(lo, hi + 1):
            nodes += 1
            e = xi * q - N
            rho2 = rho + wi * e * e
            if rho2 > bound:
                continue
            x[i] = xi
            acc2 = acc[:i]
            if xi:
                lrow = lam[i]
                for j in nz[i]:
                    acc2[j] += xi * lrow[j]
            rec(i - 1, rho2, acc2)
        x[i] = 0

    rec(m - 1, 0, [0] * m)
    return bound // P, leaves, nodes


def fincke_pohst_levelwise(lam, d, radius, budget, shortest):
    """``(radius, leaves, nodes)`` of the sign-symmetric walk, one level per call.

    ``zlattice._enumerate`` as it was before it skipped forced-zero levels
    in one loop: every level, forced or not, takes its own interval and
    its own call.  Over ``budget`` nodes raise EnumerationBudgetExceeded;
    ``nodes`` is the count of a walk that finishes.
    """
    m = len(d) - 1
    x = [0] * m
    P = lcm(*(d[i] * d[i + 1] for i in range(m)))
    w = [P // (d[i] * d[i + 1]) for i in range(m)]
    bound = radius * P
    left = budget
    leaves = []
    nz = [[j for j in range(i) if lam[i][j]] for i in range(m)]

    def rec(i, rho, acc, sym):
        nonlocal bound, left
        if i < 0:
            if shortest:
                if not rho:
                    return
                if rho < bound:
                    bound = rho
                    leaves.clear()
            leaves.append((rho // P, tuple(x)))
            return
        N, q, wi = -acc[i], d[i + 1], w[i]
        lrow, cols = lam[i], nz[i]
        lo, hi = _coeff_interval(N, q, (bound - rho) // wi)
        for xi in range(0 if sym else lo, hi + 1):
            left -= 1
            if left < 0:
                raise EnumerationBudgetExceeded(budget)
            e = xi * q - N
            rho2 = rho + wi * e * e
            if rho2 > bound:
                continue
            x[i] = xi
            if xi:
                acc2 = acc[:i]
                for j in cols:
                    acc2[j] += xi * lrow[j]
                rec(i - 1, rho2, acc2, False)
            else:
                rec(i - 1, rho2, acc, sym)
        x[i] = 0

    rec(m - 1, 0, [0] * m, True)
    return bound // P, leaves, budget - left


def integral_gso_dense(G):
    """Integral GSO ``(lam, d)`` of Cohen Alg. 2.6.7 by the dense loop.

    The package's first GSO loop: every product lam_ki lam_ji is taken,
    zero or not, on the columns in their given order.
    """
    m = len(G)
    d = [1] * (m + 1)
    lam = [[0] * m for _ in range(m)]
    for k in range(m):
        gk, lk = G[k], lam[k]
        for j in range(k + 1):
            u = gk[j]
            lj = lam[j]
            for i in range(j):
                u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]
            if j < k:
                lk[j] = u
            else:
                d[k + 1] = u
    return lam, d


def lll_dense_gso(basis, delta):
    """``(basis, lam, d)``: fraction-free LLL from a GSO computed up front.

    The package's former ``_lll``: :func:`integral_gso_dense` of the whole
    Gram matrix first, then the same loop (size-reduce k against
    k-1 .. 0, Lovasz test, Cohen's SWAPI on every later row, step back).
    """
    delta = Fraction(delta)
    dp, dq = delta.numerator, delta.denominator
    m = len(basis)
    basis = [list(c) for c in basis]
    lam, d = integral_gso_dense(gram(basis))
    k = 1
    while k < m:
        bk, lk = basis[k], lam[k]
        for j in range(k - 1, -1, -1):
            lkj, dj = lk[j], d[j + 1]
            if 2 * abs(lkj) > dj:
                q = (2 * lkj + dj) // (2 * dj)
                bk = [x - q * y for x, y in zip(bk, basis[j])]
                lk[j] = lkj - q * dj
                for i in range(j):
                    lk[i] -= q * lam[j][i]
        basis[k] = bk
        lkk = lk[k - 1]
        if dq * (d[k + 1] * d[k - 1] + lkk * lkk) >= dp * d[k] * d[k]:
            k += 1
            continue
        basis[k - 1], basis[k] = bk, basis[k - 1]
        lam[k][:k - 1], lam[k - 1][:k - 1] = lam[k - 1][:k - 1], lam[k][:k - 1]
        dk, dk1 = d[k], d[k + 1]
        dnew = (d[k - 1] * dk1 + lkk * lkk) // dk
        for li in lam[k + 1:]:
            t = li[k]
            li[k] = (dk1 * li[k - 1] - lkk * t) // dk
            li[k - 1] = (dnew * t + lkk * li[k]) // dk1
        d[k] = dnew
        k = max(k - 1, 1)
    return tuple(map(tuple, basis)), lam, d


def min_m_linear(z, p, dA, dB):
    """The least m >= dA with sum |z_i|^p < dA + m*dB, counted up one at a time.

    The package's first ``_minimum_replication`` loop.  An integer p
    compares one exact sum, so p = 20 (m = 2^20 on cor25) stays quick;
    a fractional p takes the package's exact comparison.
    """
    p = Fraction(p)
    if p.denominator == 1:
        s = sum(abs(e) ** p.numerator for e in z)
        below = lambda t: s < t
    else:
        below = lambda t: lp_power_sum_cmp(z, p, t) < 0
    m = dA
    while not below(dA + m * dB):
        m += 1
    return m


def min_m_gallop(z, p, dA, dB):
    """The least m >= dA with sum |z_i|^p < dA + m*dB, by exact comparisons.

    The package's former ``_minimum_replication`` search for a fractional
    p: "sum below dA + m*dB" is monotone in m, so it gallops up from dA
    and then bisects, re-comparing the whole sum at every m it tries.
    """
    p = Fraction(p)

    def enough(m):
        return lp_power_sum_cmp(z, p, dA + m * dB) < 0

    lo, step = dA - 1, 1  # every m <= lo is below dA or fails the test
    while not enough(lo + step):
        lo, step = lo + step, 2 * step
    hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if enough(mid) else (mid, hi)
    return hi


def iroot_bit_length_seed(x, k):
    """floor(x ** (1/k)) by Newton from 2^ceil(bits(x)/k), the package's former ``iroot``.

    The seed can be twice the root, and while Newton is far above the root
    each step shrinks it only by a factor (k - 1) / k, so large k is slow.
    """
    if x == 0 or k == 1:
        return x
    r = 1 << (-(-x.bit_length() // k))
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    return r


def coords_shift_loop(v):
    """``v.coords()`` as the package first computed it: one shift per coordinate."""
    n = v.n
    return tuple((v.bits >> (n - 1 - i)) & 1 for i in range(n))


def sign_walk_tuples(Q, x_plus, cols2):
    """The sign patterns S with x_plus - sum_{b in S} cols2[b] = 0 mod Q, ascending.

    ``gadgets._sign_walk`` as it was before its keys were packed into ints:
    the same Horowitz-Sahni join, with every subset sum a tuple of residues
    mod Q.
    """
    h = len(cols2) // 2

    def subset_sums(start, cols):
        # sums[mask]: start plus the columns picked by mask; the sums with
        # bit j set are the earlier ones plus column j
        sums = [start]
        for col in cols:
            sums += [tuple((a + c) % Q for a, c in zip(s, col)) for s in sums]
        return sums

    lows = {}
    neg_low = [tuple(-c % Q for c in col) for col in cols2[:h]]
    for lo, r in enumerate(subset_sums(x_plus, neg_low)):
        lows.setdefault(r, []).append(lo)
    zero = (0,) * len(x_plus)
    return [
        lo | hi << h
        for hi, s in enumerate(subset_sums(zero, cols2[h:]))
        for lo in lows.get(s, ())
    ]


def _add_ripple(planes, x):
    """Add a 0/1 per position into bit-sliced counters, rippling the carry."""
    for b, p in enumerate(planes):
        planes[b] = p ^ x
        x &= p
        if not x:
            return
    planes.append(x)


def chunks_ripple(n, basis, c):
    """``gf2core._chunks`` as it was before its planes were summed carry-save.

    The same chunks ``(offset, const, planes, full)`` of 2^c words in Gray
    order of the high words, with the same weight const + planes value at
    every position; each coordinate int that varies is added into a copy
    of the base planes by a ripple-carry counter, two big-int operations
    per plane it passes.  Here const counts only the offset's bits on
    coordinates no low word sets, so it is never negative.
    """
    low, high = basis[:c], basis[c:]
    c = len(low)
    pattern = []
    for j in range(c):
        m = ((1 << (1 << j)) - 1) << (1 << j)
        for b in range(j + 1, c):
            m |= m << (1 << b)
        pattern.append(m)
    full = (1 << (1 << c)) - 1
    touched = 0
    for h in high:
        touched |= h
    base = []
    varying = []
    constant = 0
    for t in range(n):
        x = 0
        for j, w in enumerate(low):
            if w >> t & 1:
                x ^= pattern[j]
        if not touched >> t & 1:
            if x:
                _add_ripple(base, x)
        elif x:
            varying.append((t, x))
        else:
            constant |= 1 << t
    offset = 0
    for g in range(1 << len(high)):
        if g:
            offset ^= high[(g & -g).bit_length() - 1]
        planes = base.copy()
        for t, x in varying:
            _add_ripple(planes, x ^ full if offset >> t & 1 else x)
        yield offset, (offset & constant).bit_count(), planes, full


def hnf_columns_dense(n, columns):
    """``zlattice._hnf_columns`` as it was before a dividing pivot was left alone.

    Every pivot pair (u, v) at row r is combined through ``_xgcd`` on all n
    rows, into a new pivot x u + y v and a new v with v[r] = 0, even when
    u[r] divides v[r] and the new pivot is +-u.
    """
    piv = {}
    for col in columns:
        v = list(col)
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
            aa, bb = a // g, b // g
            piv[r] = [x * u[t] + y * v[t] for t in range(n)]
            v = [aa * v[t] - bb * u[t] for t in range(n)]
            r += 1
    order = sorted(piv)
    basis = [piv[r] for r in order]
    for j, r in enumerate(order):
        if basis[j][r] < 0:
            basis[j] = [-e for e in basis[j]]
    basis = [_residue(basis[i + 1:], order[i + 1:], basis[i])[1] for i in range(len(order))]
    return tuple(map(tuple, basis)), tuple(order)


def format_z_matrix_entrywise(rows, columns):
    """The Z matrix text, one ``str`` per entry.

    ``matio.format_z_matrix`` as it was before the bulk digit path.
    """
    cols = len(columns)
    lines = [f"{rows} {cols} Z"]
    for r in range(rows):
        lines.append(" ".join(str(col[r]) for col in columns))
    return "\n".join(lines) + "\n"


def reduced_echelon_pivot_sweep(vecs):
    """Canonical reduced echelon basis of the span, sorted descending.

    ``gf2core._reduced_echelon`` as it was before the reduction driven by
    carried leading bits: the pivot map of ``gf2core._echelon``, written
    out here, then every pivot cleared from every other pivot row.
    """
    pivots = {}
    for v in vecs:
        while v:
            p = pivots.get(v.bit_length() - 1)
            if p is None:
                pivots[v.bit_length() - 1] = v
                break
            v ^= p
    for h in sorted(pivots, reverse=True):
        v = pivots[h]
        for g in pivots:
            if g != h and (pivots[g] >> h) & 1:
                pivots[g] ^= v
    return tuple(sorted(pivots.values(), reverse=True))


def reduce_pivot_dict(bits, pivots):
    """Reduce an integer bitset against pivot rows keyed by leading bit position.

    This and the pivot-dict functions below are ``gf2core``'s elimination
    as it was before the dense pivot table: ``_reduce``, ``_echelon``,
    ``_reduced_echelon``, ``rank``, ``kernel_basis``, ``solve`` and
    ``complete_to_full_rank``.
    """
    while bits:
        h = bits.bit_length() - 1
        p = pivots.get(h)
        if p is None:
            return bits
        bits ^= p
    return 0


def echelon_pivot_dict(vecs):
    """Pivot map (leading-bit position -> vector) for the span of ``vecs``."""
    pivots = {}
    for v in vecs:
        r = reduce_pivot_dict(v, pivots)
        if r:
            pivots[r.bit_length() - 1] = r
    return pivots


def reduced_echelon_pivot_dict(vecs):
    """Canonical reduced echelon basis of the span, sorted descending."""
    rows = {}  # leading bit position -> reduced row, ascending
    leads = 0
    for h, v in sorted(echelon_pivot_dict(vecs).items()):
        hits = v & leads
        while hits:
            g = hits.bit_length() - 1
            v ^= rows[g]
            hits ^= 1 << g
        rows[h] = v
        leads |= 1 << h
    return tuple(rows.values())[::-1]


def rank_pivot_dict(M):
    """F2-rank of the matrix."""
    return len(echelon_pivot_dict(M.cols))


def kernel_basis_pivot_dict(M):
    """Basis of {x in F2^k : Mx = 0}, reduced echelon, ascending."""
    k = M.k
    rows = reduced_echelon_pivot_dict(BinaryVector.from_coords(row).bits for row in M.to_rows())
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


def solve_pivot_dict(M, y):
    """Some x with Mx = y over F2 from the tagged columns, or None."""
    k = M.k
    pivots = echelon_pivot_dict(c << k | 1 << (k - 1 - j) for j, c in enumerate(M.cols))
    r = reduce_pivot_dict(y.bits << k, pivots)
    if r >> k:
        return None
    return BinaryVector(k, r)


def complete_to_full_rank_pivot_dict(M, seed=0):
    """Standard basis columns completing M to rank n, greedy in seeded order."""
    n = M.n
    pivots = echelon_pivot_dict(M.cols)
    order = list(range(n))
    if seed != 0:
        random.Random(seed).shuffle(order)
    added = []
    for i in order:
        e = 1 << (n - 1 - i)
        r = reduce_pivot_dict(e, pivots)
        if r:
            pivots[r.bit_length() - 1] = r
            added.append(e)
    return BinaryMatrix(n, added)
