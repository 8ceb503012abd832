"""Counterexample verifiers for lattices built from replicated-row codes.

The two gadget shapes both stack a small matrix A on top of m copies of
every row of a second matrix B.  Row replication multiplies B's
contribution to any codeword weight by m, which makes the minimum
distance of the stacked code easy to pin down exactly, while the first
block keeps enough structure to force short vectors into (or out of) the
derived lattices.

Every verifier returns its report as a plain JSON-ready dict, built in
that form: {"theorem", "params", "hypotheses", "conclusions",
"exact_values"}.  A hypothesis is {"name", "pass"[, "witness"]} and a
conclusion {"claim", "pass"[, "certificate"]}; vectors are lists and a
rational p is its string.  passed(report) is True iff every hypothesis and
conclusion passes.  The certificates can be re-checked by membership and
norm evaluation alone.

Identifiers such as ``thm22`` or ``cor23`` are the stable report/CLI
tokens for the individual verification targets.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from itertools import compress
from math import gcd

from .constructions import (
    C_STAR_CROSSCHECK_CAP,
    _lift,
    c_star_definitional,
    construction_a,
    d_bar_is_lattice,
    mod2_reduction,
    vladut_special_d,
)
from .errors import (
    EnumerationBudgetExceeded,
    HypothesesFail,
    LengthMismatch,
    ModTwoMismatch,
    ShapeMismatch,
    SupportTooLarge,
)
from .gf2core import (
    BinaryMatrix,
    BinaryVector,
    Code,
    CodeTower,
    complete_to_full_rank,
    is_schur_closed_tower,
    kernel_basis,
    min_distance,
    min_weight_codewords,
    solve,
)
from .matio import cor23_matrices, cor25_matrices, golay_code, nonclosed_tower
from .zlattice import (
    DEFAULT_BUDGET,
    IntVec,
    Lattice,
    adjugate_solve,
    lp_norm,
    lp_power_sum_brackets,
    lp_power_sum_cmp,
    scale,
    shortest_vectors,
    vectors_up_to,
)

__all__ = [
    "passed",
    "Thm22Gadget",
    "Thm24Gadget",
    "stack_with_replication",
    "check_thm22_hypotheses",
    "build_cor23",
    "verify_cor23",
    "ternary_sign_search",
    "check_thm24_hypotheses",
    "min_m",
    "verify_thm24",
    "build_cor25",
    "verify_cor25",
    "golay_lp_check",
    "verify_cstar_collapse",
    "verify_dbar_schur",
]

# Largest support the sign search takes: its join then holds at most 2^12
# packed keys per half, each an int of n*W bits, W = (Q-1).bit_length() + 1
# (134 bits at cor23's n = 67, Q = 2).
SIGN_SUPPORT_CAP = 24
# Random codes drawn by the cstar-collapse check; their lengths run up to
# C_STAR_CROSSCHECK_CAP, the largest n the definitional route takes.
CSTAR_TRIALS = 20


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _item(key: str, text: str, ok: bool, extra=None) -> dict:
    """A report entry: {"name", "pass"[, "witness"]} for a hypothesis and
    {"claim", "pass"[, "certificate"]} for a conclusion; None leaves the last key out."""
    item = {key: text, "pass": ok}
    if extra is not None:
        item["witness" if key == "name" else "certificate"] = extra
    return item


def passed(report: dict) -> bool:
    """A report passes iff every hypothesis and every conclusion passes."""
    return all(item["pass"] for item in report["hypotheses"] + report["conclusions"])


# ---------------------------------------------------------------------------
# gadget types
# ---------------------------------------------------------------------------

def stack_with_replication(top: BinaryMatrix, bottom: BinaryMatrix, m: int) -> BinaryMatrix:
    """[top; bottom with every row repeated m times].  Weight law:
    ||stack x||_0 = ||top x||_0 + m * ||bottom x||_0 for every x."""
    if top.k != bottom.k:
        raise ShapeMismatch(f"column counts differ: {top.k} != {bottom.k}")
    low = bottom.replicate_rows(m)
    return BinaryMatrix(top.n + low.n, [t << low.n | b for t, b in zip(top.cols, low.cols)])


class Thm22Gadget(namedtuple("Thm22Gadget", "A B w a m seed")):
    """Data for the scaled-tower counterexample: lattice from level matrices
    (K_0, c_1, .., c_{a-1}, K_a) where K_a = [A; B replicated m times]."""

    __slots__ = ()

    def __new__(
        cls, A: BinaryMatrix, B: BinaryMatrix, w: BinaryVector, a: int, m: int, seed: int = 0
    ):
        if A.k != B.k or w.n != A.k:
            raise ShapeMismatch(f"A has {A.k} columns, B has {B.k}, w has length {w.n}")
        if a < 2:
            raise ValueError("scaling depth a must be >= 2")
        if m <= 4**a:
            raise ValueError(f"replication m = {m} must exceed 4^a = {4 ** a}")
        return super().__new__(cls, A, B, w, a, m, seed)

    @property
    def k(self) -> int:
        return self.A.k

    @property
    def n(self) -> int:
        return self.A.n + self.m * self.B.n


class Thm24Gadget(namedtuple("Thm24Gadget", "A B z m")):
    """Data for the short-span counterexample: the code [A; B replicated m
    times] whose minimum-weight codeword embeddings span a lattice with a
    member shorter than the code's minimum distance."""

    __slots__ = ()

    def __new__(cls, A: BinaryMatrix, B: BinaryMatrix, z: IntVec, m: int):
        if A.k != B.k or len(z) != A.k:
            raise ShapeMismatch(f"A has {A.k} columns, B has {B.k}, z has length {len(z)}")
        if m < 1:
            raise ValueError("replication m must be >= 1")
        return super().__new__(cls, A, B, z, m)

    @property
    def ell(self) -> int:
        return self.A.k

    @property
    def n(self) -> int:
        return self.A.n + self.m * self.B.n

    def level_matrix(self) -> BinaryMatrix:
        return stack_with_replication(self.A, self.B, self.m)


def _int_image(M: BinaryMatrix, z: Sequence[int]) -> tuple[int, ...]:
    """The 0/1 lift of M applied to an integer vector, over Z."""
    if M.k != len(z):
        raise ShapeMismatch(f"{M.k} columns vs vector length {len(z)}")
    return tuple(sum(e * x for e, x in zip(row, z)) for row in M.to_rows())


# ---------------------------------------------------------------------------
# hypothesis checkers
# ---------------------------------------------------------------------------

def check_thm22_hypotheses(g: Thm22Gadget) -> dict:
    """The three finite conditions behind the scaled-tower counterexample.

    Item 3 quantifies over all integer vectors y = w + 2t, t in Z^k, with
    w lifted to {0,1}^k.  Over Z, B y = B w + 2 B t, so B y vanishes mod 4
    iff B w is even and B t = (B w / 2) mod 2 over F2: one linear solve
    decides it, and a solution t gives the witness y.
    """
    hyps = []
    need = 4**g.a

    aw = g.A.mul(g.w).weight
    hyps.append(
        _item(
            "name",
            "image weight: ||A w||_0 = 4^a",
            aw == need,
            None if aw == need else {"observed_weight": aw, "required": need},
        )
    )

    kb = kernel_basis(g.B)
    kernel_ok = len(kb) == 1 and kb[0] == g.w and not g.w.is_zero()
    hyps.append(
        _item(
            "name",
            "kernel: ker(B) = {0, w}",
            kernel_ok,
            None if kernel_ok else {"kernel_basis": [list(v.coords()) for v in kb]},
        )
    )

    wc = g.w.coords()
    bw = _int_image(g.B, wc)
    t = None
    if not any(e & 1 for e in bw):
        t = solve(g.B, BinaryVector.from_coords([(e >> 1) & 1 for e in bw]))
    mod4_ok = t is None
    mod4_witness = None if mod4_ok else {"y": [e + 2 * x for e, x in zip(wc, t.coords())]}
    hyps.append(
        _item(
            "name", "mod 4: B-lift image of w-parity vectors never vanishes", mod4_ok, mod4_witness
        )
    )

    return {
        "theorem": "thm22",
        "params": {"a": g.a, "m": g.m, "k": g.k, "seed": g.seed},
        "hypotheses": hyps,
        "conclusions": [],
        "exact_values": {"Aw_weight": aw, "kernel_dim": len(kb), "n": g.n},
    }


def check_thm24_hypotheses(g: Thm24Gadget) -> dict:
    """The four finite conditions behind the short-span counterexample."""
    hyps = []

    dA = min_distance(Code(g.A))
    dB = min_distance(Code(g.B))
    bad = next(
        (
            {"matrix": name, "column": j, "weight": col.weight, "distance": dist}
            for name, M, dist in (("A", g.A, dA), ("B", g.B, dB))
            for j, col in enumerate(M.columns())
            if col.weight != dist
        ),
        None,
    )
    hyps.append(
        _item("name", "columns: every generator column has minimum block weight", bad is None, bad)
    )

    kerB = kernel_basis(g.B)
    incl_witness = None
    for v in kerB:
        if not g.A.mul(v).is_zero():
            incl_witness = {"x": list(v.coords())}
            break
    hyps.append(
        _item("name", "kernel inclusion: ker(B) inside ker(A)", incl_witness is None, incl_witness)
    )

    # B maps ker(A) onto the code spanned by the images of its basis, so the
    # lightest nonzero Bx is that code's minimum distance
    kerA = BinaryMatrix.from_columns(kernel_basis(g.A), n=g.ell)
    images = BinaryMatrix(g.B.n, [g.B.mul(v).bits for v in kerA.columns()])
    img_code = Code(images)
    out_witness = None
    bx = min_weight_codewords(img_code)[0] if img_code.dimension else None
    if bx is not None and bx.weight <= dB:
        x = kerA.mul(solve(images, bx))
        out_witness = {"x": list(x.coords()), "Bx_weight": bx.weight}
    hyps.append(
        _item(
            "name",
            "outside kernel: ||B x||_0 > d(C(B)) on ker(A) minus ker(B)",
            out_witness is None,
            out_witness,
        )
    )

    b_img = _int_image(g.B, g.z)
    a_img = _int_image(g.A, g.z)
    int_ok = not any(b_img) and any(a_img)
    hyps.append(
        _item(
            "name",
            "integer kernel: B-lift of z vanishes, A-lift does not",
            int_ok,
            None if int_ok else {"B_image": list(b_img), "A_image": list(a_img)},
        )
    )

    return {
        "theorem": "thm24",
        "params": {"m": g.m, "ell": g.ell},
        "hypotheses": hyps,
        "conclusions": [],
        "exact_values": {
            "d_CA": dA,
            "d_CB": dB,
            "A_image_of_z": list(a_img),
            "A_image_l2sq": sum(e * e for e in a_img),
        },
    }


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_cor23(m: int = 17, seed: int = 0):
    """Bundled instance of the scaled-tower counterexample.

    Returns (gadget, lattice, code).  The stacked code has 3 generator
    columns over 16 + 3m coordinates and exact minimum distance 16.  The
    default middle vector has support {0,1,2,3}; other seeds sample a
    random weight-4 support and shuffle the greedy completion order.
    """
    A, B, w = cor23_matrices()
    gadget = Thm22Gadget(A=A, B=B, w=w, a=2, m=m, seed=seed)
    Ka = stack_with_replication(A, B, m)
    n = Ka.n
    if seed == 0:
        c1 = BinaryVector.from_support(n, (0, 1, 2, 3))
    else:
        rng = random.Random(seed)
        c1 = BinaryVector.from_support(n, rng.sample(range(n), 4))
    pre = BinaryMatrix.from_columns([c1], n).hstack(Ka)
    K0 = complete_to_full_rank(pre, seed)
    code = Code(Ka)
    if min_distance(code) != 16:
        raise ArithmeticError("stacked code missed its designed distance (bug)")
    lat = vladut_special_d(K0, [c1], Ka)
    return gadget, lat, code


def build_cor25(m: int = 4) -> Thm24Gadget:
    """Bundled instance of the short-span counterexample (block length 2 + 4m)."""
    A, B, z = cor25_matrices()
    return Thm24Gadget(A=A, B=B, z=z, m=m)


# ---------------------------------------------------------------------------
# ternary sign-pattern search
# ---------------------------------------------------------------------------

def _sign_walk(Q: int, x_plus: IntVec, cols2: tuple[IntVec, ...]) -> list[int]:
    """The sign patterns of a support that are lattice members, ascending.

    Bit b of pattern S set means coordinate support[b] carries -1 instead
    of +1, which shifts the membership key by cols2[b], twice the key of
    e_support[b] mod Q.  So S is a member iff x_plus - sum_{b in S} cols2[b]
    = 0 mod Q.  Meet in the middle (Horowitz-Sahni):
    write S = lo | hi << h over the w = len(cols2) support bits, h = w // 2;
    the condition becomes x_plus - sum_lo = sum_hi mod Q.  A dict maps each
    low-half key to its masks and each high-half sum is looked up once, so
    a support costs 2^h + 2^(w-h) keys instead of 2^w patterns.  High masks
    ascend and each dict entry lists its low masks in ascending order, so
    the hits come out sorted.

    Each key is packed into one int: its entry t, a residue in [0, Q),
    fills the field of bits [tW, tW + W), W = B + 1, where 2^B >= Q.  A
    subset-sum step is then one SWAR modular add, all fields at once: a
    field of a + c stays below 2Q <= 2^W, so no carry crosses fields;
    adding 2^B - Q to every field sets bit B of exactly the fields that
    reached Q, and Q is taken off those.  Equal keys are equal ints, so the
    join hashes ints instead of n-tuples.
    """
    B = (Q - 1).bit_length()
    W = B + 1
    n = len(x_plus)
    ones = ((1 << W * n) - 1) // ((1 << W) - 1)  # bit 0 of every field
    bias = ones * ((1 << B) - Q)

    def pack(key) -> int:
        p = 0
        for x in reversed(key):
            p = p << W | x
        return p

    def subset_sums(start: int, cols: list[int]) -> list[int]:
        # sums[mask]: start plus the columns picked by mask; the sums with
        # bit j set are the earlier ones plus column j
        sums = [start]
        for c in cols:
            sums += [(s := a + c) - ((s + bias) >> B & ones) * Q for a in sums]
        return sums

    h = len(cols2) // 2
    lows: dict[int, list[int]] = {}
    neg_low = [pack([-x % Q for x in col]) for col in cols2[:h]]
    for lo, r in enumerate(subset_sums(pack(x_plus), neg_low)):
        lows.setdefault(r, []).append(lo)
    return [
        lo | hi << h
        for hi, s in enumerate(subset_sums(0, [pack(col) for col in cols2[h:]]))
        for lo in lows.get(s, ())
    ]


def _patterns_in_lattice(L: Lattice, c: BinaryVector) -> list[IntVec]:
    """All sign assignments on supp(c) that are members of L, in pattern order.

    The key of e_i is its adjugate solve (D, X, w): X, then w off the pivot
    rows.  Keys are linear, so a pattern's key is a signed sum of them and
    _sign_walk joins them meet-in-the-middle mod one Q = (D/g) M.  g is the
    gcd of D and the X parts, which every pattern's X is an integer
    combination of, so D | X exactly when (D/g) | X/g (on cor23 the modulus
    drops from a 128-bit D to 2); X/g is scaled by M.  w is scaled by D/g,
    and M exceeds the sum of |w_i| on every row, so a ternary pattern's w
    vanishes mod M only when it is zero.  At full rank w is empty and M = 1.
    The n residues of each key mod Q are handed to _sign_walk, which packs
    them into one int, one field per residue, and sums keys by SWAR adds.
    """
    if L.rank == 0:
        return []
    support = c.support()
    n, r = L.n, L.rank
    pivots = set(L.pivots)
    off = [t for t in range(n) if t not in pivots]
    keys = []
    for i in support:
        D, X, w = adjugate_solve(L, (0,) * i + (1,) + (0,) * (n - 1 - i))
        keys.append(X + [w[t] for t in off])
    # the key of c is the sum of its unit vectors' keys
    plus = [sum(xs) for xs in zip(*keys)]
    cols2 = [[2 * x for x in key] for key in keys]
    g = gcd(D, *plus[:r], *(x for col in cols2 for x in col[:r]))
    Dg = D // g
    M = 1 + max((sum(abs(key[t]) for key in keys) for t in range(r, n)), default=0)
    Q = Dg * M

    def mod_q(key: list[int]) -> IntVec:
        return tuple([x // g * M % Q for x in key[:r]] + [x * Dg % Q for x in key[r:]])

    hits = _sign_walk(Q, mod_q(plus), tuple(map(mod_q, cols2)))
    out = []
    for p in hits:
        v = [0] * n
        for b, i in enumerate(support):
            v[i] = -1 if (p >> b) & 1 else 1
        out.append(tuple(v))
    return out


def ternary_sign_search(L: Lattice, C: Code, bound: int) -> list[IntVec]:
    """All nonzero v in L with entries in {-1,0,1} and ||v||_2^2 <= bound^2.

    Sound and complete for lattices whose members all reduce mod 2 into C:
    a ternary member v then satisfies supp(v) = supp(v mod 2) with v mod 2
    a codeword, so candidates are exactly the sign assignments on supports
    of codewords of weight <= bound^2.  The reduction property follows
    from checking the basis columns alone (mod-2 reduction is additive),
    and the search refuses to run when it fails.

    The supports are read from one bit-sliced sweep (Code.light_words).
    The search raises SupportTooLarge, naming the least such weight, iff
    some codeword weighs more than SIGN_SUPPORT_CAP and at most bound^2.
    """
    if C.n != L.n:
        raise LengthMismatch(f"code length {C.n} != lattice dimension {L.n}")
    for col in L.basis:
        # a column with no odd entry reduces to the zero word, which C holds
        if any(map((1).__and__, compress(col, col))) and not C.contains(mod2_reduction(col)):
            raise ModTwoMismatch(
                "a basis column does not reduce into the code mod 2; "
                "the support restriction would be unsound"
            )
    if bound <= 0 or C.dimension == 0:
        return []
    limit = bound * bound
    if limit > SIGN_SUPPORT_CAP:
        w = C.least_weight_above(SIGN_SUPPORT_CAP)
        if w is not None and w <= limit:
            raise SupportTooLarge(f"candidate support {w} exceeds {SIGN_SUPPORT_CAP}")
    out: list[IntVec] = []
    for c in C.light_words(min(limit, SIGN_SUPPORT_CAP)):
        out.extend(_patterns_in_lattice(L, c))
    out.sort(key=lambda v: (sum(e * e for e in v), v))
    return out


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def verify_cor23(
    m: int = 17,
    seed: int = 0,
    full_enum: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """Build the bundled scaled-tower instance and verify its conclusions:
    exact distance 16, no nonzero ternary vector of squared norm <= 16 in
    the lattice, and no embedded minimum-weight codeword in the lattice.

    full_enum additionally enumerates every lattice vector of squared norm
    <= 16; running out of budget there is recorded, not a failure.
    """
    g, lat, code = build_cor23(m, seed)
    # the hypothesis report grows into this one
    rep = check_thm22_hypotheses(g)
    rep["theorem"] = "cor23"
    rep["params"] = {"m": m, "seed": seed, "full_enum": full_enum}
    conclusions, exact = rep["conclusions"], rep["exact_values"]

    S = min_weight_codewords(code)
    d = S[0].weight
    conclusions.append(_item("claim", "code minimum distance equals 16", d == 16, {"observed": d}))

    ternary = ternary_sign_search(lat, code, 4)
    conclusions.append(
        _item(
            "claim",
            "no nonzero ternary vector of squared norm <= 16 in the lattice",
            len(ternary) == 0,
            {"found": [list(v) for v in ternary[:8]], "count": len(ternary)},
        )
    )

    embedded_in = [c for c in S if lat.contains(c.coords())]
    conclusions.append(
        _item(
            "claim",
            "no embedded minimum-weight codeword lies in the lattice",
            len(embedded_in) == 0,
            {"checked": len(S), "violations": [list(c.coords()) for c in embedded_in]},
        )
    )

    exact.update(
        {
            "n": lat.n,
            "d": d,
            "code_kissing": len(S),
            "ternary_count": len(ternary),
        }
    )

    if full_enum:
        try:
            vecs = vectors_up_to(lat, 16, budget)
            ternary = {-1, 0, 1}
            bad = [v for v in vecs if any(v) and ternary.issuperset(v)]
            conclusions.append(
                _item(
                    "claim",
                    "exhaustive enumeration to squared norm 16 finds no nonzero "
                    "ternary vector",
                    len(bad) == 0,
                    {"nonzero_vectors_enumerated": len(vecs) - 1},
                )
            )
            exact["norm_le16_nonzero_count"] = len(vecs) - 1
        except EnumerationBudgetExceeded as e:
            exact["full_enum_status"] = f"budget exhausted ({e.budget} nodes)"
    return rep


def _minimum_replication(rep: dict, p: Fraction) -> int:
    """min_m read off a thm24 hypothesis report; HypothesesFail unless it passed.

    min_m is max(dA, floor((S - dA)/dB) + 1) for the p-power sum S of the
    A-lift of z.  S is bracketed once, to the first precision at which both
    ends of its bracket give that floor.  An exact bracket (any integer p)
    ends it at once; an inexact one means S is irrational, so (S - dA)/dB is
    no integer and the two floors meet after finitely many doublings.
    """
    if not passed(rep):
        raise HypothesesFail("gadget fails its hypotheses", report=rep)
    dA, dB, z = (rep["exact_values"][k] for k in ("d_CA", "d_CB", "A_image_of_z"))
    for lo, hi, prec in lp_power_sum_brackets(z, p):
        a, b = dA << prec, dB << prec
        f = (lo - a) // b
        if f == (hi - a) // b:
            return max(dA, f + 1)


def min_m(g: Thm24Gadget, p=2) -> int:
    """Smallest replication count m with m >= d(C(A)) and
    d(C(A)) + m * d(C(B)) strictly above the p-power sum of the A-lift of z.

    Exact for every rational p >= 1: the sum is bracketed once, however
    large min_m is (about 2^p on cor25)."""
    return _minimum_replication(check_thm24_hypotheses(g), Fraction(p))


def verify_thm24(g: Thm24Gadget, p=2) -> dict:
    """Verify the short-span counterexample conclusions for the gadget:
    the stacked code's distance identity, column minimality, and a
    certified nonzero member of the min-weight-span lattice whose p-power
    sum is strictly below the distance.  For p = 2 the exact lambda_1^2 is
    computed by enumeration as well.
    """
    p = Fraction(p)
    hyp_report = check_thm24_hypotheses(g)
    mm = _minimum_replication(hyp_report, p)
    dA, dB = hyp_report["exact_values"]["d_CA"], hyp_report["exact_values"]["d_CB"]
    if g.m < mm:
        try:
            least = str(mm)
        except ValueError:  # past the interpreter's digit limit for int -> str
            least = f"of {mm.bit_length()} bits"
        raise HypothesesFail(f"replication m = {g.m} below minimum {least}", report=hyp_report)

    Gm = g.level_matrix()
    Cm = Code(Gm)
    S = min_weight_codewords(Cm)
    d = S[0].weight
    conclusions = [
        _item(
            "claim",
            "stacked distance identity d = d(C(A)) + m*d(C(B))",
            d == dA + g.m * dB,
            {"observed": d, "predicted": dA + g.m * dB},
        )
    ]

    cols = Gm.columns()
    col_ok = all(col.weight == d for col in cols)
    conclusions.append(
        _item(
            "claim",
            "every stacked generator column is a minimum-weight codeword",
            col_ok,
            {"column_weights": [c.weight for c in cols]},
        )
    )

    L = Lattice.from_generators(Cm.n, _lift(1, S))
    witness = _int_image(Gm, g.z)
    wit_nonzero = any(witness)
    wit_member = L.contains(witness)
    wit_below = lp_power_sum_cmp(witness, p, d) < 0
    conclusions.append(
        _item(
            "claim",
            "witness: nonzero lattice member with p-power sum below the distance",
            wit_nonzero and wit_member and wit_below,
            {
                "vector": list(witness),
                "l2sq": sum(e * e for e in witness),
                "member": wit_member,
            },
        )
    )

    exact = {
        "d_CA": dA,
        "d_CB": dB,
        "min_m": mm,
        "d_Cm": d,
        "n": g.n,
        "dim": Cm.dimension,
        "p": str(p),
        "witness_l2sq": sum(e * e for e in witness),
    }
    if p == 2:
        sv = shortest_vectors(L)
        exact["lambda1_sq"] = sv.lambda1_sq
        exact["kissing"] = sv.kissing
        conclusions.append(
            _item(
                "claim",
                "enumerated lambda_1^2 is strictly below the distance",
                sv.lambda1_sq < d,
                {"lambda1_sq": sv.lambda1_sq, "d": d},
            )
        )

    return {
        "theorem": "thm24",
        "params": {"m": g.m, "p": str(p), "ell": g.ell},
        "hypotheses": hyp_report["hypotheses"],
        "conclusions": conclusions,
        "exact_values": exact,
    }


def verify_cor25(m: int = 4, p=2) -> dict:
    """verify_thm24 on the bundled instance; at the default m = 4 the code
    parameters [18, 3, 9] are asserted exactly as well."""
    g = build_cor25(m)
    try:
        rep = verify_thm24(g, p)
    except HypothesesFail as e:
        # the failing report goes out under this target's name
        if e.report is not None:
            e.report["theorem"] = "cor25"
        raise
    rep["theorem"] = "cor25"
    if m == 4:
        n, k, d = (rep["exact_values"][key] for key in ("n", "dim", "d_Cm"))
        rep["conclusions"].insert(
            0,
            _item(
                "claim",
                "code parameters are exactly [18, 3, 9]",
                (n, k, d) == (18, 3, 9),
                {"observed": [n, k, d]},
            ),
        )
    return rep


def golay_lp_check(p) -> dict:
    """Search the span of the extended Golay octad embeddings for a member
    whose p-power sum is strictly below the code distance 8.

    Probes the pair vectors 2(e_i - e_j) and takes the first member as the
    witness: its p-power sum 2 * 2^p is below 8 for every p < 2.  The
    bundled lattice holds all 276 of them, so a missing witness can only
    mean a broken lattice and the report then says FAIL.  At p = 2 there
    is nothing to show and the report says so.
    """
    p = Fraction(p)
    if not 1 <= p <= 2:
        raise ValueError("p must lie in [1, 2]")
    G = golay_code()
    S = min_weight_codewords(G)
    d, k0 = S[0].weight, len(S)
    hyps = [
        _item("name", "code distance is exactly 8", d == 8, {"observed": d}),
        _item("name", "code kissing number is exactly 759", k0 == 759, {"observed": k0}),
    ]
    exact: dict = {"d": d, "kappa0": k0, "p": str(p)}

    if p == 2:
        conclusion = _item(
            "claim", "no strict witness is required at p = 2 (distance is attainable)", True
        )
    else:
        L = Lattice.from_generators(G.n, _lift(1, S))
        n = L.n
        witness = None
        found = 0
        for i in range(n):
            for j in range(i + 1, n):
                v = tuple(2 if t == i else (-2 if t == j else 0) for t in range(n))
                if L.contains(v):
                    found += 1
                    if witness is None:
                        witness = v
        exact["pair_members_found"] = found
        exact["pairs_probed"] = n * (n - 1) // 2
        ok = witness is not None
        cert = None
        if ok:
            ok = lp_power_sum_cmp(witness, p, 8) < 0
            cert = {
                "vector": list(witness),
                "l1": lp_norm(witness, 1),
                "l2sq": sum(e * e for e in witness),
            }
            exact["witness_l1"] = lp_norm(witness, 1)
        conclusion = _item("claim", "a nonzero member has p-power sum strictly below 8", ok, cert)
    return {
        "theorem": "golay-lp",
        "params": {"p": str(p)},
        "hypotheses": hyps,
        "conclusions": [conclusion],
        "exact_values": exact,
    }


def verify_cstar_collapse(C: Code | None = None, seed: int = 0) -> dict:
    """Check that the nested-intersection construction equals the scaled
    mod-2 lattice, either on one given code or on seeded random codes."""
    if C is not None:
        codes = [C]
    else:
        rng = random.Random(seed)
        codes = []
        while len(codes) < CSTAR_TRIALS:
            n = rng.randrange(1, C_STAR_CROSSCHECK_CAP + 1)
            k = rng.randrange(1, n + 1)
            cols = [BinaryVector(n, rng.getrandbits(n)) for _ in range(k)]
            cand = Code(BinaryMatrix.from_columns(cols, n))
            if cand.dimension >= 1:
                codes.append(cand)
    all_lambda = True
    per_code = []
    eq_witness = None
    for code in codes:
        n = code.n
        lattice_a = construction_a(code)
        if c_star_definitional(code) != scale(lattice_a, 2 ** (n - 1)):
            eq_witness = {"n": n, "generators": [list(c.coords()) for c in code.basis()]}
        d, lam = min_distance(code), shortest_vectors(lattice_a).lambda1_sq
        all_lambda &= lam == min(d, 4)
        per_code.append({"n": n, "dim": code.dimension, "d": d, "lambda1_sq_A": lam})
    conclusions = [
        _item(
            "claim",
            "nested-intersection lattice equals 2^(n-1) times the mod-2 lattice",
            eq_witness is None,
            eq_witness,
        ),
        _item("claim", "lambda_1^2 of the scaled lattice is 4^(n-1) * min(d, 4)", all_lambda),
    ]
    return {
        "theorem": "cstar-collapse",
        "params": {"trials": len(codes), "seed": seed, "max_n": C_STAR_CROSSCHECK_CAP},
        "hypotheses": [],
        "conclusions": conclusions,
        "exact_values": {"codes": per_code},
    }


def verify_dbar_schur(T: CodeTower | None = None) -> dict:
    """Check agreement between the generator-pair closure test and the
    coset-count lattice decision on a tower (default: the bundled
    non-closed tower, whose span holds a vector the set sum misses)."""
    if T is None:
        T = nonclosed_tower()
    closed, schur_witness = is_schur_closed_tower(T)
    is_lat, span_witness = d_bar_is_lattice(T)
    agree = closed == is_lat
    cert: dict = {"schur_closed": closed, "is_lattice": is_lat}
    if schur_witness is not None:
        level, c, cp = schur_witness
        cert["schur_witness"] = {
            "level": level,
            "c": list(c.coords()),
            "c_prime": list(cp.coords()),
        }
    if span_witness is not None:
        cert["span_witness"] = list(span_witness)
    return {
        "theorem": "dbar-schur",
        "params": {"n": T.n, "a": T.a},
        "hypotheses": [],
        "conclusions": [
            _item("claim", "closure under coordinate products and latticehood agree", agree, cert)
        ],
        "exact_values": {"schur_closed": closed, "is_lattice": is_lat},
    }
