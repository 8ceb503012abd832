"""Every existential certificate in the golden reports, checked again from scratch.

Each check reads one file under ``tests/golden/`` and the bundled data files,
and rebuilds what it needs by brute force: a code is the set of its codewords,
a lattice is ``oracles.hnf_columns_dense`` of its generators, and membership
is ``oracles.box_member``.  None of the package's parser, HNF, LLL or codeword
sweep is used.  A copy of a golden with one witness entry changed must fail
its check.

Universal claims (a minimum distance, "no ternary vector") have no compact
certificate and are not checked here; the goldens of cor23, cstar-collapse,
golay-lp at p = 2 and thm22 carry no existential witness.
"""

import copy
import json
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from codelattice.matio import data_path

from oracles import box_member, hnf_columns_dense

GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden(name):
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


@cache
def _rows(name):
    """The rows of a bundled F2 matrix file, read token by token."""
    tokens = Path(data_path(name)).read_text(encoding="ascii").split()
    rows, cols = int(tokens[0]), int(tokens[1])
    assert tokens[2] == "F2"
    entries = [int(t) for t in tokens[3:]]
    return tuple(tuple(entries[r * cols:(r + 1) * cols]) for r in range(rows))


@cache
def _span(rows):
    """Every codeword of the column span of a 0/1 matrix, as 0/1 tuples."""
    words = {(0,) * len(rows)}
    for col in zip(*rows):
        words |= {tuple(x ^ y for x, y in zip(w, col)) for w in words}
    return frozenset(words)


@cache
def _min_weight_span(rows):
    """(d, HNF basis of the Z-span of the lifted minimum-weight words)."""
    words = [w for w in _span(rows) if any(w)]
    d = min(map(sum, words))
    basis, _ = hnf_columns_dense(len(rows), [w for w in words if sum(w) == d])
    return d, basis


@cache
def _tower():
    """The level codes C_1, ..., C_a of the bundled tower, as codeword sets."""
    lines = Path(data_path("tower_nonclosed.manifest.txt")).read_text(encoding="ascii").split()
    assert lines[0] == "tower" and int(lines[2]) == len(lines[3:])
    return tuple(_span(_rows(name)) for name in lines[3:])


def _check_short_member(cert, rows, p, d):
    """A nonzero member of the minimum-weight span, with p-power sum below d."""
    d_code, basis = _min_weight_span(rows)
    assert d == d_code
    v = cert["vector"]
    assert any(v) and box_member(basis, v), "not in the span of the minimum-weight words"
    l1, l2sq = sum(map(abs, v)), sum(e * e for e in v)
    assert cert["l2sq"] == l2sq and cert.get("l1", l1) == l1
    # Hoelder: sum |e|^p <= l1^(2-p) * l2sq^(p-1) for 1 <= p <= 2; to the power q of p = u/q
    u, q = p.numerator, p.denominator
    assert q <= u <= 2 * q
    assert l1 ** (2 * q - u) * l2sq ** (u - q) < d**q


def _check_thm24(rep):
    # the stacked code [A; B with each row repeated m times] of the bundled gadget
    m = rep["params"]["m"]
    rows = _rows("cor25_A.txt") + tuple(row for row in _rows("cor25_B.txt") for _ in range(m))
    (wit,) = [c for c in rep["conclusions"] if c["claim"].startswith("witness:")]
    assert wit["pass"] and wit["certificate"]["member"] is True
    p, d = Fraction(rep["params"]["p"]), rep["exact_values"]["d_Cm"]
    _check_short_member(wit["certificate"], rows, p, d)


def _check_golay_lp(rep):
    (wit,) = rep["conclusions"]
    assert wit["pass"] and wit["certificate"]["l1"] == rep["exact_values"]["witness_l1"]
    _check_short_member(wit["certificate"], _rows("golay24.txt"), Fraction(rep["params"]["p"]), 8)


def _in_set_sum(v):
    """Digit peeling on the bundled tower: v mod 2 must lie in C_a, the next
    bits in C_(a-1), and so on; whatever is left is in 2^a Z^n."""
    cur = list(v)
    for code in reversed(_tower()):
        if tuple(e % 2 for e in cur) not in code:
            return False
        cur = [e >> 1 for e in cur]
    return True


def _check_dbar_witness(v, basis=None):
    """v lies in the Z-span of the set sum, but not in the set sum."""
    levels, n = _tower(), len(v)
    a = len(levels)
    # the span of 2^a Z^n + sum_i 2^(a-i) bar C_i: one summand at a time
    gens = [tuple(2**a * (t == j) for t in range(n)) for j in range(n)]
    gens += [tuple(2 ** (a - i) * e for e in c) for i, code in enumerate(levels, 1) for c in code]
    span, _ = hnf_columns_dense(n, gens)
    if basis is not None:
        assert [list(col) for col in span] == basis
    assert box_member(span, v), "not in the span of the set sum"
    assert not _in_set_sum(v), "in the set sum"


def _check_construct_dbar(rep):
    assert rep["is_lattice"] is False
    _check_dbar_witness(rep["witness"], rep["basis"])


def _check_dbar_schur(rep):
    (concl,) = rep["conclusions"]
    cert = concl["certificate"]
    assert cert["schur_closed"] is False and cert["is_lattice"] is False
    levels, wit = _tower(), cert["schur_witness"]
    i = wit["level"]
    assert 2 <= i <= len(levels)
    c, c2 = tuple(wit["c"]), tuple(wit["c_prime"])
    assert c in levels[i - 1] and c2 in levels[i - 1]
    assert tuple(x & y for x, y in zip(c, c2)) not in levels[i - 2], "product in the parent code"
    _check_dbar_witness(cert["span_witness"])


def _check_golay_sample(rep):
    sample = [tuple(w) for w in rep["min_weight_sample"]]
    assert rep["d"] == 8 and sample and len(set(sample)) == len(sample)
    code = _span(_rows("golay24.txt"))
    for w in sample:
        assert w in code and sum(w) == rep["d"]


def _short_vector(rep):
    (wit,) = [c for c in rep["conclusions"] if c["claim"].startswith("witness:")]
    return wit["certificate"]["vector"]


def _golay_vector(rep):
    return rep["conclusions"][0]["certificate"]["vector"]


# golden -> (its witness, found in a report, for the flip tests; its check)
CASES = {
    "verify-thm24.json": (_short_vector, _check_thm24),
    "verify-cor25.json": (_short_vector, _check_thm24),
    "verify-golay-lp-p1.json": (_golay_vector, _check_golay_lp),
    "verify-golay-lp-p3_2.json": (_golay_vector, _check_golay_lp),
    "construct-d-bar.json": (lambda rep: rep["witness"], _check_construct_dbar),
    "verify-dbar-schur.json": (lambda rep: rep["conclusions"][0]["certificate"], _check_dbar_schur),
    "code-info-golay24.json": (lambda rep: rep["min_weight_sample"], _check_golay_sample),
}


def _leaves(obj):
    """(container, key) of every int or bool under a JSON list or dict."""
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        if isinstance(value, (dict, list)):
            yield from _leaves(value)
        elif isinstance(value, int):
            yield obj, key


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_certificate_checks_again(name):
    _, check = CASES[name]
    check(_golden(name))


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_flipped_witness_entry_fails_the_check(name):
    witness, check = CASES[name]
    rep = _golden(name)
    count = len(list(_leaves(witness(rep))))
    assert count
    for i in range(count):
        bad = copy.deepcopy(rep)
        owner, key = list(_leaves(witness(bad)))[i]
        e = owner[key]
        owner[key] = (not e) if isinstance(e, bool) else e ^ 1  # the low bit flipped
        with pytest.raises(AssertionError):
            check(bad)


@pytest.mark.parametrize("name", [n for n, (_, check) in sorted(CASES.items())
                                  if check in (_check_thm24, _check_golay_lp)])
def test_a_sign_flip_keeps_the_norms_but_leaves_the_span(name):
    # every minimum-weight word sums to d, so each member's entry sum is a multiple of d
    witness, check = CASES[name]
    bad = copy.deepcopy(_golden(name))
    v = witness(bad)
    v[0] = -v[0]
    with pytest.raises(AssertionError, match="not in the span"):
        check(bad)


def test_dbar_witnesses_that_keep_their_shape_but_break_the_claim_fail():
    rep = _golden("construct-d-bar.json")
    rep["witness"][3] = 4  # 4 e_3 lies in 2^a Z^n, so in the set sum
    with pytest.raises(AssertionError, match="in the set sum"):
        _check_construct_dbar(rep)
    rep = _golden("verify-dbar-schur.json")
    wit = rep["conclusions"][0]["certificate"]["schur_witness"]
    wit["c_prime"] = wit["c"]  # c o c = c, which lies in the parent code
    with pytest.raises(AssertionError, match="product in the parent code"):
        _check_dbar_schur(rep)
