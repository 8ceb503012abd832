"""A seeded corpus of large, well-formed inputs with closed-form answers.

Each case writes its input under ``tmp_path`` from a seed and runs the
command line in a child process, under an address-space limit and a
wall-clock bound.  It checks the exit code, and the exact answer when the
exit is 0.  The inputs are written here, not by the package's writers.
"""

import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from codelattice import cli, zlattice
from codelattice.zlattice import WALK_RANK_CAP

SRC = Path(__file__).resolve().parents[1] / "src"
ADDRESS_SPACE = 1 << 30  # bytes, per child
WALL_S = 10.0


def _limit() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _cli(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "codelattice.cli", *argv],
        capture_output=True, text=True, timeout=WALL_S, preexec_fn=_limit, env=env,
    )
    assert time.perf_counter() - t0 < WALL_S
    return proc


def _write(path, field, columns, n):
    """A matrix file with the given columns, each of length n."""
    rows = (" ".join(str(col[t]) for col in columns) for t in range(n))
    path.write_text(f"{n} {len(columns)} {field}\n" + "\n".join(rows) + "\n")
    return str(path)


def even_weight(tmp_path, rng, n):
    """The [n, n - 1, 2] even-weight code: kappa0 = n(n - 1)/2 words of weight 2."""
    perm = rng.sample(range(n), n)
    cols = [[int(t in (perm[i], perm[-1])) for t in range(n)] for i in range(n - 1)]
    argv = ["code-info", _write(tmp_path / "even.txt", "F2", cols, n), "--format", "json"]

    def check(rep):
        assert (rep["n"], rep["k"], rep["d"], rep["kappa0"]) == (n, n - 1, 2, n * (n - 1) // 2)

    return argv, check


def hamming_construction_a(tmp_path, rng, m):
    """Construction A of the [2^m, 2^m - m - 1, 4] extended Hamming code.

    Coordinates are the points x of F2^m.  The generator for a point x of
    weight >= 2 is {x} plus the unit points under x, plus 0 when that set
    is odd; the columns are these words and 2 e_j, coordinates permuted
    and columns shuffled.  lambda_1^2 = 4 and the kissing number is
    16 A_4 + 2n, A_4 = n(n - 1)(n - 2)/24 (SPLAG ch. 5).
    """
    n = 1 << m
    perm = rng.sample(range(n), n)
    cols = [[2 * (t == j) for t in range(n)] for j in range(n)]
    for x in range(n):
        if x & (x - 1):
            word = {x} | {1 << i for i in range(m) if x >> i & 1}
            word |= {0} if len(word) % 2 else set()
            cols.append([int(perm.index(t) in word) for t in range(n)])
    rng.shuffle(cols)
    argv = ["lattice-analyze", _write(tmp_path / "hamming.txt", "Z", cols, n), "--format", "json"]
    # a vector lies in the lattice iff it is even on every parity check:
    # all coordinates, and for each bit i the points with bit i set
    checks = [range(n)] + [[perm[x] for x in range(n) if x >> i & 1] for i in range(m)]

    def check(rep):
        kissing = 16 * (n * (n - 1) * (n - 2) // 24) + 2 * n
        assert (rep["lambda1_sq"], rep["kissing"]) == (4, kissing)
        vectors = rep["vectors"]
        assert len(set(map(tuple, vectors))) == kissing
        for v in vectors:
            assert sum(e * e for e in v) == 4
            assert not any(sum(v[t] for t in rows) % 2 for rows in checks)

    return argv, check


def scrambled_root_lattice(tmp_path, rng, n):
    """A_n in Z^(n + 1) from b_i = e_i - e_(i+1) after 4n seeded steps
    b_i += c b_j, c in {+-1, +-2}: lambda_1^2 = 2 with kissing number
    n(n + 1), the roots e_i - e_j (SPLAG ch. 4)."""
    cols = [[int(t == i) - int(t == i + 1) for t in range(n + 1)] for i in range(n)]
    for _ in range(4 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        cols[i] = [x + c * y for x, y in zip(cols[i], cols[j])]
    argv = ["lattice-analyze", _write(tmp_path / "an.txt", "Z", cols, n + 1), "--format", "json"]

    def check(rep):
        assert (rep["lambda1_sq"], rep["kissing"]) == (2, n * (n + 1))
        assert len(set(map(tuple, rep["vectors"]))) == n * (n + 1)
        for v in rep["vectors"]:
            assert sorted(e for e in v if e) == [-1, 1]

    return argv, check


def identity(tmp_path, rng, n):
    """Z^n: its walk recurses n levels deep."""
    cols = [[int(t == j) for t in range(n)] for j in range(n)]
    return ["lattice-analyze", _write(tmp_path / "zn.txt", "Z", cols, n)], None


def cor23_full_enum(tmp_path, rng, m):
    """``verify cor23 --full-enum`` walks a lattice of rank 3m + 16."""
    return ["verify", "cor23", "--m", str(m), "--full-enum", "--no-timing"], None


def even_weight_tower(tmp_path, rng, a):
    """a levels of the [3, 2] even-weight code, a tower that is not
    Schur-closed: the set sum is no lattice, and the descent's witness is
    (0, 0, 2).  The worst-case digit count sum(2^a / pivot_j) passes 2^20
    at a = 19, 1,310,720, but the descent runs a + 2 prefix tests, far
    below the cap on them."""
    code = _write(tmp_path / "even3.txt", "F2", [[1, 1, 0], [0, 1, 1]], 3)
    manifest = tmp_path / "tower.txt"
    manifest.write_text(f"tower 3 {a}\n" + f"{code}\n" * a)
    argv = ["verify", "dbar-schur", "--tower", str(manifest), "--no-timing"]

    def check(rep):
        (claim,) = rep["conclusions"]
        assert claim["pass"]
        assert rep["exact_values"] == {"schur_closed": False, "is_lattice": False}
        assert claim["certificate"]["span_witness"] == [0, 0, 2]

    return argv, check


# id -> (builder, size, seed, exit code, text the error line holds)
CASES = {
    "code-info-even-29": (even_weight, 29, 1, 0, None),
    "code-info-even-30": (even_weight, 30, 2, 3, "sweep cap"),
    "construction-a-hamming-16": (hamming_construction_a, 4, 3, 0, None),
    "construction-a-hamming-32": (hamming_construction_a, 5, 4, 0, None),
    "scrambled-a12": (scrambled_root_lattice, 12, 5, 0, None),
    "scrambled-a24": (scrambled_root_lattice, 24, 6, 0, None),
    "identity-past-walk-cap": (identity, WALK_RANK_CAP + 1, 7, 3, "walk cap"),
    "cor23-m330-full-enum": (cor23_full_enum, 330, 8, 3, "walk cap"),
    "dbar-schur-even-tower-18": (even_weight_tower, 18, 9, 0, None),
    "dbar-schur-even-tower-19": (even_weight_tower, 19, 10, 0, None),
}


@pytest.mark.parametrize("case", list(CASES))
def test_hostile_input(case, tmp_path):
    build, size, seed, want, error = CASES[case]
    argv, check = build(tmp_path, random.Random(seed), size)
    proc = _cli(argv)
    assert proc.returncode == want, proc.stderr
    if want == 0:
        check(json.loads(proc.stdout))
    else:
        assert proc.stdout == "" and error in proc.stderr


def test_walk_output_cap_exits_3(tmp_path, monkeypatch, capsys):
    """The n = 32 Hamming file keeps 19,904 vectors of 32 entries: exit 0
    with the closed-form count, and exit 3 once the output cap is below it."""
    argv, check = hamming_construction_a(tmp_path, random.Random(4), 5)
    assert cli.main(argv) == 0
    check(json.loads(capsys.readouterr().out))
    entries = 19904 * 32
    monkeypatch.setattr(zlattice, "WALK_OUTPUT_CAP", entries - 1)
    assert cli.main(argv) == 3
    assert capsys.readouterr() == (
        "", f"error: walk keeps {entries} entries > output cap {entries - 1} at squared radius 4\n"
    )
