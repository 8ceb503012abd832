"""The four workloads: seeded input generation, op lists and exact oracles.

An op is a list of ``codelattice`` command lines run in one process.  A
pass is the fixed, seeded list of ops that a run repeats; every input file
of a pass is written once, during set-up.  Oracles never import
``codelattice``: they re-derive each answer with ``oracles``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden" / "cor23-m17-seed0.json"
GOLAY = ROOT / "src" / "codelattice" / "data" / "golay24.txt"

# Each pass holds many distinct instances, so that its cost varies little
# from seed to seed: single instances of one size differ by 10-35%.
COR23_SEEDS = 11  # seeded cor23 instances per pass, after seed 0
COR23_M = 17
LATTICE_SIZES = (18, 20, 22, 24, 26) * 7  # block lengths of the random codes
CODE_DIMS = (19, 20, 21) * 4  # dimensions of the random [48, k] codes
CODE_LENGTH = 48


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"codelattice-bench:{workload}:{seed}")


def write_f2(path: Path, n: int, cols: list[int]) -> None:
    rows = [" ".join(str((c >> (n - 1 - i)) & 1) for c in cols) for i in range(n)]
    path.write_text(f"{n} {len(cols)} F2\n" + "\n".join(rows) + "\n", encoding="ascii")


def write_z(path: Path, n: int, cols: list[list[int]]) -> None:
    rows = [" ".join(str(c[i]) for c in cols) for i in range(n)]
    path.write_text(f"{n} {len(cols)} Z\n" + "\n".join(rows) + "\n", encoding="ascii")


def read_z(text: str) -> list[list[int]]:
    tok = text.split()
    rows, ncols = int(tok[0]), int(tok[1])
    if tok[2] != "Z" or len(tok) != 3 + rows * ncols:
        raise ValueError("not a Z matrix")
    e = [int(t) for t in tok[3:]]
    return [[e[r * ncols + c] for r in range(rows)] for c in range(ncols)]


def read_f2_columns(text: str) -> tuple[int, list[int]]:
    tok = text.split()
    n, k = int(tok[0]), int(tok[1])
    e = [int(t) for t in tok[3:]]
    return n, [oracles.from_coords(e[r * k + c] for r in range(n)) for c in range(k)]


def permute(n: int, v: int, perm: list[int]) -> int:
    out = 0
    for i in range(n):
        if (v >> (n - 1 - i)) & 1:
            out |= 1 << (n - 1 - perm[i])
    return out


def report_lines(stdout: str) -> dict[str, str]:
    """The ``key: value`` report that ``construct --out`` prints."""
    rep = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            rep[key] = value
    return rep


class Workload:
    """One workload: ``generate`` runs in set-up, the rest around the ops."""

    name = ""
    layers: tuple[str, ...] = ()  # layers that must record a span on this workload
    kernel = ""  # calibrate.KERNELS entry most like the workload's hot layer
    tail_ops = 12  # ops in a run when the benchmark was defined; fixes op_tail_s's percentile

    def generate(self, seed: int, out: Path) -> list[dict]:
        """Write the pass's input files into ``out``; return its op list."""
        raise NotImplementedError

    def argv(self, op: dict, indir: Path, outdir: Path) -> list[list[str]]:
        raise NotImplementedError

    def expect(self, op: dict, indir: Path):
        """Exact expected answer of an op, derived without ``codelattice``."""
        return None

    def check(self, op: dict, want, results) -> str | None:
        """None if the op's outputs are right, else the reason they are not.

        ``results`` holds (exit code, captured stdout, --out file text) for
        each command line of the op.
        """
        raise NotImplementedError

    def corrupt(self, results):
        """A wrong copy of correct outputs, for the oracle self-test."""
        raise NotImplementedError


def _failed_rc(results) -> str | None:
    for i, (rc, _, _) in enumerate(results):
        if rc != 0:
            return f"command {i} exited with {rc}"
    return None


class Cor23Verify(Workload):
    """verify cor23 --full-enum: the rank-67 certificate."""

    name = "cor23-verify"
    kernel = "rational_mix"
    layers = ("zlattice.lll", "zlattice.enum", "gadgets.sign_search", "zlattice.hnf",
              "zlattice.adjugate", "gf2core.sweep", "gadgets.verify_self", "cli.self")

    def generate(self, seed, out):
        rng = rng_for(self.name, seed)
        seeds = [0] + [rng.randrange(1, 10**6) for _ in range(COR23_SEEDS)]
        return [{"label": f"cor23 m={COR23_M} seed={s}", "seed": s} for s in seeds]

    def argv(self, op, indir, outdir):
        return [[
            "verify", "cor23", "--full-enum", "--no-timing",
            "--m", str(COR23_M), "--seed", str(op["seed"]),
            "--out", str(outdir / "report.json"),
        ]]

    def expect(self, op, indir):
        return GOLDEN.read_text(encoding="ascii") if op["seed"] == 0 else None

    def check(self, op, want, results):
        bad = _failed_rc(results)
        if bad:
            return bad
        text = results[0][2]
        rep = json.loads(text)
        if not all(h["pass"] for h in rep["hypotheses"]) or not all(
            c["pass"] for c in rep["conclusions"]
        ):
            return "report is not a PASS"
        if rep["params"]["seed"] != op["seed"] or rep["exact_values"]["n"] != 16 + 3 * COR23_M:
            return "report is for another instance"
        if not any("exhaustive enumeration" in c["claim"] for c in rep["conclusions"]):
            return "full enumeration did not complete"
        if want is not None and text != want:
            return "seed-0 report differs from the golden copy"
        return None

    def corrupt(self, results):
        rc, out, text = results[0]
        rep = json.loads(text)
        rep["conclusions"][0]["pass"] = False
        return [(rc, out, json.dumps(rep, indent=2) + "\n")]


class LatticeAnalyze(Workload):
    """lattice-analyze on Construction-A bases (Golay and random codes)."""

    name = "lattice-analyze"
    tail_ops = 36
    kernel = "rational_mix"
    layers = ("zlattice.lll", "zlattice.enum", "zlattice.hnf", "matio.parse", "cli.self")

    def generate(self, seed, out):
        rng = rng_for(self.name, seed)
        n, golay = read_f2_columns(GOLAY.read_text(encoding="ascii"))
        perm = list(range(n))
        rng.shuffle(perm)
        codes = [("golay24", n, [permute(n, c, perm) for c in golay])]
        for j, n in enumerate(LATTICE_SIZES):
            k = n // 2
            while True:
                cols = [rng.getrandbits(n) for _ in range(k)]
                basis = oracles.reduced_basis(cols)
                if len(basis) == k and oracles.min_weight_profile(n, basis)[0] >= 4:
                    break
            codes.append((f"random{j}", n, cols))
        ops = []
        for label, n, cols in codes:
            basis = oracles.reduced_basis(cols)
            write_z(out / f"{label}.basis.txt", n, oracles.construction_a_basis(n, basis))
            write_f2(out / f"{label}.code.txt", n, cols)
            ops.append({"label": f"{label} [{n}, {len(basis)}]", "file": label})
        return ops

    def argv(self, op, indir, outdir):
        return [[
            "lattice-analyze", str(indir / f"{op['file']}.basis.txt"),
            "--format", "json", "--out", str(outdir / "analyze.json"),
        ]]

    def expect(self, op, indir):
        n, cols = read_f2_columns((indir / f"{op['file']}.code.txt").read_text())
        basis = oracles.reduced_basis(cols)
        lam, kiss = oracles.construction_a_kissing(n, oracles.weight_distribution(n, basis))
        return {"n": n, "lambda1_sq": lam, "kissing": kiss, "pivots": oracles.echelon(basis)}

    def check(self, op, want, results):
        bad = _failed_rc(results)
        if bad:
            return bad
        rep = json.loads(results[0][2])
        if rep["lambda1_sq"] != want["lambda1_sq"]:
            return f"lambda1^2 {rep['lambda1_sq']} != {want['lambda1_sq']}"
        if rep["kissing"] != want["kissing"] or len(rep["vectors"]) != want["kissing"]:
            return f"kissing {rep['kissing']} != {want['kissing']}"
        vecs = rep["vectors"]
        if len({tuple(v) for v in vecs}) != len(vecs):
            return "repeated shortest vector"
        for v in vecs:
            if len(v) != want["n"] or sum(e * e for e in v) != want["lambda1_sq"]:
                return f"vector {v} has the wrong length or norm"
            if not oracles.in_span(oracles.from_coords(e & 1 for e in v), want["pivots"]):
                return f"vector {v} is not in the lattice"
        return None

    def corrupt(self, results):
        rc, out, text = results[0]
        rep = json.loads(text)
        rep["vectors"][0] = [1] * len(rep["vectors"][0])
        return [(rc, out, json.dumps(rep))]


class CodeConstruct(Workload):
    """code-info, construct simplified-d, construct a on one [48, k] code."""

    name = "code-construct"
    tail_ops = 24
    kernel = "weight_sweep"
    layers = ("gf2core.sweep", "zlattice.hnf", "constructions.build", "matio.parse",
              "matio.format", "cli.self")

    def generate(self, seed, out):
        rng = rng_for(self.name, seed)
        n = CODE_LENGTH
        ops = []
        for j, k in enumerate(CODE_DIMS):
            # systematic generator [I_k; P] with its rows shuffled
            rows = [1 << (k - 1 - i) for i in range(k)]
            rows += [rng.getrandbits(k) for _ in range(n - k)]
            rng.shuffle(rows)
            cols = [
                oracles.from_coords((r >> (k - 1 - c)) & 1 for r in rows) for c in range(k)
            ]
            write_f2(out / f"code{j}.txt", n, cols)
            ops.append({"label": f"random [{n}, {k}]", "file": f"code{j}.txt"})
        return ops

    def argv(self, op, indir, outdir):
        path = str(indir / op["file"])
        return [
            ["code-info", path, "--format", "json", "--out", str(outdir / "info.json")],
            ["construct", path, "--construction", "simplified-d", "--out", str(outdir / "sd.txt")],
            ["construct", path, "--construction", "a", "--out", str(outdir / "a.txt")],
        ]

    def expect(self, op, indir):
        n, cols = read_f2_columns((indir / op["file"]).read_text())
        basis = oracles.reduced_basis(cols)
        d, kappa = oracles.min_weight_profile(n, basis)
        return {"n": n, "k": len(basis), "d": d, "kappa0": kappa, "pivots": oracles.echelon(basis)}

    def check(self, op, want, results):
        bad = _failed_rc(results)
        if bad:
            return bad
        info = json.loads(results[0][2])
        got = (info["n"], info["k"], info["d"], info["kappa0"])
        if got != (want["n"], want["k"], want["d"], want["kappa0"]):
            return f"code-info (n, k, d, kappa0) = {got}"
        n, k = want["n"], want["k"]
        for i, kind in ((1, "simplified-d"), (2, "a")):
            for col in read_z(results[i][2]):
                if not oracles.in_span(oracles.from_coords(e & 1 for e in col), want["pivots"]):
                    return f"{kind} basis column does not reduce into the code"
        rep = report_lines(results[2][1])
        cols = read_z(results[2][2])
        if rep.get("determinant") != str(2 ** (n - k)) or rep.get("rank") != str(n):
            return f"construction A reports det {rep.get('determinant')}, rank {rep.get('rank')}"
        if len(cols) != n or oracles.lattice_det_from_hnf(cols) != 2 ** (n - k):
            return "construction A basis has the wrong determinant"
        return None

    def corrupt(self, results):
        out = list(results)
        rc, stdout, text = out[0]
        info = json.loads(text)
        info["kappa0"] += 1
        out[0] = (rc, stdout, json.dumps(info))
        return out


class DbarDecide(Workload):
    """verify dbar-schur --tower on two permuted towers of length 16.

    The closed tower RM(2,4) > RM(1,4) has 2^16 cosets to walk.  The
    non-closed tower pairs the [16, 15] code of words even on a 2-flat with
    the four linear functions of RM(1,4); its span has 2^20 cosets (the
    program's cap) and about 33k generators, and the walk stops at the
    first witness.  RM(3,4) > RM(2,4) would have 2^27 cosets, which the
    program refuses.
    """

    name = "dbar-decide"
    tail_ops = 18
    kernel = "coset_peeling"
    layers = ("constructions.coset_walk", "constructions.build", "zlattice.hnf",
              "gf2core.contains", "matio.parse", "cli.self")
    CLOSED = "closed RM(2,4) > RM(1,4)"
    OPEN = "non-closed even-on-flat > linear RM(1,4)"
    LEVELS = {
        CLOSED: lambda perm: (oracles.reed_muller(2, 4, perm), oracles.reed_muller(1, 4, perm)),
        OPEN: lambda perm: (
            oracles.even_on_flat(4, perm), oracles.reed_muller(1, 4, perm, lowest=1)),
    }
    # twice as many non-closed towers put the median op inside one kind of op
    PASS = (CLOSED, OPEN, OPEN) * 2

    def generate(self, seed, out):
        rng = rng_for(self.name, seed)
        ops = []
        for t, label in enumerate(self.PASS):
            levels = self.LEVELS[label]
            perm = list(range(16))
            rng.shuffle(perm)
            files = []
            for i, gens in enumerate(levels(perm), start=1):
                files.append(f"tower{t}_c{i}.txt")
                write_f2(out / files[-1], 16, gens)
            (out / f"tower{t}.manifest.txt").write_text(
                f"tower 16 {len(files)}\n" + "\n".join(files) + "\n", encoding="ascii"
            )
            ops.append({"label": label, "file": f"tower{t}"})
        return ops

    def argv(self, op, indir, outdir):
        return [[
            "verify", "dbar-schur", "--tower", str(indir / f"{op['file']}.manifest.txt"),
            "--no-timing", "--out", str(outdir / "dbar.json"),
        ]]

    def expect(self, op, indir):
        levels = []
        for i in (1, 2):
            _, cols = read_f2_columns((indir / f"{op['file']}_c{i}.txt").read_text())
            levels.append(cols)
        closed = oracles.schur_closed(levels[1], levels[0])
        return {"levels": levels, "closed": closed}

    def check(self, op, want, results):
        bad = _failed_rc(results)
        if bad:
            return bad
        rep = json.loads(results[0][2])
        cert = rep["conclusions"][0]["certificate"]
        if cert["is_lattice"] != want["closed"] or cert["schur_closed"] != want["closed"]:
            return f"decision {cert['is_lattice']} for a tower with closure {want['closed']}"
        if want["closed"]:
            return None
        wit = cert.get("span_witness")
        if wit is None or len(wit) != 16:
            return "no witness for a non-closed tower"
        if not oracles.dbar_span_member(16, want["levels"], wit):
            return "witness is not in the span"
        if oracles.dbar_member(16, want["levels"], wit):
            return "witness lies in the set sum"
        return None

    def corrupt(self, results):
        rc, out, text = results[0]
        rep = json.loads(text)
        cert = rep["conclusions"][0]["certificate"]
        if "span_witness" in cert:
            cert["span_witness"] = [0] * 16
        else:
            cert["is_lattice"] = not cert["is_lattice"]
        return [(rc, out, json.dumps(rep))]


WORKLOADS = {w.name: w for w in (Cor23Verify(), LatticeAnalyze(), CodeConstruct(), DbarDecide())}


def generate(name: str, seed: int, out: Path) -> list[dict]:
    out.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[name].generate(seed, out)
    (out / "ops.json").write_text(json.dumps(ops, indent=1) + "\n", encoding="ascii")
    return ops


def load_ops(indir: Path) -> list[dict]:
    return json.loads((indir / "ops.json").read_text(encoding="ascii"))


def input_digest(indir: Path) -> str:
    """Hash of every generated input file, to compare set-up repetitions."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(indir)):
        h.update(name.encode())
        h.update((indir / name).read_bytes())
    return h.hexdigest()
