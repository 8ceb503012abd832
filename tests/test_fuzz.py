"""Seeded mutation fuzz of the input files: a hostile file is refused, never a crash.

Each bundled matrix file, the non-closed tower manifest and its level
files are mutated token by token and byte by byte, and every mutant runs
in process through the commands that read such files.  Each call must
end with an exit code in 0..5 (70 is an internal error, a bug) and
within 2 s.  Every call reads the mutated file whole, so a mutant holding
a byte >= 0x80 is not ASCII and must exit 2, a parse error.
"""

import random
import shutil
import time
from pathlib import Path

from codelattice.cli import main
from codelattice.matio import data_path

MATRICES = ["cor23_A.txt", "cor23_B.txt", "cor23_w.txt", "cor25_A.txt", "cor25_B.txt",
            "cor25_z.txt", "golay24.txt"]
TOWER = ["tower_nonclosed.manifest.txt", "tower_nonclosed_c1.txt", "tower_nonclosed_c2.txt"]
MUTANTS = 300
TOKENS = ["0", "1", "2", "-1", "+1", "00", "-0", "F2", "Z", "tower", "a", "1_0", "0x1",
          "١", "99999", "-5", "9" * 30, "9" * 5000, "#", ""]


def _mutate(rng: random.Random, data: bytes) -> bytes:
    """One or two seeded token or byte mutations of a file's bytes."""
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(6)
        if kind < 3:  # replace, duplicate or drop one whitespace-separated token
            lines = [ln.split(b" ") for ln in data.split(b"\n")]
            spots = [(i, j) for i, ln in enumerate(lines) for j in range(len(ln))]
            i, j = rng.choice(spots)
            if kind == 0:  # a bit half the time, so that many mutants still parse
                lines[i][j] = rng.choice(TOKENS[:2] if rng.randrange(2) else TOKENS).encode()
            elif kind == 1:
                lines[i].insert(j, lines[i][j])
            else:
                del lines[i][j]
            data = b"\n".join(b" ".join(ln) for ln in lines)
        elif kind == 3:  # set one byte to any value
            if data:
                at = rng.randrange(len(data))
                data = data[:at] + bytes([rng.randrange(256)]) + data[at + 1:]
        elif kind == 4:  # insert one byte
            at = rng.randrange(len(data) + 1)
            data = data[:at] + bytes([rng.choice(b" \n01-9ZF\x00\xff")]) + data[at:]
        else:  # truncate
            data = data[: rng.randrange(len(data) + 1)]
    return data


def test_mutated_inputs_exit_with_a_verdict_in_time(tmp_path, capsys):
    rng = random.Random(2600)
    names = MATRICES + TOWER
    exits = set()
    non_ascii = 0
    for t in range(MUTANTS):
        name = names[t % len(names)]
        case = tmp_path / str(t)
        case.mkdir()
        for other in TOWER:
            shutil.copy(data_path(other), case / other)
        target = case / name
        data = _mutate(rng, Path(data_path(name)).read_bytes())
        target.write_bytes(data)
        allowed = [2] if max(data, default=0) >= 0x80 else range(6)
        non_ascii += allowed == [2]
        path, manifest = str(target), str(case / TOWER[0])
        calls = [
            ["code-info", path],
            ["construct", path, "--construction", "a"],
            ["construct", path, "--construction", "simplified-d"],
            ["lattice-analyze", path],
        ]
        if name in TOWER:
            calls += [
                ["construct", manifest, "--construction", "d-bar"],
                ["verify", "dbar-schur", "--tower", manifest, "--no-timing"],
            ]
        for argv in calls:
            t0 = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - t0
            err = capsys.readouterr().err
            assert code in allowed, (name, t, argv, err)
            assert elapsed < 2.0, (name, t, argv, elapsed)
            exits.add(code)
    assert {0, 2} <= exits  # some mutants still parse and run to the end
    assert non_ascii > 20
