"""Set-up step, run in a fresh process and timed from outside as ``setup_s``.

Imports ``codelattice`` from the checkout's ``src``, loads its bundled data,
and writes the seeded input files of one workload:

    python3 perfbench/prepare.py WORKLOAD SEED OUTDIR
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def load_bundled() -> None:
    """Load (and cache) every bundled instance of ``codelattice``."""
    from codelattice import matio

    matio.golay_code()
    matio.cor23_matrices()
    matio.cor25_matrices()
    matio.nonclosed_tower()


def main(argv: list[str]) -> int:
    import workloads

    load_bundled()
    workloads.generate(argv[0], int(argv[1]), Path(argv[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
