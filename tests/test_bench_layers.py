"""One traced pass of each benchmark workload must satisfy the checks that
make ``perfbench/run.py --trace 1`` exit 3.

A traced benchmark run fails when a layer listed in its workload's
``layers`` records no span, or when op 0 run again counts different work.
A change that routes a workload around a listed layer (say, an enumeration
path with no LLL) breaks every traced run while all other tests pass.  Here
each workload's seed-777 inputs are generated, ``spans.Tracer`` is
installed, one pass runs through ``cli.main`` with ``begin_op()`` per op,
and op 0 runs once more.  This runs in a subprocess because ``spans.py``
imports the benchmark's own ``oracles``, which would collide with
``tests/oracles.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PASS = r"""
import contextlib, io, json, sys
from pathlib import Path

root, name, tmp = Path(sys.argv[1]), sys.argv[2], Path(sys.argv[3])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import codelattice
from codelattice import cli
import prepare, spans, workloads

wl = workloads.WORKLOADS[name]
indir, outdir = tmp / "inputs", tmp / "outputs"
outdir.mkdir(parents=True)
prepare.load_bundled()
ops = workloads.generate(name, 777, indir)
tracer = spans.Tracer(codelattice)
tracer.install()
rcs = []
try:
    for op in ops + ops[:1]:
        tracer.begin_op()
        for argv in wl.argv(op, indir, outdir):
            with contextlib.redirect_stdout(io.StringIO()):
                rcs.append(cli.main(argv))
finally:
    tracer.uninstall()
span_count = tracer.layer_self_ns(len(ops))[1]
print(json.dumps({
    "rcs": rcs,
    "layers": list(wl.layers),
    "spans": span_count,
    "first": tracer.counts[0],
    "again": tracer.counts[-1],
}))
"""


@pytest.mark.parametrize("name", ["cor23-verify", "lattice-analyze", "code-construct", "dbar-decide"])
def test_traced_pass_records_every_layer_and_repeats_its_counts(name, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", PASS, str(ROOT), name, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out["rcs"]) == {0}
    assert out["layers"]
    assert [layer for layer in out["layers"] if not out["spans"][layer]] == []
    assert out["first"] == out["again"]
