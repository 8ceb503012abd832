"""Benchmark of codelattice: seeded closed-loop workloads with exact oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one process, one op at a time.  Each op calls
``codelattice.cli.main`` in-process with ``--out`` into a scratch directory
under ``.bench_build/perfbench``; only the op's calls are timed.  Set-up
runs ``prepare.py`` in fresh processes.  With ``--trace 0`` the run prints
the end-to-end metrics; with ``--trace 1`` it measures half the time
untraced and half traced, and prints per-layer self times, work counts and
the tracing overhead.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import prepare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUPS = 9  # set-up repetitions; setup_s is their median
REFERENCE_REPS = 3  # reference samples before every op and set-up, and after each pass
TAIL_ABOVE = 10  # op_tail_s is the latency with this many samples above it
MIN_OPS = TAIL_ABOVE + 1
HARD_STOP_S = 120.0  # no pass starts this long after the first op, so a run ends in time
SETUP_TIMEOUT_S = 30.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "verified_op_ratio": "ratio",
}


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "codelattice").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Clock:
    """Converts measured seconds to seconds at the reference speed.

    The shared host runs this process 25-40% faster or slower for tens of
    seconds at a time.  The workload's reference kernel (see calibrate.py)
    is timed REFERENCE_REPS times before every op and set-up and after each
    pass; scaling each time by (nominal kernel time) / (mean kernel time)
    cancels most of that drift, so runs on different seeds and commits
    compare.
    """

    def __init__(self, kernel: str) -> None:
        self.kernel, self.nominal = calibrate.KERNELS[kernel]
        self.samples: list[float] = []

    def sample(self) -> None:
        for _ in range(REFERENCE_REPS):
            gc.collect()
            t0 = perf_counter()
            self.kernel()
            self.samples.append(perf_counter() - t0)

    def factor(self) -> float:
        return self.nominal / statistics.fmean(self.samples)


def set_up(name: str, seed: int, indir: Path, clock: Clock) -> float:
    """Run the set-up SETUPS times in fresh processes; median wall seconds."""
    times, digests = [], set()
    for _ in range(SETUPS):
        shutil.rmtree(indir, ignore_errors=True)
        clock.sample()
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), name, str(seed), str(indir)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up failed with exit code {proc.returncode}:\n{proc.stderr}")
        digests.add(workloads.input_digest(indir))
    if len(digests) != 1:
        fail("set-up wrote different inputs for the same seed")
    return statistics.median(times)


class Tally:
    """Ops attempted and ops failed (error exit or rejected by the oracle)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1


class Runner:
    def __init__(self, cli, wl: workloads.Workload, ops, wants, indir: Path, outdir: Path):
        self.cli, self.wl, self.ops, self.wants = cli, wl, ops, wants
        self.indir, self.outdir = indir, outdir
        self.tally = Tally()
        self.last_good = None  # (op index, results) of a verified op
        self.t_first = None  # when the first op started

    def run_op(self, op) -> tuple[float, list]:
        """Run one op; returns (seconds inside cli.main, results)."""
        busy, results = 0.0, []
        for argv in self.wl.argv(op, self.indir, self.outdir):
            out_path = Path(argv[argv.index("--out") + 1])
            out_path.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            gc.collect()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = self.cli.main(argv)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
            except Exception:  # an op that crashes is a failed op, the run goes on
                rc = -1
                traceback.print_exc()
            busy += perf_counter() - t0
            text = out_path.read_text(encoding="ascii") if out_path.exists() else ""
            results.append((rc, stdout.getvalue(), text))
        return busy, results

    def verified_op(self, i: int, tracer=None) -> float:
        """Run and check op i; returns its latency."""
        op = self.ops[i]
        if tracer is not None:
            tracer.begin_op()
        busy, results = self.run_op(op)
        reason = self.check(i, results)
        self.tally.record(reason)
        if reason is None:
            self.last_good = (i, results)
        else:
            print(f"perfbench: {op['label']}: {reason}", file=sys.stderr)
        return busy

    def measure(self, seconds: float, min_ops: int, clock: Clock, tracer=None):
        """Whole passes, ending at the pass boundary nearest to ``seconds``.

        Returns (busy seconds of each pass, latency of each op).
        """
        pass_times, latencies = [], []
        t_start = perf_counter()
        if self.t_first is None:
            self.t_first = t_start
        while True:
            lat = []
            for i in range(len(self.ops)):
                clock.sample()
                lat.append(self.verified_op(i, tracer))
            clock.sample()
            latencies += lat
            pass_times.append(sum(lat))
            elapsed = perf_counter() - t_start
            ending = elapsed + elapsed / len(pass_times) / 2 >= seconds
            if (ending and len(latencies) >= min_ops) or perf_counter() - self.t_first >= HARD_STOP_S:
                return pass_times, latencies

    def check(self, i: int, results) -> str | None:
        try:
            return self.wl.check(self.ops[i], self.wants[i], results)
        except (ValueError, KeyError, IndexError, TypeError) as e:
            return f"unreadable output: {e!r}"

    def self_test(self) -> bool:
        """A corrupted copy of a verified output must be counted as failed."""
        if self.last_good is None:
            return False
        i, results = self.last_good
        tally = Tally()
        tally.record(self.check(i, self.wl.corrupt(results)))
        return tally.attempted == 1 and tally.failed == 1


def tail_fraction(wl: workloads.Workload) -> float:
    """Percentile of op_tail_s: the highest one with TAIL_ABOVE samples above
    it in a run of ``wl.tail_ops`` ops.  It stays fixed when a faster
    program fits more ops into a run."""
    return (wl.tail_ops - TAIL_ABOVE) / wl.tail_ops


def end_to_end(wl, setup_s, setup_clock, n_ops, pass_times, latencies, tally, clock):
    """End-to-end metrics and their printed lines."""
    lat = sorted(latencies)
    n = len(lat)
    q = tail_fraction(wl)
    tail_idx = max(0, math.ceil(q * n - 1e-9) - 1)  # nearest rank
    f = clock.factor()
    raw = {
        "setup_s": setup_s,
        "ops_per_s": n_ops / statistics.median(pass_times),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": lat[tail_idx],
    }
    values = {
        "setup_s": raw["setup_s"] * setup_clock.factor(),
        "ops_per_s": raw["ops_per_s"] / f,
        "op_p50_s": raw["op_p50_s"] * f,
        "op_tail_s": raw["op_tail_s"] * f,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verified_op_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }
    notes = {
        "setup_s": f"median of {SETUPS} fresh-process set-ups",
        "ops_per_s": f"{n_ops} ops per pass / median busy time of {len(pass_times)} pass(es)",
        "op_p50_s": f"median of {n} ops",
        "op_tail_s": f"p{100 * q:.0f} of {n} ops, {n - 1 - tail_idx} above",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
        "verified_op_ratio": f"{tally.attempted - tally.failed}/{tally.attempted} verified; "
        f"failed_op_ratio = {tally.failed}/{tally.attempted}",
    }
    lines = [
        f"reference kernel: {1000 * clock.nominal / f:.3f} ms mean of {len(clock.samples)} "
        f"samples, op times scaled by {f:.4f} (set-up times by {setup_clock.factor():.4f}) "
        f"to its {1000 * clock.nominal:.1f} ms nominal"
    ]
    for name, unit in END_TO_END.items():
        was = f"raw {raw[name]:.6g}; " if name in raw else ""
        lines.append(f"{name} = {values[name]:.6g} {unit}  ({was}{notes[name]})")
    return values, lines


def traced(runner: Runner, package, name: str, seed: int, seconds: float, base: Path):
    """Untraced then traced phase; per-layer metrics and their printed lines."""
    n_ops = len(runner.ops)
    plain_clock, traced_clock = Clock(runner.wl.kernel), Clock(runner.wl.kernel)
    plain_passes, _ = runner.measure(seconds / 2, 1, plain_clock)
    tracer = spans.Tracer(package)
    tracer.install()
    try:
        traced_passes, traced_lat = runner.measure(seconds / 2, 1, traced_clock, tracer)
        n_traced = len(traced_lat)
        runner.verified_op(0, tracer)  # op 0 again: its counts must repeat
    finally:
        tracer.uninstall()

    def differ(a: dict, b: dict) -> dict:
        return {k: (a.get(k), b.get(k)) for k in set(a) | set(b) if a.get(k) != b.get(k)}

    if differ(tracer.counts[0], tracer.counts[-1]):
        fail(f"work counts of a repeated op differ: {differ(tracer.counts[0], tracer.counts[-1])}", 3)
    per_pass = [
        {k: sum(c[k] for c in tracer.counts[p * n_ops:(p + 1) * n_ops]) for k in spans.COUNTS}
        for p in range(n_traced // n_ops)
    ]
    for p, counts in enumerate(per_pass[1:], start=2):
        if differ(per_pass[0], counts):
            fail(f"work counts of pass {p} differ from pass 1: {differ(per_pass[0], counts)}", 3)
    counts_file = base.parent / "counts" / f"{name}-seed{seed}-{source_digest()}.json"
    if counts_file.exists():
        before = json.loads(counts_file.read_text(encoding="ascii"))
        if differ(before, per_pass[0]):
            fail(f"work counts differ from an earlier run with this seed: {differ(before, per_pass[0])}", 3)
    else:
        counts_file.parent.mkdir(parents=True, exist_ok=True)
        counts_file.write_text(json.dumps(per_pass[0], indent=1) + "\n", encoding="ascii")

    self_ns, span_count = tracer.layer_self_ns(n_traced)
    missing = [layer for layer in runner.wl.layers if span_count[layer] == 0]
    if missing:
        fail(f"expected layers recorded no span on {name}: {missing}", 3)
    tracer.write_jsonl(base / "trace.jsonl")

    f = traced_clock.factor()
    per_op = f / 1e9 / n_traced
    metrics = {f"{layer}_s": (self_ns[layer] * per_op, "s") for layer in spans.LAYERS}
    metrics.update({k: (v, "count") for k, v in per_pass[0].items()})
    plain_rate = n_ops / statistics.median(plain_passes) / plain_clock.factor()
    traced_rate = n_ops / statistics.median(traced_passes) / f
    op_s = statistics.fmean(traced_lat) * f
    attributed = sum(self_ns.values()) * per_op
    metrics.update({
        "trace.ops_per_s_untraced": (plain_rate, "1/s"),
        "trace.ops_per_s_traced": (traced_rate, "1/s"),
        "trace.overhead": (plain_rate / traced_rate - 1, "ratio"),
        "trace.op_s": (op_s, "s"),
        "trace.unattributed_s": (op_s - attributed, "s"),
    })
    self_metrics = {f"{layer}_s" for layer in spans.LAYERS}
    lines = [
        f"traced {n_traced} ops; self time per op and counts per pass of {n_ops} ops; "
        f"times at the reference speed (scaled by {f:.4f})"
    ]
    for key, (value, unit) in metrics.items():
        share = f"  ({100 * value / op_s:.1f}% of op)" if key in self_metrics else ""
        lines.append(f"{key} = {value:.6g} {unit}{share}")
    return metrics, lines


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # one fixed string-hash layout, so that runs differ only in their inputs
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        import codelattice
        from codelattice import cli
    except ImportError as e:
        fail(f"cannot import codelattice from {ROOT / 'src'}: {e}")

    wl = workloads.WORKLOADS[args.workload]
    runs = ROOT / ".bench_build" / "perfbench"
    for old in runs.glob(f"{args.workload}-seed*"):  # keep one run's files per workload
        shutil.rmtree(old)
    base = runs / f"{args.workload}-seed{args.seed}"
    indir, outdir = base / "inputs", base / "outputs"
    outdir.mkdir(parents=True)

    setup_clock = Clock(wl.kernel)
    setup_s = set_up(args.workload, args.seed, indir, setup_clock)
    prepare.load_bundled()  # as in the set-up, so that no op pays for the data
    ops = workloads.load_ops(indir)
    wants = [wl.expect(op, indir) for op in ops]
    runner = Runner(cli, wl, ops, wants, indir, outdir)

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per pass")
    for op in ops:
        print(f"  op: {op['label']}")
    if args.trace:
        metrics, lines = traced(runner, codelattice, args.workload, args.seed, args.seconds, base)
    else:
        clock = Clock(wl.kernel)
        pass_times, latencies = runner.measure(args.seconds, MIN_OPS, clock)
        values, lines = end_to_end(
            wl, setup_s, setup_clock, len(ops), pass_times, latencies, runner.tally, clock
        )
        metrics = {k: (values[k], END_TO_END[k]) for k in END_TO_END}
    self_test = runner.self_test()
    lines.append(f"oracle self-test (corrupted output counted as failed): {'ok' if self_test else 'FAILED'}")
    for line in lines:
        print(line)
    result = {
        "correct": runner.tally.failed == 0 and self_test,
        "attempted": runner.tally.attempted,
        "failed": runner.tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
