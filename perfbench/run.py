"""Benchmark for qdilemma: one closed-loop client in one process.

    python3 perfbench/run.py --workload nash_scan --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports qdilemma from ./src
and writes only under perfbench/out/.  With --trace 0 it prints the
end-to-end metrics; with --trace 1 it runs an untraced and a traced pass over
the same ops and prints the per-layer metrics.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Lines
before it, starting with "#", describe the machine and the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
MAX_WINDOWS = 20
MIN_WINDOW_OPS = 100


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable CPU count, before numpy is imported.

    Also inherited by the set-up probes, so no GEMM uses more cores than the
    machine gives this process."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        cap = nproc
        if current.isdigit() and int(current) > 0:
            cap = min(cap, int(current))
        os.environ[var] = str(cap)
    return nproc


def probe_setup(workload: str, tmpdir: str) -> tuple[float, str | None]:
    """Wall time of a fresh interpreter that imports qdilemma and runs the
    workload's set-up op, and its error if it failed."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, tmpdir],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode == 0:
        return elapsed, None
    lines = proc.stderr.strip().splitlines()
    return elapsed, lines[-1] if lines else f"exit code {proc.returncode}"


class Loop:
    """Runs and checks ops, counting attempts and failures."""

    @staticmethod
    def self_check(workload) -> list[str]:
        """Labels of the corrupted outputs that a fresh Loop failed to count
        as failures; empty when the oracle is not vacuous."""
        missed = []
        try:
            for label, op, out in workload.corruptions():
                probe = Loop(workload)
                probe.record(op, out)
                if (probe.attempted, probe.failed) != (1, 1):
                    missed.append(label)
        except Exception as exc:  # the uncorrupted outputs were already wrong
            missed.append(f"self-check could not run: {type(exc).__name__}: {exc}")
        return missed

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0

    def run(self, op, call=None) -> float:
        """Run one op, check it outside the timed region, return its seconds."""
        call = call or self.w.run
        t0 = time.perf_counter()
        try:
            out = call(op)
        except Exception as exc:  # an op that raises is a failed op
            elapsed = time.perf_counter() - t0
            self.attempted += 1
            self.failed += 1
            print(f"# op failed: {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - t0
        if not self.record(op, out):
            print(f"# wrong output: {op}")
        return elapsed

    def record(self, op, out) -> bool:
        """Check one output and count it; returns whether it passed."""
        self.attempted += 1
        try:
            ok = self.w.check(op, out)
        except Exception as exc:
            print(f"# check raised: {type(exc).__name__}: {exc}")
            ok = False
        if not ok:
            self.failed += 1
        return ok

    def peak_bytes(self, op) -> int:
        """tracemalloc peak of one op above what was allocated before it."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            self.run(op)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    still has ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0) if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def windows(latencies: list[float], cycle: int) -> list[list[float]]:
    """Cut the timed ops into consecutive windows of whole cycles, so every
    window does the same work: as many as fit, up to MAX_WINDOWS, with at
    least MIN_WINDOW_OPS ops each.  A trailing part cycle is left out."""
    smallest = math.ceil(MIN_WINDOW_OPS / cycle) * cycle
    count = min(MAX_WINDOWS, max(1, len(latencies) // smallest))
    size = len(latencies) // count // cycle * cycle
    if size == 0:
        return [latencies]
    return [latencies[i * size:(i + 1) * size] for i in range(count)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(w, args, tmpdir: str) -> dict:
    loop = Loop(w)
    missed = Loop.self_check(w)
    stream = w.ops()
    for _ in range(w.warmup_ops):
        loop.run(next(stream))
    peaks = [loop.peak_bytes(next(stream)) for _ in range(w.mem_ops)]

    # The set-up probes run at even intervals of loop time, with the loop
    # paused, so they sample the host across the run as the ops do.
    latencies, setup = [], []
    elapsed = 0.0  # loop time, probes excluded
    while True:
        if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * args.seconds / SETUP_REPEATS:
            seconds, error = probe_setup(w.name, tmpdir)
            setup.append(seconds)
            loop.attempted += 1
            if error is not None:
                loop.failed += 1
                print(f"# setup probe failed: {error}")
            continue
        if elapsed >= args.seconds:
            break
        t0 = time.perf_counter()
        latencies.append(loop.run(next(stream)))
        elapsed += time.perf_counter() - t0
    print(f"# setup probes (s): {' '.join(f'{t:.4f}' for t in setup)}")

    # Neighbours on a shared host slow stretches of a run by up to half, so
    # each metric is taken per window and the run reports the median.
    cut = windows(latencies, w.cycle)
    tails = [tail(window) for window in cut]
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "throughput_ops_per_s": metric(statistics.median(len(x) / sum(x) for x in cut), "ops/s"),
        "latency_p50_ms": metric(1e3 * statistics.median(statistics.median(x) for x in cut), "ms"),
        "latency_tail_ms": metric(1e3 * statistics.median(t[0] for t in tails), "ms"),
        "peak_mem_mb": metric(statistics.median(peaks) / 1e6, "MB"),
    }
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    _, pct, beyond = tails[0]
    print(f"# {len(latencies)} timed ops in {len(cut)} windows of {len(cut[0])}; each metric "
          f"is the median over windows; the tail is p{pct:.2f} of a window ({beyond} beyond)")
    print(f"# over all timed ops: throughput {len(latencies) / sum(latencies):.6g} ops/s, "
          f"p50 {1e3 * statistics.median(latencies):.6g} ms, "
          f"tail {1e3 * tail(latencies)[0]:.6g} ms (p{tail(latencies)[1]:.2f})")
    print(f"# fail_ratio = {loop.failed}/{loop.attempted} = "
          f"{loop.failed / loop.attempted:.6g} ratio")
    return report(loop, missed, metrics)


def trace_run(w, args) -> dict:
    import tracer

    missed = Loop.self_check(w)
    loop = Loop(w)
    stream = w.ops()
    for _ in range(w.warmup_ops):
        loop.run(next(stream))
    ops = [next(stream) for _ in range(w.trace_ops)]

    # Each op runs once untraced and once traced, alternating which goes
    # first, so drift and cache warmth fall on both sides alike.
    rec = tracer.Recorder()
    op_call = rec.wrap("op", w.run)
    untraced = traced = 0.0
    for i, op in enumerate(ops):
        for with_trace in ((False, True) if i % 2 else (True, False)):
            if not with_trace:
                untraced += loop.run(op)
                continue
            rec.op = i
            with rec.installed():
                traced += loop.run(op, op_call)

    per_op = tracer.layer_metrics(rec.spans, len(ops))
    per_op["trace.throughput_ratio"] = untraced / traced
    metrics = {name: metric(per_op[name], unit) for name, unit, _ in tracer.PER_LAYER}
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# traced pass: {len(ops)} ops, untraced {len(ops) / untraced:.6g} ops/s, "
          f"traced {len(ops) / traced:.6g} ops/s, mean op {1e3 * untraced / len(ops):.6g} ms")
    for label, seconds, calls in tracer.baseline_rows(rec.spans):
        print(f"# baseline {label}: {1e3 * seconds:.4g} ms median of {calls} calls")
    spans_path = OUT_DIR / f"spans-{w.name}-{args.seed}.jsonl"
    rec.write(spans_path)
    print(f"# spans written to {spans_path.relative_to(ROOT)}")
    return report(loop, missed, metrics)


def report(loop: Loop, missed: list[str], metrics: dict) -> dict:
    for label in missed:
        print(f"# oracle self-check failed: {label}")
    return {
        "correct": loop.failed == 0 and not missed,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("nash_scan", "noisy_trials", "figure_datasets"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    nproc = cap_blas_threads()
    if not (SRC / "qdilemma" / "__init__.py").is_file():
        print(f"error: qdilemma sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import envinfo
    import qdilemma
    import workloads

    if not Path(qdilemma.__file__).resolve().is_relative_to(SRC):
        print(f"error: qdilemma imported from {qdilemma.__file__}, not {SRC}", file=sys.stderr)
        return 2

    for line in envinfo.describe(nproc):
        print(f"# env: {line}")
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmpdir:
        w = workloads.WORKLOADS[args.workload](args.seed, tmpdir)
        result = trace_run(w, args) if args.trace else timed_run(w, args, tmpdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
