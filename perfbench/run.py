"""Benchmark command: one workload per process, checked, with one JSON result line.

    python3 perfbench/run.py --workload decode-small --seed 1 --seconds 25 --trace 0

Run it through the command in BENCHMARK.json, which pins the BLAS and OpenMP
pools to one thread.  With ``--trace 0`` the last line of standard output
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a separate traced run, whose spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np  # imported before the set-up span starts

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 10  # extra set-up measurements, each in a fresh process
RATE_BLOCKS = 5  # work_per_cpu_s is the median rate over this many op blocks


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def cpu_seconds() -> float:
    """CPU time of this process plus that of children it has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def import_package() -> None:
    """Import spinqec from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    workloads.load_package()
    origin = Path(workloads.codes.__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"spinqec was imported from {origin}, not from {SRC}")


def set_up(name: str, seed: int, tracer: Tracer | None = None):
    """Import the package and build the workload; returns (workload, CPU s)."""
    t0 = cpu_seconds()
    import_package()
    work = workloads.WORKLOADS[name](seed)
    if tracer is not None:
        tracer.install()
    work.setup()
    if tracer is not None:
        tracer.uninstall()
    return work, cpu_seconds() - t0


def probe_setup(name: str, seed: int) -> list[float]:
    """Set-up CPU seconds measured in fresh child processes."""
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--setup-probe"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        out.append(float(res.stdout.split()[-1]))
    return out


def run_ops(seconds: float, per_round: int, min_ops: int, run_op, digest):
    """Whole rounds of ops until ``seconds`` have passed and ``min_ops`` are done.

    Each op's output is digested after its CPU time is taken.  Returns
    (attempted, digests, op CPU seconds, failed op indices).
    """
    records, op_times, failed = {}, {}, set()
    i = 0
    began = time.perf_counter()
    while i % per_round or i < min_ops or time.perf_counter() - began < seconds:
        t0 = time.process_time()
        try:
            out = run_op(i)
            op_times[i] = time.process_time() - t0
            records[i] = digest(out)
        except Exception as exc:  # a raising op counts as failed, the run goes on
            print(f"op {i} raised {exc!r}", file=sys.stderr)
            failed.add(i)
        i += 1
    return i, records, op_times, failed


def ops_per_round(work) -> int:
    return len(getattr(work, "p_values", (None,)))


def min_ops_for(work) -> int:
    """Fewest ops that leave at least 10 beyond the tail percentile."""
    need = math.ceil(10 / (1 - work.tail_percentile / 100) - 1e-9)
    per_round = ops_per_round(work)
    return per_round * math.ceil(need / per_round)


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def block_rate(op_cpu: list, units_per_op: float) -> float:
    """Units per CPU second: the median over consecutive blocks of ops.

    The machine's speed drifts over seconds; the median over blocks keeps
    one fast or slow stretch from moving the figure.
    """
    blocks = np.array_split(np.asarray(op_cpu), min(RATE_BLOCKS, len(op_cpu)))
    return statistics.median(units_per_op * len(b) / b.sum() for b in blocks)


def check(work, records: dict, failed: set) -> bool:
    try:
        bad_ops, problems = work.check(records)
    except Exception as exc:
        problems = [f"check raised {exc!r}"]
        bad_ops = set()
    failed |= bad_ops
    for p in problems:
        print(f"CHECK FAILED [{work.name}]: {p}", file=sys.stderr)
    return not problems


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only measure set-up and print its CPU seconds")
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(set_up(args.workload, args.seed)[1])
        return 0
    if args.trace:
        return traced_run(args, spec["per_layer"])

    work, setup0 = set_up(args.workload, args.seed)
    setups = [setup0] + probe_setup(args.workload, args.seed)
    n, records, op_times, failed = run_ops(
        args.seconds, ops_per_round(work), min_ops_for(work), work.op, work.digest)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = check(work, records, failed)
    good = [t for i, t in op_times.items() if i not in failed]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "work_per_cpu_s": (block_rate(good, work.units_per_op), "1/s"),
        "op_cpu_ms_p50": (1e3 * statistics.median(good), "ms"),
        "op_cpu_ms_tail": (1e3 * percentile(good, work.tail_percentile), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"{work.name}: {n} ops, tail = p{work.tail_percentile}, "
          f"set-up samples {[round(s, 4) for s in setups]}", file=sys.stderr)
    emit(correct, n, len(failed), metrics)
    return 0


def traced_run(args, per_layer: list) -> int:
    """Untraced and traced rounds in turn; per-layer metrics from the spans.

    Alternating rounds lets both kinds of op see the same drift in machine
    speed, so ``trace.overhead`` compares like with like.
    """
    tracer = Tracer()
    work, _ = set_up(args.workload, args.seed, tracer)
    per_round = ops_per_round(work)

    def traced(i):
        return i // per_round % 2 == 1

    def op(i):
        if not traced(i):
            return work.op(i)
        tracer.install()
        try:
            return tracer.run_op(i, work.op)
        finally:
            tracer.uninstall()

    n, records, times, failed = run_ops(
        args.seconds, 2 * per_round, 2 * per_round, op, work.digest)
    plain_times = [t for i, t in times.items() if not traced(i)]
    traced_times = [t for i, t in times.items() if traced(i)]
    correct = check(work, records, failed)
    overhead = statistics.fmean(plain_times) / statistics.fmean(traced_times)
    metrics = tracer.metrics(per_layer, len(traced_times), overhead)
    shares = tracer.op_shares()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{work.name}-{args.seed}.json"
    tracer.write(path, {"workload": work.name, "seed": args.seed,
                        "traced_ops": len(traced_times), "untraced_ops": len(plain_times),
                        "op_shares": shares})
    print("share of op time: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()),
          file=sys.stderr)
    if tracer.absent:
        print(f"absent from the package: {', '.join(tracer.absent)}", file=sys.stderr)
    print(f"{work.name}: spans in {path.relative_to(HERE.parent)}", file=sys.stderr)
    emit(correct, n, len(failed),
         {k: (v["value"], v["unit"]) for k, v in metrics.items()})
    return 0


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
