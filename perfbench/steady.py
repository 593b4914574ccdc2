"""Steadiness of the end-to-end metrics on one commit.

    python3 perfbench/steady.py --workloads all --seeds 1-10 --tag set1
    python3 perfbench/steady.py --compare set1 set2

The first form runs the BENCHMARK.json command once per seed and workload,
one run at a time, and prints per metric the median, the quartiles
(``statistics.quantiles(n=4)``), the spread (Q3 - Q1) / median, the largest
deviation from the median as a share of it, and the metric's bound.  Raw
results go to ``perfbench/out/steady-<tag>.json``.  The second form compares
the medians of two saved sets against the bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {res.returncode}:\n{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(t) for t in text.split(",")]


def summarize(spec: dict, results: dict) -> list[str]:
    lines = [f"{'workload':13} {'metric':15} {'median':>12} {'q1':>12} {'q3':>12} "
             f"{'iqr/med':>8} {'maxdev':>7} {'bound':>6}  failed/attempted"]
    for workload, runs in results.items():
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            dev = max(abs(v - med) for v in vals) / med
            flag = "" if (q3 - q1) / med < m["bound"] / 3 else " !"
            lines.append(
                f"{workload:13} {m['name']:15} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                f"{(q3 - q1) / med:8.4f} {dev:7.4f} {m['bound']:6.2f}{flag}  "
                f"{' '.join(shares) if m['name'] == 'setup_s' else ''}")
    return lines


def compare(spec: dict, first: dict, second: dict) -> list[str]:
    lines = [f"{'workload':13} {'metric':15} {'median 1':>12} {'median 2':>12} "
             f"{'worse by':>9} {'bound':>6}"]
    for workload in first:
        for m in spec["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in second[workload])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "" if worse <= m["bound"] else " !"
            lines.append(f"{workload:13} {m['name']:15} {a:12.6g} {b:12.6g} "
                         f"{worse:9.4f} {m['bound']:6.2f}{flag}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--tag", default="latest")
    ap.add_argument("--compare", nargs=2, metavar="TAG")
    args = ap.parse_args(argv)
    spec = load_spec()
    if args.compare:
        sets = [json.loads((OUT / f"steady-{t}.json").read_text()) for t in args.compare]
        print("\n".join(compare(spec, *sets)))
        return 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads != "all":
        names = args.workloads.split(",")
    seconds = args.seconds or spec["run_seconds"]
    results = {}
    for workload in names:
        results[workload] = []
        for seed in parse_seeds(args.seeds):
            res = run_once(spec, workload, seed, seconds, 0)
            if not res["correct"]:
                print(f"{workload} seed {seed}: checks failed", file=sys.stderr)
            results[workload].append(res)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    (OUT / f"steady-{args.tag}.json").write_text(json.dumps(results, indent=1))
    print("\n".join(summarize(spec, results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
