"""Short smoke run of every workload, checks on.

    python3 perfbench/smoke.py

For each workload it runs the BENCHMARK.json command for one second untraced
and traced, and asserts that the checks pass, no op fails and every metric
named in BENCHMARK.json is printed with its unit.  It then copies the
benchmark alone (BENCHMARK.json and its directories, without the package)
into ``perfbench/out/bare`` and asserts that the command fails there without
printing a result.  Takes about two minutes, mostly the minimum op counts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(spec, cwd, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run(spec, ROOT, w["name"], trace)
            assert res.returncode == 0, res.stderr
            out = json.loads(res.stdout.strip().splitlines()[-1])
            assert set(out) == {"correct", "attempted", "failed", "metrics"}, out
            assert out["correct"] is True, res.stderr
            assert out["failed"] == 0 and out["attempted"] >= 1, out
            for m in spec[key]:
                got = out["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (m, got)
                assert isinstance(got["value"], float), (m, got)
            assert len(out["metrics"]) == len(spec[key])
            print(f"ok {w['name']} trace={trace}: {out['attempted']} ops")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = run(spec, bare, spec["workloads"][0]["name"], 0)
    assert res.returncode != 0, res.stdout
    assert '"metrics"' not in res.stdout, res.stdout
    shutil.rmtree(bare)
    print("ok: without the package the command exits", res.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
