"""Measure a baseline: every workload on several seeds, plus one traced run
each, summarised as medians and quartile spreads.

    python3 benchmarks/baseline.py --out benchmarks/baseline.json

Every workload of BENCHMARK.json runs on seeds 1-10, each run a fresh
`benchmarks/run.py` process, one after the other.  The spread of a metric
is (Q3 - Q1) / median over the seeds, with the quartiles of
`statistics.quantiles(values, n=4)`.  The traced run uses the first seed;
its `trace.wall_s` minus that seed's untraced `wall_s` is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr.strip()[-400:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["details"] = json.loads(lines[-2])
    return result


def summarise(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "samples": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]

    report = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            res = run(workload, seed, seconds, 0)
            runs.append({"seed": seed, "correct": res["correct"],
                         "attempted": res["attempted"], "failed": res["failed"],
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                         "passes": res["details"]["samples"]["passes"],
                         "digests": res["details"]["digests"]})
            report["environment"] = res["details"]["environment"]
            print(workload, runs[-1], file=sys.stderr, flush=True)
        traced = run(workload, runs[0]["seed"], seconds, 1)
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        selfs = {k.split(".")[0]: v for k, v in layer.items() if k.endswith(".self_s")}
        total = sum(selfs.values()) or 1.0
        report["workloads"][workload] = {
            "summary": {k: summarise([r["metrics"][k] for r in runs])
                        for k in runs[0]["metrics"]},
            "runs": runs,
            "trace": {
                "seed": runs[0]["seed"], "correct": traced["correct"],
                "self_time_share": sorted(([k, v / total] for k, v in selfs.items()),
                                          key=lambda kv: -kv[1]),
                "overhead_s": layer["trace.wall_s"] - runs[0]["metrics"]["wall_s"],
                "metrics": {k: v for k, v in layer.items() if v},
            },
        }
    with open(args.out, "w", newline="\n") as fh:
        fh.write(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
