"""Repeat benchmark runs and summarise their spread.

    python3 perfbench/collect.py --runs 10 --first-seed 1 [--workload NAME ...] [--trace 0|1]
        [--out FILE]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...) for each
workload, one run at a time, and prints for every metric its ten values'
median, quartiles and spread: (Q3 - Q1) / median, the quartiles as
statistics.quantiles(values, n=4) gives them.  With --out the summary is
also written as JSON (this is how baseline.json was recorded).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["details"] = json.loads(lines[-2])["details"]
    result["wall_s"] = wall
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [
            run_once(workload, args.first_seed + i, spec["run_seconds"], args.trace)
            for i in range(args.runs)
        ]
        names = runs[0]["metrics"]
        summary[workload] = {
            "runs": len(runs),
            "seeds": [args.first_seed + i for i in range(args.runs)],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "max_wall_s": max(r["wall_s"] for r in runs),
            "environment": runs[0]["details"]["environment"],
            "metrics": {
                name: dict(summarise([r["metrics"][name]["value"] for r in runs]),
                           unit=runs[0]["metrics"][name]["unit"])
                for name in names
            },
        }
        s = summary[workload]
        print(f"{workload}: {s['runs']} runs, {s['failed']}/{s['attempted']} failed, "
              f"longest run {s['max_wall_s']:.1f} s")
        for name, m in s["metrics"].items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}  {'OK' if m['spread'] < bound / 3 else 'WIDE'}"
            print(f"  {name:48s} median {m['median']:.6g} {m['unit']:8s} "
                  f"spread {m['spread']:.4f}{flag}")
        sys.stdout.flush()
    if args.out:
        doc = {"trace": args.trace, "run_seconds": spec["run_seconds"],
               "python": platform.python_version(), "workloads": summary}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
