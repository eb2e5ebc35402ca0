"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 perfbench/baseline.py --runs 10 [--workload NAME ...] [--out FILE]

Runs ``run.py`` once per (workload, seed) with seeds 1..runs, untraced, then
once traced with seed 1.  For every end-to-end metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound and a third of it.  ``--out`` writes the summary, the
environment and the traced per-layer table as JSON.
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


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    return json.loads(lines[-1]), env


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "bound": bound,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in range(1, args.runs + 1):
            result, env = run(workload, seed, spec["run_seconds"], 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs differ from the reference", file=sys.stderr)
                return 1
            results.append(result)
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        summary = {
            name: summarize([r["metrics"][name]["value"] for r in results], bound)
            for name, bound in bounds.items()
        }
        entry = {"end_to_end": summary, "attempted": results[0]["attempted"], "env": env}
        for name, s in summary.items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {workload} {name}: median {s['median']:.5g}, spread {s['spread']:.4f}, "
                  f"bound {s['bound']}{flag}", flush=True)
        traced, _env = run(workload, 1, spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
