"""The icstalks benchmark: one workload, one seed, one time window.

    python3 perfbench/run.py --workload corpus-verify --seed 0 --seconds 26 --trace 0
    python3 perfbench/run.py --write-reference

Run from the root of a source checkout; icstalks is imported from ``src``.
Each run starts fresh worker processes: a few that only set up (import
icstalks and generate the seeded inputs), for the median ``setup_s``, and
one that also runs passes over the workload for ``--seconds`` (see
``worker.py``).  Every pass is checked against ``reference.json``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  ``wall_s`` and
``cpu_s`` are medians over the timed passes, rescaled to reference machine
speed (``speed.py``); ``setup_s`` is the median wall time of nine set-ups,
not rescaled.  An operation (one
verify check, or one cone's pipeline) is ``failed`` when its outcome differs
from the reference.  ``pass_ratio`` is the share of operations that neither
failed nor were reported failed by icstalks itself; on corpus-verify the four
criterion-7e checks fail by design and match the reference.  Everything
else (environment, each pass, gate details) is printed before the last line
and written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 8
DEADLINE_S = 175

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, program_failed  # noqa: E402


class BenchError(Exception):
    pass


def run_worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for p in (99, 95, 90):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def gate(passes: list[dict], reference: dict[str, str]) -> dict:
    attempted = mismatched = failed_any = 0
    mismatches = set()
    for p in passes:
        outcomes = p["outcomes"]
        for op in sorted(set(reference) | set(outcomes)):
            got = outcomes.get(op, "missing")
            attempted += 1
            bad = got != reference.get(op)
            if bad:
                mismatched += 1
                mismatches.add(f"{op}: got {got}, reference {reference.get(op, 'none')}")
            if bad or program_failed(got):
                failed_any += 1
    return {
        "attempted": attempted,
        "mismatched": mismatched,
        "failed_any": failed_any,
        "mismatches": sorted(mismatches)[:20],
    }


def load_spec() -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}, {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }


def bench(args) -> int:
    deadline = monotonic() + DEADLINE_S
    end_to_end, per_layer = load_spec()
    reference = json.loads(REFERENCE.read_text())[args.workload]
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = [run_worker(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{args.workload}.spans.json"
    main = run_worker(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        + (["--spans", str(spans_path)] if args.trace else []),
        deadline,
    )
    env["loadavg_end"] = os.getloadavg()
    env["flags"] = main["flags"]
    env["worker_python"] = main["python"]
    setup.append(main["setup_s"])
    setup += [run_worker(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]

    passes = main["passes"]
    first, timed = passes[0], passes[1:]
    untraced = [p for p in timed if not p["traced"]]
    traced = [p for p in timed if p["traced"]]
    check = gate(passes, reference)
    walls = [p["wall_ref_s"] for p in untraced]

    if args.trace:
        values = dict(main["per_layer"])
        values["trace.overhead_s"] = statistics.median(
            p["wall_ref_s"] for p in traced
        ) - statistics.median(walls)
        units = per_layer
    else:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(p["cpu_ref_s"] for p in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": main["peak_rss_mb"],
            "pass_ratio": 1 - check["failed_any"] / check["attempted"],
        }
        units = end_to_end
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}

    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"]
    for name, m in metrics.items():
        lines.append(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    tail = tail_percentile(walls)
    lines.append(f"  times at reference speed (see speed.py); n = {len(walls)} untraced timed passes")
    lines.append(
        f"  wall_s p{tail[0]} {tail[1]:.4f} s" if tail
        else "  too few passes for a tail percentile (needs ten beyond it)"
    )
    for label, group in (("first (untimed)", [first]), ("untraced", untraced), ("traced", traced)):
        for p in group:
            lines.append(
                f"  {label} pass: wall {p['wall_ref_s']:.4f} s (raw {p['wall_s']:.4f} s), "
                f"cpu {p['cpu_ref_s']:.4f} s (raw {p['cpu_s']:.4f} s), speed {p['speed']:.3f}"
            )
    lines.append(f"  setup_s samples (wall time, not rescaled): {[round(s, 4) for s in setup]}")
    lines.append(
        f"  fail_ratio {check['failed_any']}/{check['attempted']} "
        f"(reference mismatches: {check['mismatched']})"
    )
    for m in check["mismatches"]:
        lines.append(f"  MISMATCH {m}")
    lines.append("env " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))

    record = {
        "env": env,
        "metrics": metrics,
        "setup_samples": setup,
        "passes": [{k: v for k, v in p.items() if k != "outcomes"} for p in passes],
        "gate": check,
    }
    (RESULTS / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": check["mismatched"] == 0,
        "attempted": check["attempted"],
        "failed": check["mismatched"],
        "metrics": metrics,
    }))
    return 0


def write_reference() -> int:
    deadline = monotonic() + 3600
    reference = {}
    for name in WORKLOADS:
        passes = run_worker(["--workload", name, "--seed", "0", "--seconds", "0"], deadline)["passes"]
        if any(p["outcomes"] != passes[0]["outcomes"] for p in passes):
            raise BenchError(f"{name}: outcomes differ between passes")
        reference[name] = passes[0]["outcomes"]
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: the checks are asserts", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "icstalks" / "__init__.py").is_file():
        print(f"no icstalks source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            return write_reference()
        if args.workload is None:
            parser.error("--workload is required")
        return bench(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
