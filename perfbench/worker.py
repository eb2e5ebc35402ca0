"""One benchmark worker: set up, run passes for a time window, report JSON.

Run by ``run.py`` in a fresh process per workload:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Prints one JSON object on stdout.  Set-up is the import of icstalks plus the
generation of the seeded inputs.  The first pass is reported apart from the
timed passes.  Further passes start while the window has room for about half
of another one.  Each pass records its wall and CPU time, raw and rescaled
to reference speed by a ``SpeedProbe`` sampling during the pass.  With
``--trace 1`` the timed passes alternate traced and untraced, starting
traced, and the spans are written to ``--spans PATH``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: the checks are asserts", file=sys.stderr)
        return 2

    from speed import SpeedProbe
    from workloads import WORKLOADS

    start = perf_counter()
    import icstalks  # noqa: F401 - the import is part of set-up
    import icstalks.verify  # noqa: F401

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    setup_s = perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    passes = []
    window_start = perf_counter()
    probe = SpeedProbe()
    probe.start()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        mark = probe.mark()
        wall0, cpu0 = perf_counter(), process_time()
        try:
            if traced:
                result = tracer.run_pass(len(passes), workload.run_pass, inputs)
            else:
                result = workload.run_pass(inputs)
        finally:
            wall, cpu = perf_counter() - wall0, process_time() - cpu0
            if traced:
                tracer.uninstall()
        until = probe.mark()
        speed, own = probe.speed(mark, until), probe.kernel_time(mark, until)
        outcomes = workload.outcomes(result)
        del result
        passes.append({
            "wall_s": wall, "cpu_s": cpu, "wall_ref_s": (wall - own) * speed, "cpu_ref_s": (cpu - own) * speed,
            "speed": speed, "traced": traced, "outcomes": outcomes,
        })
        elapsed = perf_counter() - window_start
        estimate = statistics.median(p["wall_s"] for p in passes)
        minimum = 3 if tracer is not None else 2
        if len(passes) >= minimum and elapsed + estimate / 2 >= args.seconds:
            break
    probe.stop()

    out = {
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "flags": {k: getattr(sys.flags, k) for k in dir(sys.flags) if not k.startswith("_")
                  and not callable(getattr(sys.flags, k))},
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        out["per_layer"] = tracer.per_layer(
            {i: p["speed"] for i, p in enumerate(passes) if p["traced"]}
        )
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(tracer.spans_json(), fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
