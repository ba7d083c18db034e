#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lib-clustered --seed 1 --seconds 10 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
every end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``.  The lines before it repeat each
metric with its unit and sample count.  A wrong answer exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _report(wl, result: dict, spec: dict, trace: bool) -> None:
    samples = result["samples"]
    lat = samples["query"]
    print(f"# {wl.name}  host {json.dumps(result['host'])}")
    counts = {
        "setup_s": f"n={samples['setup_s']} set-ups, median",
        "query_qps": f"n={lat['n']} calls",
        "query_p50_ms": f"n={lat['n']} calls",
        "query_tail_ms": f"p{lat['tail_pct']:g}, n={lat['n']}, "
                         f"{lat['tail_beyond']} beyond",
        "recall_at_10": f"n={samples['recall_at_10']} answers",
        "memory_mb": samples["memory_note"],
    }
    for metric in spec["end_to_end"]:
        name = metric["name"]
        print(f"{name:>16} = {result['end_to_end'][name]:.6g} {metric['unit']}"
              f"  ({counts[name]})")
    outcomes = result["outcomes"]
    print(f"{'failed_frac':>16} = {outcomes.failed_frac:.6g} fraction"
          f"  ({outcomes.failed} of {outcomes.attempted} operations: "
          f"{dict(outcomes.kinds)})")
    for line in result.get("notes", []):
        print(f"{'':>16}   {line}")
    print(f"{'answers digest':>16} = {result['digest']}")
    if trace:
        for metric in spec["per_layer"]:
            value = result["layers"].get(metric["name"], 0.0)
            print(f"  {metric['name']:<28} {value:.6g} {metric['unit']}")
        layers = result["layers"]
        if "index.traverse_share" in layers:
            print(f"  engine split: traversal {layers['index.traverse_share']:.1%}, "
                  f"verification {layers['core.verify_share']:.1%} "
                  f"(ROADMAP's cProfile figure: 62-75% traversal)")
    if result["problem"] is not None:
        print(f"WRONG ANSWER: {result['problem']}", file=sys.stderr)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program source at src/repro; run it from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # One BLAS thread in this process and every serve it starts, before
    # numpy loads.  On a 2-CPU host OpenBLAS's second thread competes
    # with the serve's own processes: with it, http-mixed ran ~20% fewer
    # queries per second and its tail spread tripled from run to run.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    if wl.http:
        from perfbench import httpload as runner
    else:
        from perfbench import libload as runner
    result = runner.run(wl, args.seed, args.seconds, bool(args.trace))
    _report(wl, result, spec, bool(args.trace))

    if args.trace:
        chosen = {m["name"]: (result["layers"].get(m["name"], 0.0), m["unit"])
                  for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: (result["end_to_end"][m["name"]], m["unit"])
                  for m in spec["end_to_end"]}
    outcomes = result["outcomes"]
    correct = result["problem"] is None
    print(json.dumps({
        "correct": correct,
        "attempted": max(outcomes.attempted, 1),
        "failed": outcomes.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
