"""Steadiness check: repeat each workload and compare its spread to the bounds.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --runs 10 --first-seed 1
    python3 perfbench/steadiness.py --workload sim-fig8 --runs 5

Each run is a separate ``perfbench/run.py`` process with its own seed
(``first-seed``, ``first-seed + 1``, ...) and the run length
``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end metric the
table shows the median, the quartiles (``statistics.quantiles(n=4)``) and
the relative spread ``(q3 - q1) / median`` beside the metric's bound from
``BENCHMARK.json``, so the bounds can be derived again on another machine:
a bound should be at least three times the spread seen here.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(workload: str, runs: List[Dict[str, Any]], spec: Dict[str, Any]) -> str:
    lines = [f"{workload}: {len(runs)} runs, "
             f"failed/attempted {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}, "
             f"correct {all(r['correct'] for r in runs)}"]
    header = ("metric", "unit", "median", "q1", "q3", "spread", "bound", "verdict")
    rows = [header]
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        verdict = "ok" if spread <= m["bound"] / 3 else ("within" if spread <= m["bound"] else "WIDE")
        rows.append((m["name"], m["unit"], f"{med:.4g}", f"{q1:.4g}", f"{q3:.4g}",
                     f"{spread:.3f}", f"{m['bound']:.2f}", verdict))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines += ["  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines)


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeat for several; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2")
    for workload in args.workload or names:
        runs = []
        for i in range(args.runs):
            runs.append(run_once(workload, args.first_seed + i, spec["run_seconds"]))
            print(f"  {workload} seed {args.first_seed + i}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(runs[-1]["metrics"].items())),
                file=sys.stderr, flush=True)
        print(summarize(workload, runs, spec), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
