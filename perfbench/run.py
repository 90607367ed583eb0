"""The repo's benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-recurrent --seed 1 --seconds 20 --trace 0

Workloads: ``serve-recurrent`` and ``serve-cold`` drive a ``repro serve``
process over loopback; ``sim-fig8`` runs the Fig 8-10 sweep in this
process.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Progress, checks and the reconciliation report go to
stderr; stdout carries a header line (seeds and environment) and, last,
the result: ``{"correct", "attempted", "failed", "metrics"}``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from common import SRC, WORKLOADS, emit, environment, info, src_available  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # A shell that starts this in the background may leave SIGINT ignored,
    # and servers started from here would inherit that; with a handler
    # installed they start with the default and shut down on SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not src_available():
        info(f"no program source at {SRC}: run from a checkout of the repository")
        return 2
    sys.path.insert(1, SRC)
    if args.workload == "sim-fig8":
        import sim_fig8 as workload
    else:
        import serve_load as workload
    header = {"workload": args.workload, "seed": args.seed,
              "input_seeds": workload.input_seeds(args.workload, args.seed),
              "seconds": args.seconds, "trace": args.trace, "env": environment()}
    print("# perfbench " + json.dumps(header, sort_keys=True), flush=True)
    result = workload.run(args.workload, args.seed, args.seconds, bool(args.trace))
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
