"""Shared helpers of the benchmark: paths, clocks, process readings, output.

Everything here reads only the benchmark's own process or the processes it
started (``/proc/<pid>``), and writes only inside the checkout.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch files a run leaves for itself (span dumps); removed at the end.
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")

_CLK_TCK = os.sysconf("SC_CLK_TCK")

WORKLOADS = ("serve-recurrent", "serve-cold", "sim-fig8")
#: The scheduler stacks of the paper's evaluation, in its plotting order.
STACK_NAMES = ("EDF", "FIFO", "Fair", "WOHA-HLF", "WOHA-MPF", "WOHA-LPF")


class CheckFailed(AssertionError):
    """An output of the program broke a property the benchmark checks."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def src_available() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def child_env() -> Dict[str, str]:
    """Environment for a program process: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of unsorted values (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def environment() -> Dict[str, Any]:
    """Where the figures were measured: python, cores, platform, commit."""
    commit: Optional[str] = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=5, check=False,
        )
        if out.returncode == 0:
            commit = out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
    }


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def emit(result: Dict[str, Any]) -> None:
    """Print the run's one-line JSON result as the last line of stdout."""
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True), flush=True)


def info(message: str) -> None:
    """Human-readable progress and reports go to stderr, never the result line."""
    print(message, file=sys.stderr, flush=True)
