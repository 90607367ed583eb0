"""Traced ``repro serve``: install span wrappers, serve, dump spans on exit.

Usage: ``python perfbench/serve_traced.py SPANS_OUT serve [serve options]``

The wrappers time calls into the service's layers from outside the
program (``spans.install_serve_wrappers``); the program's own files are not
changed.  On SIGINT the server shuts down as ``repro serve`` does, and the
spans kept in memory are written to ``SPANS_OUT`` as JSON.
"""

from __future__ import annotations

import json
import sys

import spans


def main() -> int:
    out_path = sys.argv[1]
    recorder = spans.install_serve_wrappers()
    from repro.cli import main as repro_main

    code = repro_main(sys.argv[2:])
    with open(out_path, "w") as fh:
        json.dump(recorder.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
