"""Run one liekernel CLI invocation with the layer tracer installed.

Usage: python3 perfbench/launcher.py STATS_JSON ARG...

Calls ``liekernel.cli.main(ARGS)`` exactly as the console script would,
then writes the span aggregates, and the share of ``main`` spent inside
root spans, to STATS_JSON.  Exit code, stdout and any traceback are the
plain command's.
"""

import json
import sys
from time import perf_counter

from tracing import Tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    from liekernel import cli

    tracer = Tracer().install()
    t0 = perf_counter()
    try:
        return cli.main(argv)
    finally:
        elapsed = perf_counter() - t0
        tracer.uninstall()
        snap = tracer.snapshot()
        snap["coverage"] = tracer.root_s / elapsed
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(snap, fh)


if __name__ == "__main__":
    sys.exit(main())
