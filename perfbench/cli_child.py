"""Run ``casimir.cli.main`` with the benchmark's shims installed.

Usage: python3 cli_child.py TRACE_OUT SPAWN_MONOTONIC [casimir arguments...]

SPAWN_MONOTONIC is ``time.monotonic()`` read by the parent just before it
started this process; start-up is the time from then until ``main`` is
entered.  The span aggregates are written to TRACE_OUT as JSON when
``main`` returns.  Untraced runs call ``python3 -m casimir.cli`` instead.
"""

import json
import sys
import time

from tracing import Tracer


def run(argv: list[str]) -> int:
    out_path, spawned = argv[0], float(argv[1])
    import casimir.cli

    tracer = Tracer()
    tracer.install()
    tracer.startup_s.append(time.monotonic() - spawned)
    try:
        return casimir.cli.main(argv[2:])
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
