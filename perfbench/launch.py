"""One benchmark sample: a fresh process running ``crflow run``.

    python3 perfbench/launch.py STAMP.json [--trace SPANS.json] run CONFIG --output-dir DIR

Imports ``crflow`` from the checkout's ``src``, wraps ``crflow.flow.run``
once to take the CLOCK_MONOTONIC timestamp at entry into the flow (the end
of set-up), optionally installs the span tracer, then calls
``crflow.cli.main`` with the remaining arguments.  The stamp, and the spans
when tracing, are written after the run; the exit code is the CLI's.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv: list) -> int:
    stamp_path, rest = argv[0], argv[1:]
    trace_path = None
    if rest[:1] == ["--trace"]:
        trace_path, rest = rest[1], rest[2:]
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import crflow.cli
    import crflow.flow

    entered = []
    run = crflow.flow.run

    def stamped_run(*args, **kwargs):
        entered.append(time.monotonic())
        return run(*args, **kwargs)

    crflow.flow.run = stamped_run
    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        return crflow.cli.main(rest)
    finally:
        with open(stamp_path, "w", encoding="ascii") as fh:
            json.dump({"run_entered": entered[0] if entered else None}, fh)
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
