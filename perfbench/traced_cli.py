"""Run the nrulemaps command line with the benchmark's tracer installed.

Usage: python3 perfbench/traced_cli.py TRACE.json simulate --config ...

Behaves like ``python3 -m nrulemaps.cli`` and, at exit, writes the spans
and counters of the run to TRACE.json.  Everything outside ``cli.main``
(importing the program, the interpreter's own start and exit) is left to
the caller, which knows the process's whole wall time.
"""

import json
import sys

from tracer import Tracer, install


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    from nrulemaps import cli

    install(tracer)
    try:
        return tracer.wrap(cli.main, "cli.main", span=True)(argv)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    raise SystemExit(main())
