"""Run one anaburnside CLI command with tracing on, for the cli workload.

    python3 perfbench/trace_child.py <trace.json> <cli arguments...>

The package comes from PYTHONPATH, as for an untraced command; the span
file is written when the command returns.
"""

import sys

import anaburnside.cli as cli
import tracer


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    t.install()
    try:
        code = cli.main(argv)
    finally:
        t.uninstall()
        t.write(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
