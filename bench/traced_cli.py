"""Run the sunmesh CLI with layer tracing, for traced benchmark runs.

Usage: ``python bench/traced_cli.py SPANS_PATH <sunmesh arguments...>``

Behaves like ``python -m sunmesh.cli <arguments>`` (same stdout, stderr and
exit code) and, when the command ends, writes its spans as gzip-compressed
JSON lines to SPANS_PATH.  ``src`` must be on ``PYTHONPATH``.

Standard input is read to its end before tracing starts, so the time a
downstream pipeline stage waits for the upstream process is not counted
as time spent in ``cli.main``.
"""

import io
import sys

import sunmesh.cli
from tracing import Tracer


def run(spans_path: str, argv: list[str]) -> int:
    sys.stdin = io.StringIO(sys.stdin.read())
    tracer = Tracer()
    tracer.current_item = 0
    tracer.install()
    try:
        return sunmesh.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.write_jsonl(spans_path)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
