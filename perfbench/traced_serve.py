"""Run ``repro serve`` with the layer tracer installed.

Usage: ``python perfbench/traced_serve.py SPANS.json serve ARGS...``.  The
arguments after the spans path go unchanged to the program's own CLI entry
point; the spans are written to SPANS.json when the server exits (SIGINT).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.common import import_program  # noqa: E402


def main(argv) -> int:
    spans_path, rest = argv[0], argv[1:]
    import_program()
    from perfbench.tracing import Tracer
    from repro.cli import main as cli_main

    tracer = Tracer().install()
    tracer.patch_fsync()
    try:
        return cli_main(rest)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
