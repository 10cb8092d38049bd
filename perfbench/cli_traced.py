"""Run one ``pstar`` command with spans installed, for traced benchmark runs.

Usage: python cli_traced.py SPANS_FILE ARG...

Equivalent to ``python -m pstar.cli ARG...`` (same exit code and output)
except that pstar's public functions are traced and the spans are written
to SPANS_FILE when the command ends.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pstar.cli  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return pstar.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
