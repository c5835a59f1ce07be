"""Run the wordrep CLI with spans recorded around its public functions.

Usage: python3 wrbench/traced_cli.py SPAN_FILE [wordrep arguments...]

The spans stay in memory while the command runs and are written to
SPAN_FILE as JSON when it ends; the exit code is the CLI's.
"""

import sys

from spans import Tracer


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from wordrep import cli

    try:
        return tracer.run_root(cli.main, argv)
    finally:
        tracer.dump(span_file)


if __name__ == "__main__":
    sys.exit(main())
