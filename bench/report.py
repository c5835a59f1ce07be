"""The command line and report file that every ``bench/`` script shares.

A script measures two source trees in one invocation, the parent commit's
and the change's, alternating between them run by run, so that a slow
spell of the machine hits both.  Their rows sit side by side in its
``BENCH_*.json`` under ``parent`` and ``change``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(doc: str, out: Path, method: str, measure: Callable[[dict[str, Path]], dict]) -> int:
    """Parse ``--parent`` and ``--change``, run ``measure`` on the two
    trees' ``src/`` directories by label, and write the rows it returns
    per label into ``out``, with ``method`` and the machine."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="the parent commit's src/ directory")
    ap.add_argument("--change", type=Path, default=ROOT / "src", help="the change's src/ directory")
    args = ap.parse_args()
    rows = measure({"parent": args.parent.resolve(), "change": args.change.resolve()})
    report = {"method": method, **rows,
              "machine": {"python": platform.python_version(), "cores": os.cpu_count(),
                          "arch": platform.machine()}}
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(rows, indent=2))
    return 0
