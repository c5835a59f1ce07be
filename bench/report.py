"""The command line and report file that every ``bench/`` script shares.

A script measures one source tree under a label and keeps the rows of
other labels already in its ``BENCH_*.json``, so two trees measured the
same way sit side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(doc: str, out: Path, method: str, measure: Callable[[Path], dict]) -> int:
    """Parse ``--label`` and ``--src``, run ``measure`` on the tree's
    ``src/`` directory and write its rows under the label into ``out``,
    with ``method`` and the machine."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this tree's rows, e.g. parent or change")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="the tree's src/ directory")
    args = ap.parse_args()
    report = json.loads(out.read_text()) if out.exists() else {}
    report["method"] = method
    report["machine"] = {"python": platform.python_version(), "cores": os.cpu_count(),
                         "arch": platform.machine()}
    report[args.label] = measure(args.src.resolve())
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report[args.label], indent=2))
    return 0
