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
import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def tree_envs(trees: dict[str, Path], cache: str) -> dict[str, dict]:
    """One environment per tree: its ``src/`` on ``PYTHONPATH`` and its
    own ``PYTHONPYCACHEPREFIX`` under ``cache``, which one untimed import
    of ``wordrep.cli`` fills.  Runs under ``python3 -B`` then read warm
    bytecode, and no run writes under ``src/``."""
    base = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    envs = {label: dict(base, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=f"{cache}/{label}")
            for label, src in trees.items()}
    for env in envs.values():
        subprocess.run([sys.executable, "-S", "-c", "import wordrep.cli"], env=env, check=True)
    return envs


def process_seconds(flags: list[str], argv: list[str], stdin: str | None, env: dict) -> float:
    """Wall-clock seconds of one fresh ``python3`` process, spawn to exit,
    with interpreter ``flags`` and ``argv``, fed ``stdin`` (None: this
    process's own) and its output discarded.  ``subprocess.run`` without
    a timeout waits for the child in one blocking call, so the time is
    not rounded up to a polling step."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *flags, *argv], input=stdin, text=True, env=env,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def interleaved(envs: dict[str, dict], runs: int, run: Callable[[dict], object]) -> dict[str, list]:
    """``runs`` results of ``run(env)`` per tree, the trees taking turns
    and the first place alternating from one round to the next."""
    out: dict[str, list] = {label: [] for label in envs}
    for i in range(runs):
        for label in list(envs)[:: 1 if i % 2 == 0 else -1]:
            out[label].append(run(envs[label]))
    return out


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
