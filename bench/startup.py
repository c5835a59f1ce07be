"""Time what every CLI call pays before its search: interpreter start-up
plus loading ``wordrep``.

Three calls, each run 21 times in a fresh ``python3 -S`` process, timed
from spawn to exit:

- ``import``: ``import wordrep.cli`` and nothing else;
- ``orient_count_w5``: ``orient --count`` on W5 (graph6 ``Ehfw``);
- ``represent_c5``: ``represent`` on C5 (graph6 ``Dhc``).

Each call runs in three bytecode-cache states, all with ``-B``.
``cold`` runs with an empty temporary ``PYTHONPYCACHEPREFIX``, so every
module the call imports that is not frozen into the interpreter, the
standard library's as well as ``wordrep``'s, is compiled from source.
``warm`` runs with a temporary prefix that one untimed run of the call
fills first, so every module is read from bytecode.  ``bench`` is the
state of the benchmark's calls (``wrbench/run.py`` under
``PYTHONDONTWRITEBYTECODE=1``): no prefix, so the standard library is
read from its installed bytecode, and ``wordrep`` is imported from a
temporary copy of ``src/`` with no ``__pycache__``, so it is compiled on
every call.  No state writes under ``src/``.  Rows are
``<call>_<state>_min_ms`` and ``<call>_<state>_median_ms``.

Both trees, the parent's and the change's, are measured in one
invocation, taking turns within each round.  It writes
``BENCH_startup.json`` at the root of the repository:

    python3 bench/startup.py --parent ../parent/src
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from report import ROOT, main, process_seconds

OUT = ROOT / "BENCH_startup.json"
RUNS = 21
METHOD = (f"minimum and median of {RUNS} fresh python3 -S processes per row, "
          "wall-clock ms from spawn to exit; cold: -B with an empty "
          "PYTHONPYCACHEPREFIX (every non-frozen module compiled); warm: -B with "
          "a prefix one untimed run filled; bench: -B, no prefix, wordrep from a copy of "
          "src/ with no __pycache__ (the standard library from its installed bytecode)")
CLI = "from wordrep.cli import console_main; console_main()"
CALLS = (
    ("import", ["-c", "import wordrep.cli"], ""),
    ("orient_count_w5", ["-c", CLI, "orient", "--count"], "Ehfw\n"),
    ("represent_c5", ["-c", CLI, "represent"], "Dhc\n"),
)


def measure(trees: dict[str, Path]) -> dict[str, dict]:
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    samples: dict[str, dict[str, list[float]]] = {label: {} for label in trees}
    with tempfile.TemporaryDirectory() as cache:
        # one cold and one warm prefix per tree, so that no tree reads the other's bytecode
        envs = {(label, state): dict(base, PYTHONPATH=str(src),
                                     PYTHONPYCACHEPREFIX=f"{cache}/{label}_{state}")
                for label, src in trees.items() for state in ("cold", "warm")}
        for label, src in trees.items():
            copy = shutil.copytree(src, f"{cache}/{label}_src",
                                   ignore=shutil.ignore_patterns("__pycache__"))
            envs[label, "bench"] = dict(base, PYTHONPATH=copy)
        for label in trees:
            for _, args, stdin in CALLS:
                process_seconds(["-S"], args, stdin, envs[label, "warm"])
        # round robin, so that a slow spell of the machine hits every row of both trees
        for _ in range(RUNS):
            for name, args, stdin in CALLS:
                for (label, state), env in envs.items():
                    samples[label].setdefault(f"{name}_{state}", []).append(
                        process_seconds(["-S", "-B"], args, stdin, env) * 1000)
    rows: dict[str, dict] = {label: {} for label in trees}
    for label, by_key in samples.items():
        for key, values in by_key.items():
            rows[label][f"{key}_min_ms"] = round(min(values), 1)
            rows[label][f"{key}_median_ms"] = round(statistics.median(values), 1)
    return rows


if __name__ == "__main__":
    sys.exit(main(__doc__, OUT, METHOD, measure))
