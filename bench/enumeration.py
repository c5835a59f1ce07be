"""Time isomorphism-class enumeration, its censuses, and the word search.

Every value is the minimum over five runs, each in a fresh
``python3 -S`` process:

- ``catalog_<n>`` (n = 6, 7, 8): seconds to take every class from one
  ``graphs._catalog(n)`` call, timed inside the process (lower orders
  are built on the way);
- ``catalog_<n>_maxrss_kb`` (n = 7, 8): the peak resident set of that
  process in KB, ``VmHWM`` of ``/proc/self/status`` (Linux).  Not
  ``ru_maxrss``: a child started by ``subprocess`` inherits the peak of
  the process that started it, so it would read this script's own.
- ``census_7_<filter>`` (all, connected, split) and ``census_8_split``:
  wall-clock seconds of the ``census`` command, process start to exit.
- ``represent_k_triangle_<l>`` (l = 4, 5): wall-clock seconds of
  ``represent --max-uniformity 3`` on K_TRIANGLE l, fed as graph6 on
  standard input: the bounded word search, not an enumeration.

Run it once per source tree under its own label.  It writes
``BENCH_enumeration.json`` at the root of the repository and keeps the
rows of other labels already there, so two trees measured the same way
sit side by side:

    python3 bench/enumeration.py --label change
    python3 bench/enumeration.py --label parent --src ../parent/src
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from report import ROOT, main

OUT = ROOT / "BENCH_enumeration.json"
RUNS = 5
METHOD = (f"minimum of {RUNS} runs, each in a fresh python3 -S process; "
          "catalog_<n>: seconds to take every class of _catalog(n) in process; "
          "catalog_<n>_maxrss_kb: that process's VmHWM; "
          "census_*, represent_*: CLI wall-clock seconds")
CATALOG = "import time; from wordrep.graphs import _catalog; " \
          "t = time.perf_counter(); sum(1 for _ in _catalog({n})); " \
          "print(time.perf_counter() - t, " \
          "next(l for l in open('/proc/self/status') if l.startswith('VmHWM')).split()[1])"
CENSUSES = (("census_7_all", 7, "all"), ("census_7_connected", 7, "connected"),
            ("census_7_split", 7, "split"), ("census_8_split", 8, "split"))
REPRESENTS = (("represent_k_triangle_4", 4), ("represent_k_triangle_5", 5))
GRAPH6 = "from wordrep.families import k_triangle; from wordrep.graphs import write_graph6; " \
         "print(write_graph6(k_triangle({l})))"


def catalog_run(env: dict, n: int) -> tuple[float, int]:
    """(seconds, peak RSS in KB) of one process that enumerates order n."""
    out = subprocess.run([sys.executable, "-S", "-c", CATALOG.format(n=n)],
                         env=env, check=True, capture_output=True, text=True)
    seconds, maxrss = out.stdout.split()
    return float(seconds), int(maxrss)


def census_seconds(env: dict, n: int, flt: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-m", "wordrep.cli", "census", str(n), "--filter", flt],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def represent_seconds(env: dict, g6: str) -> float:
    argv = [sys.executable, "-S", "-m", "wordrep.cli", "represent", "--max-uniformity", "3"]
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, input=g6, text=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure(src: Path) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(src))
    rows = {}
    for n in (6, 7, 8):
        runs = [catalog_run(env, n) for _ in range(RUNS)]
        rows[f"catalog_{n}"] = min(seconds for seconds, _ in runs)
        if n > 6:
            rows[f"catalog_{n}_maxrss_kb"] = min(maxrss for _, maxrss in runs)
    for name, n, flt in CENSUSES:
        rows[name] = min(census_seconds(env, n, flt) for _ in range(RUNS))
    for name, l in REPRESENTS:
        g6 = subprocess.run([sys.executable, "-S", "-c", GRAPH6.format(l=l)],
                            env=env, check=True, capture_output=True, text=True).stdout
        rows[name] = min(represent_seconds(env, g6) for _ in range(RUNS))
    return {k: round(v, 4) for k, v in rows.items()}


if __name__ == "__main__":
    sys.exit(main(__doc__, OUT, METHOD, measure))
