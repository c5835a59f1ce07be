"""Time isomorphism-class enumeration, its censuses, and the word search.

Every row is measured on the parent's and the change's source tree,
alternating between the two trees run by run and which one goes first.
Every run is a fresh ``python3 -S -B`` process with its tree's own
``PYTHONPYCACHEPREFIX``, which one untimed import of ``wordrep.cli``
fills first, so both trees read their bytecode from a warm cache and
neither writes under ``src/``.  Values are the minimum of five runs:

- ``catalog_<n>`` (n = 6, 7, 8): seconds to take every class from one
  ``graphs._catalog(n)`` call, timed inside the process (lower orders
  are built on the way);
- ``catalog_<n>_maxrss_kb`` (n = 7, 8): the peak resident set of that
  process in KB, ``VmHWM`` of ``/proc/self/status`` (Linux).  Not
  ``ru_maxrss``: a child started by ``subprocess`` inherits the peak of
  the process that started it, so it would read this script's own.
- ``catalog_9`` and ``catalog_9_maxrss_kb``: the same for n = 9, from
  three runs per tree (the 274668 classes take tens of seconds, and
  single runs of one tree differ by 40%);
- ``census_7_<filter>`` (all, connected, split), ``census_8_connected``
  and ``census_8_split``: wall-clock seconds of the ``census`` command,
  process start to exit, on every CPU the command may use.
- ``represent_k_triangle_<l>`` (l = 4, 5): wall-clock seconds of
  ``represent --max-uniformity 3`` on K_TRIANGLE l, fed as graph6 on
  standard input: the bounded word search, not an enumeration.

It writes ``BENCH_enumeration.json`` at the root of the repository:

    python3 bench/enumeration.py --parent ../parent/src
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

from report import ROOT, interleaved, main, process_seconds, tree_envs

OUT = ROOT / "BENCH_enumeration.json"
RUNS = 5
RUNS_9 = 3
METHOD = (f"minimum of {RUNS} runs per tree (catalog_9: {RUNS_9}), parent and change "
          "alternating run by run, each a fresh python3 -S -B process with a per-tree "
          "PYTHONPYCACHEPREFIX that one untimed import filled; catalog_<n>: seconds to "
          "take every class of _catalog(n) in process; catalog_<n>_maxrss_kb: that "
          "process's VmHWM; census_*, represent_*: CLI wall-clock seconds")
CATALOG = "import time; from wordrep.graphs import _catalog; " \
          "t = time.perf_counter(); sum(1 for _ in _catalog({n})); " \
          "print(time.perf_counter() - t, " \
          "next(l for l in open('/proc/self/status') if l.startswith('VmHWM')).split()[1])"
CENSUSES = (("census_7_all", 7, "all"), ("census_7_connected", 7, "connected"),
            ("census_7_split", 7, "split"), ("census_8_connected", 8, "connected"),
            ("census_8_split", 8, "split"))
REPRESENTS = (("represent_k_triangle_4", 4), ("represent_k_triangle_5", 5))
GRAPH6 = "from wordrep.families import k_triangle; from wordrep.graphs import write_graph6; " \
         "print(write_graph6(k_triangle({l})))"


def catalog_run(env: dict, n: int) -> tuple[float, int]:
    """(seconds, peak RSS in KB) of one process that enumerates order n."""
    out = subprocess.run([sys.executable, "-S", "-B", "-c", CATALOG.format(n=n)],
                         env=env, check=True, capture_output=True, text=True)
    seconds, maxrss = out.stdout.split()
    return float(seconds), int(maxrss)


def measure(trees: dict[str, Path]) -> dict[str, dict]:
    rows: dict[str, dict] = {label: {} for label in trees}
    with tempfile.TemporaryDirectory() as cache:
        envs = tree_envs(trees, cache)
        for n, runs in ((6, RUNS), (7, RUNS), (8, RUNS), (9, RUNS_9)):
            for label, got in interleaved(envs, runs, lambda env: catalog_run(env, n)).items():
                rows[label][f"catalog_{n}"] = min(seconds for seconds, _ in got)
                if n > 6:
                    rows[label][f"catalog_{n}_maxrss_kb"] = min(maxrss for _, maxrss in got)
        for name, n, flt in CENSUSES:
            argv = ["-m", "wordrep.cli", "census", str(n), "--filter", flt]
            for label, got in interleaved(
                    envs, RUNS, lambda env: process_seconds(["-S", "-B"], argv, None, env)).items():
                rows[label][name] = min(got)
        for name, l in REPRESENTS:
            g6 = subprocess.run([sys.executable, "-S", "-B", "-c", GRAPH6.format(l=l)],
                                env=envs["change"], check=True, capture_output=True,
                                text=True).stdout
            argv = ["-m", "wordrep.cli", "represent", "--max-uniformity", "3"]
            for label, got in interleaved(
                    envs, RUNS, lambda env: process_seconds(["-S", "-B"], argv, g6, env)).items():
                rows[label][name] = min(got)
    return {label: {k: round(v, 4) for k, v in r.items()} for label, r in rows.items()}


if __name__ == "__main__":
    sys.exit(main(__doc__, OUT, METHOD, measure))
