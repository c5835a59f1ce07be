"""Time isomorphism-class enumeration, its censuses, and the word search.

Every value is the minimum over five runs, each in a fresh
``python3 -S`` process, so no run sees another's ``_catalog`` cache:

- ``catalog_<n>`` (n = 6, 7, 8): seconds of one ``graphs._catalog(n)``
  call, timed inside the process (lower orders are built on the way).
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

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_enumeration.json"
RUNS = 5
CATALOG = "import time; from wordrep.graphs import _catalog; " \
          "t = time.perf_counter(); _catalog({n}); print(time.perf_counter() - t)"
CENSUSES = (("census_7_all", 7, "all"), ("census_7_connected", 7, "connected"),
            ("census_7_split", 7, "split"), ("census_8_split", 8, "split"))
REPRESENTS = (("represent_k_triangle_4", 4), ("represent_k_triangle_5", 5))
GRAPH6 = "from wordrep.families import k_triangle; from wordrep.graphs import write_graph6; " \
         "print(write_graph6(k_triangle({l})))"


def catalog_seconds(env: dict, n: int) -> float:
    out = subprocess.run([sys.executable, "-S", "-c", CATALOG.format(n=n)],
                         env=env, check=True, capture_output=True, text=True)
    return float(out.stdout)


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
        rows[f"catalog_{n}"] = min(catalog_seconds(env, n) for _ in range(RUNS))
    for name, n, flt in CENSUSES:
        rows[name] = min(census_seconds(env, n, flt) for _ in range(RUNS))
    for name, l in REPRESENTS:
        g6 = subprocess.run([sys.executable, "-S", "-c", GRAPH6.format(l=l)],
                            env=env, check=True, capture_output=True, text=True).stdout
        rows[name] = min(represent_seconds(env, g6) for _ in range(RUNS))
    return {k: round(v, 4) for k, v in rows.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this tree's rows, e.g. parent or change")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="the tree's src/ directory")
    args = ap.parse_args()
    report = json.loads(OUT.read_text()) if OUT.exists() else {}
    report["method"] = (f"minimum of {RUNS} runs, each in a fresh python3 -S process; "
                        "catalog_<n>: seconds of _catalog(n) in process; "
                        "census_*, represent_*: CLI wall-clock seconds")
    report["machine"] = {"python": platform.python_version(), "cores": os.cpu_count(),
                         "arch": platform.machine()}
    report[args.label] = measure(args.src.resolve())
    OUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report[args.label], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
