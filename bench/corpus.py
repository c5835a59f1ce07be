"""Time classification by deciding route over four graph corpora.

Workloads:

- ``oracle_mixed_<seed>`` (seeds 1 and 7919): the benchmark's mixed
  corpus (``wrbench/corpus.py``), 210 graphs, classified with
  ``--witness``;
- ``split_oracle``: split graphs that no split theorem decides, so the
  classifier's last branch takes them.  Each is a clique K_m (m = 5, 6)
  plus k = m or 2m independent vertices, each joined to a uniformly
  random 2..m-1 clique vertices, with shuffled labels, drawn from
  ``random.Random(1)`` and ``random.Random(2)``; a draw is kept when its
  reduced graph has clique size at least 5, some independent vertex of
  degree at least 3 and no transitive orientation (24 graphs, with
  ``--witness``);
- ``split_fastpath_1``: the benchmark's ``split_fastpath`` corpus at
  seed 1, 804 split graphs that a transitive orientation or the two
  split theorems decide, classified with ``--witness``.  A
  representable verdict's witness is the deciding rung's orientation of
  the reduced graph, lifted to the input; only a ``THEOREM_MAIN2``
  witness takes a search, of the reduced graph, which has m = 4;
- ``census_8_connected``: the 11117 connected classes on 8 vertices,
  without witnesses.

Two layer rows, ``layers``, timed in process by ``LAYERS``:

- ``engine``: ``find_semi_transitive_orientation`` over the reduced
  graphs of the ``census_8_connected`` classes that the ladder decides
  by ``ORACLE_SEARCH``, one call each;
- ``scan``: ``contains_induced`` over 200 degree-two split graphs with
  n <= 20, drawn from ``random.Random(8)`` as
  ``tests/test_classify.py::_random_degree_two_split(rng, 20)`` draws
  them, each scanned as that file's ``_degree_two_generic`` does: T2,
  then A_l for l = 4, 5, ... while 2l - 1 <= n, up to the first hit.

Two numbers per workload, each the minimum over five runs:

- ``cli_s``: wall-clock seconds of one fresh ``python3 -S`` process of
  ``classify --json`` over the corpus (``census 8 --filter connected
  --json`` for the census, whose enumeration is most of it);
- ``routes``: per reason token, the verdict count and the seconds spent
  classifying those graphs, timed graph by graph around the CLI's
  ``_verdict_for`` in one pass of a process that has already parsed or
  enumerated the graphs; ``classify_s`` is their sum.  The minimum is
  taken per route.

Both trees, the parent's and the change's, are measured in one
invocation; their runs of each kind take turns, and which one goes
first alternates from round to round.  Every run is a fresh ``python3 -S -B``
process with its tree's own ``PYTHONPYCACHEPREFIX``, which one untimed
import of ``wordrep.cli`` fills first, so neither tree writes under
``src/``.  It writes ``BENCH_corpus.json`` at the root of the
repository:

    python3 bench/corpus.py --parent ../parent/src
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from report import ROOT, interleaved, main, process_seconds, tree_envs

OUT = ROOT / "BENCH_corpus.json"
RUNS = 5
METHOD = (f"minimum of {RUNS} runs, parent and change alternating run by run, each a "
          "fresh python3 -S -B process with a per-tree PYTHONPYCACHEPREFIX that one "
          "untimed import filled; cli_s: wall-clock seconds of the process over the "
          "whole corpus; routes: per reason, verdicts and seconds timed graph by graph "
          "in one pass, minimum per route")
SEEDS = (1, 7919)
CLI = "from wordrep.cli import console_main; console_main()"
# Runs in the measured tree: classify each graph once through the CLI's
# own route and print, per reason, the count and the seconds.
ROUTES = """
import json, sys, time
from wordrep.cli import _verdict_for
from wordrep.graphs import enumerate_graphs, is_connected, parse_graph6
witness, source = sys.argv[1] == "1", sys.argv[2]
if source == "census":
    graphs = [g for g in enumerate_graphs(8) if is_connected(g)]
else:
    graphs = [parse_graph6(line) for line in sys.stdin.read().split()]
spent = {}
for g in graphs:
    start = time.perf_counter()
    reason = _verdict_for(g, False, witness).reason
    row = spent.setdefault(reason, [0, 0.0])
    row[0] += 1
    row[1] += time.perf_counter() - start
print(json.dumps(spent))
"""


# Runs in the measured tree: one timed pass of each layer row.
LAYERS = """
import json, random, time
from wordrep import families
from wordrep.classify import _reduce, classify_graph
from wordrep.graphs import Graph, contains_induced, enumerate_graphs, is_connected
from wordrep.orient import find_semi_transitive_orientation
searched = [_reduce(g)[0] for g in enumerate_graphs(8)
            if is_connected(g) and classify_graph(g).reason == "ORACLE_SEARCH"]
start = time.perf_counter()
for h in searched:
    find_semi_transitive_orientation(h)
engine = time.perf_counter() - start
rng, hosts = random.Random(8), []
for _ in range(200):  # _random_degree_two_split(rng, 20)
    m = rng.randint(3, 10)
    k = rng.randint(0, 20 - m)
    nbhds = []
    if k >= 3 and rng.random() < 0.5:
        cyc = rng.sample(range(m), rng.randint(3, min(m, k)))
        nbhds = [(cyc[i - 1], c) for i, c in enumerate(cyc)]
    while len(nbhds) < k:
        if nbhds and rng.random() < 0.2:
            nbhds.append(rng.choice(nbhds))
        else:
            nbhds.append(rng.sample(range(m), rng.choice((0, 1, 2, 2))))
    edges = [(u, v) for u in range(m) for v in range(u + 1, m)]
    edges += [(c, w) for w, nb in enumerate(nbhds, m) for c in nb]
    perm = list(range(m + k))
    rng.shuffle(perm)
    hosts.append(Graph(m + k, [(perm[u], perm[v]) for u, v in edges]))
scans, start = 0, time.perf_counter()
for g in hosts:
    for pattern in [families.named("T2")] + [families.a_graph(l) for l in range(4, (g.n + 3) // 2)]:
        scans += 1
        if contains_induced(g, pattern) is not None:
            break
scan = time.perf_counter() - start
print(json.dumps({"engine": [len(searched), engine], "scan": [scans, scan]}))
"""


def split_oracle_corpus() -> list[str]:
    """graph6 lines of the ``split_oracle`` workload; the filter reads the
    split partition, reduction and G-decomposition of this tree."""
    from wordrep.classify import _reduce
    from wordrep.graphs import Graph, write_graph6
    from wordrep.orient import find_transitive_orientation
    from wordrep.split import split_partition

    lines = []
    for seed in (1, 2):
        rng = random.Random(seed)
        for m, k in ((5, 5), (5, 10), (6, 6), (6, 12)):
            kept = 0
            while kept < 3:
                n = m + k
                perm = list(range(n))
                rng.shuffle(perm)
                edges = [(perm[a], perm[b]) for a in range(m) for b in range(a + 1, m)]
                for w in range(m, n):
                    edges += [(perm[c], perm[w]) for c in rng.sample(range(m), rng.randint(2, m - 1))]
                g = Graph(n, edges)
                reduced = _reduce(g)[0]
                rsp = split_partition(reduced)
                if (rsp.m >= 5 and find_transitive_orientation(reduced) is None
                        and any(reduced.degree(v) > 2 for v in rsp.independent)):
                    lines.append(write_graph6(g))
                    kept += 1
    return lines


def workloads() -> dict[str, tuple[list[str] | None, bool]]:
    """name -> (graph6 lines, or None for the census; with --witness?)"""
    sys.dont_write_bytecode = True  # the imports below read the change's tree
    sys.path[:0] = [str(ROOT / "wrbench"), str(ROOT / "src")]
    from corpus import graph_corpus

    out = {f"oracle_mixed_{seed}": ([e.graph6 for e in graph_corpus("oracle_mixed", seed)], True)
           for seed in SEEDS}
    out["split_oracle"] = (split_oracle_corpus(), True)
    out["split_fastpath_1"] = ([e.graph6 for e in graph_corpus("split_fastpath", 1)], True)
    out["census_8_connected"] = (None, False)
    return out


def route_seconds(env: dict, stdin: str, witness: bool, source: str) -> dict[str, list]:
    """reason -> [verdicts, seconds] from one ``ROUTES`` process."""
    done = subprocess.run([sys.executable, "-S", "-B", "-c", ROUTES, str(int(witness)), source],
                          input=stdin, text=True, env=env, check=True, capture_output=True)
    return json.loads(done.stdout)


def layer_seconds(env: dict) -> dict[str, list]:
    """row -> [calls, seconds] from one ``LAYERS`` process."""
    done = subprocess.run([sys.executable, "-S", "-B", "-c", LAYERS], text=True, env=env,
                          check=True, capture_output=True)
    return json.loads(done.stdout)


def measure(trees: dict[str, Path]) -> dict[str, dict]:
    rows: dict[str, dict] = {label: {} for label in trees}
    with tempfile.TemporaryDirectory() as cache:
        envs = tree_envs(trees, cache)
        passes = interleaved(envs, RUNS, layer_seconds)
        for label in envs:
            rows[label]["layers"] = {
                row: {"calls": passes[label][0][row][0],
                      "seconds": round(min(p[row][1] for p in passes[label]), 4)}
                for row in ("engine", "scan")}
            print(label, "layers", json.dumps(rows[label]["layers"]), flush=True)
        for name, (lines, witness) in workloads().items():
            source = "census" if lines is None else "stdin"
            stdin = "" if lines is None else "\n".join(lines) + "\n"
            argv = (["census", "8", "--filter", "connected", "--json"] if lines is None
                    else ["classify", "--json"] + ["--witness"] * witness)
            walls = interleaved(envs, RUNS, lambda env: process_seconds(
                ["-S", "-B"], ["-c", CLI, *argv], stdin, env))
            passes = interleaved(envs, RUNS, lambda env: route_seconds(env, stdin, witness, source))
            for label in envs:
                routes = {reason: {"count": count,
                                   "seconds": round(min(p[reason][1] for p in passes[label]), 4)}
                          for reason, (count, _) in passes[label][0].items()}
                rows[label][name] = {
                    "graphs": sum(r["count"] for r in routes.values()),
                    "cli_s": round(min(walls[label]), 3),
                    "classify_s": round(sum(r["seconds"] for r in routes.values()), 3),
                    "routes": dict(sorted(routes.items())),
                }
                print(label, name, json.dumps(rows[label][name]), flush=True)
    return rows


if __name__ == "__main__":
    sys.exit(main(__doc__, OUT, METHOD, measure))
