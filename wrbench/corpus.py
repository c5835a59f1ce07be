"""Seeded inputs for the wordrep benchmark.

Every input is a graph that the benchmark encodes as graph6 itself, so
the program under test only ever sees the generated text.  A classify
part of a workload runs on a fixed list of isomorphism classes: the
named graphs, wheels, cocktail parties, K_TRIANGLE and A_GRAPH, plus
random graphs (G(n,p), random split graphs, degree-2 split graphs,
clique-4 split graphs) drawn once from ``CLASS_SEED``.  The workload
seed relabels every graph by a random permutation and shuffles the
order.

Word-representability and orientation counts are invariant under
relabelling, so the verdicts recorded per class (``expected.json``)
apply to the corpus of every seed, while the bytes the program reads
and the order its searches branch in change with the seed.  Sampling
the random classes per seed was tried and dropped: which of the heavy
G(11, 0.7) members a seed drew moved a pass's cost by more than any
bound worth setting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from wordrep import families

CLASS_SEED = 1709_09725
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

Edges = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Entry:
    """One input graph: ``key`` names its isomorphism class in the
    recorded expectations."""

    key: str
    n: int
    edges: Edges

    @property
    def graph6(self) -> str:
        return encode_graph6(self.n, self.edges)


def encode_graph6(n: int, edges: Edges) -> str:
    """graph6 short form (n <= 62), written independently of the
    program's codec so that a codec change cannot alter the inputs."""
    if not 0 <= n <= 62:
        raise ValueError(f"graph6 short form needs 0 <= n <= 62, got {n}")
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [(u, v) in present for v in range(1, n) for u in range(v)]
    bits += [False] * (-len(bits) % 6)
    chars = [chr(n + 63)]
    for i in range(0, len(bits), 6):
        value = 0
        for b in bits[i : i + 6]:
            value = value << 1 | b
        chars.append(chr(value + 63))
    return "".join(chars)


def _norm(edges) -> Edges:
    return tuple(sorted((min(u, v), max(u, v)) for u, v in edges))


def _named(tag: str, *params: int) -> tuple[int, Edges]:
    g = families.named(tag, *params)
    return g.n, _norm(g.edges())


def relabel(entry: Entry, perm: list[int]) -> Entry:
    return Entry(entry.key, entry.n, _norm((perm[u], perm[v]) for u, v in entry.edges))


def random_perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# ---------------------------------------------------------------------------
# Graph builders.


def wheel(k: int) -> tuple[int, Edges]:
    """Hub 0 joined to the rim cycle 1..k."""
    rim = [(1 + i, 1 + (i + 1) % k) for i in range(k)]
    return k + 1, _norm(rim + [(0, 1 + i) for i in range(k)])


def cocktail_party(k: int) -> tuple[int, Edges]:
    """K_{2 x k}: the complete graph on 2k vertices minus the perfect
    matching {2i, 2i+1}."""
    n = 2 * k
    return n, _norm((u, v) for u in range(n) for v in range(u + 1, n) if not (u % 2 == 0 and v == u + 1))


def gnp(rng: random.Random, n: int, p: float) -> tuple[int, Edges]:
    return n, _norm((u, v) for v in range(n) for u in range(v) if rng.random() < p)


def random_split(rng: random.Random, m: int, k: int, choose) -> tuple[int, Edges]:
    """Clique 0..m-1 plus independent vertices m..m+k-1, each adjacent to
    the clique vertices ``choose(rng, m)`` returns."""
    edges = [(u, v) for u in range(m) for v in range(u + 1, m)]
    for x in range(m, m + k):
        edges += [(c, x) for c in choose(rng, m)]
    return m + k, _norm(edges)


def _any_subset(rng: random.Random, m: int) -> list[int]:
    return [c for c in range(m) if rng.random() < 0.5]


def _degree_two(rng: random.Random, m: int) -> list[int]:
    """Mostly two clique neighbours, sometimes fewer (reduction fodder)."""
    return rng.sample(range(m), rng.choice((0, 1, 2, 2, 2, 2, 2, 2)))


def _one_to_three(rng: random.Random, m: int) -> list[int]:
    return rng.sample(range(m), rng.randint(1, 3))


# ---------------------------------------------------------------------------
# Isomorphism classes per classify part.

ORACLE_NAMED = (
    "T1", "T2", "T3", "T4", "W5", "B1", "B2", "B3", "CO_T2", "FIG4_RIGHT",
    "FIG2_EXAMPLE", "M", "M1", "M2", "M3", "M4", "M5", "M6", "TWO_K2",
)
GNP_CELLS = tuple((n, p) for n in (8, 9, 10, 11) for p in (0.3, 0.5, 0.7))
GNP_PER_CELL = 12
MIXED_SPLIT_PER_CLIQUE = 12
DEG2_PER_CLIQUE = 150
CLIQUE4_COUNT = 195


def classes(part: str) -> list[Entry]:
    """The isomorphism classes a classify part runs on, keyed for the
    recorded expectations.  The random ones are drawn from
    ``CLASS_SEED`` and are the same for every workload seed."""
    rng = random.Random(f"{part}:{CLASS_SEED}")
    out: list[Entry] = []

    def draw(name: str, count: int, build) -> None:
        out.extend(Entry(f"{name}#{i}", *build()) for i in range(count))

    if part == "oracle_mixed":
        out += [Entry(f"named:{t}", *_named(t)) for t in ORACLE_NAMED]
        out += [Entry(f"wheel:{k}", *wheel(k)) for k in range(4, 13)]
        out += [Entry(f"cocktail:{k}", *cocktail_party(k)) for k in range(3, 17)]
        for n, p in GNP_CELLS:
            draw(f"gnp:{n}:{p}", GNP_PER_CELL, lambda: gnp(rng, n, p))
        for m in (5, 6):
            draw(f"split:{m}", MIXED_SPLIT_PER_CLIQUE,
                 lambda: random_split(rng, m, rng.randint(2, 4), _any_subset))
    elif part == "split_fastpath":
        out += [Entry(f"ktri:{l}", *_named("K_TRIANGLE", l)) for l in range(4, 9)]
        out += [Entry(f"agraph:{l}", *_named("A_GRAPH", l)) for l in range(4, 8)]
        for m in (5, 6, 7, 8):
            draw(f"deg2:{m}", DEG2_PER_CLIQUE,
                 lambda: random_split(rng, m, rng.randint(2, 5), _degree_two))
        draw("clique4", CLIQUE4_COUNT,
             lambda: random_split(rng, 4, rng.randint(2, 6), _one_to_three))
    else:
        raise ValueError(f"no graph corpus for {part!r}")
    return out


def graph_corpus(part: str, seed: int) -> list[Entry]:
    """The classify input of ``part`` under ``seed``: every class,
    relabelled by a random permutation, in random order."""
    rng = random.Random(f"{part}:{seed}")
    out = [relabel(e, random_perm(rng, e.n)) for e in classes(part)]
    rng.shuffle(out)
    return out


def corpus_text(entries: list[Entry]) -> str:
    return "".join(e.graph6 + "\n" for e in entries)


# ---------------------------------------------------------------------------
# orient_words: CLI requests on small named graphs.


@dataclass(frozen=True)
class Request:
    """One CLI call.  ``key`` names it in the recorded expectations;
    ``fix`` holds arcs (tail, head) in the entry's labels."""

    key: str
    kind: str  # "count", "all", "first" (orient) or "word" (represent)
    entry: Entry
    fix: tuple[tuple[int, int], ...] = ()

    def argv(self) -> list[str]:
        if self.kind == "word":
            return ["represent", "--max-uniformity", "3"]
        argv = ["orient"]
        if self.kind == "count":
            argv.append("--count")
        elif self.kind == "all":
            argv.append("--all")
        if self.fix:
            argv += ["--fix", ",".join(f"{a}>{b}" for a, b in self.fix)]
        return argv


def _transitive_clique(l: int) -> tuple[tuple[int, int], ...]:
    """Arcs i -> j for i < j on the clique 0..l-1 of K_TRIANGLE l."""
    return tuple((i, j) for i in range(l) for j in range(i + 1, l))


def _request_specs() -> list[tuple[str, str, tuple, tuple]]:
    """(key, kind, named-graph spec, fixed arcs)."""
    specs = [
        (f"count-fix:K_TRIANGLE:{l}", "count", ("K_TRIANGLE", l), _transitive_clique(l))
        for l in range(3, 7)
    ]
    for tag in ("T1", "T2", "W5", "B1", "B2", "B3", "CO_T2"):
        specs.append((f"count:{tag}", "count", (tag,), ()))
        specs.append((f"all:{tag}", "all", (tag,), ()))
    specs += [
        (f"first-fix:K_TRIANGLE:{l}", "first", ("K_TRIANGLE", l), _transitive_clique(l))
        for l in range(5, 8)
    ]
    specs += [
        ("first-fix:B1", "first", ("B1",), ((0, 1),)),
        ("first-fix:B3", "first", ("B3",), ((0, 1),)),
        ("first-fix:W5", "first", ("W5",), ((0, 1),)),
    ]
    specs += [
        (f"word:{'_'.join(map(str, spec))}", "word", spec, ())
        for spec in (("C", 5), ("C", 7), ("K_TRIANGLE", 3), ("K_TRIANGLE", 4), ("W5",))
    ]
    return specs


def orient_requests(seed: int) -> list[Request]:
    """The orient_words requests under ``seed``.  Orientation requests
    are relabelled (their fixed arcs with them); word searches keep the
    family labelling, because the bounded word search's cost swings by
    a factor of two between labellings of the same graph, which would
    make the workload's cost depend on the seed.  The order is
    shuffled."""
    rng = random.Random(f"orient_words:{seed}")
    out = []
    for key, kind, spec, fix in _request_specs():
        entry = Entry(key, *_named(*spec))
        if kind != "word":
            perm = random_perm(rng, entry.n)
            entry = relabel(entry, perm)
            fix = tuple((perm[a], perm[b]) for a, b in fix)
        out.append(Request(key, kind, entry, fix))
    rng.shuffle(out)
    return out
