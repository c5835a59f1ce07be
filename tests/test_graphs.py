"""Graph substrate tests: graph6 codec (against an independently written
reference codec and networkx), induced subgraphs, isomorphism, induced
containment, canonical forms, and the isomorphism-class census (against
the bucketed isomorphism-test enumeration it replaced)."""

import functools
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordrep import families
from wordrep.graphs import (
    Embedding,
    Graph,
    Graph6Error,
    _bits,
    _canonical_form,
    _catalog,
    _children,
    _twins,
    contains_induced,
    enumerate_graphs,
    induced_subgraph,
    iso_invariant,
    is_isomorphic,
    parse_graph6,
    write_graph6,
)
from wordrep.split import split_partition
from conftest import EXHAUSTIVE, random_graph
import label_order_match

SRC = Path(__file__).resolve().parents[1] / "src"

# --------------------------------------------------------------------------
# Reference graph6 codec, written straight off the published format
# description with string bit-fiddling (deliberately nothing shared with
# the production implementation).


def ref_encode(n: int, edges: set[frozenset]) -> str:
    bits = ""
    for v in range(1, n):
        for u in range(v):
            bits += "1" if frozenset((u, v)) in edges else "0"
    while len(bits) % 6:
        bits += "0"
    out = chr(n + 63)
    for i in range(0, len(bits), 6):
        out += chr(int(bits[i : i + 6], 2) + 63)
    return out


def ref_decode(s: str) -> tuple[int, set[frozenset]]:
    n = ord(s[0]) - 63
    bits = "".join(format(ord(c) - 63, "06b") for c in s[1:])
    edges = set()
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bits[k] == "1":
                edges.add(frozenset((u, v)))
            k += 1
    return n, edges


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_graph6_fixed_values():
    assert write_graph6(families.complete(3)) == "Bw"
    assert parse_graph6("Bw") == families.complete(3)
    assert parse_graph6("A?") == Graph(2)
    assert parse_graph6("@") == Graph(1)
    assert write_graph6(Graph(1)) == "@"
    assert write_graph6(Graph(2, [(0, 1)])) == "A_"
    assert write_graph6(Graph(0)) == "?"


def test_graph6_round_trip_and_reference_codec():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(0, 20)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = Graph(n, edges)
        s = write_graph6(g)
        assert parse_graph6(s) == g
        assert s == ref_encode(n, {frozenset(e) for e in edges})
        rn, redges = ref_decode(s)
        assert rn == n and redges == {frozenset(e) for e in edges}
        assert s == nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()


def test_graph6_large_boundary():
    rng = random.Random(5)
    edges = [(u, v) for u in range(62) for v in range(u + 1, 62) if rng.random() < 0.1]
    g = Graph(62, edges)
    assert parse_graph6(write_graph6(g)) == g
    with pytest.raises(ValueError):
        write_graph6(Graph(63))


def test_graph6_errors_carry_offsets():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("")
    assert err.value.offset == 0
    with pytest.raises(Graph6Error) as err:
        parse_graph6(chr(30) + "w")  # header below printable range
    assert err.value.offset == 0
    with pytest.raises(Graph6Error) as err:
        parse_graph6("B")  # K3-sized header, missing data byte
    assert err.value.offset == 1
    with pytest.raises(Graph6Error) as err:
        parse_graph6("B" + chr(20))  # data byte out of range
    assert err.value.offset == 1
    with pytest.raises(Graph6Error) as err:
        parse_graph6("Bww")  # trailing data
    assert err.value.offset == 2
    with pytest.raises(Graph6Error):
        parse_graph6("~??")  # long form unsupported
    # optional format header is tolerated
    assert parse_graph6(">>graph6<<Bw") == families.complete(3)


def test_graph6_rejects_non_zero_padding():
    # the last data byte's unused low bits must be zero: "Bx" is "Bw"
    # (K3, 3 bits + 3 padding) with the lowest padding bit set
    for text, offset in (("Bx", 1), ("A@", 1), ("D?@", 2), (">>graph6<<Bx", 11)):
        with pytest.raises(Graph6Error) as err:
            parse_graph6(text)
        assert err.value.offset == offset and "padding" in str(err.value)
    # no padding to check when the bits fill the last byte (n = 4: 6 bits)
    assert parse_graph6("C~") == families.complete(4)


@st.composite
def graph6_texts(draw):
    """A graph6 line for n <= 62 with random data bytes, its padding bits
    cleared half the time, then half the time one byte changed, cut or
    added, after an optional format header."""
    n = draw(st.integers(0, 62))
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    data = [63 + b % 64 for b in draw(st.binary(min_size=nbytes, max_size=nbytes))]
    if data and draw(st.booleans()):
        pad = 6 * nbytes - nbits
        data[-1] = 63 + ((data[-1] - 63) >> pad << pad)
    text = chr(n + 63) + "".join(map(chr, data))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, len(text))), draw(st.integers(0, 1))
        text = text[:i] + draw(st.text(st.characters(max_codepoint=255), max_size=1)) + text[i + j:]
    return draw(st.sampled_from(["", ">>graph6<<"])) + text


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(graph6_texts())
def test_graph6_text_is_the_one_encoding_of_its_graph(text):
    # the CLI echoes each input line, less any header, in place of the
    # encoding of its graph: every text that parses is that encoding
    try:
        g = parse_graph6(text)
    except Graph6Error:
        return
    assert write_graph6(g) == text.removeprefix(">>graph6<<")


def test_graph_construction_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_induced_subgraph_examples():
    k4 = families.complete(4)
    for sub in itertools.combinations(range(4), 3):
        assert induced_subgraph(k4, sub) == families.complete(3)
    # dropping the degree-3 apex-side vertex of T1 leaves the 3-sun
    t1 = families.named("T1")
    apex = next(v for v in range(7) if t1.degree(v) == 3)
    assert is_isomorphic(t1.delete_vertex(apex), families.named("B2"))
    g = families.named("M")
    assert induced_subgraph(g, []) == Graph(0)
    with pytest.raises(ValueError):
        induced_subgraph(g, [0, 99])
    with pytest.raises(ValueError):
        induced_subgraph(g, [0, 0])


def test_induced_subgraph_composes():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(0, 9)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        t = sorted(rng.sample(range(n), rng.randint(0, n)))
        s = sorted(rng.sample(t, rng.randint(0, len(t))))
        inner = [t.index(v) for v in s]
        assert induced_subgraph(induced_subgraph(g, t), inner) == induced_subgraph(g, s)


def test_is_isomorphic_examples():
    k4 = families.complete(4)
    shuffled = Graph(4, [(3, 2), (3, 1), (3, 0), (2, 1), (2, 0), (1, 0)])
    assert is_isomorphic(k4, shuffled)
    assert not is_isomorphic(families.cycle(4), families.named("TWO_K2"))
    # the two drawings of T3
    t3_alt = Graph(
        7,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
         (4, 0), (4, 1), (4, 3), (5, 0), (5, 1), (5, 2), (6, 1), (6, 2), (6, 3)],
    )
    assert is_isomorphic(families.named("T3"), t3_alt)


def test_is_isomorphic_matches_networkx():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 7)
        e1 = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g1 = Graph(n, e1)
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            g2 = Graph(n, [(perm[u], perm[v]) for u, v in e1])
        else:
            g2 = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        assert is_isomorphic(g1, g2) == nx.is_isomorphic(to_nx(g1), to_nx(g2))


def test_is_isomorphic_is_equivalence_on_sample():
    sample = [families.named(t) for t in ("T1", "T2", "T3", "B2", "W5")]
    sample += [families.a_graph(4), families.k_triangle(3)]
    for g in sample:
        assert is_isomorphic(g, g)
    for g, h in itertools.combinations(sample, 2):
        assert is_isomorphic(g, h) == is_isomorphic(h, g)
    for g, h, k in itertools.permutations(sample, 3):
        if is_isomorphic(g, h) and is_isomorphic(h, k):
            assert is_isomorphic(g, k)


def test_contains_induced_examples():
    m = families.named("M")
    t4 = families.named("T4")
    emb = contains_induced(m, t4)
    assert emb is not None and emb.is_valid(m, t4)
    assert emb.mapping == (0, 1, 2, 3, 6, 4, 9, 5)  # lexicographically first
    # the cited occurrence: drop the two attachment vertices 6 and 9
    assert is_isomorphic(induced_subgraph(m, [v for v in range(10) if v not in (6, 9)]), t4)
    assert contains_induced(families.complete(5), families.cycle(4)) is None
    w5 = families.named("W5")
    rim = contains_induced(w5, families.cycle(5))
    assert rim is not None and rim.image() == (0, 1, 2, 3, 4)
    # empty pattern embeds anywhere
    assert contains_induced(w5, Graph(0)) == Embedding(())


def test_embedding_record():
    emb = Embedding(mapping=(1, 0, 2))
    assert emb == Embedding((1, 0, 2)) and hash(emb) == hash(Embedding((1, 0, 2)))
    assert emb != Embedding((0, 1, 2))
    assert repr(emb) == "Embedding(mapping=(1, 0, 2))"
    with pytest.raises(AttributeError):
        emb.mapping = (0, 1, 2)
    assert emb.image() == (0, 1, 2)
    host = Graph(3, [(0, 1), (1, 2)])  # the path 0-1-2
    star = Graph(3, [(0, 1), (0, 2)])  # centre 0
    assert emb.is_valid(host, star)
    for bad in ((0, 1, 2), (1, 0), (1, 1, 2), (1, 0, 3)):
        assert not Embedding(bad).is_valid(host, star)


def test_contains_induced_returns_the_least_embedding():
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randint(3, 7)
        host = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        k = rng.randint(1, 4)
        pat = Graph(k, [(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < 0.5])
        maps = [m for m in itertools.permutations(range(n), k) if Embedding(m).is_valid(host, pat)]
        emb = contains_induced(host, pat)
        assert (emb and emb.mapping) == (min(maps) if maps else None)


def test_forward_checking_matches_the_label_order_matcher():
    # the first embedding and the isomorphism answer of the forward-
    # checking matcher are those of the plain label-order search it
    # replaced, on seeded random hosts against the split patterns, the
    # A_l and random patterns
    rng = random.Random(31)
    patterns = [families.named(t) for t in ("T1", "T2", "T3", "T4")]
    patterns += [families.a_graph(l) for l in (4, 5, 6)]
    hits = 0
    for _ in range(300):
        n = rng.randint(0, 12)
        host = random_graph(rng, n, rng.random())
        drawn = [random_graph(rng, rng.randint(0, min(n, 7)), rng.random()) for _ in range(3)]
        for pat in patterns + drawn:
            emb = contains_induced(host, pat)
            assert emb == label_order_match.contains_induced(host, pat), (host, pat)
            hits += emb is not None
        perm = list(range(n))
        rng.shuffle(perm)
        for other in (Graph(n, [(perm[u], perm[v]) for u, v in host.edges()]),
                      random_graph(rng, n, rng.random())):
            assert is_isomorphic(host, other) == label_order_match.is_isomorphic(host, other)
    assert hits > 300


def test_matcher_handles_a_1200_vertex_path():
    # one matcher depth per pattern vertex: deeper than Python's recursion limit
    n = 1200
    path = Graph(n, [(i, i + 1) for i in range(n - 1)])
    perm = list(range(n))
    random.Random(5).shuffle(perm)
    relabelled = Graph(n, [(perm[i], perm[i + 1]) for i in range(n - 1)])
    assert is_isomorphic(path, relabelled)
    assert contains_induced(path, path) == Embedding(tuple(range(n)))


def test_contains_induced_embedding_induces_pattern():
    rng = random.Random(17)
    patterns = [families.named(t) for t in ("B1", "B2", "T2")] + [families.cycle(4)]
    for _ in range(150):
        n = rng.randint(4, 9)
        host = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        for pat in patterns:
            emb = contains_induced(host, pat)
            if emb is None:
                # networkx agrees nothing is there
                gm = nx.algorithms.isomorphism.GraphMatcher(to_nx(host), to_nx(pat))
                assert not gm.subgraph_is_monomorphic() or not any(
                    is_isomorphic(induced_subgraph(host, c), pat)
                    for c in itertools.combinations(range(n), pat.n)
                )
            else:
                assert emb.is_valid(host, pat)
                assert is_isomorphic(induced_subgraph(host, emb.image()), pat)


def test_enumerate_counts():
    expected = [1, 1, 2, 4, 11, 34, 156, 1044, 12346]
    for n, want in enumerate(expected):
        assert sum(1 for _ in enumerate_graphs(n)) == want


def test_enumerate_guard():
    with pytest.raises(ValueError):
        next(enumerate_graphs(9))
    with pytest.raises(ValueError):
        next(enumerate_graphs(-1))


def test_enumerate_is_repeatable():
    assert list(enumerate_graphs(7)) == list(enumerate_graphs(7))


# A fresh interpreter, so that no earlier test has filled a store; the
# catalogue of the 1044 classes on seven vertices and the orders below
# takes about 190 KB.
KEPT_AFTER_ENUMERATION = """
import gc, tracemalloc
from wordrep.graphs import enumerate_graphs
tracemalloc.start()
for _ in enumerate_graphs(7):
    pass
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""


def test_enumeration_keeps_nothing_once_consumed():
    done = subprocess.run([sys.executable, "-c", KEPT_AFTER_ENUMERATION], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert int(done.stdout) < 50_000


def test_enumerate_no_isomorphic_duplicates_small():
    for n in range(6):
        cat = list(enumerate_graphs(n))
        for g, h in itertools.combinations(cat, 2):
            assert not is_isomorphic(g, h)


def test_enumerate_matches_brute_force_buckets():
    # independent oracle: bucket all labelled graphs by networkx isomorphism
    for n in (3, 4):
        reps: list[nx.Graph] = []
        for mask in range(1 << (n * (n - 1) // 2)):
            pairs = list(itertools.combinations(range(n), 2))
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(p for i, p in enumerate(pairs) if mask >> i & 1)
            if not any(nx.is_isomorphic(h, r) for r in reps):
                reps.append(h)
        assert len(reps) == sum(1 for _ in enumerate_graphs(n))


# --------------------------------------------------------------------------
# Canonical forms and the enumeration built on them.


@functools.lru_cache(maxsize=None)
def _catalog_by_buckets(n: int) -> tuple[Graph, ...]:
    """Oracle enumeration: augment every parent by every mask, in the
    production order, and keep a candidate unless the matcher finds it
    isomorphic to a kept graph with the same ``iso_invariant``."""
    if n == 0:
        return (Graph(0),)
    out: list[Graph] = []
    buckets: dict[tuple, list[Graph]] = {}
    newbit = 1 << (n - 1)
    for parent in _catalog_by_buckets(n - 1):
        for mask in range(newbit):
            rows = [row | newbit if mask >> u & 1 else row for u, row in enumerate(parent.adj)]
            g = Graph._from_adj(n, tuple(rows) + (mask,))
            bucket = buckets.setdefault(iso_invariant(g), [])
            if not any(is_isomorphic(g, rep) for rep in bucket):
                bucket.append(g)
                out.append(g)
    return tuple(out)


def test_catalog_matches_bucket_oracle():
    # canonical augmentation keeps other representatives, in another
    # order, so each oracle class must be isomorphic to exactly one
    # catalogue graph; n = 8 takes the oracle minutes
    for n in range(9 if EXHAUSTIVE else 8):
        catalog, oracle = tuple(_catalog(n)), _catalog_by_buckets(n)
        assert len(catalog) == len(oracle)
        buckets: dict[tuple, list[Graph]] = {}
        for g in catalog:
            buckets.setdefault(iso_invariant(g), []).append(g)
        for h in oracle:
            assert sum(is_isomorphic(h, g) for g in buckets.get(iso_invariant(h), [])) == 1


def _last_vertex_form(adj: tuple[int, ...]) -> tuple[int, ...] | None:
    """The form rooted at the last vertex v when v lies in the canonical
    orbit, else None: the same keys as ``graphs._last_vertex_canonical``,
    with every tie's rooted form read."""
    n = len(adj)
    v = n - 1
    deg = [m.bit_count() for m in adj]
    if deg[v] < max(deg):
        return None
    key = [sorted([deg[w] for w in _bits(m)]) if d == deg[v] else [] for m, d in zip(adj, deg)]
    if key[v] < max(key):
        return None
    ties = [v] + [u for u in range(v) if key[u] == key[v] and not _twins(adj, u, v)]
    forms = [_canonical_form(n, adj, [n if w == u else d for w, d in enumerate(deg)])[0]
             for u in ties]
    return forms[0] if forms[0] == max(forms) else None


def _catalog_by_rooted_forms(n: int):
    """Oracle enumeration, the production one before the Aut(parent)
    orbit prune: every parent of its own order n-1 gains the new vertex
    by every mask in increasing order, and a child is kept when the new
    vertex is canonical and no earlier child of that parent has its
    rooted form (twin swaps only skip masks with the same form)."""
    if n == 0:
        yield Graph(0)
        return
    newbit = 1 << (n - 1)
    for parent in _catalog_by_rooted_forms(n - 1):
        padj = parent.adj
        twins = [(1 << u, 1 << v) for v in range(n - 1) for u in range(v) if _twins(padj, u, v)]
        forms = set()
        for mask in range(newbit):
            if any(mask & bv and not mask & bu for bu, bv in twins):
                continue
            adj = tuple(r | newbit if mask >> u & 1 else r for u, r in enumerate(padj)) + (mask,)
            form = _last_vertex_form(adj)
            if form is not None and form not in forms:
                forms.add(form)
                yield Graph._from_adj(n, adj)


def test_catalog_stream_matches_rooted_form_oracle():
    # the least mask of each Aut(parent) orbit is the one the rooted-form
    # set kept, so the very same graphs come in the very same order;
    # n = 9 takes the oracle about 45 s
    for n in range(10 if EXHAUSTIVE else 9):
        assert list(_catalog(n)) == list(_catalog_by_rooted_forms(n)), n


def test_catalog_is_its_parents_children_in_order():
    # the census shares the parents out among processes and merges their
    # children back parent by parent, which is this stream
    for n in range(1, 9):
        for hereditary in (None, is_split):
            chained = [g for p in _catalog(n - 1, hereditary) for g in _children(n, p.adj)
                       if hereditary is None or hereditary(g)]
            assert list(_catalog(n, hereditary)) == chained, (n, hereditary)


def test_catalog_closes_each_mask_under_the_whole_group(monkeypatch):
    # hand the empty 3-vertex parent the single generator 0->1->2->0: a
    # 3-cycle has the orbits of S3 on masks, but mask {1} is below its
    # image {2} while {0} is in its orbit, so a test against each
    # generator alone would keep both {0} and {1} and repeat a class
    def one_generator(n, adj, colors=None):
        best, gens = _canonical_form(n, adj, colors)
        return best, [[1, 2, 0]] if colors is None and adj == (0, 0, 0) else gens

    monkeypatch.setattr("wordrep.graphs._canonical_form", one_generator)
    graphs = list(_catalog(4))
    assert len(graphs) == 11
    assert len({form(g) for g in graphs}) == 11


def is_split(g: Graph) -> bool:
    return split_partition(g) is not None


def test_hereditary_enumeration_keeps_the_filtered_stream():
    for n in range(9):
        grown = list(enumerate_graphs(n, hereditary=is_split))
        assert grown == [g for g in enumerate_graphs(n) if is_split(g)], n
    assert list(enumerate_graphs(3, hereditary=lambda g: g.n < 2)) == []
    assert list(enumerate_graphs(0, hereditary=lambda g: False)) == []


def orbits(size: int, maps: list[list[int]]) -> set[frozenset]:
    """Orbits on 0..size-1 of the group that ``maps`` generate, each map
    a list sending x to map[x], by closing each point under the maps."""
    out: set[frozenset] = set()
    seen: set[int] = set()
    for x in range(size):
        if x not in seen:
            orbit, todo = {x}, [x]
            while todo:
                y = todo.pop()
                for img in maps:
                    if img[y] not in orbit:
                        orbit.add(img[y])
                        todo.append(img[y])
            seen |= orbit
            out.add(frozenset(orbit))
    return out


def on_masks(n: int, p: list[int]) -> list[int]:
    """The vertex map p acting on the subsets of 0..n-1, as bitmasks."""
    images = [0]
    for u in range(n):  # the masks below 1 << u + 1 are those below 1 << u, with or without u
        images += [m | 1 << p[u] for m in images]
    return images


def test_canonical_form_generators_give_the_automorphism_orbits():
    # networkx lists the whole group by VF2, with no refinement or twins
    rng = random.Random(45)
    for n in range(8):
        for h in _catalog(n):
            perm = list(range(n))
            rng.shuffle(perm)
            g = relabel(h, perm)
            gens = _canonical_form(g.n, g.adj)[1]
            matcher = nx.algorithms.isomorphism.GraphMatcher(to_nx(g), to_nx(g))
            auts = [[iso[v] for v in range(n)] for iso in matcher.isomorphisms_iter()]
            # auts is the whole group, so an orbit is the images of one point
            assert orbits(n, gens) == {frozenset(p[v] for p in auts) for v in range(n)}
            images = [on_masks(n, p) for p in auts]
            assert (orbits(1 << n, [on_masks(n, p) for p in gens])
                    == {frozenset(img[m] for img in images) for m in range(1 << n)})


def test_canonical_form_keeps_one_twin_swap_per_join():
    # a twin swap is kept only when it joins twins that the kept swaps do
    # not already join: a spanning tree of each class of twins, so n - 1
    # swaps for K_n and for the empty graph, and k - 1 for k leaves of a star
    star = Graph(5, [(0, v) for v in range(1, 5)])
    for g, count in ((families.complete(6), 5), (Graph(5), 4), (star, 3)):
        assert len(_canonical_form(g.n, g.adj)[1]) == count


def form(g: Graph) -> tuple[int, ...]:
    return _canonical_form(g.n, g.adj)[0]


def rooted_form(g: Graph, root: int) -> tuple[int, ...]:
    """The form with ``root`` coloured above every degree, as canonical
    augmentation takes it."""
    return _canonical_form(g.n, g.adj, [g.n if v == root else g.degree(v) for v in range(g.n)])[0]


def test_rooted_form_follows_the_root():
    rng = random.Random(44)
    graphs = [random_graph(rng, rng.randint(1, 9), rng.random()) for _ in range(100)]
    for g in graphs + [h for h in hard_graphs() if h.n]:
        root = rng.randrange(g.n)
        f = rooted_form(g, root)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert rooted_form(relabel(g, perm), perm[root]) == f
    path = Graph(5, [(i, i + 1) for i in range(4)])
    assert rooted_form(path, 0) == rooted_form(path, 4) != rooted_form(path, 2)
    assert rooted_form(path, 1) == rooted_form(path, 3) != rooted_form(path, 2)
    # an edge plus a triangle: roots of different degrees, no automorphism
    g = Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
    assert rooted_form(g, 0) != rooted_form(g, 2)


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def complement(g: Graph) -> Graph:
    return Graph(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                       if not g.adjacent(u, v)])


def threshold(bits: str) -> Graph:
    """Add vertices one by one: '1' joins the new vertex to all earlier
    ones, '0' leaves it isolated."""
    return Graph(len(bits), [(u, v) for v, b in enumerate(bits) if b == "1" for u in range(v)])


def hard_graphs() -> list[Graph]:
    """Graphs that degree refinement leaves in few colours, so the form
    needs individualisation, with their complements."""
    cube = Graph(8, [(u, u ^ 1 << i) for u in range(8) for i in range(3) if u < u ^ 1 << i])
    petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                     + [(i, i + 5) for i in range(5)])
    cocktail = [Graph(2 * k, [(u, v) for u in range(2 * k) for v in range(u + 1, 2 * k)
                              if v != u + 1 or u % 2]) for k in range(2, 6)]
    base = [families.cycle(m) for m in range(5, 10)] + cocktail + [cube, petersen]
    base += [Graph(n) for n in range(11)]
    base += [threshold(b) for b in ("0000111", "0101010", "0011001100", "0110100111")]
    return base + [complement(g) for g in base]


def test_canonical_form_is_invariant_under_relabelling():
    rng = random.Random(41)
    graphs = [random_graph(rng, rng.randint(0, 10), rng.random()) for _ in range(300)]
    for g in graphs + hard_graphs():
        f = form(g)
        assert is_isomorphic(Graph._from_adj(g.n, f), g)  # the form is a copy of g
        for _ in range(4):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert form(relabel(g, perm)) == f


def test_canonical_form_separates_hard_graphs():
    hard = hard_graphs()
    for g, h in itertools.combinations(hard, 2):
        if g.n == h.n:
            assert (form(g) == form(h)) == nx.is_isomorphic(to_nx(g), to_nx(h))
    # C_8 and two disjoint 4-cycles: both 2-regular, so only the branching tells them apart
    two_c4 = Graph(8, [(i, (i + 1) % 4) for i in range(4)] + [(4 + i, 4 + (i + 1) % 4) for i in range(4)])
    assert form(families.cycle(8)) != form(two_c4)


def degree_preserving_swap(rng: random.Random, g: Graph) -> Graph:
    """g after random double-edge swaps: same degree sequence, often
    another isomorphism class."""
    edges = {tuple(e) for e in g.edges()}
    for _ in range(2 * len(edges)):
        if len(edges) < 2:
            break
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        if rng.random() < 0.5:
            c, d = d, c
        new = (min(a, d), max(a, d)), (min(c, b), max(c, b))
        if len({a, b, c, d}) == 4 and not any(e in edges for e in new):
            edges -= {(a, b), tuple(sorted((c, d)))}
            edges |= set(new)
    return Graph(g.n, sorted(edges))


def test_equal_forms_exactly_when_isomorphic():
    rng = random.Random(43)
    agree = {True: 0, False: 0}
    for i in range(600):
        g = random_graph(rng, rng.randint(4, 9), rng.uniform(0.2, 0.8))
        h = degree_preserving_swap(rng, g)
        assert g.degree_sequence() == h.degree_sequence()
        same = is_isomorphic(g, h)
        assert (form(g) == form(h)) == same
        if i % 4 == 0:
            assert same == nx.is_isomorphic(to_nx(g), to_nx(h))
        agree[same] += 1
    assert min(agree.values()) > 50  # both outcomes well represented
