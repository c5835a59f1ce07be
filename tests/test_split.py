"""Split-graph structure: recognition, partitioning, the reduction's
effect on split graphs, the comparability test, vertex typing, relative-order restrictions, the
structural semi-transitivity characterization, and A/B flips."""

import itertools
import random

import networkx as nx
import pytest

from wordrep import families
from wordrep.classify import _reduce
from wordrep.graphs import Graph, contains_induced, enumerate_graphs
from wordrep.orient import (
    OrientedGraph,
    all_orientations,
    is_semi_transitive,
    is_word_representable,
    orient_by_bits,
)
from wordrep.split import (
    KIND_A,
    KIND_B,
    KIND_C,
    KIND_INVALID,
    SplitPartition,
    VertexTypeReport,
    check_main_orientation,
    check_relative_order,
    classify_all,
    clique_path,
    is_split,
    is_split_comparability,
    split_partition,
    toggle_ab,
)
from conftest import EXHAUSTIVE, random_graph, random_split_graph


def _is_split_by_forbidden(g):
    """Oracle: split iff no induced C4, C5 or 2K2."""
    for pattern in (families.cycle(4), families.cycle(5), families.named("TWO_K2")):
        if contains_induced(g, pattern) is not None:
            return False
    return True


def _is_split_comparability_by_forbidden(g):
    """Oracle: a split graph is a comparability graph iff it has no
    induced B1, B2 or B3."""
    for tag in ("B1", "B2", "B3"):
        if contains_induced(g, families.named(tag)) is not None:
            return False
    return True


def _split_cliques(g):
    """Oracle: the maximal cliques whose complement is independent
    (found by networkx), each as a sorted tuple, in ascending order."""
    if g.n == 0:
        return [()]
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    found = []
    for clique in nx.find_cliques(h):
        rest = set(range(g.n)) - set(clique)
        if not any(g.adjacent(u, v) for u, v in itertools.combinations(rest, 2)):
            found.append(tuple(sorted(clique)))
    return sorted(found)


def _split_partition_by_cliques(g):
    """Oracle for split_partition: the lexicographically least clique
    of _split_cliques, as (clique, independent), or None."""
    cliques = _split_cliques(g)
    if not cliques:
        return None
    return cliques[0], tuple(v for v in range(g.n) if v not in cliques[0])


def _relabelled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _random_split_graph_with_ties(rng, n):
    """A relabelled split graph whose clique has vertices without
    independent neighbours, some of them missed by exactly one
    independent vertex that sees the rest of the clique: each such pair
    is a swap tie between two partitions."""
    m = rng.randint(1, n)
    lonely = rng.sample(range(m), rng.randint(0, m))
    others = [c for c in range(m) if c not in lonely]
    edges = [(u, v) for u in range(m) for v in range(u + 1, m)]
    for w in range(m, n):
        if lonely and rng.random() < 0.5:
            missed = rng.choice(lonely)
            edges += [(c, w) for c in range(m) if c != missed]
        else:
            edges += [(c, w) for c in rng.sample(others, rng.randint(0, max(len(others) - 1, 0)))]
    return _relabelled(rng, Graph(n, edges))


def _random_threshold_graph(rng, n):
    """A relabelled threshold graph: a clique plus independent vertices
    whose neighbourhoods are prefixes of it, hence nested.  Threshold
    graphs are split comparability graphs."""
    m = rng.randint(1, n)
    edges = [(u, v) for u in range(m) for v in range(u + 1, m)]
    edges += [(c, w) for w in range(m, n) for c in range(rng.randint(0, m - 1))]
    return _relabelled(rng, Graph(n, edges))


def split_graphs_up_to(nmax):
    for n in range(nmax + 1):
        for g in enumerate_graphs(n):
            sp = split_partition(g)
            if sp is not None:
                yield g, sp


def test_split_partition_examples():
    sp = split_partition(families.named("T1"))
    assert sp.m == 4 and len(sp.independent) == 3
    assert split_partition(families.cycle(4)) is None
    for n in (1, 2, 5):
        sp = split_partition(families.complete(n))
        assert sp.clique == tuple(range(n)) and sp.independent == ()
    # deterministic tie-break: lexicographically least clique
    assert split_partition(Graph(3, [(0, 1), (1, 2)])).clique == (0, 1)
    sp = split_partition(Graph(0))
    assert sp is not None and sp.clique == () and sp.independent == ()


def test_split_partition_invariants():
    for g, sp in split_graphs_up_to(6):
        cm = sp.clique_mask()
        for u in sp.clique:
            assert g.adj[u] & cm == cm & ~(1 << u)  # clique complete
        for x in sp.independent:
            assert g.adj[x] & ~cm == 0              # only clique neighbours
            assert g.adj[x] & cm != cm              # clique maximal
        assert sorted(sp.clique + sp.independent) == list(range(g.n))


def test_is_split_examples():
    assert not is_split(families.named("TWO_K2"))
    assert not is_split(families.named("W5"))
    assert not is_split(families.cycle(4))
    assert not is_split(families.cycle(5))
    for l in (4, 5, 6):
        assert is_split(families.a_graph(l))
        assert is_split(families.k_triangle(l))
        assert split_partition(families.k_triangle(l)).m == l


def test_is_split_routes_agree_up_to_7():
    # the degree-sequence recognition against the forbidden-subgraph
    # oracle over the full catalogue
    for n in range(8):
        for g in enumerate_graphs(n):
            assert is_split(g) == _is_split_by_forbidden(g)


def _partition_pair(g):
    sp = split_partition(g)
    return None if sp is None else (sp.clique, sp.independent)


def test_split_partition_matches_clique_oracle_up_to_7():
    for n in range(8):
        for g in enumerate_graphs(n):
            assert _partition_pair(g) == _split_partition_by_cliques(g), g.edges()


def test_split_partition_matches_clique_oracle_on_random_graphs(rng):
    ties = 0
    for _ in range(400):
        n = rng.randint(1, 12)
        g = _random_split_graph_with_ties(rng, n)
        ties += len(_split_cliques(g)) > 1
        assert _partition_pair(g) == _split_partition_by_cliques(g), g.edges()
        h = random_graph(rng, n, rng.random())
        assert _partition_pair(h) == _split_partition_by_cliques(h), h.edges()
    assert ties > 50


def test_reduce_preserves_representability():
    nmax = 7 if EXHAUSTIVE else 6
    for g, _ in split_graphs_up_to(nmax):
        assert is_word_representable(g) == is_word_representable(_reduce(g)[0])


def test_is_split_comparability_examples():
    assert not is_split_comparability(families.named("B1"))
    assert not is_split_comparability(families.named("B2"))
    assert not is_split_comparability(families.named("T3"))
    # pendants on at most two distinct clique vertices keep a transitive
    # orientation; on three they create the net (= B1) and break it
    two_pendants = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (1, 5)])
    assert is_split_comparability(two_pendants)
    net_like = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])
    assert not is_split_comparability(net_like)
    assert is_split_comparability(families.complete(6))
    with pytest.raises(ValueError):
        is_split_comparability(families.cycle(4))


def test_is_split_comparability_matches_direct_search():
    # the G-decomposition against the B1-B3 scan, on every split class
    # with n <= 7 and on seeded random split graphs with n <= 14
    for g, _ in split_graphs_up_to(7):
        assert is_split_comparability(g) == _is_split_comparability_by_forbidden(g), g.edges()
    rng = random.Random(14)
    answers = set()
    for _ in range(200):
        n = rng.randint(1, 14)
        threshold = _random_threshold_graph(rng, n)
        assert is_split_comparability(threshold), threshold.edges()
        assert _is_split_comparability_by_forbidden(threshold), threshold.edges()
        g = _relabelled(rng, random_split_graph(rng, n))
        answer = is_split_comparability(g)
        assert answer == _is_split_comparability_by_forbidden(g), g.edges()
        answers.add(answer)
    assert answers == {False, True}


def test_clique_path():
    og = families.k_triangle_canonical_orientation(4)
    sp = split_partition(families.k_triangle(4))
    assert clique_path(sp, og) == (0, 1, 2, 3)
    # break the clique orientation: no path
    bad = OrientedGraph(
        families.complete(3), [(0, 1), (1, 2), (2, 0)]
    )
    sp3 = split_partition(families.complete(3))
    assert clique_path(sp3, bad) is None


def test_classify_vertex_canonical_k_triangle():
    g = families.k_triangle(6)
    sp = split_partition(g)
    og = families.k_triangle_canonical_orientation(6)
    reports = classify_all(sp, og)
    assert [rep.vertex for rep in reports] == list(sp.independent) == list(range(6, 12))
    # attachment vertices 6..10 are sinks over consecutive pairs: type B
    for i, rep in enumerate(reports[:5]):
        assert rep.kind == KIND_B
        assert rep.neighbors_on_path == (i, i + 1)
    # the threaded last vertex is type C with singleton groups
    rep = reports[5]
    assert rep.kind == KIND_C
    assert rep.source_group == (0,) and rep.sink_group == (5,)
    assert rep.boundary == (0, 5)
    # JSON field names are part of the CLI contract
    assert set(rep.to_json()) == {"vertex", "kind", "source_group", "sink_group", "boundary"}


def test_split_partition_record():
    g = Graph(5, [(0, 1), (0, 3), (1, 3), (3, 4), (2, 3)])
    sp = split_partition(g)
    assert sp == SplitPartition(graph=g, clique=(0, 1, 3), independent=(2, 4))
    assert hash(sp) == hash(SplitPartition(g, (0, 1, 3), (2, 4)))
    assert sp != SplitPartition(g, (1, 3), (0, 2, 4))
    assert repr(sp) == f"SplitPartition(graph={g!r}, clique=(0, 1, 3), independent=(2, 4))"
    with pytest.raises(AttributeError):
        sp.clique = (3,)
    assert sp.m == 3
    assert sp.clique_mask() == 0b1011


def test_vertex_type_report_record():
    rep = VertexTypeReport(vertex=4, kind=KIND_A, neighbors_on_path=(0, 1))
    assert (rep.source_group, rep.sink_group, rep.boundary) == ((), (), None)
    assert rep == VertexTypeReport(4, KIND_A, (0, 1), (), (), None)
    assert hash(rep) == hash(VertexTypeReport(4, KIND_A, (0, 1)))
    assert repr(rep) == (
        "VertexTypeReport(vertex=4, kind='A', neighbors_on_path=(0, 1), "
        "source_group=(), sink_group=(), boundary=None)"
    )
    with pytest.raises(AttributeError):
        rep.kind = KIND_B
    assert rep.to_json() == {
        "vertex": 4, "kind": "A", "source_group": [], "sink_group": [], "boundary": None,
    }
    c = VertexTypeReport(5, KIND_C, (0, 2, 3), source_group=(0,), sink_group=(2, 3), boundary=(0, 2))
    assert c.to_json() == {
        "vertex": 5, "kind": "C", "source_group": [0], "sink_group": [2, 3], "boundary": [0, 2],
    }


def test_classify_vertex_invalid_and_errors():
    # degree-2 vertex over non-consecutive positions, both edges outgoing
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 0), (3, 2), (0, 4)])
    sp = split_partition(g)
    assert sp.clique == (0, 1, 2)
    og = OrientedGraph(g, [(0, 1), (1, 2), (0, 2), (3, 0), (3, 2), (0, 4)])
    assert sp.independent == (3, 4)
    assert classify_all(sp, og)[0].kind == KIND_INVALID
    assert not is_semi_transitive(og)
    cyc = OrientedGraph(g, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 2), (0, 4)])
    with pytest.raises(ValueError, match="not transitively oriented"):
        classify_all(sp, cyc)
    fine = OrientedGraph(g, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 2), (0, 4)])
    assert is_semi_transitive(fine)
    with pytest.raises(ValueError, match="not in the independent set"):
        toggle_ab(sp, fine, 0)  # clique vertex


def test_degree_one_vertices_classify_by_direction():
    g = Graph(3, [(0, 1), (0, 2)])  # K2 plus a pendant... clique {0,1}
    sp = split_partition(g)
    assert sp.clique == (0, 1)
    assert sp.independent == (2,)
    out = OrientedGraph(g, [(0, 1), (2, 0)])
    assert classify_all(sp, out)[0].kind == KIND_A
    inc = OrientedGraph(g, [(0, 1), (0, 2)])
    assert classify_all(sp, inc)[0].kind == KIND_B


def test_check_relative_order_examples():
    g6 = families.k_triangle(6)
    sp6 = split_partition(g6)
    og6 = families.k_triangle_canonical_orientation(6)
    assert check_relative_order(sp6, classify_all(sp6, og6)) == []
    # T3: whenever all independent vertices are typed, a violation exists
    t3 = families.named("T3")
    sp = split_partition(t3)
    typed_orientations = 0
    for og in all_orientations(t3):
        if clique_path(sp, og) is None:
            continue
        reports = classify_all(sp, og)
        if any(r.kind == KIND_INVALID for r in reports):
            with pytest.raises(ValueError):
                check_relative_order(sp, reports)
            continue
        typed_orientations += 1
        assert check_relative_order(sp, reports) != []
    assert typed_orientations > 0
    # a single type-C vertex cannot violate anything
    g = families.k_ell_k(5, 3)
    sp5 = split_partition(g)
    og = families.k_ell_k_canonical_orientation(5, 3)
    reports = classify_all(sp5, og)
    assert sum(1 for r in reports if r.kind == KIND_C) >= 1
    assert check_relative_order(sp5, reports) == []
    # two type-C vertices over the path 0->...->4: 6's sink group holds
    # 5's boundary pair, and 5's source group holds 6's; both are listed
    clique = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    g = Graph(7, clique + [(5, 0), (5, 1), (5, 2), (5, 4), (6, 0), (6, 2), (6, 3), (6, 4)])
    sp7 = split_partition(g)
    og = OrientedGraph(g, clique + [(0, 5), (1, 5), (2, 5), (5, 4), (0, 6), (6, 2), (6, 3), (6, 4)])
    assert [v.to_json() for v in check_relative_order(sp7, classify_all(sp7, og))] == [
        {"y": 6, "x": 5, "boundary": [2, 4], "kind": "C_SINK_GROUP"},
        {"y": 5, "x": 6, "boundary": [0, 2], "kind": "C_SOURCE_GROUP"},
    ]
    assert not check_main_orientation(sp7, og) and not is_semi_transitive(og)
    # violation JSON schema
    from wordrep.split import OrderViolation

    v = OrderViolation(1, 2, (0, 3), "AB")
    assert v.to_json() == {"y": 1, "x": 2, "boundary": [0, 3], "kind": "AB"}
    assert v == OrderViolation(y=1, x=2, boundary=(0, 3), kind="AB")
    assert hash(v) == hash(OrderViolation(1, 2, (0, 3), "AB"))
    assert repr(v) == "OrderViolation(y=1, x=2, boundary=(0, 3), kind='AB')"
    with pytest.raises(AttributeError):
        v.kind = "C_SINK_GROUP"


def test_check_main_orientation_examples():
    g = families.k_triangle(6)
    sp = split_partition(g)
    assert check_main_orientation(sp, families.k_triangle_canonical_orientation(6))
    t3 = families.named("T3")
    sp3 = split_partition(t3)
    assert all(not check_main_orientation(sp3, og) for og in all_orientations(t3))


def test_main_orientation_equivalence():
    """The flagship oracle test: the structural test, and the type
    reports and violations that ``orient --classify-types`` prints,
    coincide with the direct semi-transitivity check on every
    orientation."""
    nmax = 7 if EXHAUSTIVE else 6
    for g, sp in split_graphs_up_to(nmax):
        for og in all_orientations(g):
            semi = is_semi_transitive(og)
            assert check_main_orientation(sp, og) == semi, (g.edges(), og.arcs())
            if clique_path(sp, og) is None:
                continue
            reports = classify_all(sp, og)
            if all(r.kind != KIND_INVALID for r in reports):
                assert (check_relative_order(sp, reports) == []) == semi, (
                    g.edges(),
                    og.arcs(),
                )


def test_main_orientation_equivalence_sampled_n8(rng):
    for _ in range(60):
        g = random_split_graph(rng, 8)
        sp = split_partition(g)
        ne = g.edge_count
        for _ in range(50):
            bits = "".join(rng.choice("01") for _ in range(ne))
            og = orient_by_bits(g, bits)
            assert check_main_orientation(sp, og) == is_semi_transitive(og)


def test_semi_transitive_independent_vertices_always_typed():
    for g, sp in split_graphs_up_to(6):
        for og in all_orientations(g):
            if not is_semi_transitive(og):
                continue
            for rep in classify_all(sp, og):
                assert rep.kind in (KIND_A, KIND_B, KIND_C)
                if rep.kind == KIND_C:
                    path = clique_path(sp, og)
                    assert rep.source_group[0] == path[0]
                    assert rep.sink_group[-1] == path[-1]


def test_toggle_ab_examples():
    g = families.k_triangle(6)
    sp = split_partition(g)
    og = families.k_triangle_canonical_orientation(6)
    flipped = toggle_ab(sp, og, 6)
    assert classify_all(sp, flipped)[sp.independent.index(6)].kind == KIND_A
    assert is_semi_transitive(flipped)
    assert toggle_ab(sp, flipped, 6) == og  # involution
    with pytest.raises(ValueError):
        toggle_ab(sp, og, 11)  # type C vertex
    bad = orient_by_bits(g, "1" * g.edge_count)
    assert not is_semi_transitive(bad)
    with pytest.raises(ValueError):
        toggle_ab(sp, bad, 6)


def test_toggle_ab_exhaustive_small():
    for g, sp in split_graphs_up_to(5):
        for og in all_orientations(g):
            if not is_semi_transitive(og):
                continue
            for rep in classify_all(sp, og):
                if rep.kind in (KIND_A, KIND_B):
                    flipped = toggle_ab(sp, og, rep.vertex)  # raises on failure
                    assert toggle_ab(sp, flipped, rep.vertex) == og
