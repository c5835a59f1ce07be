"""Family generators: structural counts, label conventions, the
documented identities between the named graphs, canonical orientations
and explicit words."""

import pytest

from wordrep import families
from wordrep.graphs import Graph, induced_subgraph, is_isomorphic
from wordrep.orient import is_semi_transitive
from wordrep.split import is_split, split_partition
from wordrep.words import represents


def test_k_triangle_structure():
    g = families.k_triangle(6)
    assert g.n == 12 and g.edge_count == 27
    g3 = families.k_triangle(3)
    assert g3.n == 6 and g3.edge_count == 9
    for l in range(3, 9):
        g = families.k_triangle(l)
        assert g.edge_count == l * (l - 1) // 2 + 2 * l
        sp = split_partition(g)
        assert sp is not None and sp.clique == tuple(range(l))
        assert all(g.degree(l + i) == 2 for i in range(l))
    with pytest.raises(ValueError):
        families.k_triangle(2)


def test_k_triangle_canonical_orientation_is_semi_transitive():
    for l in range(3, 9):
        og = families.k_triangle_canonical_orientation(l)
        # clique runs 0 -> ... -> l-1; the last attachment is threaded
        assert og.has_arc(0, 2 * l - 1) and og.has_arc(2 * l - 1, l - 1)
        assert is_semi_transitive(og)


def test_k_triangle_is_k_ell_k_with_windows_of_two():
    for l in range(3, 11):
        assert families.k_triangle(l) == families.k_ell_k(l, 2)
        assert families.k_triangle_canonical_orientation(l) == (
            families.k_ell_k_canonical_orientation(l, 2)
        )
    for build in (families.k_triangle, families.k_triangle_canonical_orientation):
        with pytest.raises(ValueError, match="k_triangle needs l >= 3"):
            build(2)


def test_k_triangle_odd_word():
    w3 = families.k_triangle_odd_word(3)
    # transcription of the two-line displayed word for l=3, shifted 0-based
    assert w3 == tuple(c - 1 for c in (4, 1, 2, 4, 6, 3, 1, 6, 5, 2, 3, 5))
    for l in (3, 5, 7, 9):
        w = families.k_triangle_odd_word(l)
        g = families.k_triangle(l)
        assert all(w.count(c) == 2 for c in range(g.n))
        assert represents(w, g)
    with pytest.raises(ValueError):
        families.k_triangle_odd_word(4)


def test_a_graph_structure():
    for l in (4, 5, 6):
        g = families.a_graph(l)
        assert g.n == 2 * l - 1
        sp = split_partition(g)
        assert sp is not None and sp.m == l
        # dropping the apex leaves exactly the crowned clique
        assert g.delete_vertex(g.n - 1) == families.k_triangle(l - 1)
    assert is_isomorphic(families.a_graph(4), families.named("T1"))
    with pytest.raises(ValueError):
        families.a_graph(3)


def test_k_ell_k_structure():
    for l in range(3, 9):
        assert families.k_ell_k(l, 2) == families.k_triangle(l)
    g = families.k_ell_k(5, 3)
    assert g.n == 10 and g.edge_count == 10 + 15
    sp = split_partition(g)
    assert sp is not None
    hoods = {g.adj[v] for v in sp.independent}
    assert len(hoods) == 5
    with pytest.raises(ValueError):
        families.k_ell_k(4, 3)  # l < 2k-1
    with pytest.raises(ValueError):
        families.k_ell_k(5, 0)


def test_k_ell_k_canonical_orientation():
    assert families.k_ell_k_canonical_orientation(6, 2) == families.k_triangle_canonical_orientation(6)
    for l, k in ((5, 3), (7, 3), (8, 3)):
        assert is_semi_transitive(families.k_ell_k_canonical_orientation(l, k))


def test_simple_families():
    assert families.cycle(5).degree_sequence() == (2, 2, 2, 2, 2)
    assert families.complete(4).edge_count == 6
    assert Graph(3).edge_count == 0
    assert families.named("TWO_K2").degree_sequence() == (1, 1, 1, 1)
    assert families.named("W5").edge_count == 10
    with pytest.raises(ValueError):
        families.cycle(2)


def test_complete_has_every_pair():
    for n in range(9):
        assert families.complete(n) == Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    with pytest.raises(ValueError, match="non-negative"):
        families.complete(-1)


def test_named_graphs_split_status():
    non_split = {"CO_T2", "FIG4_RIGHT", "TWO_K2"}
    for tag in ("T1", "T2", "T3", "T4", "B1", "B2", "B3", "M", "M1", "M2",
                "M3", "M4", "M5", "M6", "FIG2_EXAMPLE"):
        assert is_split(families.named(tag)), tag
    for tag in non_split:
        assert not is_split(families.named(tag)), tag


def test_named_dispatch():
    assert families.named("K_TRIANGLE", 5) == families.k_triangle(5)
    assert families.named("C", 4) == families.cycle(4)
    assert families.named("K", 3) == families.complete(3)
    assert families.named("EMPTY", 2) == Graph(2)
    with pytest.raises(ValueError):
        families.named("NOPE")
    with pytest.raises(ValueError):
        families.named("T1", 3)
    with pytest.raises(ValueError):
        families.named("K_TRIANGLE")
    with pytest.raises(ValueError):
        families.canonical_orientation("T1")


def test_proof_graph_deletion_identities():
    m = families.named("M")
    m1 = families.named("M1")
    assert m.delete_vertex(6) == m1
    assert m.delete_vertex(4) == families.named("M2")
    assert m1.delete_vertex(4) == families.named("M3")
    assert m1.delete_vertex(5) == families.named("M4")
    assert m1.delete_vertex(6) == families.named("M5")
    assert m1.delete_vertex(7) == families.named("M6")
    assert is_isomorphic(m1.delete_vertex(8), families.named("T4"))
    # M restricted to its first six vertices is the maximal degree-3
    # configuration, drawn twice in the source; both drawings coincide
    core = induced_subgraph(m, range(6))
    redrawn = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3),
                        (1, 4), (2, 3), (2, 4), (2, 5), (3, 5)])
    assert core == redrawn
    # M5 minus vertex 1 is exactly T1 (up to relabelling)
    assert is_isomorphic(families.named("M5").delete_vertex(1), families.named("T1"))


def test_t1_is_b2_plus_apex():
    t1 = families.named("T1")
    apex = next(v for v in range(7) if t1.degree(v) == 3)
    assert is_isomorphic(t1.delete_vertex(apex), families.named("B2"))


def test_fig2_example_word():
    g = families.named("FIG2_EXAMPLE")
    assert represents((0, 1, 0, 2, 3, 1, 2), g)


def test_split_builder_labels():
    # the clique on 0..m-1, then the independent vertices in order
    g = families._split(3, [(0,), (1, 2)])
    assert g == Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 4)])


def test_fixed_graphs_check_themselves():
    duplicate = families._edge_list((1, 1, 1, 1), [(0, 1), (2, 3), (1, 0)])
    wrong_degrees = families._clique(3, (1, 2, 2, 2), (0, 1))
    too_few_vertices = families._clique(4, (2, 2, 2, 4, 4, 4, 6), (1, 2), (1, 3))
    for family in (duplicate, wrong_degrees, too_few_vertices):
        with pytest.raises(AssertionError, match="self-check failed"):
            family.build()
    with pytest.raises(ValueError, match="out of range"):
        families._edge_list((1, 1, 1), [(0, 1), (2, 3)]).build()


def test_table_orientations_and_words():
    assert families.explicit_word("K_TRIANGLE", 5) == families.k_triangle_odd_word(5)
    assert families.canonical_orientation("K_L_K", 7, 3) == (
        families.k_ell_k_canonical_orientation(7, 3)
    )
    with pytest.raises(ValueError, match="no explicit word defined for K_L_K"):
        families.explicit_word("K_L_K", 5, 2)
    with pytest.raises(ValueError, match="no canonical orientation defined for A_GRAPH"):
        families.canonical_orientation("A_GRAPH", 5)
    with pytest.raises(ValueError, match="K_TRIANGLE takes 1 parameter"):
        families.canonical_orientation("K_TRIANGLE")
