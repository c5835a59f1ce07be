"""Directed machinery: acyclicity, transitivity, the two shortcut
checkers and their agreement, the orientation search as a decision
procedure and its reversal symmetry, extension counting, forcing
chains and their agreement with the dict-based implication classes of
``implication_oracle``, and serialization round trips."""

import random

import pytest

from wordrep import families
from wordrep.graphs import Graph, enumerate_graphs, induced_subgraph
from wordrep.orient import (
    OrientedGraph,
    _add_arc,
    _has_shortcut,
    all_orientations,
    count_semi_transitive_extensions,
    find_semi_transitive_orientation,
    find_transitive_orientation,
    forcing_chain,
    is_forcing_chain,
    is_semi_transitive,
    is_transitive,
    is_word_representable,
    orient_by_bits,
    orientation_bits,
    semi_transitive_orientations,
    to_dot,
)
from conftest import EXHAUSTIVE, random_graph
import implication_oracle
from shortcut_witness import ShortcutWitness, find_shortcut, is_acyclic


def cocktail_party(k: int) -> Graph:
    n = 2 * k
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if v != u + k])


def semi_transitive_by_oracle(og: OrientedGraph) -> bool:
    """Semi-transitivity decided without the engine's closure routine."""
    return is_acyclic(og) and find_shortcut(og) is None


def test_oriented_graph_validation():
    g = families.complete(3)
    with pytest.raises(ValueError):
        OrientedGraph(g, [(0, 1), (1, 2)])  # edge {0,2} undirected
    with pytest.raises(ValueError):
        OrientedGraph(g, [(0, 1), (1, 0), (1, 2), (0, 2)])  # both ways
    with pytest.raises(ValueError):
        OrientedGraph(g, [(0, 1), (1, 2), (0, 2), (1, 2)])  # duplicate
    with pytest.raises(ValueError):
        OrientedGraph(Graph(3, [(0, 1)]), [(0, 1), (1, 2)])  # not an edge


def test_is_acyclic_examples():
    k3 = families.complete(3)
    assert is_acyclic(OrientedGraph(k3, [(0, 1), (1, 2), (0, 2)]))
    assert not is_acyclic(OrientedGraph(k3, [(0, 1), (1, 2), (2, 0)]))
    assert is_acyclic(OrientedGraph(Graph(4), []))


def test_is_transitive_examples():
    for og in all_orientations(families.complete(4)):
        if is_acyclic(og):
            assert is_transitive(og)
    path = OrientedGraph(Graph(3, [(0, 1), (1, 2)]), [(0, 1), (1, 2)])
    assert not is_transitive(path)
    assert not any(is_transitive(og) for og in all_orientations(families.cycle(5)))


def test_acyclic_tournaments_have_unique_source_and_sink():
    for m in (2, 3, 4, 5):
        for og in all_orientations(families.complete(m)):
            if not is_acyclic(og):
                continue
            assert is_transitive(og)
            sources = [v for v in range(m) if all(not og.has_arc(u, v) for u in range(m))]
            sinks = [v for v in range(m) if og.out[v] == 0]
            assert len(sources) == 1 and len(sinks) == 1


def test_find_shortcut_minimal_example():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    og = OrientedGraph(g, [(0, 1), (1, 2), (2, 3), (0, 3)])
    wit = find_shortcut(og)
    assert wit is not None and wit.is_valid(og)
    assert wit.shortcutting_edge == (0, 3)
    assert wit.missing_pair in ((0, 2), (1, 3))
    assert not is_semi_transitive(og)


def test_shortcut_witness_record():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    og = OrientedGraph(g, [(0, 1), (1, 2), (2, 3), (0, 3)])
    wit = ShortcutWitness(path=(0, 1, 2, 3), shortcutting_edge=(0, 3), missing_pair=(0, 2))
    assert wit.is_valid(og)
    assert wit == ShortcutWitness((0, 1, 2, 3), (0, 3), (0, 2))
    assert hash(wit) == hash(ShortcutWitness((0, 1, 2, 3), (0, 3), (0, 2)))
    assert repr(wit) == (
        "ShortcutWitness(path=(0, 1, 2, 3), shortcutting_edge=(0, 3), missing_pair=(0, 2))"
    )
    with pytest.raises(AttributeError):
        wit.path = (0, 3)
    assert not ShortcutWitness((0, 1, 2, 3), (0, 3), (1, 2)).is_valid(og)  # an arc
    assert not ShortcutWitness((0, 1, 2, 3), (0, 2), (0, 2)).is_valid(og)


def test_find_shortcut_none_on_transitive():
    for og in all_orientations(families.complete(4)):
        if is_acyclic(og):
            assert find_shortcut(og) is None
    og = families.k_triangle_canonical_orientation(6)
    assert find_shortcut(og) is None


def test_find_shortcut_walks_a_1100_vertex_path():
    # one path vertex per walk step: deeper than Python's recursion limit
    n = 1100
    og = OrientedGraph(families.cycle(n), [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
    assert not is_semi_transitive(og)
    wit = find_shortcut(og)
    assert wit.path == tuple(range(n)) and wit.shortcutting_edge == (0, n - 1)
    assert wit.missing_pair == (0, 2)


def test_find_shortcut_takes_the_smallest_next_vertex_first():
    # two shortcut paths below 0->4, branching at 0; then two below
    # 0->5, branching at 1
    for arcs, path, missing in (
        ([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (0, 4)], (0, 1, 3, 4), (0, 3)),
        ([(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (0, 5)], (0, 1, 2, 4, 5), (0, 2)),
    ):
        wit = find_shortcut(OrientedGraph(Graph(6, arcs), arcs))
        assert (wit.path, wit.missing_pair) == (path, missing)


def test_find_shortcut_rejects_cyclic():
    og = OrientedGraph(families.complete(3), [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError):
        find_shortcut(og)


def test_shortcut_checkers_agree_exhaustively():
    for n in range(6):
        for g in enumerate_graphs(n):
            for og in all_orientations(g):
                fast = is_semi_transitive(og)
                slow = is_acyclic(og) and find_shortcut(og) is None
                assert fast == slow


def test_shortcut_checkers_agree_on_random_larger(rng):
    for _ in range(300):
        g = random_graph(rng, rng.randint(6, 8), 0.5)
        bits = "".join(rng.choice("01") for _ in range(g.edge_count))
        og = orient_by_bits(g, bits)
        fast = is_semi_transitive(og)
        slow = is_acyclic(og) and find_shortcut(og) is None
        assert fast == slow
        if not is_acyclic(og):
            continue
        wit = find_shortcut(og)
        if wit is not None:
            assert wit.is_valid(og)


def test_transitive_implies_semi_transitive(rng):
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 7), 0.5)
        og = find_transitive_orientation(g)
        if og is not None:
            assert is_transitive(og) and is_acyclic(og)
            assert is_semi_transitive(og)


def test_find_semi_transitive_orientation_examples():
    assert find_semi_transitive_orientation(families.named("W5")) is None
    for l in (3, 4, 5):
        og = find_semi_transitive_orientation(families.k_triangle(l))
        assert og is not None and is_semi_transitive(og)
    for tag in ("T1", "T2", "T3", "T4"):
        assert find_semi_transitive_orientation(families.named(tag)) is None


def test_is_word_representable_examples():
    for n in range(6):
        for g in enumerate_graphs(n):
            assert is_word_representable(g)
    assert not is_word_representable(families.named("CO_T2"))
    assert not is_word_representable(families.named("FIG4_RIGHT"))


def test_three_colorable_graphs_are_representable(rng):
    def three_colorable(g):
        colors = [-1] * g.n

        def go(v):
            if v == g.n:
                return True
            for c in range(3):
                if all(colors[w] != c for w in g.neighbors(v) if w < v):
                    colors[v] = c
                    if go(v + 1):
                        return True
            colors[v] = -1
            return False

        return go(0)

    found = 0
    while found < 40:
        g = random_graph(rng, rng.randint(1, 7), 0.45)
        if three_colorable(g):
            found += 1
            assert is_word_representable(g)


def test_representability_is_hereditary(rng):
    if EXHAUSTIVE:
        pool = [g for n in range(8) for g in enumerate_graphs(n)]
    else:
        pool = [g for n in range(6) for g in enumerate_graphs(n)]
        pool += [random_graph(rng, 7, 0.5) for _ in range(40)]
    for g in pool:
        if is_word_representable(g):
            for v in range(g.n):
                assert is_word_representable(g.delete_vertex(v))


def test_count_semi_transitive_extensions_examples():
    for l in (3, 4):
        g = families.k_triangle(l)
        clique = [(u, v) for u in range(l) for v in range(u + 1, l)]
        assert count_semi_transitive_extensions(g, clique) == 2 ** (l - 1)
    assert count_semi_transitive_extensions(families.complete(3), []) == 6
    with pytest.raises(ValueError):
        count_semi_transitive_extensions(families.complete(3), [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        count_semi_transitive_extensions(Graph(3, [(0, 1)]), [(1, 2)])


def test_clique_fixed_extensions_have_the_predicted_shape():
    # with the clique of k_triangle(l) run 0 -> ... -> l-1, the
    # semi-transitive completions are exactly: each attachment vertex
    # below the last a sink or a source, and the last one threaded
    # 0 -> 2l-1 -> l-1
    for l in (3, 4):
        g = families.k_triangle(l)
        edges = g.edges()
        nfree = sum(1 for e in edges if e[1] >= l)
        winners = []
        for mask in range(1 << nfree):
            bits = []
            k = 0
            for u, v in edges:
                if v < l:
                    bits.append("0")  # clique fixed low -> high
                else:
                    bits.append(str(mask >> k & 1))
                    k += 1
            og = orient_by_bits(g, "".join(bits))
            if is_semi_transitive(og):
                winners.append(og)
        assert len(winners) == 2 ** (l - 1)
        last = 2 * l - 1
        for og in winners:
            assert og.has_arc(0, last) and og.has_arc(last, l - 1)
            for i in range(l - 1):
                w = l + i
                indeg = sum(og.has_arc(c, w) for c in (i, i + 1))
                assert indeg in (0, 2)  # pure source or pure sink


def test_count_matches_backtracking_engine(rng):
    graphs = [random_graph(rng, rng.randint(1, 6), 0.5) for _ in range(60)]
    graphs += [g for n in range(6) for g in enumerate_graphs(n)]
    for g in graphs:
        brute = [og for og in all_orientations(g) if semi_transitive_by_oracle(og)]
        for fixed in [[]] + [[arc] for u, v in g.edges() for arc in ((u, v), (v, u))]:
            engine = list(semi_transitive_orientations(g, fixed))
            want = [og for og in brute if all(og.has_arc(a, b) for a, b in fixed)]
            assert count_semi_transitive_extensions(g, fixed) == len(engine) == len(want)
            assert len(set(engine)) == len(engine)
            assert set(engine) == set(want)


def test_engine_yields_each_orientation_with_its_reverse(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 7), 0.5)
        found = list(semi_transitive_orientations(g))
        if not g.edge_count:
            assert len(found) == 1
            continue
        assert len(found) % 2 == 0
        for og, rev in zip(found[::2], found[1::2]):
            assert set(rev.arcs()) == {(b, a) for a, b in og.arcs()}


def test_engine_searches_one_direction_of_its_first_edge(monkeypatch):
    # the search with no arc fixed visits as many nodes as the search
    # with its first edge fixed one way, half as many as both ways
    import wordrep.orient as orient_mod

    real, calls = orient_mod._add_arc, []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(orient_mod, "_add_arc", counting)

    def nodes(g, fixed):
        calls.clear()
        count_semi_transitive_extensions(g, fixed)
        return len(calls)

    for g in (families.named("W5"), families.k_triangle(4), cocktail_party(4)):
        # the engine's first edge: largest endpoint-degree sum, then lex
        u, v = min(g.edges(), key=lambda e: (-(g.degree(e[0]) + g.degree(e[1])), e))
        half = nodes(g, [])
        assert half == nodes(g, [(u, v)]) == nodes(g, [(v, u)])
        assert count_semi_transitive_extensions(g, []) == sum(
            count_semi_transitive_extensions(g, [arc]) for arc in ((u, v), (v, u))
        )


def test_shortcut_test_reads_base_adjacency_on_partial_orientations():
    # C4 0-1-2-3-0 with 0->1->2->3 placed and {0,3} free: 0 reaches 3,
    # so the only acyclic completion is 0->3, a shortcut over 0..3
    c4 = families.cycle(4)
    reach = [1 << v for v in range(4)]
    anc = reach[:]
    for a, b in ((0, 1), (1, 2), (2, 3)):
        assert _add_arc(reach, anc, a, b)
    assert _has_shortcut(c4.adj, reach, anc, 0b1111)
    assert not _add_arc(reach[:], anc[:], 3, 0)
    assert not is_semi_transitive(OrientedGraph(c4, [(0, 1), (1, 2), (2, 3), (0, 3)]))


def test_engine_scope_gives_the_full_scope_sequence(monkeypatch):
    # after each arc the engine tests only the vertices before its tail
    # or after its head; testing every vertex instead must yield the
    # same orientations in the same order, with and without fixed arcs
    import wordrep.orient as orient_mod

    def sequences(g, fixed):
        return [og.out for og in semi_transitive_orientations(g, fixed)]

    full = orient_mod._has_shortcut
    rng = random.Random(41)
    graphs = [g for n in range(7) for g in enumerate_graphs(n)]
    graphs += [random_graph(rng, 9, p) for p in (0.3, 0.4, 0.5) for _ in range(4)]
    cases = []
    for g in graphs:
        edges = g.edges()
        some = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in rng.sample(edges, len(edges) // 3)]
        cases += [(g, []), (g, some)]
    scoped = [sequences(g, fixed) for g, fixed in cases]
    monkeypatch.setattr(orient_mod, "_has_shortcut",
                        lambda adj, reach, anc, scope: full(adj, reach, anc, (1 << len(adj)) - 1))
    assert [sequences(g, fixed) for g, fixed in cases] == scoped
    assert sum(map(len, scoped)) > 10000


def test_engine_with_fixed_arcs_matches_brute_force(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 6), 0.6)
        edges = g.edges()
        fixed = [e if rng.random() < 0.5 else e[::-1]
                 for e in rng.sample(edges, rng.randint(0, min(3, len(edges))))]
        brute = [og for og in all_orientations(g)
                 if semi_transitive_by_oracle(og) and all(og.has_arc(a, b) for a, b in fixed)]
        assert count_semi_transitive_extensions(g, fixed) == len(brute)
        assert set(semi_transitive_orientations(g, fixed)) == set(brute)


def test_engine_rejects_fixed_arcs_closed_by_the_last_one():
    # the fixed arcs are closed before one shortcut test; here only the
    # last fixed arc closes a cycle (the triangle) or a shortcut (C4:
    # 0->1->2->3 below 0->3, with 1->2 last, since 0->1->2->3 alone
    # already forces the shortcut)
    cases = (
        (families.complete(3), [(0, 1), (1, 2), (2, 0)]),
        (families.cycle(4), [(0, 3), (0, 1), (2, 3), (1, 2)]),
    )
    for g, fixed in cases:
        assert count_semi_transitive_extensions(g, fixed[:-1]) > 0
        assert count_semi_transitive_extensions(g, fixed) == 0
        assert next(semi_transitive_orientations(g, fixed), None) is None


def test_engine_rejects_out_of_range_fixed_arcs():
    k3 = families.complete(3)
    for arc in ((5, 0), (0, 5), (0, -1), (-1, 2), (1, 1)):
        with pytest.raises(ValueError, match="not an edge of g"):
            next(semi_transitive_orientations(k3, [arc]))
        with pytest.raises(ValueError, match="not an edge of g"):
            count_semi_transitive_extensions(k3, [arc])


def test_searches_handle_cocktail_party_k_2x23():
    # 46 vertices, 1012 edges: deeper than Python's recursion limit
    g = cocktail_party(23)
    og = find_semi_transitive_orientation(g)
    assert og is not None and is_semi_transitive(og)
    og = find_transitive_orientation(g)
    assert og is not None and is_transitive(og)


def test_search_self_validates(rng):
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 7), 0.5)
        og = find_semi_transitive_orientation(g)
        if og is not None:
            assert is_semi_transitive(og)
        else:
            assert all(not semi_transitive_by_oracle(o) for o in all_orientations(g))


def test_search_result_is_deterministic():
    # first-found orientation under the fixed branching order, frozen
    og1 = find_semi_transitive_orientation(families.k_triangle(3))
    og2 = find_semi_transitive_orientation(families.k_triangle(3))
    assert og1 == og2
    assert orientation_bits(og1) == "000000001"


def test_orientation_bits_round_trip(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 8), 0.5)
        bits = "".join(rng.choice("01") for _ in range(g.edge_count))
        og = orient_by_bits(g, bits)
        assert orientation_bits(og) == bits
    with pytest.raises(ValueError):
        orient_by_bits(families.complete(3), "01")


def test_all_orientations_run_in_bitstring_order():
    # mask m gives the orientation whose bit i is bit i of m
    g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    listed = [orientation_bits(og) for og in all_orientations(g)]
    assert listed == [format(m, "04b")[::-1] for m in range(16)]
    assert [og.out for og in all_orientations(Graph(2))] == [(0, 0)]


def test_dot_output():
    og = OrientedGraph(Graph(3, [(0, 1)]), [(0, 1)])
    dot = to_dot(og)
    assert dot.splitlines()[0] == "digraph G {"
    assert "  0 -> 1;" in dot
    assert "  2;" in dot  # isolated vertex still listed


def test_representable_neighbourhoods_are_comparability():
    # a word-representable graph induces a transitively orientable
    # subgraph on every vertex neighbourhood; checked across the stack
    for n in range(7):
        for g in enumerate_graphs(n):
            if not is_word_representable(g):
                continue
            for v in range(g.n):
                assert find_transitive_orientation(
                    induced_subgraph(g, g.neighbors(v))
                ) is not None


def test_has_transitive_orientation_known_cases():
    assert find_transitive_orientation(families.complete(5)) is not None
    assert find_transitive_orientation(families.cycle(4)) is not None
    assert find_transitive_orientation(families.cycle(5)) is None
    assert find_transitive_orientation(families.named("B1")) is None
    assert find_transitive_orientation(families.named("B2")) is None
    assert find_transitive_orientation(families.named("B3")) is None


def test_transitive_orientation_matches_brute_force_up_to_5():
    for n in range(6):
        for g in enumerate_graphs(n):
            og = find_transitive_orientation(g)
            assert (og is not None) == any(is_transitive(o) for o in all_orientations(g))
            assert og is None or (is_transitive(og) and og.base == g)


def test_transitive_orientation_on_random_poset_graphs(rng):
    # the comparability graph of a random poset, relabelled at random
    for _ in range(12):
        n = rng.randint(30, 45)
        below = [0] * n  # below[j]: the elements under j in the poset
        for j in range(n):
            for i in range(j):
                if rng.random() < 0.08:
                    below[j] |= below[i] | 1 << i
        perm = list(range(n))
        rng.shuffle(perm)
        g = Graph(n, [(perm[i], perm[j]) for j in range(n) for i in range(j)
                      if below[j] >> i & 1])
        og = find_transitive_orientation(g)
        assert og is not None and og.base == g and is_transitive(og)


def test_forcing_chains_certify_every_non_comparability_graph_up_to_6():
    # each graph h is the neighbourhood of an apex joined to all of it
    certified = 0
    for n in range(7):
        for h in enumerate_graphs(n):
            chain = forcing_chain(h)
            assert (chain is None) == (find_transitive_orientation(h) is not None)
            if chain is None:
                continue
            cone = Graph(n + 1, h.edges() + [(w, n) for w in range(n)])
            assert is_forcing_chain(cone, n, chain)
            certified += 1
            for bad in (
                chain[:-1] + [chain[0]],  # ends where it began
                chain[:1] + [chain[1][::-1]] + chain[2:],  # a step not forced
                chain[:-1],  # stops short of the reverse
            ):
                assert not is_forcing_chain(cone, n, bad)
            for w in {w for arc in chain for w in arc}:
                assert not is_forcing_chain(cone, w, chain)  # w is not in N(w)
    assert certified == 1 + 12  # C5 at n = 5, then 12 of the 156 classes at n = 6


def test_is_forcing_chain_rejects_malformed_input():
    w5 = families.named("W5")  # hub 5 over the 5-cycle 0-1-2-3-4-0
    chain = [(0, 1), (0, 4), (3, 4), (3, 2), (1, 2), (1, 0)]
    assert is_forcing_chain(w5, 5, chain)
    assert is_forcing_chain(w5, 5, [list(arc) for arc in chain])  # JSON form
    for v, bad in ((6, chain), (-1, chain), (5, []), (5, [(0, 1)]),
                   (5, [(0, 1, 2), (1, 0)]), (5, [(0, 2), (2, 0)]),
                   (5, [5, 6]), (5, None), ("5", chain), (5, [[0.0, 1], [1, 0]]),
                   (True, chain), (5, [(True, 0), (0, True)]), (5, [{0, 1}, (1, 0)])):
        assert not is_forcing_chain(w5, v, bad)


def test_implication_classes_match_the_oracle():
    # every class with n <= 7, seeded G(n, p) with n <= 14, and each of
    # their neighbourhoods of degree >= 5: the mask-based classes give
    # the oracle's orientation and chain exactly
    rng = random.Random(25)
    graphs = [random_graph(rng, n, p) for n in range(15) for p in (0.2, 0.4, 0.6, 0.8)
              for _ in range(12)]
    graphs += [induced_subgraph(g, g.neighbors(v))
               for g in graphs for v in range(g.n) if g.degree(v) >= 5]
    graphs += [g for n in range(8) for g in enumerate_graphs(n)]
    chains = 0
    for g in graphs:
        og = find_transitive_orientation(g)
        assert (None if og is None else og.out) == implication_oracle.transitive_out(g), g.edges()
        chain = forcing_chain(g)
        assert chain == implication_oracle.forcing_chain(g), g.edges()
        chains += chain is not None
    assert 0 < chains < len(graphs)
