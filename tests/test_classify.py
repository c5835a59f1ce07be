"""Characterization layer: the A_l scan against its generic oracle, the
degree-two and clique-four characterizations, and the dispatcher
against the orientation oracle."""

import pytest

from wordrep import families
from wordrep.classify import (
    REASON_CLIQUE_LE_3,
    REASON_COMPARABILITY,
    REASON_MAIN1,
    REASON_MAIN2,
    REASON_ORACLE,
    classify_clique_four,
    classify_degree_two,
    classify_split,
    find_a_ell,
)
from wordrep.graphs import (
    Graph,
    contains_induced,
    enumerate_graphs,
    induced_subgraph,
    is_isomorphic,
)
from wordrep.orient import is_semi_transitive
from wordrep.split import split_partition
from conftest import EXHAUSTIVE, random_split_graph


def _find_a_ell_generic(g):
    """Oracle: scan l = 4, 5, ... for an induced a_graph(l)."""
    l = 4
    while 2 * l - 1 <= g.n:
        emb = contains_induced(g, families.a_graph(l))
        if emb is not None:
            return l, emb
        l += 1
    return None


def _a_ell(g):
    return find_a_ell(split_partition(g))


def test_find_a_ell_examples():
    hit = _a_ell(families.a_graph(5))
    assert hit is not None and hit[0] == 5
    assert hit[1].image() == tuple(range(9))
    assert _a_ell(families.k_triangle(6)) is None
    hit = _a_ell(families.named("T1"))
    assert hit is not None and hit[0] == 4
    # every witness induces the named graph
    for l in (4, 5):
        host = families.a_graph(l)
        found_l, emb = _a_ell(host)
        assert is_isomorphic(
            induced_subgraph(host, emb.image()), families.a_graph(found_l)
        )


def _cover_cycle_host(with_independent_apex: bool, poisoned_apex: bool) -> Graph:
    """K5 with a covered 4-cycle 0-1-2-3; vertex 4 is the natural apex
    unless poisoned by an extra cover adjacency, and an optional
    independent apex sees the whole cycle."""
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    covers = {5: [0, 1], 6: [1, 2], 7: [2, 3], 8: [3, 0]}
    if poisoned_apex:
        covers[5].append(4)
    for p, ns in covers.items():
        edges += [(c, p) for c in ns]
    n = 9
    if with_independent_apex:
        edges += [(c, 9) for c in (0, 1, 2, 3)]
        n = 10
    return Graph(n, edges)


def test_find_a_ell_apex_selection():
    # clique apex
    hit = _a_ell(_cover_cycle_host(False, False))
    assert hit is not None and hit[0] == 5
    # clique apex poisoned, independent apex takes over
    hit = _a_ell(_cover_cycle_host(True, True))
    assert hit is not None and hit[0] == 5
    # no usable apex at all
    assert _a_ell(_cover_cycle_host(False, True)) is None


def test_find_a_ell_routes_agree(rng):
    # the structural route (with its one embedding search) against the
    # generic per-l scan, witnesses included
    for _ in range(150):
        g = random_split_graph(rng, rng.randint(4, 9))
        assert _a_ell(g) == _find_a_ell_generic(g)
    for n in range(8):
        for g in enumerate_graphs(n):
            if split_partition(g) is not None:
                assert _a_ell(g) == _find_a_ell_generic(g)


def test_classify_degree_two_examples():
    # crowned cliques with attachments removed stay representable
    for drop in ((), (10,), (8, 10), (6, 7, 8, 9, 10, 11)):
        g = families.k_triangle(6)
        keep = [v for v in range(12) if v not in drop]
        sub = induced_subgraph(g, keep)
        sp = split_partition(sub)
        verdict = classify_degree_two(sp)
        assert verdict.representable
    # three attachment triangles on one clique vertex force a T2
    g = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                  (0, 4), (1, 4), (0, 5), (2, 5), (0, 6), (3, 6)])
    verdict = classify_degree_two(split_partition(g))
    assert not verdict.representable
    name, emb = verdict.witness_pattern
    assert name == "T2" and is_isomorphic(
        induced_subgraph(g, emb.image()), families.named("T2")
    )
    # the A_l family itself
    verdict = classify_degree_two(split_partition(families.a_graph(6)))
    assert not verdict.representable
    assert verdict.witness_pattern[0] == "A_6"
    with pytest.raises(ValueError):
        classify_degree_two(split_partition(families.named("T3")))  # degree 3


def test_classify_clique_four_examples():
    for tag, representable, witness in (
        ("M", False, "T1"),   # smallest pattern is reported first
        ("M1", False, "T1"),
        ("M2", True, None),
        ("M6", True, None),
    ):
        sp = split_partition(families.named(tag))
        verdict = classify_clique_four(sp)
        assert verdict.representable == representable
        if witness is None:
            assert verdict.witness_pattern is None
        else:
            name, emb = verdict.witness_pattern
            assert name == witness
            assert is_isomorphic(
                induced_subgraph(sp.graph, emb.image()), families.named(witness)
            )
    with pytest.raises(ValueError):
        classify_clique_four(split_partition(families.complete(5)))


def test_classify_split_examples():
    for n in (1, 2, 3):
        v = classify_split(families.complete(n))
        assert v.representable and v.reason == REASON_CLIQUE_LE_3
    v = classify_split(families.complete(4))
    assert v.representable and v.reason == REASON_COMPARABILITY
    v = classify_split(families.named("T3"))
    assert not v.representable and v.reason == REASON_MAIN2
    assert v.witness_pattern[0] == "T3"
    v = classify_split(families.named("T1"))
    assert not v.representable and v.reason == REASON_MAIN1
    v = classify_split(families.k_ell_k(7, 3))
    assert v.representable and v.reason == REASON_ORACLE
    with pytest.raises(ValueError):
        classify_split(families.cycle(4))


def test_classify_split_witness_orientation():
    v = classify_split(families.k_triangle(5), want_orientation=True)
    assert v.representable and v.witness_orientation is not None
    assert is_semi_transitive(v.witness_orientation)
    assert v.witness_orientation.base == families.k_triangle(5)
    payload = v.to_json()
    assert set(payload) == {"representable", "reason", "witness"}
    assert "orientation" in payload["witness"]


def test_classify_split_witness_maps_to_input_labels():
    # pad T1 with an isolated vertex at label 0 so reduction relabels
    t1 = families.named("T1")
    padded = Graph(8, [(u + 1, v + 1) for u, v in t1.edges()])
    v = classify_split(padded, verify=True)
    assert not v.representable
    name, emb = v.witness_pattern
    assert 0 not in emb.mapping  # the isolated pad cannot appear
    pattern = (
        families.a_graph(int(name[2:])) if name.startswith("A_") else families.named(name)
    )
    assert is_isomorphic(induced_subgraph(padded, emb.image()), pattern)


def test_classify_split_agrees_with_oracle():
    nmax = 8 if EXHAUSTIVE else 7
    for n in range(nmax + 1):
        for g in enumerate_graphs(n):
            if split_partition(g) is None:
                continue
            classify_split(g, verify=True)  # raises on disagreement


def test_classify_split_agrees_on_random_split_graphs(rng):
    for _ in range(120):
        g = random_split_graph(rng, rng.randint(1, 8))
        classify_split(g, verify=True)


def test_classify_is_stable_under_padding_moves(rng):
    # pendant and twin additions never change the verdict
    for _ in range(40):
        g = random_split_graph(rng, rng.randint(3, 7))
        sp = split_partition(g)
        base = classify_split(g).representable
        if sp.clique:
            pendant = Graph(g.n + 1, g.edges() + [(sp.clique[0], g.n)])
            assert classify_split(pendant).representable == base
        v = rng.randrange(g.n)
        twin = Graph(g.n + 1, g.edges() + [(w, g.n) for w in g.neighbors(v)])
        if split_partition(twin) is not None:
            assert classify_split(twin).representable == base
