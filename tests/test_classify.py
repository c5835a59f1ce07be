"""Characterization layer: the generic A_l scan, the degree-two
characterization's cover-graph reading against the generic scans, the
clique-four characterization, and the dispatcher against the
orientation oracle."""

import random

import pytest

from wordrep import families
from wordrep.classify import (
    REASON_COMPARABILITY,
    REASON_MAIN1,
    REASON_MAIN2,
    REASON_NEIGHBOURHOOD,
    REASON_ORACLE,
    Verdict,
    _cover_walk,
    _lift,
    _reduce,
    classify_clique_four,
    classify_degree_two,
    classify_graph,
    classify_split,
    find_a_ell,
)
from wordrep.graphs import (
    Embedding,
    Graph,
    contains_induced,
    enumerate_graphs,
    induced_subgraph,
    is_isomorphic,
    parse_graph6,
    write_graph6,
)
from wordrep.cli import main
from wordrep.orient import (
    OracleDisagreement,
    OrientedGraph,
    find_semi_transitive_orientation,
    is_forcing_chain,
    is_semi_transitive,
    is_transitive,
    orientation_bits,
    semi_transitive_orientations,
)
from wordrep.split import (
    KIND_B,
    KIND_C,
    _orient_along,
    check_relative_order,
    classify_all,
    clique_path,
    split_partition,
)
from conftest import EXHAUSTIVE, random_graph, random_split_graph


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


def _degree_two_generic(g):
    """Oracle for the degree-two characterization: the generic scans in
    its order, an induced T2 first, then the per-l A_l scan."""
    emb = contains_induced(g, families.named("T2"))
    if emb is not None:
        return False, ("T2", emb)
    hit = _a_ell(g)
    if hit is not None:
        return False, (f"A_{hit[0]}", hit[1])
    return True, None


def _assert_certificate(g, v):
    """v, decided on g with want_witness=True, carries the certificate
    its verdict calls for, in g's labels, and the certificate checks:
    a semi-transitive orientation of g for a "yes", an induced copy of
    the named pattern for a theorem's "no", a forcing chain for
    NEIGHBOURHOOD, and nothing for the search's "no"."""
    if v.representable:
        assert v.witness.base == g and is_semi_transitive(v.witness), g.edges()
    elif v.reason in (REASON_MAIN1, REASON_MAIN2):
        name, emb = v.witness
        pattern = families.a_graph(int(name[2:])) if name.startswith("A_") else families.named(name)
        assert isinstance(emb, Embedding) and emb.is_valid(g, pattern), g.edges()
    elif v.reason == REASON_NEIGHBOURHOOD:
        assert is_forcing_chain(g, *v.witness), g.edges()
    else:
        assert v.reason == REASON_ORACLE and v.witness is None, g.edges()


def _clique_with(m, nbhds):
    """K_m plus one independent vertex per listed clique neighbourhood."""
    edges = [(u, v) for u in range(m) for v in range(u + 1, m)]
    for w, nb in enumerate(nbhds, m):
        edges += [(c, w) for c in nb]
    return Graph(m + len(nbhds), edges)


def _cycle_pairs(*vs):
    return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def _random_degree_two_split(rng):
    """A relabelled clique K_m, m <= 10, plus up to 14 - m independent
    vertices: half the time a cover cycle on 3..m clique vertices, then
    vertices of degree 0, 1 or 2, about one in five a twin of an
    earlier one."""
    m = rng.randint(3, 10)
    k = rng.randint(0, 14 - m)
    nbhds = []
    if k >= 3 and rng.random() < 0.5:
        cyc = rng.sample(range(m), rng.randint(3, min(m, k)))
        nbhds = [(cyc[i - 1], c) for i, c in enumerate(cyc)]
    while len(nbhds) < k:
        if nbhds and rng.random() < 0.2:
            nbhds.append(rng.choice(nbhds))
        else:
            nbhds.append(rng.sample(range(m), rng.choice((0, 1, 2, 2))))
    g = _clique_with(m, nbhds)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_find_a_ell_routes_agree(rng):
    # the cover-graph reading of classify_degree_two against the generic
    # scans, verdicts and witnesses included
    def agree(g):
        sp = split_partition(g)
        if sp is None or any(g.degree(v) > 2 for v in sp.independent):
            return False
        verdict = classify_degree_two(sp)
        assert (verdict.representable, verdict.witness) == _degree_two_generic(g)
        return True

    for _ in range(150):
        agree(random_split_graph(rng, rng.randint(4, 9)))
    for n in range(8):
        for g in enumerate_graphs(n):
            agree(g)
    local = random.Random(8)
    assert sum(agree(_random_degree_two_split(local)) for _ in range(500)) == 500


def test_classify_degree_two_reads_the_cover_graph():
    def witness(g):
        verdict = classify_degree_two(split_partition(g))
        if verdict.representable:
            return None
        name, emb = verdict.witness
        pattern = families.named("T2") if name == "T2" else families.a_graph(int(name[2:]))
        assert is_isomorphic(induced_subgraph(g, emb.image()), pattern)
        return name

    for m in range(3, 8):
        # a Hamiltonian cover cycle leaves no apex
        assert witness(families.k_triangle(m)) is None
        if m >= 4:
            # a cover cycle of length m-1, with a twin cover, a pendant on
            # the apex and an isolated vertex
            pairs = _cycle_pairs(*range(m - 1))
            assert witness(_clique_with(m, pairs + [pairs[0], (m - 1,), ()])) == f"A_{m}"
    # of two cover cycles, the shorter one is reported
    assert witness(_clique_with(8, _cycle_pairs(0, 1, 2, 3) + _cycle_pairs(4, 5, 6))) == "A_4"
    assert witness(_clique_with(8, _cycle_pairs(0, 1, 2) + _cycle_pairs(3, 4, 5, 6))) == "A_4"
    # a clique vertex on three cover edges is a T2, even next to a cycle
    star = [(3, 4), (3, 5), (3, 6)]
    assert witness(_clique_with(7, _cycle_pairs(0, 1, 2) + star)) == "T2"


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
    name, emb = verdict.witness
    assert name == "T2" and is_isomorphic(
        induced_subgraph(g, emb.image()), families.named("T2")
    )
    # the A_l family itself
    verdict = classify_degree_two(split_partition(families.a_graph(6)))
    assert not verdict.representable
    assert verdict.witness[0] == "A_6"
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
            assert verdict.witness is None
        else:
            name, emb = verdict.witness
            assert name == witness
            assert is_isomorphic(
                induced_subgraph(sp.graph, emb.image()), families.named(witness)
            )
    with pytest.raises(ValueError):
        classify_clique_four(split_partition(families.complete(5)))


def test_classify_split_examples():
    for n in (1, 2, 3, 4, 7):  # K_n reduces to one vertex
        v = classify_split(families.complete(n))
        assert v.representable and v.reason == REASON_COMPARABILITY
    v = classify_split(families.named("T3"))
    assert not v.representable and v.reason == REASON_MAIN2
    assert v.witness[0] == "T3"
    v = classify_split(families.named("T1"))
    assert not v.representable and v.reason == REASON_MAIN1
    v = classify_split(families.k_ell_k(7, 3))
    assert v.representable and v.reason == REASON_ORACLE
    with pytest.raises(ValueError):
        classify_split(families.cycle(4))


def test_classify_split_orientation_witness():
    v = classify_split(families.k_triangle(5), want_witness=True)
    assert v.representable and isinstance(v.witness, OrientedGraph)
    assert is_semi_transitive(v.witness)
    assert v.witness.base == families.k_triangle(5)
    payload = v.to_json()
    assert set(payload) == {"representable", "reason", "witness"}
    assert "orientation" in payload["witness"]


def test_verdict_record():
    v = Verdict(representable=True, reason=REASON_COMPARABILITY)
    assert Verdict._fields == ("representable", "reason", "witness")
    assert v.witness is None
    assert v == Verdict(True, REASON_COMPARABILITY, None)
    assert hash(v) == hash(Verdict(True, REASON_COMPARABILITY))
    assert repr(v) == "Verdict(representable=True, reason='COMPARABILITY', witness=None)"
    with pytest.raises(AttributeError):
        v.representable = False
    assert v.to_json() == {"representable": True, "reason": "COMPARABILITY", "witness": None}
    no = Verdict(False, REASON_MAIN1, witness=("T1", Embedding((3, 0, 1))))
    assert no.to_json() == {
        "representable": False,
        "reason": "THEOREM_MAIN1",
        "witness": {"pattern": "T1", "vertices": [3, 0, 1]},
    }
    og = OrientedGraph(Graph(3, [(0, 1), (1, 2)]), [(0, 1), (2, 1)])
    yes = Verdict(True, REASON_ORACLE, witness=og)
    assert yes.to_json()["witness"] == {"orientation": orientation_bits(og)}
    chain = ((0, 1), (0, 4), (3, 4), (3, 2), (1, 2), (1, 0))
    no = Verdict(False, REASON_NEIGHBOURHOOD, witness=(5, chain))
    assert no.to_json()["witness"] == {"vertex": 5, "chain": [list(arc) for arc in chain]}
    assert v.to_text() == "representable\tCOMPARABILITY"
    assert no.to_text() == "non-representable\tNEIGHBOURHOOD\tchain=5:0>1,0>4,3>4,3>2,1>2,1>0"
    assert yes.to_text() == f"representable\tORACLE_SEARCH\torientation={orientation_bits(og)}"
    pattern = Verdict(False, REASON_MAIN1, witness=("T1", Embedding((3, 0, 1))))
    assert pattern.to_text() == "non-representable\tTHEOREM_MAIN1\twitness=T1:3,0,1"


# Split graphs on 13 and 14 vertices whose search ran past a 5 s alarm
# when only false twins were dropped; each has true twins.
KNOWN_HANGS = ("L^lzw?}^||~vn~", "M|n~|~~f^~BOg?ny?", "L{~hFYD~VZ|nzv", "MUv]}~~f}~r~c@???",
               "LZ@pBkt^~zn~L~", "M~ufvvz}~f~^GC~~?", "MeBQCBUvMhzfPHvn?", "Maz[NZlr]Zxnr~z^_")


def test_reduce_examples():
    # a dropped vertex stays, isolated and under its own label
    t1 = families.named("T1")
    assert _reduce(t1) == (t1, [])
    pendant = Graph(8, t1.edges() + [(6, 7)])
    assert _reduce(pendant) == (Graph(8, t1.edges()), [(7, -1, 1 << 6)])
    # 1 is a true twin of 0; then 3 and 4 are pendants of 0, and the
    # path 5-2-0 that is left sheds one end after the other
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4), (2, 5)])
    assert _reduce(g) == (Graph(6), [(1, 0, 0b11101), (3, -1, 1), (4, -1, 1), (0, -1, 1 << 2),
                                     (2, -1, 1 << 5)])
    # K2: one end goes as a pendant, and the other, now isolated, stays;
    # a lift that dropped both would direct the edge both ways
    k2 = Graph(2, [(0, 1)])
    h, log = _reduce(k2)
    assert (h, log) == (Graph(2), [(0, -1, 0b10)])
    assert _lift(k2, log, OrientedGraph(h, [])).out == (0b10, 0)
    # a path sheds one end at a time, down to one edge and then to one vertex
    assert _reduce(Graph(5, [(i, i + 1) for i in range(4)])) == (
        Graph(5), [(v, -1, 1 << v + 1) for v in range(4)])
    # K_n drops true twins down to K2, whose first end then goes
    for n in range(2, 8):
        h, log = _reduce(families.complete(n))
        assert h == Graph(n) and [v for v, _, _ in log] == [*range(1, n - 1), 0]
    # the net loses its pendants, and its triangle then reduces too
    net = families.named("B1")
    h, log = _reduce(net)
    assert h == Graph(6) and len(log) == 5
    assert is_semi_transitive(_lift(net, log, OrientedGraph(h, [])))
    # a true twin 5 of vertex 0 of C5: under each semi-transitive
    # orientation of C5, 5 copies 0's arcs and the edge runs 0 -> 5
    c5 = families.cycle(5)
    g = Graph(6, c5.edges() + [(0, 5), (1, 5), (4, 5)])
    h, log = _reduce(g)
    assert (h, log) == (Graph(6, c5.edges()), [(5, 0, 0b10011)])
    lifts = [_lift(g, log, og) for og in semi_transitive_orientations(h)]
    assert lifts
    for og in lifts:
        assert og.out[0] >> 5 & 1 and og.out[5] == og.out[0] & ~(1 << 5)
        assert all(og.out[w] >> 5 & 1 == og.out[w] & 1 for w in (1, 4))


def test_reduce_reaches_a_fixpoint():
    # every class with n <= 8, and seeded random split graphs with
    # n <= 14: replaying the log on g drops, one at a time, a vertex of
    # degree one or a twin of the kept vertex, ending at h, and h has
    # neither, so it reduces to itself.  When h is split with clique
    # size at most three, its non-isolated part is edgeless, the gem or
    # the 3-sun B2, so COMPARABILITY or THEOREM_MAIN1 decides it
    gem = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (1, 4), (2, 4)])
    b2 = families.named("B2")
    rng = random.Random(21)
    graphs = [g for n in range(9) for g in enumerate_graphs(n)]
    for _ in range(3000):
        g = random_split_graph(rng, rng.randint(1, 14))
        perm = rng.sample(range(g.n), g.n)
        graphs.append(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
    for g in graphs:
        h, log = _reduce(g)
        adj = list(g.adj)
        for v, kept, row in log:
            assert adj[v] == row, g.edges()
            if kept < 0:
                assert row.bit_count() == 1, g.edges()
            else:
                # equal open rows, or equal closed rows
                assert kept != v and row in (adj[kept], adj[kept] ^ (1 << kept | 1 << v)), g.edges()
            adj = [0 if w == v else r & ~(1 << v) for w, r in enumerate(adj)]
        assert tuple(adj) == h.adj and (h is g) == (not log), g.edges()
        assert _reduce(h) == (h, []), g.edges()
        sp = split_partition(h)
        if sp is not None and sp.m <= 3:
            core = induced_subgraph(h, [v for v in range(h.n) if h.adj[v]])
            assert core.n == 0 or is_isomorphic(core, gem) or is_isomorphic(core, b2), g.edges()


def test_classify_decides_the_known_hangs():
    # each verdict agrees with the search of the reduced graph, never
    # of g, and a "yes" carries a lifted orientation of g
    import signal

    def expire(signum, frame):
        raise TimeoutError("classification took more than 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    try:
        for line in KNOWN_HANGS:
            g = parse_graph6(line)
            signal.alarm(60)
            v = classify_graph(g, want_witness=True)
            h = _reduce(g)[0]
            assert h != g
            assert v.representable == (find_semi_transitive_orientation(h) is not None), line
            signal.alarm(0)
            _assert_certificate(g, v)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    # an independent certificate for one of the "no"s: T1 is induced
    g = parse_graph6("M~ufvvz}~f~^GC~~?")
    assert not classify_graph(g).representable
    assert Embedding((4, 0, 9, 5, 2, 12, 10)).is_valid(g, families.named("T1"))


def test_classify_split_witness_maps_to_input_labels():
    # pad T1 before its labels with an isolated vertex, and with a
    # pendant (0, on clique vertex 1 of T1) and a false twin (1, of
    # independent vertex 0 of T1), whose edges reduction drops
    t1 = families.named("T1")
    isolated = Graph(8, [(u + 1, v + 1) for u, v in t1.edges()])
    shifted = [(u + 2, v + 2) for u, v in t1.edges()]
    pendant_twin = Graph(9, shifted + [(0, 3), (1, 3), (1, 4)])
    for padded in (isolated, pendant_twin):
        v = classify_split(padded, verify=True)
        assert not v.representable
        name, emb = v.witness
        assert 0 not in emb.mapping  # the isolated or pendant pad cannot appear
        pattern = (
            families.a_graph(int(name[2:])) if name.startswith("A_") else families.named(name)
        )
        assert is_isomorphic(induced_subgraph(padded, emb.image()), pattern)


def test_verify_and_witness_share_one_search(monkeypatch, tmp_path, capsys):
    import wordrep.classify as classify_mod
    import wordrep.orient as orient_mod

    real = orient_mod.find_semi_transitive_orientation
    calls = []

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(classify_mod, "find_semi_transitive_orientation", counting)
    monkeypatch.setattr(orient_mod, "find_semi_transitive_orientation", counting)
    # the oracle branch with nothing reduced, a fast path, a pattern witness
    for g, reason in (
        (families.k_ell_k(7, 3), REASON_ORACLE),
        (families.k_triangle(5), REASON_MAIN1),
        (families.named("T1"), REASON_MAIN1),
    ):
        calls.clear()
        v = classify_split(g, verify=True, want_witness=True)
        assert v.reason == reason and calls == [g]
        assert isinstance(v.witness, OrientedGraph) == v.representable
        _assert_certificate(g, v)
    # a pendant or a false twin pad on each rung: a witness alone makes
    # no search of g, and THEOREM_MAIN2 searches h
    b2, m6, m2 = families.named("B2"), families.named("M6"), families.named("M2")
    for g, reason in (
        (Graph(7, b2.edges() + [(1, 6)]), REASON_MAIN1),
        (Graph(9, m6.edges() + [(c, 8) for c in m6.neighbors(4)]), REASON_COMPARABILITY),
        (Graph(11, families.k_triangle(5).edges() + [(0, 10)]), REASON_MAIN1),
        (Graph(10, m2.edges() + [(c, 9) for c in m2.neighbors(4)]), REASON_MAIN2),
    ):
        h = _reduce(g)[0]
        assert h != g
        calls.clear()
        v = classify_split(g, want_witness=True)
        assert v.reason == reason and v.representable
        assert calls == ([h] if reason == REASON_MAIN2 else [])
        assert v.witness.base == g and is_semi_transitive(v.witness)
        calls.clear()
        v = classify_split(g, verify=True, want_witness=True)
        assert calls.count(g) == 1 and len(calls) == (2 if reason == REASON_MAIN2 else 1)
    # a comparability graph that reduction leaves whole (K4 with two
    # independent vertices on different clique pairs): the transitive
    # orientation is the witness, and verify alone searches g
    k4 = [(0, 3), (0, 4), (0, 5), (3, 4), (3, 5), (4, 5)]
    whole = Graph(6, k4 + [(1, 3), (1, 5), (2, 4), (2, 5)])
    assert _reduce(whole) == (whole, [])
    calls.clear()
    v = classify_split(whole, want_witness=True)
    assert v.reason == REASON_COMPARABILITY and calls == []
    assert is_transitive(v.witness)
    v = classify_split(whole, verify=True, want_witness=True)
    assert calls == [whole] and is_transitive(v.witness)
    # a disagreement still raises, and the CLI still exits 3 on it
    monkeypatch.setattr(classify_mod, "find_semi_transitive_orientation", lambda g: None)
    with pytest.raises(OracleDisagreement):
        classify_split(families.k_triangle(5), verify=True)
    path = tmp_path / "in.g6"
    path.write_text(write_graph6(families.k_triangle(5)) + "\n")
    assert main(["classify", "--verify", str(path)]) == 3
    assert "invariant violation" in capsys.readouterr().err


def test_split_witness_comes_from_the_deciding_rung(monkeypatch):
    # every split class with n <= 8 and seeded random degree-two split
    # graphs: the witness is an orientation of g that passes
    # is_semi_transitive, and the engine sees only the reduced graph h,
    # once, as ORACLE_SEARCH or for a representable THEOREM_MAIN2
    import wordrep.classify as classify_mod

    real = classify_mod.find_semi_transitive_orientation
    calls = []

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(classify_mod, "find_semi_transitive_orientation", counting)
    local = random.Random(2000)
    graphs = [g for n in range(9) for g in enumerate_graphs(n) if split_partition(g) is not None]
    graphs += [_random_degree_two_split(local) for _ in range(2000)]
    reasons = set()
    for g in graphs:
        h = _reduce(g)[0]
        calls.clear()
        v = classify_graph(g, want_witness=True)
        reasons.add(v.reason)
        assert calls in ([], [h]), g.edges()
        if calls:
            assert v.reason == REASON_ORACLE or v.reason == REASON_MAIN2 and v.representable
        assert isinstance(v.witness, OrientedGraph) == v.representable, g.edges()
        _assert_certificate(g, v)
    assert {REASON_COMPARABILITY, REASON_MAIN1, REASON_MAIN2} <= reasons


def test_orient_along_the_cover_walk_round_trips_through_the_typing():
    # the constructive half against the typing pass: laid along the
    # cover graph's walk, the clique's path reads back as the walk, every
    # vertex with a neighbour is a sink except the one closing a
    # Hamiltonian cover cycle, and no relative order is violated
    hosts = [families.k_triangle(l) for l in range(3, 13)]
    for n in range(9):
        for g in enumerate_graphs(n):
            if split_partition(g) is not None:
                v = classify_graph(g)
                if v.reason == REASON_MAIN1 and v.representable:
                    hosts.append(_reduce(g)[0])
    assert len(hosts) > 10
    for h in hosts:
        sp = split_partition(h)
        path, _ = _cover_walk(sp)
        og = _orient_along(h, path)
        assert clique_path(sp, og) == tuple(path)
        wrap = (1 << path[0]) | (1 << path[-1])
        reports = classify_all(sp, og)
        for r in reports:
            if h.adj[r.vertex]:
                assert r.kind == (KIND_C if h.adj[r.vertex] == wrap else KIND_B), h.edges()
        assert check_relative_order(sp, reports) == []
    # the canonical K_TRIANGLE orientation is the one along its walk
    assert _cover_walk(split_partition(families.k_triangle(6)))[0] == list(range(6))


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
    # pendant, false-twin and true-twin additions never change the
    # verdict, on split hosts and on hosts that need not be split; verify
    # holds each verdict to the search of the padded graph itself
    hosts = [random_split_graph(rng, rng.randint(3, 7)) for _ in range(40)]
    hosts += [random_graph(rng, rng.randint(3, 7), rng.random()) for _ in range(40)]
    for g in hosts:
        base = classify_graph(g, verify=True).representable
        v = rng.randrange(g.n)
        pendant, false_twin = [(v, g.n)], [(w, g.n) for w in g.neighbors(v)]
        for pad in (pendant, false_twin, false_twin + pendant):
            padded = Graph(g.n + 1, g.edges() + pad)
            verdict = classify_graph(padded, verify=True, want_witness=True)
            assert verdict.representable == base, padded.edges()
            _assert_certificate(padded, verdict)


def test_pipeline_agrees_with_the_engine_and_every_certificate_checks():
    nmax = 8 if EXHAUSTIVE else 7
    reasons = set()
    for n in range(nmax + 1):
        for g in enumerate_graphs(n):
            v = classify_graph(g, want_witness=True)
            assert v.representable == (find_semi_transitive_orientation(g) is not None)
            reasons.add((v.representable, v.reason))
            assert isinstance(v.witness, OrientedGraph) == v.representable, g.edges()
            _assert_certificate(g, v)
            # the transitive orientation is the witness whenever
            # reduction removed nothing
            if v.reason == REASON_COMPARABILITY and _reduce(g)[0] is g:
                assert is_transitive(v.witness)
    # every certificate kind turns up: an orientation, a pattern from
    # each theorem, a chain, and the search's bare "no"
    assert {(True, REASON_COMPARABILITY), (False, REASON_MAIN1), (False, REASON_MAIN2),
            (False, REASON_NEIGHBOURHOOD), (False, REASON_ORACLE)} <= reasons


def test_split_neighbourhood_chain_maps_to_input_labels():
    # a split graph past both characterizations, padded before its
    # labels with an isolated vertex, and with a pendant (0, on clique
    # vertex 7 of the core) and a false twin (1, of independent vertex 1
    # of the core), whose edges reduction drops
    core = parse_graph6("G?z\\~{")
    padded = Graph(core.n + 1, [(a + 1, b + 1) for a, b in core.edges()])
    shifted = [(a + 2, b + 2) for a, b in core.edges()]
    pendant_twin = Graph(core.n + 2, shifted + [(0, 9), (1, 6), (1, 7), (1, 9)])
    for g in (core, padded, pendant_twin):
        v = classify_split(g, verify=True)
        assert not v.representable and v.reason == REASON_NEIGHBOURHOOD
        assert is_forcing_chain(g, *v.witness)
        vertex, chain = v.witness
        assert v.to_json()["witness"] == {"vertex": vertex, "chain": [list(a) for a in chain]}
    for g in (padded, pendant_twin):
        assert classify_split(g).witness == classify_graph(g).witness


def test_verify_rechecks_non_split_certificates(monkeypatch, tmp_path, capsys):
    import wordrep.classify as classify_mod

    real = classify_mod.find_semi_transitive_orientation
    calls = []

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(classify_mod, "find_semi_transitive_orientation", counting)
    # one search per verdict, whichever route gave it
    for g, reason in (
        (families.cycle(6), REASON_COMPARABILITY),
        (families.named("W5"), REASON_NEIGHBOURHOOD),
        (families.cycle(5), REASON_ORACLE),
    ):
        assert split_partition(g) is None
        calls.clear()
        v = classify_graph(g, verify=True, want_witness=True)
        assert v.reason == reason and calls == [g]
        assert isinstance(v.witness, OrientedGraph) == v.representable
        _assert_certificate(g, v)
    # a neighbourhood lemma that fires on C5, and a transitive
    # orientation of W5: the verdicts are wrong, and only --verify says so
    fake = Verdict(False, REASON_NEIGHBOURHOOD, witness=(0, ()))
    monkeypatch.setattr(classify_mod, "_neighbourhood_verdict", lambda g: fake)
    c5 = families.cycle(5)
    assert classify_graph(c5) == fake
    with pytest.raises(OracleDisagreement):
        classify_graph(c5, verify=True)
    w5 = families.named("W5")
    monkeypatch.setattr(classify_mod, "find_transitive_orientation",
                        lambda g: OrientedGraph(g, g.edges()))
    assert classify_graph(w5).reason == REASON_COMPARABILITY
    with pytest.raises(OracleDisagreement):
        classify_graph(w5, verify=True)
    path = tmp_path / "in.g6"
    path.write_text(write_graph6(w5) + "\n")
    assert main(["classify", str(path)]) == 0
    assert main(["classify", "--verify", str(path)]) == 3
    assert "invariant violation" in capsys.readouterr().err
