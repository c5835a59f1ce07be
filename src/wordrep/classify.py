"""Classification of any graph, certificate first, and the
forbidden-subgraph characterizations of word-representable split
graphs.

``classify_graph`` is the one route every verdict takes, and one ladder
decides it.  Every graph is reduced first (``_reduce``): a vertex of
degree one goes, and so does one of two twins, each dropped vertex left
isolated, so every witness is in the input's labels.  The ladder runs on
the reduced graph, and a reason names the rung that decided it: K_7
reduces to one vertex and reads COMPARABILITY.  A transitive
orientation means representable; for split graphs the degree-two
characterization (avoid T2 and every A_l, read off the cover graph; the
generic scan ``find_a_ell`` is the tests' oracle) or the clique-four
one (avoid T1-T4) decides next.  A split graph whose clique has at most
three vertices needs no rung of its own: reduced, it is edgeless, the
gem or the 3-sun but for isolated vertices.  Past those, a vertex whose
neighbourhood is not a comparability graph rules representability out
(Halldórsson–Kitaev–Pyatkin, *Semi-transitive orientations and
word-representable graphs*, DAM 2016), with a forcing chain as
witness, and the exhaustive orientation search decides the rest.  A
representable verdict's orientation comes from the rung that decided
it, lifted to the input (``_lift``).  Under verify=True every
verdict the search of the input did not give is checked against it; a
disagreement raises, because it would falsify one of the encoded
theorems.
"""

from __future__ import annotations

from collections import namedtuple

from . import families
from .graphs import Embedding, Graph, _bits, contains_induced, induced_subgraph
from .orient import (
    OracleDisagreement,
    OrientedGraph,
    find_semi_transitive_orientation,
    find_transitive_orientation,
    forcing_chain,
    is_semi_transitive,
    orientation_bits,
)
from .split import SplitPartition, _orient_along, is_split, split_partition

REASON_COMPARABILITY = "COMPARABILITY"
REASON_MAIN1 = "THEOREM_MAIN1"
REASON_MAIN2 = "THEOREM_MAIN2"
REASON_NEIGHBOURHOOD = "NEIGHBOURHOOD"
REASON_ORACLE = "ORACLE_SEARCH"


class Verdict(namedtuple("Verdict", "representable reason witness", defaults=(None,))):
    """Outcome of classifying one graph.

    ``witness`` is its certificate, in host labels: an ``OrientedGraph``
    (semi-transitive) when representable and one was requested; a
    forbidden induced subgraph's ``(name, Embedding)`` when a
    characterization says no; ``(vertex, chain)``, a forcing chain in
    the vertex's neighbourhood, for NEIGHBOURHOOD; None otherwise.
    """

    __slots__ = ()

    def _witness(self) -> tuple[str, dict] | tuple[None, None]:
        """The witness as its text field and its JSON value."""
        w = self.witness
        if w is None:
            return None, None
        if isinstance(w, OrientedGraph):
            bits = orientation_bits(w)
            return f"orientation={bits}", {"orientation": bits}
        head, body = w
        if isinstance(body, Embedding):
            return (f"witness={head}:{','.join(map(str, body.mapping))}",
                    {"pattern": head, "vertices": list(body.mapping)})
        return (f"chain={head}:{','.join(f'{a}>{b}' for a, b in body)}",
                {"vertex": head, "chain": [list(arc) for arc in body]})

    def to_json(self) -> dict:
        return {"representable": self.representable, "reason": self.reason,
                "witness": self._witness()[1]}

    def to_text(self) -> str:
        """Status, reason and witness, tab-separated as ``classify`` prints
        them: ``witness=T1:3,0,1``, ``chain=5:0>1,...`` or ``orientation=bits``."""
        fields = ["representable" if self.representable else "non-representable", self.reason]
        text = self._witness()[0]
        return "\t".join(fields + [text] if text else fields)


# ---------------------------------------------------------------------------
# The A_l family scan.  No production route calls it: the degree-two
# characterization reads A_l off the cover graph, and the tests play
# this scan against that reading.


def find_a_ell(sp: SplitPartition) -> tuple[int, Embedding] | None:
    """Least l >= 4 with a_graph(l) induced in the split graph, with its
    lexicographically least embedding, or None."""
    g = sp.graph
    l = 4
    while 2 * l - 1 <= g.n:
        emb = contains_induced(g, families.a_graph(l))
        if emb is not None:
            return l, emb
        l += 1
    return None


# ---------------------------------------------------------------------------
# The two characterizations.  Reason tokens name the serialized verdict
# contract; the functions are named for the cases they decide.


def classify_degree_two(sp: SplitPartition) -> Verdict:
    """Split graphs whose independent vertices have degree at most two
    are word-representable iff they avoid T2 and every A_l as induced
    subgraphs.

    Both patterns are read off the cover graph H (``_cover_walk``).  T2
    is induced iff some clique vertex lies on three edges of H.
    Otherwise H is a union of paths and cycles, and A_l is induced iff
    H has a cycle of length l-1 < m; any clique vertex off the cycle is
    an apex.  Sound because every pattern vertex of degree three or
    more lands on a clique vertex (independent ones have degree at most
    two), and every pattern cover misses some pattern clique vertex, so
    it lands on an independent vertex whose neighbourhood is exactly
    its two pattern neighbours.  One induced search then finds the
    lexicographically least embedding of the pattern the rule named.
    """
    g = sp.graph
    if any(g.degree(v) > 2 for v in sp.independent):
        raise ValueError("an independent vertex has degree above two")
    walk = _cover_walk(sp)
    if walk is None:
        name, pattern = "T2", families.named("T2")
    else:
        r = min(walk[1], default=sp.m)
        if r == sp.m:
            return Verdict(True, REASON_MAIN1)
        name, pattern = f"A_{r + 1}", families.a_graph(r + 1)
    emb = contains_induced(g, pattern)
    if emb is None:
        raise OracleDisagreement(f"cover graph names {name} but it is not induced in {g!r}")
    return Verdict(False, REASON_MAIN1, witness=(name, emb))


def _cover_walk(sp: SplitPartition) -> tuple[list[int], list[int]] | None:
    """The cover graph H has one edge {a, b} per distinct neighbourhood
    of a degree-2 independent vertex.  None when a clique vertex lies on
    three edges of H; else the clique walked along H's paths from their
    ends, then along its cycles, and the cycles' lengths."""
    g = sp.graph
    cover = [0] * g.n  # cover[a] masks a's neighbours in H
    for pair in {g.adj[p] for p in sp.independent if g.degree(p) == 2}:
        a, b = _bits(pair)
        cover[a] |= 1 << b
        cover[b] |= 1 << a
    if any(row.bit_count() >= 3 for row in cover):
        return None
    path, lengths, seen = [], [], 0
    for v in sorted(sp.clique, key=lambda v: cover[v].bit_count() == 2):
        first = len(path)
        while v >= 0 and not seen >> v & 1:
            seen |= 1 << v
            path.append(v)
            v = min(_bits(cover[v] & ~seen), default=-1)
        if len(path) > first and cover[path[first]].bit_count() == 2:
            lengths.append(len(path) - first)
    return path, lengths


def classify_clique_four(sp: SplitPartition) -> Verdict:
    """Split graphs with clique size exactly four are word-representable
    iff they avoid T1, T2, T3 and T4 as induced subgraphs.  Patterns are
    scanned smallest first so the reported witness is minimal."""
    if sp.m != 4:
        raise ValueError(f"clique size is {sp.m}, need exactly 4")
    for name in ("T1", "T2", "T3", "T4"):
        emb = contains_induced(sp.graph, families.named(name))
        if emb is not None:
            return Verdict(False, REASON_MAIN2, witness=(name, emb))
    return Verdict(True, REASON_MAIN2)


# ---------------------------------------------------------------------------
# Reduction moves that keep word-representability, and the lift back.


def _reduce(g: Graph) -> tuple[Graph, list[tuple[int, int, int]]]:
    """(h, log): g reduced one vertex at a time until no vertex has
    degree one or a twin, a lesser vertex with an equal open row (false
    twin) or closed row (true twin).  A dropped vertex keeps its label
    and loses its edges; its log entry is (vertex, kept twin or -1, its
    row when dropped).  h is g itself when nothing is dropped."""
    adj, log = list(g.adj), []
    while True:
        seen = {}  # an open row never equals another vertex's closed row
        for v, row in enumerate(adj):
            if row:
                kept = -1 if row & (row - 1) == 0 else seen.get(row, seen.get(row | 1 << v))
                if kept is not None:
                    break
                seen[row] = seen[row | 1 << v] = v
        else:
            return (Graph._from_adj(g.n, tuple(adj)) if log else g), log
        log.append((v, kept, row))
        adj = [0 if w == v else r & ~(1 << v) for w, r in enumerate(adj)]


def _lift(g: Graph, log: list[tuple[int, int, int]], og: OrientedGraph) -> OrientedGraph:
    """g's orientation from og, one of ``_reduce(g)[0]``, replaying the
    log backwards: a dropped vertex of degree one points out, as a source
    of degree one is on no cycle and in no shortcut, and a dropped twin
    copies its kept twin's arcs, a true twin's edge running from the kept
    twin to it."""
    out = list(og.out)
    for v, kept, row in reversed(log):
        out[v] = row if kept < 0 else out[kept] & row
        for w in _bits(row & ~out[v]):  # in-neighbours, a true twin's kept twin among them
            out[w] |= 1 << v
    lifted = OrientedGraph._from_out(g, tuple(out))
    if not is_semi_transitive(lifted):
        raise OracleDisagreement("the lifted orientation is not semi-transitive")
    return lifted


# ---------------------------------------------------------------------------
# Dispatcher.


def classify_graph(g: Graph, verify: bool = False, want_witness: bool = False) -> Verdict:
    """Classify g by one ladder run on h = ``_reduce(g)[0]``:
    COMPARABILITY, THEOREM_MAIN1, THEOREM_MAIN2, NEIGHBOURHOOD, then
    ORACLE_SEARCH.  h's split partition, read by the two theorems only,
    is computed once h has no transitive orientation.
    want_witness=True attaches to a representable verdict the deciding
    rung's orientation of h, lifted to g.  verify=True re-decides every
    verdict the search of g did not give by that same search, and raises
    OracleDisagreement on a mismatch.
    """
    h, log = _reduce(g)
    if (og := find_transitive_orientation(h)) is not None:
        verdict = Verdict(True, REASON_COMPARABILITY)
    elif (sp := split_partition(h)) is not None and all(h.degree(v) <= 2 for v in sp.independent):
        verdict = classify_degree_two(sp)
    elif sp is not None and sp.m == 4:
        verdict = classify_clique_four(sp)
    else:
        verdict = _neighbourhood_verdict(h)
        if verdict is None:
            og = find_semi_transitive_orientation(h)
            verdict = Verdict(og is not None, REASON_ORACLE)
    # verify: one search of g, unless it gave the verdict already
    if verify and (h is not g or verdict.reason != REASON_ORACLE) and (
            (find_semi_transitive_orientation(g) is not None) != verdict.representable):
        raise OracleDisagreement(f"classification disagrees with the orientation oracle on "
                                 f"{g!r}: {verdict.reason} said {verdict.representable}")
    if not (want_witness and verdict.representable):
        return verdict
    # witness: the deciding rung's orientation of h, lifted to g
    if verdict.reason == REASON_MAIN1:
        og = _orient_along(h, _cover_walk(sp)[0])
    elif verdict.reason == REASON_MAIN2:
        og = find_semi_transitive_orientation(h)
    return verdict._replace(witness=_lift(g, log, og) if log else og)


def classify_split(g: Graph, *, verify: bool = False, want_witness: bool = False) -> Verdict:
    """``classify_graph`` on a graph that must be split."""
    if not is_split(g):
        raise ValueError("input graph is not split")
    return classify_graph(g, verify, want_witness)


def _neighbourhood_verdict(g: Graph) -> Verdict | None:
    """Non-representable, with a vertex and a forcing chain, when some
    neighbourhood is not a comparability graph; else None.  Every graph
    on at most four vertices is one."""
    for v in range(g.n):
        nbrs = g.neighbors(v)
        chain = forcing_chain(induced_subgraph(g, nbrs)) if len(nbrs) >= 5 else None
        if chain is not None:
            chain = tuple((nbrs[a], nbrs[b]) for a, b in chain)
            return Verdict(False, REASON_NEIGHBOURHOOD, witness=(v, chain))
    return None
