"""Forbidden-subgraph characterizations of word-representable split
graphs and a top-level classification dispatcher.

Two exact characterizations are implemented: for split graphs whose
independent vertices all have degree at most two (avoid T2 and the
A_l family), and for split graphs with clique size exactly four (avoid
T1, T2, T3, T4).  Before them, a reduced graph with clique size at most
three, or with a transitive orientation (found by the G-decomposition),
is representable.  Everything else falls back to the exhaustive
orientation search.  Each question has one production route: the
split partition is computed once and passed down, and the degree-two
case reads T2 and A_l off its cover graph (see
``classify_degree_two``), so it runs one induced-subgraph search, and
only for a pattern it knows is there.  The generic per-l A_l scan
(``find_a_ell``) is the tests' oracle for that reading.  Under
verify=True every fast path is cross-checked against the orientation
oracle, which searches the input graph at most once; a disagreement
raises rather than being papered over, because it would falsify one of
the encoded theorems.
"""

from __future__ import annotations

from collections import namedtuple

from . import families
from .graphs import Embedding, Graph, _bits, contains_induced
from .orient import (
    OracleDisagreement,
    find_semi_transitive_orientation,
    has_transitive_orientation,
    orientation_bits,
)
from .split import SplitPartition, _reduce_with_map, split_partition

REASON_CLIQUE_LE_3 = "CLIQUE_LE_3"
REASON_COMPARABILITY = "COMPARABILITY"
REASON_MAIN1 = "THEOREM_MAIN1"
REASON_MAIN2 = "THEOREM_MAIN2"
REASON_ORACLE = "ORACLE_SEARCH"


class Verdict(namedtuple(
    "Verdict",
    "representable reason witness_pattern witness_orientation",
    defaults=(None, None),
)):
    """Outcome of classifying one graph.

    ``witness_pattern`` names a forbidden induced subgraph and its
    embedding (host labels) when non-representable via a
    characterization; ``witness_orientation`` carries a semi-transitive
    orientation when representable and one was requested.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        witness = None
        if self.witness_pattern is not None:
            name, emb = self.witness_pattern
            witness = {"pattern": name, "vertices": list(emb.mapping)}
        elif self.witness_orientation is not None:
            witness = {"orientation": orientation_bits(self.witness_orientation)}
        return {
            "representable": self.representable,
            "reason": self.reason,
            "witness": witness,
        }


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

    Both patterns are read off the cover graph H on the clique: one
    edge {a, b} per distinct neighbourhood of a degree-2 independent
    vertex.  T2 is induced iff some clique vertex lies on three edges
    of H.  Otherwise H is a union of paths and cycles, and A_l is
    induced iff H has a cycle of length l-1 < m; any clique vertex off
    the cycle is an apex.  Sound because every pattern vertex of degree
    three or more lands on a clique vertex (independent ones have
    degree at most two), and every pattern cover misses some pattern
    clique vertex, so it lands on an independent vertex whose
    neighbourhood is exactly its two pattern neighbours.  One induced
    search then finds the lexicographically least embedding of the
    pattern the rule named.
    """
    g = sp.graph
    if any(g.degree(v) > 2 for v in sp.independent):
        raise ValueError("an independent vertex has degree above two")
    cover = [0] * g.n  # cover[a] masks a's neighbours in H
    for pair in {g.adj[p] for p in sp.independent if g.degree(p) == 2}:
        a, b = _bits(pair)
        cover[a] |= 1 << b
        cover[b] |= 1 << a
    if any(row.bit_count() >= 3 for row in cover):
        name, pattern = "T2", families.named("T2")
    else:
        # H is a union of paths and cycles: a component is a cycle when
        # all its vertices lie on two edges, and a cycle through all m
        # clique vertices leaves no apex
        lengths = [sp.m]
        for v in sp.clique:
            comp, grown = 0, 1 << v
            while grown != comp:
                comp = grown
                for u in _bits(comp):
                    grown |= cover[u]
            if all(cover[u].bit_count() == 2 for u in _bits(comp)):
                lengths.append(comp.bit_count())
        r = min(lengths)
        if r == sp.m:
            return Verdict(True, REASON_MAIN1)
        name, pattern = f"A_{r + 1}", families.a_graph(r + 1)
    emb = contains_induced(g, pattern)
    if emb is None:
        raise OracleDisagreement(f"cover graph names {name} but it is not induced in {g!r}")
    return Verdict(False, REASON_MAIN1, witness_pattern=(name, emb))


def classify_clique_four(sp: SplitPartition) -> Verdict:
    """Split graphs with clique size exactly four are word-representable
    iff they avoid T1, T2, T3 and T4 as induced subgraphs.  Patterns are
    scanned smallest first so the reported witness is minimal."""
    if sp.m != 4:
        raise ValueError(f"clique size is {sp.m}, need exactly 4")
    for name in ("T1", "T2", "T3", "T4"):
        emb = contains_induced(sp.graph, families.named(name))
        if emb is not None:
            return Verdict(False, REASON_MAIN2, witness_pattern=(name, emb))
    return Verdict(True, REASON_MAIN2)


# ---------------------------------------------------------------------------
# Dispatcher.


def classify_split(
    split: Graph | SplitPartition,
    *,
    verify: bool = False,
    want_orientation: bool = False,
) -> Verdict:
    """Classify a split graph, given as the graph or, when the caller
    already has it, as its split partition.  Fast paths first:

    after reduction, clique size <= 3 means representable (the graph is
    3-colorable); split comparability graphs are representable; then
    the degree-two and clique-four characterizations apply; anything
    left goes to the orientation search.

    verify=True re-decides via the oracle and raises on mismatch;
    want_orientation=True attaches a semi-transitive orientation of the
    input graph to representable verdicts.  Both share one search of the
    input graph, and the oracle branch's search is reused when nothing
    was reduced.
    """
    sp = split_partition(split) if isinstance(split, Graph) else split
    if sp is None:
        raise ValueError("input graph is not split")
    g = sp.graph
    rsp, labels = _reduce_with_map(sp)
    reduced = rsp.graph

    og, searched = None, False  # searched: og is the search's answer on g
    if rsp.m <= 3:
        verdict = Verdict(True, REASON_CLIQUE_LE_3)
    elif has_transitive_orientation(reduced):
        verdict = Verdict(True, REASON_COMPARABILITY)
    elif all(reduced.degree(v) <= 2 for v in rsp.independent):
        verdict = _relabel(classify_degree_two(rsp), labels)
    elif rsp.m == 4:
        verdict = _relabel(classify_clique_four(rsp), labels)
    else:
        og = find_semi_transitive_orientation(reduced)
        verdict = Verdict(og is not None, REASON_ORACLE)
        searched = reduced is g  # nothing was reduced

    if verify or (want_orientation and verdict.representable):
        if not searched:
            og = find_semi_transitive_orientation(g)
        if (og is not None) != verdict.representable:
            raise OracleDisagreement(
                f"classification disagrees with the orientation oracle on "
                f"{g!r}: {verdict.reason} said {verdict.representable}"
            )
        if want_orientation and og is not None:
            verdict = Verdict(
                verdict.representable, verdict.reason, verdict.witness_pattern, og
            )
    return verdict


def _relabel(verdict: Verdict, labels: tuple[int, ...]) -> Verdict:
    """Map a witness found in the reduced graph back to input labels."""
    if verdict.witness_pattern is None:
        return verdict
    name, emb = verdict.witness_pattern
    lifted = Embedding(tuple(labels[w] for w in emb.mapping))
    return Verdict(verdict.representable, verdict.reason, (name, lifted))
