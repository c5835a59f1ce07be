"""Forbidden-subgraph characterizations of word-representable split
graphs and a top-level classification dispatcher.

Two exact characterizations are implemented: for split graphs whose
independent vertices all have degree at most two (avoid T2 and the
A_l family), and for split graphs with clique size exactly four (avoid
T1, T2, T3, T4).  Before them, a reduced graph with clique size at most
three, or with a transitive orientation (found by the G-decomposition),
is representable.  Everything else falls back to the exhaustive
orientation search.  Each question has one production route: the
split partition is computed once and passed down, and the A_l scan
runs only its structural search.  Under verify=True every fast path is
cross-checked against the orientation oracle; a disagreement raises
rather than being papered over, because it would falsify one of the
encoded theorems.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from . import families
from .graphs import Embedding, Graph, _bits, contains_induced
from .orient import (
    OracleDisagreement,
    OrientedGraph,
    find_semi_transitive_orientation,
    has_transitive_orientation,
    is_word_representable,
    orientation_bits,
)
from .split import SplitPartition, _reduce_with_map, split_partition

REASON_CLIQUE_LE_3 = "CLIQUE_LE_3"
REASON_COMPARABILITY = "COMPARABILITY"
REASON_MAIN1 = "THEOREM_MAIN1"
REASON_MAIN2 = "THEOREM_MAIN2"
REASON_ORACLE = "ORACLE_SEARCH"


@dataclass(frozen=True)
class Verdict:
    """Outcome of classifying one graph.

    ``witness_pattern`` names a forbidden induced subgraph and its
    embedding (host labels) when non-representable via a
    characterization; ``witness_orientation`` carries a semi-transitive
    orientation when representable and one was requested.
    """

    representable: bool
    reason: str
    witness_pattern: tuple[str, Embedding] | None = None
    witness_orientation: OrientedGraph | None = None

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
# The A_l family scan: a structural search for a covered clique cycle
# plus apex finds the least l, then one induced-subgraph search at that
# l gives the embedding.  The generic per-l induced-subgraph scan is the
# test suite's oracle for it.


def find_a_ell(sp: SplitPartition) -> tuple[int, Embedding] | None:
    """Least l >= 4 with a_graph(l) induced in the split graph, with its
    lexicographically least embedding, or None."""
    l = _find_a_ell_structural(sp)
    if l is None:
        return None
    emb = contains_induced(sp.graph, families.a_graph(l))
    if emb is None:
        raise OracleDisagreement(f"covered cycle but no induced A_{l} in {sp.graph!r}")
    return l, emb


def _find_a_ell_structural(sp: SplitPartition) -> int | None:
    """Least l such that some (l-1)-cycle in the clique is fully covered
    by independent vertices (each seeing exactly its two cycle
    neighbours within the cycle set) together with an apex vertex seeing
    the whole cycle and none of the covers."""
    g = sp.graph
    clique = sp.clique
    # a cycle of length r needs r covers of degree >= 2, and each cycle
    # vertex lies on two cover pairs, so it sees two such covers
    covers = [p for p in sp.independent if g.degree(p) >= 2]
    cover_mask = sum(1 << p for p in covers)
    on_cycle = [v for v in clique if (g.adj[v] & cover_mask).bit_count() >= 2]
    for r in range(3, min(len(covers), len(on_cycle)) + 1):
        if 2 * (r + 1) - 1 > g.n:
            break
        for cset in combinations(on_cycle, r):
            cmask = sum(1 << v for v in cset)
            apexes = [z for z in clique if not cmask >> z & 1]
            apexes += [
                z for z in sp.independent if g.adj[z] & cmask == cmask
            ]
            for z in apexes:
                pairs = set()
                for p in covers:
                    if p == z or g.adjacent(p, z):
                        continue
                    hit = g.adj[p] & cmask
                    if hit.bit_count() == 2:
                        pairs.add(tuple(_bits(hit)))
                if len(pairs) >= r and _has_hamiltonian_cycle(cset, pairs):
                    return r + 1
    return None


def _has_hamiltonian_cycle(vertices: tuple[int, ...], pairs: set) -> bool:
    first, rest = vertices[0], vertices[1:]

    def linked(a: int, b: int) -> bool:
        return ((a, b) if a < b else (b, a)) in pairs

    for perm in permutations(rest):
        cyc = (first,) + perm
        if all(linked(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))):
            return True
    return False


# ---------------------------------------------------------------------------
# The two characterizations.  Reason tokens name the serialized verdict
# contract; the functions are named for the cases they decide.


def classify_degree_two(sp: SplitPartition) -> Verdict:
    """Split graphs whose independent vertices have degree at most two
    are word-representable iff they avoid T2 and every A_l as induced
    subgraphs."""
    g = sp.graph
    if any(g.degree(v) > 2 for v in sp.independent):
        raise ValueError("an independent vertex has degree above two")
    emb = contains_induced(g, families.named("T2"))
    if emb is not None:
        return Verdict(False, REASON_MAIN1, witness_pattern=("T2", emb))
    hit = find_a_ell(sp)
    if hit is not None:
        l, emb = hit
        return Verdict(False, REASON_MAIN1, witness_pattern=(f"A_{l}", emb))
    return Verdict(True, REASON_MAIN1)


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
    input graph to representable verdicts.
    """
    sp = split_partition(split) if isinstance(split, Graph) else split
    if sp is None:
        raise ValueError("input graph is not split")
    g = sp.graph
    rsp, labels = _reduce_with_map(sp)
    reduced = rsp.graph

    found = None
    if rsp.m <= 3:
        verdict = Verdict(True, REASON_CLIQUE_LE_3)
    elif has_transitive_orientation(reduced):
        verdict = Verdict(True, REASON_COMPARABILITY)
    elif all(reduced.degree(v) <= 2 for v in rsp.independent):
        verdict = _relabel(classify_degree_two(rsp), labels)
    elif rsp.m == 4:
        verdict = _relabel(classify_clique_four(rsp), labels)
    else:
        found = find_semi_transitive_orientation(reduced)
        verdict = Verdict(found is not None, REASON_ORACLE)

    if want_orientation and verdict.representable:
        og = found  # the search ran on g itself when nothing was reduced
        if og is None or reduced is not g:
            og = find_semi_transitive_orientation(g)
        assert og is not None, "fast path said representable, search disagrees"
        verdict = Verdict(
            verdict.representable, verdict.reason, verdict.witness_pattern, og
        )
    if verify and is_word_representable(g) != verdict.representable:
        raise OracleDisagreement(
            f"classification disagrees with the orientation oracle on "
            f"{g!r}: {verdict.reason} said {verdict.representable}"
        )
    return verdict


def _relabel(verdict: Verdict, labels: tuple[int, ...]) -> Verdict:
    """Map a witness found in the reduced graph back to input labels."""
    if verdict.witness_pattern is None:
        return verdict
    name, emb = verdict.witness_pattern
    lifted = Embedding(tuple(labels[w] for w in emb.mapping))
    return Verdict(verdict.representable, verdict.reason, (name, lifted))
