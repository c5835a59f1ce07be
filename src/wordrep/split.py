"""Split graphs and the structure of their semi-transitive orientations.

A split graph partitions into a maximal clique K_m and an independent
set; equivalently it contains no induced C4, C5 or 2K2.  Recognition
and the partition come from the degree sequence alone (Hammer and
Simeone); the forbidden-subgraph characterisation is the test suite's
oracle for it.  Whether a split graph is a comparability graph is
decided by the G-decomposition in ``orient``; the scan for the
forbidden induced subgraphs B1-B3 is the tests' oracle for that.
Under any semi-transitive orientation the clique is oriented
transitively, fixing a Hamiltonian directed path through it, and every
independent vertex falls into one of three patterns relative to that
path:

  A - every edge leaves the vertex, into consecutive path positions;
  B - every edge enters the vertex, from consecutive path positions;
  C - an incoming prefix starting at the path's source and an outgoing
      suffix ending at its sink (possibly with a gap between).

On top of the typing there are relative-order restrictions pivoting on
each type-C vertex's boundary pair (its last in-neighbour, its first
out-neighbour).  Together the three conditions characterise
semi-transitivity on split graphs.  ``classify_all`` is the one typing
pass, taking each type-C vertex's groups as slices of the path;
``check_relative_order`` reads its reports, and ``check_main_orientation``
asks that the path exists, every vertex is typed and nothing violates.
``orient --classify-types`` prints the same reports and violations.  The
test suite checks them against the direct shortcut search on every
orientation.  ``_orient_along`` is the theorem's constructive half,
the orientation along a given path with every vertex of type B or C.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

from .graphs import Graph, _bits
from .orient import (
    OracleDisagreement,
    OrientedGraph,
    find_transitive_orientation,
    is_semi_transitive,
)


class SplitPartition(namedtuple("SplitPartition", "graph clique independent")):
    """A split graph with its vertex partition.

    ``clique`` induces a complete subgraph and is maximal (no outside
    vertex sees all of it); ``independent`` induces no edges.
    """

    __slots__ = ()

    @property
    def m(self) -> int:
        return len(self.clique)

    def clique_mask(self) -> int:
        mask = 0
        for v in self.clique:
            mask |= 1 << v
        return mask


def split_partition(g: Graph) -> SplitPartition | None:
    """The canonical split partition of g, or None when g is not split.

    Recognition follows Hammer and Simeone (1981): with degrees sorted
    d_1 >= ... >= d_n and m = max{i : d_i >= i-1}, g is split iff
    sum_{i<=m} d_i = m(m-1) + sum_{i>m} d_i, and then any m vertices
    carrying the degrees d_1..d_m form a maximal clique with an
    independent complement.  Every partition into a maximal clique and
    an independent set arises this way, so breaking degree ties by the
    lower label returns the one whose clique is lexicographically least
    as a sorted vertex list.
    """
    order = sorted(range(g.n), key=lambda v: -g.degree(v))
    degrees = [g.degree(v) for v in order]
    m = 0
    while m < g.n and degrees[m] >= m:
        m += 1
    if sum(degrees[:m]) != m * (m - 1) + sum(degrees[m:]):
        return None
    clique = tuple(sorted(order[:m]))
    return SplitPartition(g, clique, tuple(sorted(order[m:])))


def is_split(g: Graph) -> bool:
    """Is g a split graph (no induced C4, C5 or 2K2)?"""
    return split_partition(g) is not None


# ---------------------------------------------------------------------------
# The orientation along a path.


def _orient_along(g: Graph, path: Sequence[int]) -> OrientedGraph:
    """The theorem's constructive half: g's clique runs along path.  A
    vertex whose neighbourhood is a run of path is a sink (type B); one
    whose neighbourhood is a prefix plus a suffix is type C, ranked just
    past the prefix.  Each edge leaves its lower rank."""
    rank = {v: i for i, v in enumerate(path)}
    for x in set(range(g.n)) - rank.keys():
        pos = sum(1 << rank[c] for c in _bits(g.adj[x]))
        end = pos + (pos & -pos)  # a power of two iff pos is a run
        rank[x] = (pos ^ (pos + 1)).bit_length() - 1.5 if end & (end - 1) else len(path)
    og = OrientedGraph._from_out(g, tuple(
        sum(1 << w for w in _bits(row) if rank[w] > rank[v]) for v, row in enumerate(g.adj)))
    if not is_semi_transitive(og):
        raise OracleDisagreement("the orientation along the clique path is not semi-transitive")
    return og


def is_split_comparability(g: Graph) -> bool:
    """Does the split graph g admit a transitive orientation?

    Decided by the G-decomposition (``find_transitive_orientation``);
    the tests check it against the scan for the forbidden induced
    subgraphs B1-B3.  Raises ValueError when g is not split.
    """
    if not is_split(g):
        raise ValueError("input graph is not split")
    return find_transitive_orientation(g) is not None


# ---------------------------------------------------------------------------
# Vertex typing against the clique's Hamiltonian directed path.

KIND_A = "A"
KIND_B = "B"
KIND_C = "C"
KIND_INVALID = "INVALID"


class VertexTypeReport(namedtuple(
    "VertexTypeReport",
    "vertex kind neighbors_on_path source_group sink_group boundary",
    defaults=((), (), None),
)):
    """Classification of one independent vertex under an orientation.

    Positions index the clique's Hamiltonian directed path from the
    source (0) to the sink (m-1).  For type C the boundary pair holds
    the last source-group member and the first sink-group member.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "vertex": self.vertex,
            "kind": self.kind,
            "source_group": list(self.source_group),
            "sink_group": list(self.sink_group),
            "boundary": list(self.boundary) if self.boundary else None,
        }


class OrderViolation(namedtuple("OrderViolation", "y x boundary kind")):
    """A relative-order conflict pivoting on a type-C boundary pair.
    ``kind`` is "AB", "C_SOURCE_GROUP" or "C_SINK_GROUP"."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "y": self.y,
            "x": self.x,
            "boundary": list(self.boundary),
            "kind": self.kind,
        }


def clique_path(sp: SplitPartition, og: OrientedGraph) -> tuple[int, ...] | None:
    """The Hamiltonian directed path through the clique, as a vertex
    sequence, or None when the induced clique orientation is not
    transitive (equivalently, not acyclic).

    A tournament is transitive iff its out-degrees are distinct, and
    then the vertex with out-degree d sits d places before the sink.
    """
    cmask = sp.clique_mask()
    m = len(sp.clique)
    path = [-1] * m
    for v in sp.clique:
        i = m - 1 - (og.out[v] & cmask).bit_count()
        if path[i] >= 0:
            return None
        path[i] = v
    return tuple(path)


def classify_all(sp: SplitPartition, og: OrientedGraph) -> list[VertexTypeReport]:
    """Type reports for the independent vertices under og, in the order
    of ``sp.independent``.  Raises ValueError when the clique is not
    transitively oriented."""
    path = clique_path(sp, og)
    if path is None:
        raise ValueError("clique is not transitively oriented")
    m = len(path)
    rank = [0] * sp.graph.n
    for i, v in enumerate(path):
        rank[v] = i
    adj, out = sp.graph.adj, og.out
    reports = []
    for x in sp.independent:
        nbr_pos = out_pos = 0
        for v in _bits(adj[x]):
            nbr_pos |= 1 << rank[v]
            if out[x] >> v & 1:
                out_pos |= 1 << rank[v]
        in_pos, groups = nbr_pos ^ out_pos, ()
        if not (in_pos and out_pos):  # A or B: one consecutive run
            run_end = nbr_pos + (nbr_pos & -nbr_pos)
            kind = KIND_INVALID if run_end & (run_end - 1) else KIND_B if in_pos else KIND_A
        elif in_pos & (in_pos + 1) or out_pos + (out_pos & -out_pos) != 1 << m:
            kind = KIND_INVALID  # C needs an in-prefix and an out-suffix
        else:
            s, t = in_pos.bit_count(), m - out_pos.bit_count()
            kind, groups = KIND_C, (path[:s], path[t:], (path[s - 1], path[t]))
        reports.append(VertexTypeReport(x, kind, tuple(_bits(nbr_pos)), *groups))
    return reports


def check_relative_order(
    sp: SplitPartition, reports: Iterable[VertexTypeReport]
) -> list[OrderViolation]:
    """All relative-order violations among typed independent vertices,
    in report order of the pivot x, then of y.

    For each type-C vertex x with boundary pair (u, v): a type-A or -B
    vertex adjacent to both u and v violates, and so does another
    type-C vertex whose source-group or sink-group contains both.
    """
    reports, found = list(reports), []
    for x in reports:
        if x.kind == KIND_INVALID:
            raise ValueError(f"vertex {x.vertex} is not of type A, B or C")
        if x.kind != KIND_C:
            continue
        u, v = x.boundary
        pair = (1 << u) | (1 << v)
        for y in reports:  # x's groups each miss u or v; A and B reports have none
            if y.kind != KIND_C and sp.graph.adj[y.vertex] & pair == pair:
                found.append(OrderViolation(y.vertex, x.vertex, x.boundary, "AB"))
            if u in y.source_group and v in y.source_group:
                found.append(OrderViolation(y.vertex, x.vertex, x.boundary, "C_SOURCE_GROUP"))
            if u in y.sink_group and v in y.sink_group:
                found.append(OrderViolation(y.vertex, x.vertex, x.boundary, "C_SINK_GROUP"))
    return found


def check_main_orientation(sp: SplitPartition, og: OrientedGraph) -> bool:
    """Structural semi-transitivity test for split graphs: transitive
    clique, every independent vertex of type A, B or C, and no
    relative-order violation.  Must coincide with is_semi_transitive."""
    if clique_path(sp, og) is None:
        return False
    reports = classify_all(sp, og)
    return all(r.kind != KIND_INVALID for r in reports) and not check_relative_order(sp, reports)


def toggle_ab(sp: SplitPartition, og: OrientedGraph, x: int) -> OrientedGraph:
    """Flip every edge at a type-A or type-B vertex x, turning a source
    into a sink or vice versa; semi-transitivity is preserved (checked).
    """
    if not is_semi_transitive(og):
        raise ValueError("orientation is not semi-transitive")
    if x not in sp.independent:
        raise ValueError(f"vertex {x} is not in the independent set")
    report = classify_all(sp, og)[sp.independent.index(x)]
    if report.kind not in (KIND_A, KIND_B):
        raise ValueError(f"vertex {x} has type {report.kind}, need A or B")
    flipped = og.reversed_at(x)
    if not is_semi_transitive(flipped):
        raise OracleDisagreement(
            f"flipping type-{report.kind} vertex {x} broke semi-transitivity "
            f"on {sp.graph!r}"
        )
    return flipped
