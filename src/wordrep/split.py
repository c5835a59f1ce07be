"""Split graphs and the structure of their semi-transitive orientations.

A split graph partitions into a maximal clique K_m and an independent
set; equivalently it contains no induced C4, C5 or 2K2.  Recognition
and the partition come from the degree sequence alone (Hammer and
Simeone); the forbidden-subgraph characterisation is the test suite's
oracle for it.  Under any
semi-transitive orientation the clique is oriented transitively, fixing
a Hamiltonian directed path through it, and every independent vertex
falls into one of three patterns relative to that path:

  A - every edge leaves the vertex, into consecutive path positions;
  B - every edge enters the vertex, from consecutive path positions;
  C - an incoming prefix starting at the path's source and an outgoing
      suffix ending at its sink (possibly with a gap between).

On top of the typing there are relative-order restrictions pivoting on
each type-C vertex's boundary pair (its last in-neighbour, its first
out-neighbour).  Together the three conditions characterise
semi-transitivity on split graphs; ``check_main_orientation`` evaluates
them and is cross-checked against the direct shortcut search in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, _bits, contains_induced
from .orient import OracleDisagreement, OrientedGraph, is_semi_transitive
from . import families


@dataclass(frozen=True)
class SplitPartition:
    """A split graph with its vertex partition.

    ``clique`` induces a complete subgraph and is maximal (no outside
    vertex sees all of it); ``independent`` induces no edges.
    """

    graph: Graph
    clique: tuple[int, ...]
    independent: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.clique)

    def clique_mask(self) -> int:
        return sum(1 << v for v in self.clique)


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
# Reduction moves that preserve word-representability: dropping
# independent vertices of degree 0 or 1, and dropping one of two
# vertices with identical neighbourhoods.


def _reduce_with_map(sp: SplitPartition) -> tuple[SplitPartition, tuple[int, ...]]:
    """Reduce to a fixpoint; returns (partition of the reduced graph,
    original labels of the surviving vertices in ascending order)."""
    labels = list(range(sp.graph.n))
    while True:
        cur = sp.graph
        drop = None
        for v in sp.independent:
            if cur.degree(v) <= 1:
                drop = v
                break
        if drop is None:
            for u in range(cur.n):
                row = cur.adj[u]
                for v in range(u + 1, cur.n):
                    if cur.adj[v] == row:  # equal open neighbourhoods
                        drop = v
                        break
                if drop is not None:
                    break
        if drop is None:
            return sp, tuple(labels)
        sp = split_partition(cur.delete_vertex(drop))
        assert sp is not None, "deleting a vertex keeps a graph split"
        del labels[drop]


def reduce_split(sp: SplitPartition) -> SplitPartition:
    """Remove independent vertices of degree <= 1 and duplicate-
    neighbourhood vertices (keeping the lower-labelled twin) until no
    move applies.  Word-representability of input and output agree."""
    return _reduce_with_map(sp)[0]


def is_split_comparability(g: Graph) -> bool:
    """Does the split graph g admit a transitive orientation?

    Decided by scanning for the three forbidden induced subgraphs; the
    direct orientation search cross-checks this in the tests.
    """
    sp = split_partition(g)
    if sp is None:
        raise ValueError("input graph is not split")
    for tag in ("B1", "B2", "B3"):
        if contains_induced(g, families.named(tag)) is not None:
            return False
    return True


# ---------------------------------------------------------------------------
# Vertex typing against the clique's Hamiltonian directed path.

KIND_A = "A"
KIND_B = "B"
KIND_C = "C"
KIND_INVALID = "INVALID"


@dataclass(frozen=True)
class VertexTypeReport:
    """Classification of one independent vertex under an orientation.

    Positions index the clique's Hamiltonian directed path from the
    source (0) to the sink (m-1).  For type C the boundary pair holds
    the last source-group member and the first sink-group member.
    """

    vertex: int
    kind: str
    neighbors_on_path: tuple[int, ...]
    source_group: tuple[int, ...] = ()
    sink_group: tuple[int, ...] = ()
    boundary: tuple[int, int] | None = None

    def to_json(self) -> dict:
        return {
            "vertex": self.vertex,
            "kind": self.kind,
            "source_group": list(self.source_group),
            "sink_group": list(self.sink_group),
            "boundary": list(self.boundary) if self.boundary else None,
        }


@dataclass(frozen=True)
class OrderViolation:
    """A relative-order conflict pivoting on a type-C boundary pair."""

    y: int
    x: int
    boundary: tuple[int, int]
    kind: str  # "AB", "C_SOURCE_GROUP" or "C_SINK_GROUP"

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
    transitive (equivalently, not acyclic)."""
    clique = sp.clique
    cmask = sp.clique_mask()
    order = sorted(clique, key=lambda v: -(og.out[v] & cmask).bit_count())
    m = len(order)
    for i, v in enumerate(order):
        if (og.out[v] & cmask).bit_count() != m - 1 - i:
            return None
    for i in range(m):
        for j in range(i + 1, m):
            if not og.has_arc(order[i], order[j]):
                return None
    return tuple(order)


def _contiguous(mask: int) -> bool:
    if mask == 0:
        return True
    low = mask & -mask
    t = mask + low
    return t & (t - 1) == 0


def _classify_masks(in_pos: int, out_pos: int, m: int) -> tuple[str, int, int]:
    """Kind plus (source-group positions, sink-group positions) masks."""
    if out_pos == 0 and in_pos == 0:
        return KIND_A, 0, 0  # isolated vertex: trivially consecutive
    if in_pos == 0:
        return (KIND_A, 0, 0) if _contiguous(out_pos) else (KIND_INVALID, 0, 0)
    if out_pos == 0:
        return (KIND_B, 0, 0) if _contiguous(in_pos) else (KIND_INVALID, 0, 0)
    s = in_pos.bit_count()
    t = out_pos.bit_count()
    prefix = (1 << s) - 1
    suffix = ((1 << t) - 1) << (m - t)
    if in_pos == prefix and out_pos == suffix:
        return KIND_C, in_pos, out_pos
    return KIND_INVALID, 0, 0


def classify_vertex(
    sp: SplitPartition, og: OrientedGraph, x: int
) -> VertexTypeReport:
    """Type report for independent vertex x under og.

    Raises when the clique is not transitively oriented or x is not an
    independent vertex of the partition.
    """
    if x not in sp.independent:
        raise ValueError(f"vertex {x} is not in the independent set")
    path = clique_path(sp, og)
    if path is None:
        raise ValueError("clique is not transitively oriented")
    pos = {v: i for i, v in enumerate(path)}
    m = len(path)
    in_pos = 0
    out_pos = 0
    for v in _bits(sp.graph.adj[x]):
        if og.has_arc(v, x):
            in_pos |= 1 << pos[v]
        else:
            out_pos |= 1 << pos[v]
    kind, src, snk = _classify_masks(in_pos, out_pos, m)
    neighbors = tuple(sorted(pos[v] for v in _bits(sp.graph.adj[x])))
    if kind == KIND_C:
        source_group = tuple(path[i] for i in _bits(src))
        sink_group = tuple(path[i] for i in _bits(snk))
        boundary = (source_group[-1], sink_group[0])
        return VertexTypeReport(x, kind, neighbors, source_group, sink_group, boundary)
    return VertexTypeReport(x, kind, neighbors)


def classify_all(sp: SplitPartition, og: OrientedGraph) -> list[VertexTypeReport]:
    return [classify_vertex(sp, og, x) for x in sp.independent]


def check_relative_order(
    sp: SplitPartition, reports: Iterable[VertexTypeReport]
) -> list[OrderViolation]:
    """All relative-order violations among typed independent vertices.

    For each type-C vertex x with boundary pair (u, v): a type-A or -B
    vertex adjacent to both u and v violates, and so does another
    type-C vertex whose source-group or sink-group contains both.
    """
    reports = list(reports)
    for r in reports:
        if r.kind == KIND_INVALID:
            raise ValueError(f"vertex {r.vertex} is not of type A, B or C")
    g = sp.graph
    violations: list[OrderViolation] = []
    for x in reports:
        if x.kind != KIND_C:
            continue
        u, v = x.boundary
        pair = (1 << u) | (1 << v)
        for y in reports:
            if y.vertex == x.vertex:
                continue
            if y.kind in (KIND_A, KIND_B):
                if g.adj[y.vertex] & pair == pair:
                    violations.append(
                        OrderViolation(y.vertex, x.vertex, x.boundary, "AB")
                    )
            else:
                src = sum(1 << w for w in y.source_group)
                snk = sum(1 << w for w in y.sink_group)
                if src & pair == pair:
                    violations.append(
                        OrderViolation(y.vertex, x.vertex, x.boundary, "C_SOURCE_GROUP")
                    )
                if snk & pair == pair:
                    violations.append(
                        OrderViolation(y.vertex, x.vertex, x.boundary, "C_SINK_GROUP")
                    )
    return violations


def check_main_orientation(sp: SplitPartition, og: OrientedGraph) -> bool:
    """Structural semi-transitivity test for split graphs: transitive
    clique, every independent vertex of type A, B or C, and no
    relative-order violation.  Must coincide with is_semi_transitive."""
    path = clique_path(sp, og)
    if path is None:
        return False
    pos = {v: i for i, v in enumerate(path)}
    m = len(path)
    g = sp.graph
    c_entries: list[tuple[int, int, int, int]] = []  # (x, src_vmask, snk_vmask, boundary_vmask)
    ab_entries: list[int] = []  # adjacency masks of A/B vertices
    for x in sp.independent:
        in_pos = 0
        out_pos = 0
        for v in _bits(g.adj[x]):
            if og.has_arc(v, x):
                in_pos |= 1 << pos[v]
            else:
                out_pos |= 1 << pos[v]
        kind, src, snk = _classify_masks(in_pos, out_pos, m)
        if kind == KIND_INVALID:
            return False
        if kind == KIND_C:
            s = src.bit_count()
            t = snk.bit_count()
            src_v = sum(1 << path[i] for i in range(s))
            snk_v = sum(1 << path[i] for i in range(m - t, m))
            bpair = (1 << path[s - 1]) | (1 << path[m - t])
            c_entries.append((x, src_v, snk_v, bpair))
        else:
            ab_entries.append(g.adj[x])
    for x, _, _, bpair in c_entries:
        for mask in ab_entries:
            if mask & bpair == bpair:
                return False
        for y, src_v, snk_v, _ in c_entries:
            if y == x:
                continue
            if src_v & bpair == bpair or snk_v & bpair == bpair:
                return False
    return True


def toggle_ab(sp: SplitPartition, og: OrientedGraph, x: int) -> OrientedGraph:
    """Flip every edge at a type-A or type-B vertex x, turning a source
    into a sink or vice versa; semi-transitivity is preserved (checked).
    """
    if not is_semi_transitive(og):
        raise ValueError("orientation is not semi-transitive")
    report = classify_vertex(sp, og, x)
    if report.kind not in (KIND_A, KIND_B):
        raise ValueError(f"vertex {x} has type {report.kind}, need A or B")
    flipped = og.reversed_at(x)
    if not is_semi_transitive(flipped):
        raise OracleDisagreement(
            f"flipping type-{report.kind} vertex {x} broke semi-transitivity "
            f"on {sp.graph!r}"
        )
    return flipped
