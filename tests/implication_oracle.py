"""A second route to Golumbic's implication classes (*Algorithmic Graph
Theory and Perfect Graphs*, 1980, Thm 5.1), kept as the test oracle for
``wordrep.orient``.

It states Γ with its own ``_forced`` and grows each class as a map from
arc to the arc that forced it, one arc tuple at a time.  The package
keeps classes as out-masks with a list of parent indices instead; both
visit the arcs in the same breadth-first order and stop at the same
first clash, so the transitive orientations and forcing chains below
must equal the package's exactly."""

from __future__ import annotations

from collections.abc import Sequence

from wordrep.graphs import Graph


def _bits(mask: int) -> list[int]:
    return [w for w in range(mask.bit_length()) if mask >> w & 1]


def _forced(adj: Sequence[int], a: int, b: int) -> list[tuple[int, int]]:
    """The arcs that a->b forces: a->c when c sees a but not b, then
    c->b when c sees b but not a, each in ascending c."""
    forced = [(a, c) for c in _bits(adj[a] & ~adj[b] & ~(1 << b))]
    return forced + [(c, b) for c in _bits(adj[b] & ~adj[a] & ~(1 << a))]


def implication_class(adj: Sequence[int], u: int, v: int) -> tuple[dict, tuple | None]:
    """The implication class of u->v in the graph ``adj`` as a map from
    each arc to the arc that forced it (None for u->v), and None; or the
    map so far and the first arc forced whose reverse it holds."""
    parent = {(u, v): None}
    work = [(u, v)]
    for a, b in work:  # also reads the arcs appended below
        for arc in _forced(adj, a, b):
            if arc not in parent:
                parent[arc] = (a, b)
                if arc[::-1] in parent:
                    return parent, arc
                work.append(arc)
    return parent, None


def transitive_out(g: Graph) -> tuple[int, ...] | None:
    """The out-masks of the G-decomposition's transitive orientation of
    g, or None when g is not a comparability graph."""
    und = list(g.adj)
    out = [0] * g.n
    for u, v in g.edges():
        if und[u] >> v & 1:
            cls, clash = implication_class(und, u, v)
            if clash is not None:
                return None
            for a, b in cls:
                out[a] |= 1 << b
                und[a] &= ~(1 << b)
                und[b] &= ~(1 << a)
    return tuple(out)


def forcing_chain(g: Graph) -> list[tuple[int, int]] | None:
    """The forcing chain of g's first class that holds an edge both
    ways: u->v forward to the reverse of the clash, then the clash's
    forcers back to u->v, each reversed; None for a comparability
    graph."""
    seen = set()
    for u, v in g.edges():
        if (u, v) in seen:
            continue
        parent, clash = implication_class(g.adj, u, v)
        if clash is None:
            seen.update(parent, ((b, a) for a, b in parent))
            continue
        chain = [clash[::-1]]
        while chain[0] != (u, v):
            chain.insert(0, parent[chain[0]])
        while clash != (u, v):
            clash = parent[clash]
            chain.append(clash[::-1])
        return chain
    return None
