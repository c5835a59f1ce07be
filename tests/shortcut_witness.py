"""The tests' independent oracle for semi-transitivity:
``is_acyclic(og) and find_shortcut(og) is None``.  It shares no code
with the reachability closure of ``wordrep.orient``: acyclicity and
reachability come from a topological order (``_topological_order``,
``_descendants``), and ``find_shortcut`` walks directed paths below
each arc and returns the first shortcut it meets as a
``ShortcutWitness``, which ``ShortcutWitness.is_valid`` re-checks arc
by arc."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from wordrep.graphs import _bits
from wordrep.orient import OrientedGraph


def _topological_order(out: Sequence[int], n: int) -> list[int] | None:
    indeg = [0] * n
    for u in range(n):
        for v in _bits(out[u]):
            indeg[v] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for w in _bits(out[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return order if len(order) == n else None


def is_acyclic(og: OrientedGraph) -> bool:
    return _topological_order(og.out, og.n) is not None


def _descendants(out: Sequence[int], n: int) -> list[int] | None:
    """reach[v] = vertices reachable from v, v included; None on a cycle."""
    order = _topological_order(out, n)
    if order is None:
        return None
    reach = [0] * n
    for v in reversed(order):
        r = 1 << v
        for w in _bits(out[v]):
            r |= reach[w]
        reach[v] = r
    return reach


class ShortcutWitness(namedtuple("ShortcutWitness", "path shortcutting_edge missing_pair")):
    """A directed path plus the shortcutting edge and one missing pair.

    ``path`` runs v_0 -> ... -> v_k with k >= 3 along directed edges,
    ``shortcutting_edge`` is (v_0, v_k), and ``missing_pair`` is a pair
    (v_i, v_j), i < j, with no arc v_i -> v_j, certifying that the
    subgraph induced by the path vertices is not transitive.
    """

    __slots__ = ()

    def is_valid(self, og: OrientedGraph) -> bool:
        p = self.path
        if len(p) < 4 or len(set(p)) != len(p):
            return False
        if any(not og.has_arc(p[i], p[i + 1]) for i in range(len(p) - 1)):
            return False
        if self.shortcutting_edge != (p[0], p[-1]):
            return False
        if not og.has_arc(p[0], p[-1]):
            return False
        u, v = self.missing_pair
        iu, iv = p.index(u), p.index(v)
        if iu >= iv or og.has_arc(u, v) or og.has_arc(v, u):
            return False
        # the induced subgraph is a DAG with p[0] its only source and
        # p[-1] its only sink, both witnessed by the Hamiltonian path
        sub = set(p)
        for w in p[1:]:
            if not any(og.has_arc(q, w) for q in sub):
                return False
        for w in p[:-1]:
            if not any(og.has_arc(w, q) for q in sub):
                return False
        return True


def find_shortcut(og: OrientedGraph) -> ShortcutWitness | None:
    """First shortcut witness under deterministic ordering, or None.

    For every directed edge (a, b) in lexicographic order, enumerate
    directed a->..->b paths depth-first (smallest next vertex first);
    a path of length >= 3 whose vertex set induces a non-transitive
    subgraph yields the witness.  The input must be acyclic.
    """
    n = og.n
    reach = _descendants(og.out, n)
    if reach is None:
        raise ValueError("orientation contains a directed cycle")
    for a in range(n):
        for b in _bits(og.out[a]):
            witness = _shortcut_via_edge(og, a, b, reach)
            if witness is not None:
                return witness
    return None


def _shortcut_via_edge(
    og: OrientedGraph, a: int, b: int, reach: Sequence[int]
) -> ShortcutWitness | None:
    """The depth-first a->..->b path walk of ``find_shortcut``, run as a
    loop over an explicit stack of untried next vertices (one iterator
    per path vertex), so a long path does not exhaust Python's
    recursion limit."""
    out = og.out
    path, on_path = [a], 1 << a
    stack = [iter(_bits(out[a]))]
    while stack:
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            on_path ^= 1 << path.pop()
        elif w == b:
            if len(path) >= 3:
                p = path + [b]
                for i, pi in enumerate(p):
                    for pj in p[i + 1:]:
                        if not out[pi] >> pj & 1:
                            return ShortcutWitness(tuple(p), (a, b), (pi, pj))
        elif reach[w] >> b & 1:
            path.append(w)
            on_path |= 1 << w
            stack.append(iter(_bits(out[w] & ~on_path)))
    return None
