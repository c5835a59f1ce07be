"""Deterministic generators for the named graphs and parametric families
this package studies, with canonical semi-transitive orientations and
explicit representing words where those exist.

Most are split graphs, which ``_split`` builds: the clique on 0..m-1,
then independent vertices m, m+1, ... attached to listed clique subsets.
The other fixed graphs are edge lists, transcribed from 1-based drawings
shifted down by one.  Every fixed graph carries its degree sequence, and
so its vertex count, as a self-check that raises on a mistranscribed or
duplicate edge.  ``_TABLE`` maps every tag to its builder, its parameter
count, and its canonical orientation and explicit word where those exist.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

from .graphs import Graph
from .orient import OrientedGraph
from .split import _orient_along
from .words import Word


def _split(m: int, neighbourhoods: Sequence[Iterable[int]]) -> Graph:
    """The clique 0..m-1 plus independent vertices m, m+1, ..., the i-th
    adjacent to the clique vertices listed in ``neighbourhoods[i]``."""
    full = (1 << m) - 1
    adj = [full ^ 1 << v for v in range(m)]
    for w, nbrs in enumerate(neighbourhoods, m):
        mask = 0
        for c in nbrs:
            mask |= 1 << c
            adj[c] |= 1 << w
        adj.append(mask)
    return Graph._from_adj(len(adj), tuple(adj))


def _windows(l: int, k: int) -> list[list[int]]:
    """The l windows of k circularly consecutive vertices of 0..l-1."""
    return [[(i + j) % l for j in range(k)] for i in range(l)]


def k_triangle(l: int) -> Graph:
    """The clique K_l with one degree-2 vertex per cyclically consecutive
    clique pair: vertex l+i is adjacent to i and (i+1) mod l.

    This is k_ell_k(l, 2): 2l vertices and C(l,2) + 2l edges; split
    with clique 0..l-1.
    """
    if l < 3:
        raise ValueError("k_triangle needs l >= 3")
    return k_ell_k(l, 2)


def k_triangle_canonical_orientation(l: int) -> OrientedGraph:
    """k_ell_k_canonical_orientation(l, 2): the clique runs 0 -> ... ->
    l-1, l+i is a sink for i < l-1, and 2l-1 is threaded 0 -> 2l-1 -> l-1."""
    return _orient_along(k_triangle(l), range(l))


def k_triangle_odd_word(l: int) -> Word:
    """The explicit 2-uniform word representing k_triangle(l) for odd l.

    Built from the double permutation of the clique with each
    attachment vertex spliced in around its two neighbours: blocks
    i' i (i+1) i' for odd i, then l' l 1 l', then the even-i blocks.
    Letters are the 0-based vertex labels of k_triangle(l).
    """
    if l < 3 or l % 2 == 0:
        raise ValueError("the explicit word needs odd l >= 3")
    order = [*range(1, l - 1, 2), l, *range(2, l, 2)]  # 1-based; attachment i' is l+i
    return tuple(c - 1 for i in order for c in (l + i, i, i % l + 1, l + i))


def a_graph(l: int) -> Graph:
    """k_triangle(l-1) plus an apex adjacent to all l-1 clique vertices;
    a minimal non-word-representable split graph for every l >= 4.

    2l-1 vertices: clique 0..l-2, attachments l-1..2l-3, apex 2l-2.
    """
    if l < 4:
        raise ValueError("a_graph needs l >= 4")
    return _split(l - 1, _windows(l - 1, 2) + [range(l - 1)])


def k_ell_k(l: int, k: int) -> Graph:
    """The clique K_l drawn on a circle plus l independent vertices,
    vertex l+i adjacent to the k circularly consecutive clique vertices
    i, i+1, ..., i+k-1 (mod l).  Requires l >= 2k-1, which also keeps
    the l neighbourhoods distinct."""
    if k < 1:
        raise ValueError("k_ell_k needs k >= 1")
    if l < 2 * k - 1:
        raise ValueError("k_ell_k needs l >= 2k-1")
    return _split(l, _windows(l, k))


def k_ell_k_canonical_orientation(l: int, k: int) -> OrientedGraph:
    """k_ell_k(l, k) oriented along the clique path 0 -> ... -> l-1: a
    window that does not wrap makes a sink (type B), a wrapping one a
    type-C vertex, in from the prefix and out to the suffix."""
    return _orient_along(k_ell_k(l, k), range(l))


def cycle(m: int) -> Graph:
    if m < 3:
        raise ValueError("cycle needs m >= 3")
    return Graph(m, [(i, (i + 1) % m) for i in range(m)])


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    return _split(n, ())


# ---------------------------------------------------------------------------
# The registry.  T1-T3 are the three minimal non-word-representable split
# graphs on 7 vertices, T4 the minimal one on 8 with clique size 4; W5 (C5
# plus an apex) is the unique non-word-representable graph on six vertices;
# B1-B3 are the forbidden induced subgraphs for split comparability graphs;
# CO_T2 and FIG4_RIGHT are the two classic non-word-representable graphs all
# of whose vertex neighbourhoods are comparability graphs; FIG2_EXAMPLE is
# the 4-vertex demonstration graph represented by the word 0102312; M and
# M1-M6 are the maximal configurations analysed for the clique-size-4
# characterization.  A _Family holds build(*params) -> Graph, its parameter
# count, and the builders of the canonical orientation and the explicit word,
# or None where those do not exist.
_Family = namedtuple("_Family", "build arity orientation word", defaults=(0, None, None))


def _checked(g: Graph, edges: int, degrees: tuple[int, ...]) -> Graph:
    if g.edge_count != edges or g.degree_sequence() != degrees:
        raise AssertionError(f"transcription self-check failed: n={g.n}, "
                             f"edges={g.edge_count}/{edges}, degrees={g.degree_sequence()}")
    return g


def _edge_list(degrees: tuple[int, ...], edges: list[tuple[int, int]]) -> _Family:
    """A fixed graph on len(degrees) vertices."""
    return _Family(lambda: _checked(Graph(len(degrees), edges), len(edges), degrees))


def _clique(m: int, degrees: tuple[int, ...], *neighbourhoods: tuple[int, ...]) -> _Family:
    """A fixed split graph: ``_split(m, neighbourhoods)``."""
    edges = m * (m - 1) // 2 + sum(map(len, neighbourhoods))
    return _Family(lambda: _checked(_split(m, neighbourhoods), edges, degrees))


_TABLE = {
    # clique {1,2,4,6}; 0 ~ {1,2}, 3 ~ {1,4}, 5 ~ {2,4}; a_graph(4) relabelled
    "T1": _edge_list((2, 2, 2, 3, 5, 5, 5), [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (1, 6),
                                             (2, 4), (2, 5), (2, 6), (3, 4), (4, 5), (4, 6)]),
    # three degree-2 vertices all riding on clique vertex 1
    "T2": _clique(4, (2, 2, 2, 4, 4, 4, 6), (1, 2), (1, 3), (0, 1)),
    "T3": _clique(4, (3, 3, 3, 5, 5, 5, 6), (1, 2, 3), (0, 1, 2), (0, 1, 3)),
    "T4": _clique(4, (2, 2, 3, 3, 5, 5, 5, 7), (0, 1), (0, 1, 2), (0, 3), (0, 2, 3)),
    # rim 0-1-2-3-4-0, hub 5
    "W5": _edge_list((3, 3, 3, 3, 3, 5), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                                          (0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]),
    # the net: triangle {1,2,3} with pendants 0, 4, 5
    "B1": _edge_list((1, 1, 1, 3, 3, 3), [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5)]),
    # the 3-sun: triangle {1,2,4} with 0 ~ {1,2}, 3 ~ {1,4}, 5 ~ {2,4}
    "B2": _edge_list((2, 2, 2, 4, 4, 4), [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 4),
                                          (2, 5), (3, 4), (4, 5)]),
    # triangle {1,3,4} with 0 ~ {1,3}, 2 ~ {1,4}, pendants 5 on 3 and 6 on 4
    "B3": _edge_list((1, 1, 2, 2, 4, 4, 4), [(0, 1), (0, 3), (1, 2), (1, 3), (1, 4), (2, 4),
                                             (3, 4), (3, 5), (4, 6)]),
    # complement of the spider tree with three legs of length two
    "CO_T2": _edge_list((3, 4, 4, 4, 5, 5, 5), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4),
                                                (1, 6), (2, 3), (2, 4), (2, 5), (3, 5), (3, 6),
                                                (4, 5), (4, 6), (5, 6)]),
    "FIG4_RIGHT": _edge_list((3, 3, 3, 3, 4, 4, 4), [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2),
                                                     (1, 3), (1, 5), (2, 4), (2, 5), (3, 6),
                                                     (4, 6), (5, 6)]),
    "FIG2_EXAMPLE": _edge_list((1, 2, 2, 3), [(0, 1), (1, 2), (1, 3), (2, 3)]),
    "M": _clique(4, (2, 2, 2, 2, 3, 3, 6, 6, 7, 7),
                 (0, 1, 2), (0, 2, 3), (0, 1), (1, 2), (2, 3), (0, 3)),
    "M1": _clique(4, (2, 2, 2, 3, 3, 5, 6, 6, 7), (0, 1, 2), (0, 2, 3), (1, 2), (2, 3), (0, 3)),
    "M2": _clique(4, (2, 2, 2, 2, 3, 5, 6, 6, 6), (0, 2, 3), (0, 1), (1, 2), (2, 3), (0, 3)),
    "M3": _clique(4, (2, 2, 2, 3, 4, 5, 6, 6), (0, 2, 3), (1, 2), (2, 3), (0, 3)),
    "M4": _clique(4, (2, 2, 2, 3, 5, 5, 5, 6), (0, 1, 2), (1, 2), (2, 3), (0, 3)),
    "M5": _clique(4, (2, 2, 3, 3, 4, 6, 6, 6), (0, 1, 2), (0, 2, 3), (2, 3), (0, 3)),
    "M6": _clique(4, (2, 2, 3, 3, 5, 5, 6, 6), (0, 1, 2), (0, 2, 3), (1, 2), (0, 3)),
    "TWO_K2": _edge_list((1, 1, 1, 1), [(0, 1), (2, 3)]),
    "K_TRIANGLE": _Family(k_triangle, 1, k_triangle_canonical_orientation, k_triangle_odd_word),
    "A_GRAPH": _Family(a_graph, 1),
    "K_L_K": _Family(k_ell_k, 2, k_ell_k_canonical_orientation),
    "C": _Family(cycle, 1),
    "K": _Family(complete, 1),
    "EMPTY": _Family(Graph, 1),
}


def family_tags() -> list[str]:
    """The fixed tags, sorted, then the parametric ones, sorted."""
    return sorted(_TABLE, key=lambda tag: (_TABLE[tag].arity > 0, tag))


def _look_up(tag: str, params: tuple[int, ...]) -> _Family:
    if tag not in _TABLE:
        raise ValueError(f"unknown graph tag {tag!r}; known: {', '.join(family_tags())}")
    family = _TABLE[tag]
    if len(params) != family.arity:
        raise ValueError(f"{tag} takes {family.arity} parameter(s), got {len(params)}"
                         if family.arity else f"{tag} takes no parameters")
    return family


def named(tag: str, *params: int) -> Graph:
    """Build a named graph; parametric families take their parameters
    as extra arguments (e.g. named("K_TRIANGLE", 6))."""
    return _look_up(tag, params).build(*params)


def canonical_orientation(tag: str, *params: int) -> OrientedGraph:
    """The canonical semi-transitive orientation for families that have
    one (K_TRIANGLE and K_L_K)."""
    if getattr(_TABLE.get(tag), "orientation", None) is None:
        raise ValueError(f"no canonical orientation defined for {tag}")
    return _look_up(tag, params).orientation(*params)


def explicit_word(tag: str, *params: int) -> Word:
    """The explicit representing word for families that have one (odd
    K_TRIANGLE)."""
    if getattr(_TABLE.get(tag), "word", None) is None:
        raise ValueError(f"no explicit word defined for {tag}")
    return _look_up(tag, params).word(*params)
