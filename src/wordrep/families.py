"""Deterministic generators for the named graphs and parametric graph
families this package studies, plus the canonical semi-transitive
orientations and explicit representing words where those exist.

Label conventions.  Figure transcriptions shift the customary 1-based
drawing labels down by one, so vertex i in a drawing becomes i-1 here.
For the triangle-crowned cliques, clique vertex i (1..l) becomes i-1
and the attachment vertex i' becomes l+i-1; generators note their own
mapping where it differs.

Every fixed transcription carries its expected vertex count, edge count
and degree sequence as an embedded self-check, so a mistranscribed edge
fails fast rather than poisoning downstream results.
"""

from __future__ import annotations

from .graphs import Graph
from .orient import OrientedGraph
from .words import Word


def _checked(n: int, edges: list[tuple[int, int]], degseq: tuple[int, ...]) -> Graph:
    g = Graph(n, edges)
    if g.edge_count != len(edges) or g.degree_sequence() != degseq:
        raise AssertionError(
            f"transcription self-check failed: n={n}, "
            f"edges={g.edge_count}/{len(edges)}, degrees={g.degree_sequence()}"
        )
    return g


# ---------------------------------------------------------------------------
# Parametric families.


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
    """The standard semi-transitive orientation of k_triangle(l): the
    clique runs 0 -> 1 -> ... -> l-1, attachment vertices l+i for
    i < l-1 are sinks (i -> l+i and i+1 -> l+i), and the last one is
    threaded 0 -> 2l-1 -> l-1.  This is k_ell_k_canonical_orientation(l, 2)."""
    if l < 3:
        raise ValueError("k_triangle needs l >= 3")
    return k_ell_k_canonical_orientation(l, 2)


def k_triangle_odd_word(l: int) -> Word:
    """The explicit 2-uniform word representing k_triangle(l) for odd l.

    Built from the double permutation of the clique with each
    attachment vertex spliced in around its two neighbours: blocks
    i' i (i+1) i' for odd i, then l' l 1 l', then the even-i blocks.
    Letters are the 0-based vertex labels of k_triangle(l).
    """
    if l < 3 or l % 2 == 0:
        raise ValueError("the explicit word needs odd l >= 3")
    blocks: list[int] = []

    def attach(i: int) -> int:  # 1-based attachment label i' -> vertex index
        return l + i

    for i in range(1, l - 1, 2):
        blocks += [attach(i), i, i + 1, attach(i)]
    blocks += [attach(l), l, 1, attach(l)]
    for i in range(2, l, 2):
        blocks += [attach(i), i, i + 1, attach(i)]
    return tuple(c - 1 for c in blocks)


def a_graph(l: int) -> Graph:
    """k_triangle(l-1) plus an apex adjacent to all l-1 clique vertices;
    a minimal non-word-representable split graph for every l >= 4.

    2l-1 vertices: clique 0..l-2, attachments l-1..2l-3, apex 2l-2.
    """
    if l < 4:
        raise ValueError("a_graph needs l >= 4")
    base = k_triangle(l - 1)
    apex = base.n
    edges = base.edges() + [(v, apex) for v in range(l - 1)]
    g = Graph(apex + 1, edges)
    assert g.n == 2 * l - 1
    return g


def k_ell_k(l: int, k: int) -> Graph:
    """The clique K_l drawn on a circle plus l independent vertices,
    vertex l+i adjacent to the k circularly consecutive clique vertices
    i, i+1, ..., i+k-1 (mod l).  Requires l >= 2k-1, which also keeps
    the l neighbourhoods distinct."""
    if k < 1:
        raise ValueError("k_ell_k needs k >= 1")
    if l < 2 * k - 1:
        raise ValueError("k_ell_k needs l >= 2k-1")
    edges = [(u, v) for u in range(l) for v in range(u + 1, l)]
    for i in range(l):
        for j in range(k):
            edges.append(((i + j) % l, l + i))
    g = Graph(2 * l, edges)
    assert g.edge_count == l * (l - 1) // 2 + l * k
    return g


def k_ell_k_canonical_orientation(l: int, k: int) -> OrientedGraph:
    """Orientation of k_ell_k(l, k) with the clique run 0 -> ... -> l-1:
    an independent vertex whose window does not wrap becomes a sink
    (type B); a wrapping window splits into an incoming prefix from the
    clique source side and an outgoing suffix into the sink side
    (type C)."""
    g = k_ell_k(l, k)
    arcs = [(u, v) for u in range(l) for v in range(u + 1, l)]
    for i in range(l):
        w = l + i
        if i + k - 1 < l:
            arcs.extend((c, w) for c in range(i, i + k))
        else:
            arcs.extend((c, w) for c in range(0, i + k - l))
            arcs.extend((w, c) for c in range(i, l))
    return OrientedGraph(g, arcs)


def cycle(m: int) -> Graph:
    if m < 3:
        raise ValueError("cycle needs m >= 3")
    return Graph(m, [(i, (i + 1) % m) for i in range(m)])


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    full = (1 << n) - 1
    return Graph._from_adj(n, tuple(full ^ 1 << v for v in range(n)))


def empty(n: int) -> Graph:
    return Graph(n)


def two_k2() -> Graph:
    return Graph(4, [(0, 1), (2, 3)])


def wheel5() -> Graph:
    """C5 plus an apex: the unique non-word-representable graph on six
    vertices."""
    rim = [(i, (i + 1) % 5) for i in range(5)]
    return _checked(6, rim + [(i, 5) for i in range(5)], (3, 3, 3, 3, 3, 5))


# ---------------------------------------------------------------------------
# Fixed transcriptions of the named small graphs.  T1-T3 are the three
# minimal non-word-representable split graphs on 7 vertices, T4 the
# minimal one on 8 with clique size 4; B1-B3 are the forbidden induced
# subgraphs for split comparability graphs; CO_T2 and FIG4_RIGHT are
# the two classic non-word-representable graphs all of whose vertex
# neighbourhoods are comparability graphs; FIG2_EXAMPLE is the 4-vertex
# demonstration graph represented by the word 0102312; M and M1-M6 are
# the maximal configurations analysed for the clique-size-4
# characterization.


def _t1() -> Graph:
    # clique {1,2,4,6}; 0 ~ {1,2}, 3 ~ {1,4}, 5 ~ {2,4}; equals a_graph(4)
    # up to relabelling
    return _checked(
        7,
        [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (1, 6), (2, 4), (2, 5),
         (2, 6), (3, 4), (4, 5), (4, 6)],
        (2, 2, 2, 3, 5, 5, 5),
    )


def _t2() -> Graph:
    # clique {0,1,2,3}; three degree-2 vertices all riding on vertex 1:
    # 4 ~ {1,2}, 5 ~ {1,3}, 6 ~ {0,1}
    return _checked(
        7,
        [(0, 1), (0, 2), (0, 3), (0, 6), (1, 2), (1, 3), (1, 4), (1, 5),
         (1, 6), (2, 3), (2, 4), (3, 5)],
        (2, 2, 2, 4, 4, 4, 6),
    )


def _t3() -> Graph:
    # clique {0,1,2,3}; 4 ~ {1,2,3}, 5 ~ {0,1,2}, 6 ~ {0,1,3}
    return _checked(
        7,
        [(0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4),
         (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (3, 4), (3, 6)],
        (3, 3, 3, 5, 5, 5, 6),
    )


def _t4() -> Graph:
    # clique {0,1,2,3}; 4 ~ {0,1}, 5 ~ {0,1,2}, 6 ~ {0,3}, 7 ~ {0,2,3}
    return _checked(
        8,
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 2),
         (1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (2, 7), (3, 6), (3, 7)],
        (2, 2, 3, 3, 5, 5, 5, 7),
    )


def _b1() -> Graph:
    # the net: triangle {1,2,3} with pendants 0, 4, 5
    return _checked(
        6,
        [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5)],
        (1, 1, 1, 3, 3, 3),
    )


def _b2() -> Graph:
    # the 3-sun: triangle {1,2,4} with 0 ~ {1,2}, 3 ~ {1,4}, 5 ~ {2,4}
    return _checked(
        6,
        [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 4), (4, 5)],
        (2, 2, 2, 4, 4, 4),
    )


def _b3() -> Graph:
    # triangle {1,3,4} with 0 ~ {1,3}, 2 ~ {1,4}, pendants 5 on 3 and 6 on 4
    return _checked(
        7,
        [(0, 1), (0, 3), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4), (3, 5), (4, 6)],
        (1, 1, 2, 2, 4, 4, 4),
    )


def _co_t2() -> Graph:
    # complement of the spider tree with three legs of length two
    return _checked(
        7,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (1, 6), (2, 3),
         (2, 4), (2, 5), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)],
        (3, 4, 4, 4, 5, 5, 5),
    )


def _fig4_right() -> Graph:
    return _checked(
        7,
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4),
         (2, 5), (3, 6), (4, 6), (5, 6)],
        (3, 3, 3, 3, 4, 4, 4),
    )


def _fig2_example() -> Graph:
    return _checked(4, [(0, 1), (1, 2), (1, 3), (2, 3)], (1, 2, 2, 3))


def _m_core(extra: list[tuple[int, ...]]) -> Graph:
    """Clique {0,1,2,3} plus independent vertices with the given clique
    neighbourhoods, labelled 4, 5, ... in order."""
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    for i, nbrs in enumerate(extra):
        edges.extend((c, 4 + i) for c in nbrs)
    return Graph(4 + len(extra), edges)


def _m() -> Graph:
    g = _m_core([(0, 1, 2), (0, 2, 3), (0, 1), (1, 2), (2, 3), (0, 3)])
    assert g.degree_sequence() == (2, 2, 2, 2, 3, 3, 6, 6, 7, 7)
    return g


def _m1() -> Graph:
    g = _m_core([(0, 1, 2), (0, 2, 3), (1, 2), (2, 3), (0, 3)])
    assert g.degree_sequence() == (2, 2, 2, 3, 3, 5, 6, 6, 7)
    return g


def _m2() -> Graph:
    g = _m_core([(0, 2, 3), (0, 1), (1, 2), (2, 3), (0, 3)])
    assert g.degree_sequence() == (2, 2, 2, 2, 3, 5, 6, 6, 6)
    return g


def _m3() -> Graph:
    g = _m_core([(0, 2, 3), (1, 2), (2, 3), (0, 3)])
    assert g.degree_sequence() == (2, 2, 2, 3, 4, 5, 6, 6)
    return g


def _m4() -> Graph:
    g = _m_core([(0, 1, 2), (1, 2), (2, 3), (0, 3)])
    assert g.degree_sequence() == (2, 2, 2, 3, 5, 5, 5, 6)
    return g


def _m5() -> Graph:
    g = _m_core([(0, 1, 2), (0, 2, 3), (2, 3), (0, 3)])
    assert g.degree_sequence() == (2, 2, 3, 3, 4, 6, 6, 6)
    return g


def _m6() -> Graph:
    g = _m_core([(0, 1, 2), (0, 2, 3), (1, 2), (0, 3)])
    assert g.degree_sequence() == (2, 2, 3, 3, 5, 5, 6, 6)
    return g


_FIXED = {
    "T1": _t1,
    "T2": _t2,
    "T3": _t3,
    "T4": _t4,
    "W5": wheel5,
    "B1": _b1,
    "B2": _b2,
    "B3": _b3,
    "CO_T2": _co_t2,
    "FIG4_RIGHT": _fig4_right,
    "FIG2_EXAMPLE": _fig2_example,
    "M": _m,
    "M1": _m1,
    "M2": _m2,
    "M3": _m3,
    "M4": _m4,
    "M5": _m5,
    "M6": _m6,
    "TWO_K2": two_k2,
}

_PARAMETRIC = {
    "K_TRIANGLE": (k_triangle, 1),
    "A_GRAPH": (a_graph, 1),
    "K_L_K": (k_ell_k, 2),
    "C": (cycle, 1),
    "K": (complete, 1),
    "EMPTY": (empty, 1),
}


def family_tags() -> list[str]:
    return sorted(_FIXED) + sorted(_PARAMETRIC)


def named(tag: str, *params: int) -> Graph:
    """Build a named graph; parametric families take their parameters
    as extra arguments (e.g. named("K_TRIANGLE", 6))."""
    if tag in _FIXED:
        if params:
            raise ValueError(f"{tag} takes no parameters")
        return _FIXED[tag]()
    if tag in _PARAMETRIC:
        fn, arity = _PARAMETRIC[tag]
        if len(params) != arity:
            raise ValueError(f"{tag} takes {arity} parameter(s), got {len(params)}")
        return fn(*params)
    raise ValueError(f"unknown graph tag {tag!r}; known: {', '.join(family_tags())}")


def canonical_orientation(tag: str, *params: int) -> OrientedGraph:
    """The canonical semi-transitive orientation for families that have
    one (K_TRIANGLE and K_L_K)."""
    if tag == "K_TRIANGLE":
        (l,) = params
        return k_triangle_canonical_orientation(l)
    if tag == "K_L_K":
        l, k = params
        return k_ell_k_canonical_orientation(l, k)
    raise ValueError(f"no canonical orientation defined for {tag}")
