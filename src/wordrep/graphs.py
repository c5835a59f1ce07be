"""Small simple graphs: bitmask adjacency, graph6 text I/O, induced
subgraphs, isomorphism testing, canonical forms with automorphism
generators, and exhaustive enumeration of isomorphism classes.

Vertices are always the integers 0..n-1.  A graph stores one adjacency
bitmask per vertex, which keeps the search loops elsewhere in this
package (orientation backtracking, censuses over all graphs of a given
order) fast enough in pure Python.  Graphs are immutable value objects,
every function returns fresh values, and the module keeps no state.
Enumeration tries one mask per orbit of a parent's automorphisms and
streams each class as it is accepted, so it holds one chain of parents
and neither a catalogue nor a set of forms.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator

GRAPH6_MAX_N = 62     # short-form graph6 only
ENUMERATION_GUARD = 8  # enumerate_graphs refuses larger n unless overridden


class Graph6Error(ValueError):
    """Malformed graph6 text.  ``offset`` is the offending byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    ``adj[u]`` is a bitmask with bit v set iff {u,v} is an edge; the
    relation is kept symmetric and loop-free by construction.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)

    @classmethod
    def _from_adj(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """Internal fast constructor; ``adj`` must already be consistent."""
        g = object.__new__(cls)
        g.n = n
        g.adj = adj
        return g

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def neighbors(self, u: int) -> list[int]:
        return _bits(self.adj[u])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            m = self.adj[u] >> (u + 1) << (u + 1)
            while m:
                lb = m & -m
                out.append((u, lb.bit_length() - 1))
                m ^= lb
        return out

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(m.bit_count() for m in self.adj))

    def delete_vertex(self, v: int) -> "Graph":
        """Induced subgraph on all vertices but v (relabelled)."""
        return induced_subgraph(self, [u for u in range(self.n) if u != v])

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self.edges()!r})"


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        lb = mask & -mask
        out.append(lb.bit_length() - 1)
        mask ^= lb
    return out


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen, frontier = 1, [0]
    while frontier:
        v = frontier.pop()
        rest = g.adj[v] & ~seen
        seen |= rest
        frontier.extend(_bits(rest))
    return seen == (1 << g.n) - 1


# ---------------------------------------------------------------------------
# graph6 text format (short form, n <= 62): one printable line per graph.
# Header byte encodes n+63; the upper triangle follows column by column,
# packed 6 bits per byte, each byte offset by 63: writer and parser walk it alike.


def write_graph6(g: Graph) -> str:
    if g.n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 short form supports n <= {GRAPH6_MAX_N}, got {g.n}")
    chars = [chr(g.n + 63)]
    acc = 0
    nbits = 0
    for v in range(1, g.n):
        col = g.adj[v]
        for u in range(v):
            acc = acc << 1 | (col >> u & 1)
            nbits += 1
            if nbits == 6:
                chars.append(chr(acc + 63))
                acc = nbits = 0
    if nbits:
        chars.append(chr((acc << (6 - nbits)) + 63))
    return "".join(chars)


def parse_graph6(text: str) -> Graph:
    line = text.rstrip("\r\n")
    base = 0
    if line.startswith(">>graph6<<"):
        base = len(">>graph6<<")
        line = line[base:]
    if not line:
        raise Graph6Error("empty graph6 line", base)
    head = ord(line[0])
    if head == 126:
        raise Graph6Error(f"long-form graph6 (n > {GRAPH6_MAX_N}) not supported", base)
    if not 63 <= head <= 126:
        raise Graph6Error(f"invalid header byte {head}", base)
    n = head - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(line) - 1 < nbytes:
        raise Graph6Error(
            f"truncated bit field: need {nbytes} data bytes, got {len(line) - 1}",
            base + len(line),
        )
    if len(line) - 1 > nbytes:
        raise Graph6Error("trailing data after graph6 encoding", base + 1 + nbytes)
    bits = 0
    for i in range(1, 1 + nbytes):
        c = ord(line[i])
        if not 63 <= c <= 126:
            raise Graph6Error(f"data byte {c} out of range 63..126", base + i)
        bits = bits << 6 | (c - 63)
    if bits & ((1 << (6 * nbytes - nbits)) - 1):
        raise Graph6Error("non-zero padding bits in the last data byte", base + nbytes)
    adj = [0] * n
    shift = 6 * nbytes
    for v in range(1, n):
        for u in range(v):
            shift -= 1
            if bits >> shift & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph._from_adj(n, tuple(adj))


# ---------------------------------------------------------------------------
# Induced subgraphs and embeddings.  One backtracking matcher, ``_match``,
# serves induced-subgraph search and isomorphism testing alike.


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Induced subgraph on ``vertices``, relabelled 0..k-1 in ascending
    order of the original labels."""
    vs = sorted(vertices)
    for i, v in enumerate(vs):
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
        if i and vs[i - 1] == v:
            raise ValueError(f"duplicate vertex {v}")
    k = len(vs)
    adj = [0] * k
    for i in range(k):
        row = g.adj[vs[i]]
        for j in range(i + 1, k):
            if row >> vs[j] & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph._from_adj(k, tuple(adj))


class Embedding(namedtuple("Embedding", "mapping")):
    """Injective map pattern-vertex -> host-vertex realising an induced copy.

    ``mapping[i]`` is the host vertex that pattern vertex i lands on.
    """

    __slots__ = ()

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(self.mapping))

    def is_valid(self, host: Graph, pattern: Graph) -> bool:
        m = self.mapping
        if len(m) != pattern.n or len(set(m)) != len(m):
            return False
        if any(not 0 <= w < host.n for w in m):
            return False
        for a in range(pattern.n):
            for b in range(a + 1, pattern.n):
                if pattern.adjacent(a, b) != host.adjacent(m[a], m[b]):
                    return False
        return True


def _match(
    host: Graph, pattern: Graph, order: list[int], candidates: list[list[int]]
) -> list[int] | None:
    """First map (indexed by pattern vertex) sending each ``order[i]`` to
    a host vertex from ``candidates[i]``, tried in list order, such that
    adjacency among matched vertices agrees both ways; or None."""
    k = len(order)
    mapping = [-1] * pattern.n
    if not k:
        return mapping
    # back[i]: the neighbours of order[i] matched before it
    back = [[u for u in order[:i] if pattern.adj[v] >> u & 1] for i, v in enumerate(order)]
    # an entry (depth, untried candidates, used host vertices, the used
    # ones the image must see) is pushed back before its child
    stack = [(0, iter(candidates[0]), 0, 0)]
    while stack:
        i, rest, used, want = stack.pop()
        for w in rest:
            if not used >> w & 1 and host.adj[w] & used == want:
                break
        else:
            continue
        stack.append((i, rest, used, want))
        mapping[order[i]] = w
        i += 1
        if i == k:
            return mapping
        want = 0
        for u in back[i]:
            want |= 1 << mapping[u]
        stack.append((i, iter(candidates[i]), used | 1 << w, want))
    return None


def contains_induced(host: Graph, pattern: Graph) -> Embedding | None:
    """First embedding of ``pattern`` as an induced subgraph of ``host``,
    or None.

    Pattern vertices are matched in label order and host candidates are
    tried in ascending order, so the returned embedding is the
    lexicographically least one.
    """
    np_, nh = pattern.n, host.n
    if np_ > nh:
        return None
    # candidates[v]: host vertices with at least v's degree and non-degree
    hdeg = [host.degree(w) for w in range(nh)]
    candidates = [[w for w in range(nh) if hdeg[w] >= d and nh - hdeg[w] >= np_ - d]
                  for d in (pattern.degree(v) for v in range(np_))]
    mapping = _match(host, pattern, list(range(np_)), candidates)
    return None if mapping is None else Embedding(tuple(mapping))


# ---------------------------------------------------------------------------
# Isomorphism.  Colour refinement narrows the candidate maps and the
# shared matcher settles the question; with individualisation it also
# gives canonical forms (adequate for small graphs, not nauty-grade).


def _refine(nbrs: list[list[int]], colors: list[int]) -> list[int]:
    """Coarsest stable refinement of ``colors``, one per vertex v with
    neighbours ``nbrs[v]``.  Colours are renamed from sorted signatures
    each round, so the result keeps the input colours' order and depends
    on the colour structure alone, not on vertex labels: equal colour
    multisets on two graphs mean refinement cannot tell them apart."""
    ncolors = len(set(colors))
    while True:
        sigs = [(c, tuple(sorted([colors[w] for w in nb]))) for c, nb in zip(colors, nbrs)]
        names = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [names[s] for s in sigs]
        if len(names) in (ncolors, len(colors)):  # stable, or discrete and so stable
            return colors
        ncolors = len(names)


def _twins(adj: tuple[int, ...], u: int, v: int) -> bool:
    """u and v have equal neighbourhoods apart from each other."""
    return (adj[u] ^ adj[v]) & ~(1 << u | 1 << v) == 0


def _refine_colors(g: Graph) -> list[int]:
    """Stable colouring of g refined from its degrees."""
    nbrs = [_bits(m) for m in g.adj]
    return _refine(nbrs, [len(nb) for nb in nbrs])


def iso_invariant(g: Graph) -> tuple:
    """Cheap isomorphism invariant: what ``is_isomorphic`` compares
    before it matches."""
    return (g.n, g.edge_count, tuple(sorted(_refine_colors(g))))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """True iff some bijection of vertex sets preserves adjacency both ways."""
    if g.adj == h.adj:
        return True
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    gc = _refine_colors(g)
    hc = _refine_colors(h)
    if sorted(gc) != sorted(hc):
        return False
    by_color: dict[int, list[int]] = {}
    for w, c in enumerate(hc):
        by_color.setdefault(c, []).append(w)
    # match most-constrained vertices first
    order = sorted(range(g.n), key=lambda v: (len(by_color[gc[v]]), -g.degree(v), v))
    return _match(h, g, order, [by_color[gc[v]] for v in order]) is not None


def _canonical_form(n: int, adj: tuple[int, ...], colors: list | None = None) -> tuple:
    """A complete invariant, equal forms iff isomorphic graphs, and maps
    p (v to p[v]) that generate the automorphisms keeping ``colors``.

    Individualisation-refinement (McKay-Piperno, *Practical graph
    isomorphism II*, 2014): refine ``colors`` (degrees by default);
    while a colour holds several vertices, branch on each vertex of the
    first such colour, giving it a colour just above its old one, and
    refine again.  The form is the largest adjacency read under a leaf's
    colours 0..n-1.  Every step sees the colours alone, so relabelling
    the graph permutes the leaves.  A leaf that reads the best adjacency
    again maps each vertex to the best leaf's vertex of its colour.  Of
    twins only the first is branched on; their swap maps its branch onto
    each pruned one, and is kept unless the swaps kept so far already
    join the two.  These maps generate the group.  Colouring one
    vertex above all degrees gives a rooted form, equal for two vertices
    iff an automorphism maps one to the other."""
    nbrs = [_bits(m) for m in adj]
    best, first, gens = (), [], []  # first[c]: the best leaf's vertex of colour c
    joined = list(range(n))  # joined[v]: v's class under the kept swaps (quick-find)
    stack = [_refine(nbrs, [len(nb) for nb in nbrs] if colors is None else colors)]
    while stack:
        colors = stack.pop()
        if len(set(colors)) == n:
            rows = [0] * n
            for v, nb in enumerate(nbrs):
                rows[colors[v]] = sum(1 << colors[w] for w in nb)
            if tuple(rows) == best:
                gens.append([first[c] for c in colors])
            elif tuple(rows) > best:
                best, first = tuple(rows), sorted(range(n), key=colors.__getitem__)
            continue
        target = min(c for c in colors if colors.count(c) > 1)
        kept: list[int] = []
        for v in [v for v, c in enumerate(colors) if c == target]:
            u = next((u for u in kept if _twins(adj, u, v)), None)
            if u is None:
                kept.append(v)
                stack.append(_refine(nbrs, [2 * d + (w == v) for w, d in enumerate(colors)]))
            elif joined[u] != joined[v]:
                joined = [joined[u] if c == joined[v] else c for c in joined]
                gens.append([v if w == u else u if w == v else w for w in range(n)])
    return best, gens


# ---------------------------------------------------------------------------
# Exhaustive enumeration of isomorphism classes by canonical augmentation
# (McKay, *Isomorph-free exhaustive generation*, J. Algorithms 1998) keeps a
# child when its mask is the least of its orbit under Aut(parent) and its new
# vertex is in its canonical orbit.  Twin swaps are among the generators of
# Aut(parent), so neither a set of rooted forms nor a list of twins is kept.
# Class counts for n = 0..8: 1, 1, 2, 4, 11, 34, 156, 1044, 12346.


def enumerate_graphs(n: int, *, allow_large: bool = False,
                     hereditary: Callable[[Graph], bool] | None = None) -> Iterator[Graph]:
    """Yield one representative per isomorphism class of simple graphs
    on n vertices, in a deterministic order.  Each call enumerates
    afresh and lazily: a class is yielded as soon as it is accepted.
    With ``hereditary``, an invariant closed under vertex deletion (being
    split, say), it yields just the classes that this accepts, unchanged.

    Guarded at n <= 8; pass allow_large=True to go beyond (the run time
    grows steeply).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > ENUMERATION_GUARD and not allow_large:
        raise ValueError(
            f"enumerate_graphs(n={n}) exceeds the guard ({ENUMERATION_GUARD}); "
            "pass allow_large=True to override"
        )
    yield from _catalog(n, hereditary)


def _last_vertex_canonical(adj: tuple[int, ...]) -> bool:
    """Whether the last vertex v lies in the canonical orbit.  Label-free
    keys pick that orbit, cheapest first: greatest degree, greatest
    sorted neighbour degrees, greatest rooted form.  Each key is an
    invariant, so the pick is an orbit of automorphisms; v's twins share
    v's orbit, so forms are read only when another vertex ties with v."""
    n = len(adj)
    v = n - 1
    deg = [m.bit_count() for m in adj]
    if deg[v] < max(deg):
        return False
    key = [sorted([deg[w] for w in _bits(m)]) if d == deg[v] else [] for m, d in zip(adj, deg)]
    if key[v] < max(key):
        return False
    ties = [u for u in range(v) if key[u] == key[v] and not _twins(adj, u, v)]
    forms = [_canonical_form(n, adj, [n if w == u else d for w, d in enumerate(deg)])[0]
             for u in [v] + ties] if ties else [()]
    return forms[0] == max(forms)


def _catalog(n: int, hereditary: Callable[[Graph], bool] | None = None) -> Iterator[Graph]:
    """Each class of order n-1, in catalogue order, followed by its
    ``_children``.  Each call enumerates afresh, yielding a child as it is
    kept and reading the parents from ``_catalog(n - 1, hereditary)``."""
    if n == 0:
        yield from [Graph(0)] if hereditary is None or hereditary(Graph(0)) else []
        return
    for parent in _catalog(n - 1, hereditary):
        yield from _children(n, parent.adj, hereditary)


def _children(n: int, padj: tuple[int, ...],
              hereditary: Callable[[Graph], bool] | None = None) -> Iterator[Graph]:
    """The children of order n of the class of order n-1 with adjacency
    padj: it gains vertex n-1 by the least mask of each orbit of its
    automorphisms, in increasing order.  A child is kept when n-1 is in
    its canonical orbit, so the parent is its canonical deletion, and
    ``hereditary``, if given, accepts it.  No two parents share a child,
    so the parents can be shared out among processes."""
    newbit = 1 << (n - 1)
    imgs = []  # img[m]: the image of mask m under one generator of Aut(parent)
    for p in _canonical_form(n - 1, padj)[1]:
        img = [0] * newbit
        for m in range(1, newbit):
            img[m] = img[m & m - 1] | 1 << p[(m & -m).bit_length() - 1]
        imgs.append(img)
    # with fewer bits than the parent's top degree, n-1 is not canonical, in all the orbit
    top, seen = max([r.bit_count() for r in padj], default=0), bytearray(newbit)
    for mask in range(newbit):
        if seen[mask] or mask.bit_count() < top:
            continue
        orbit = [mask]  # mask is the least of the orbit it opens
        for m in orbit:
            for img in imgs:
                if not seen[img[m]]:
                    seen[img[m]] = 1
                    orbit.append(img[m])
        adj = tuple(r | newbit if mask >> u & 1 else r for u, r in enumerate(padj)) + (mask,)
        if _last_vertex_canonical(adj):
            child = Graph._from_adj(n, adj)
            if hereditary is None or hereditary(child):
                yield child
