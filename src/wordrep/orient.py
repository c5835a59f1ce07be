"""Directed machinery over undirected base graphs: transitivity,
shortcut detection, semi-transitivity, the search for semi-transitive
orientations that decides word-representability, and the search for
transitive orientations.

An orientation is semi-transitive when it is acyclic and shortcut-free.
A shortcut is an induced subdigraph on at least four vertices that is
acyclic and non-transitive, has a unique source s, a unique sink t, a
directed Hamiltonian s->t path, and the shortcutting edge s->t.  A
graph is word-representable exactly when it admits a semi-transitive
orientation, which turns the exhaustive search below into a decision
procedure.

The shortcut decision reads reachability and base adjacency alone, on
full orientations and the search's partial ones: an ancestor a of u
adjacent to a descendant b of a base non-neighbour v of u is a
shortcut even while {a, b} is undirected, since every acyclic
completion directs it a->b.  ``_add_arc`` closes reachability arc by
arc, for ``is_semi_transitive`` and for the one engine,
``semi_transitive_orientations``, which finds, counts and lists
orientations by a depth-first search over edge directions whose state
is the reachability closure alone, run as a loop over an explicit
stack.  Reversing every arc keeps an orientation semi-transitive, so
with no arc fixed it tries one direction of its first edge and yields
each orientation with its reverse.  Its test oracles are the brute
force ``all_orientations`` and the acyclicity test and path-enumerating
shortcut finder of ``tests/shortcut_witness.py``, which keep their own
reachability.  Transitive orientations come from Golumbic's
G-decomposition; a graph without one has a ``forcing_chain``."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .graphs import Graph, _bits


class OracleDisagreement(AssertionError):
    """Two routes that must agree produced different answers.

    This never fires unless an internal cross-check (or one of the
    structure theorems the package encodes) fails on a concrete input;
    such an input is signal, not noise, and should be reported.
    """


class OrientedGraph:
    """An undirected base graph plus one direction per edge.

    ``out[u]`` masks the heads of edges leaving u.  Exactly one of
    u->v, v->u holds for every base edge {u,v}.
    """

    __slots__ = ("base", "out")

    def __init__(self, base: Graph, directed_edges: Iterable[tuple[int, int]]):
        out = [0] * base.n
        seen = [0] * base.n
        for a, b in directed_edges:
            if not base.adjacent(a, b):
                raise ValueError(f"({a},{b}) is not an edge of the base graph")
            if seen[a] >> b & 1 or seen[b] >> a & 1:
                raise ValueError(f"edge {{{a},{b}}} directed more than once")
            seen[a] |= 1 << b
            seen[b] |= 1 << a
            out[a] |= 1 << b
        for u in range(base.n):
            if seen[u] != base.adj[u]:
                raise ValueError(f"edges at vertex {u} left undirected")
        self.base = base
        self.out = tuple(out)

    @classmethod
    def _from_out(cls, base: Graph, out: tuple[int, ...]) -> "OrientedGraph":
        og = object.__new__(cls)
        og.base = base
        og.out = out
        return og

    @property
    def n(self) -> int:
        return self.base.n

    def has_arc(self, a: int, b: int) -> bool:
        return bool(self.out[a] >> b & 1)

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.out[u])]

    def reversed_at(self, x: int) -> "OrientedGraph":
        """Copy with every edge at vertex x flipped."""
        out = list(self.out)
        for w in _bits(self.base.adj[x]):
            if out[x] >> w & 1:
                out[x] &= ~(1 << w)
                out[w] |= 1 << x
            else:
                out[w] &= ~(1 << x)
                out[x] |= 1 << w
        return OrientedGraph._from_out(self.base, tuple(out))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrientedGraph)
            and self.base == other.base
            and self.out == other.out
        )

    def __hash__(self) -> int:
        return hash((self.base, self.out))

    def __repr__(self) -> str:
        return f"OrientedGraph({self.base.n}, {self.arcs()!r})"


def all_orientations(g: Graph) -> Iterator[OrientedGraph]:
    """All 2^|E| orientations of g, in lexicographic bitstring order."""
    edges = g.edges()
    for mask in range(1 << len(edges)):
        out = [0] * g.n
        for i, (u, v) in enumerate(edges):
            if mask >> i & 1:
                out[v] |= 1 << u
            else:
                out[u] |= 1 << v
        yield OrientedGraph._from_out(g, tuple(out))


# ---------------------------------------------------------------------------
# Serialization: "graph6 + direction bitstring" for exact round trips
# (one bit per edge in lexicographic edge order, 0 = low->high), and
# DOT digraph text for human inspection.


def orientation_bits(og: OrientedGraph) -> str:
    return "".join(
        "0" if og.has_arc(u, v) else "1" for u, v in og.base.edges()
    )


def orient_by_bits(g: Graph, bits: str) -> OrientedGraph:
    edges = g.edges()
    if len(bits) != len(edges) or any(c not in "01" for c in bits):
        raise ValueError(f"need {len(edges)} direction bits, got {bits!r}")
    out = [0] * g.n
    for (u, v), c in zip(edges, bits):
        if c == "0":
            out[u] |= 1 << v
        else:
            out[v] |= 1 << u
    return OrientedGraph._from_out(g, tuple(out))


def to_dot(og: OrientedGraph) -> str:
    lines = ["digraph G {"]
    isolated = [v for v in range(og.n) if og.base.adj[v] == 0]
    for v in isolated:
        lines.append(f"  {v};")
    for a, b in og.arcs():
        lines.append(f"  {a} -> {b};")
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Transitivity and the shortcut decision.


def is_transitive(og: OrientedGraph) -> bool:
    """Is the arc relation transitively closed (u->v->z implies u->z)?"""
    for u in range(og.n):
        succ = 0
        for v in _bits(og.out[u]):
            succ |= og.out[v]
        if succ & ~og.out[u]:
            return False
    return True


def _has_shortcut(adj: Sequence[int], reach: Sequence[int], anc: Sequence[int],
                  scope: int) -> bool:
    """Shortcut decision on an acyclic, full or partial orientation of
    the base graph ``adj``, given ``reach[v]``/``anc[v]``, the
    descendants/ancestors of v, v included, for u and v (below) in the
    mask ``scope``.

    A shortcut exists iff there are vertices u, v, non-adjacent in the
    base graph, with u reaching v, and a base edge {a, b} such that a
    reaches u and v reaches b.  Then a reaches b, so every acyclic
    completion directs the edge a->b, and a->..->u->..->v->..->b is a
    path of length >= 3 below the shortcutting edge a->b whose vertex
    set induces a non-transitive subgraph (the pair (u,v) is missing).
    So a hit on a partial orientation survives every completion, and on
    a full one the test reads the same as with arcs.  One of the three
    reachabilities of a shortcut that a new arc x->y creates runs
    through it, so u and v are both ancestors of x or descendants of y:
    after each arc, the engine's scope.
    """
    rest = scope
    while rest:
        lb = rest & -rest
        rest ^= lb
        u = lb.bit_length() - 1
        cand = reach[u] & scope & ~adj[u] & ~lb
        if cand:
            heads = 0
            for a in _bits(anc[u]):
                heads |= adj[a]
            for v in _bits(cand):
                if heads & reach[v]:
                    return True
    return False


# ---------------------------------------------------------------------------
# The reachability closure, semi-transitivity, and the decision
# procedure: depth-first search over edge directions with cycle and
# shortcut pruning on every assignment, run as a loop over an explicit
# stack.  A stack entry is one arc still to be placed: its
# level, its direction and its parent's reach/anc lists, which are
# copied when the entry is popped and never mutated, so siblings share
# them and nothing is undone.


def _add_arc(reach: list[int], anc: list[int], a: int, b: int) -> bool:
    """Direct a->b, closing ``reach``/``anc`` in place; False on a cycle.

    The closures are the whole search state: a base edge {a, b} is
    directed a->b exactly when a reaches b, so no arc masks are kept.
    """
    rb = reach[b]
    if rb >> a & 1:
        return False
    for w in _bits(anc[a]):
        reach[w] |= rb
    # descendants of b and ancestors of a are disjoint (no cycle)
    ab = anc[a]
    for w in _bits(rb):
        anc[w] |= ab
    return True


def _closure(n: int, arcs: Iterable[tuple[int, int]]) -> tuple[list[int], list[int]] | None:
    """``reach``/``anc`` of the digraph with these arcs on n vertices,
    each vertex in its own closures; None on a cycle."""
    reach = [1 << v for v in range(n)]
    anc = reach[:]
    for a, b in arcs:
        if not _add_arc(reach, anc, a, b):
            return None
    return reach, anc


def is_semi_transitive(og: OrientedGraph) -> bool:
    """Acyclic and shortcut-free."""
    closure = _closure(og.n, og.arcs())
    return closure is not None and not _has_shortcut(og.base.adj, *closure, (1 << og.n) - 1)


def semi_transitive_orientations(
    g: Graph, fixed: Iterable[tuple[int, int]] = ()
) -> Iterator[OrientedGraph]:
    """Every semi-transitive orientation of g containing the arcs in
    ``fixed``, each yielded once.

    The order is the depth-first order: free edges by descending
    endpoint-degree sum, then lexicographically, with u->v tried before
    v->u for u<v; with no arc fixed, the first free edge takes u->v only
    and each orientation is followed by its reverse.  Raises ValueError
    when a fixed arc is not an edge of g or is fixed twice.
    """
    n = g.n
    fixed = list(fixed)
    fixed_mask = [0] * n
    for a, b in fixed:
        if not (0 <= a < n and 0 <= b < n and g.adjacent(a, b)):
            raise ValueError(f"({a},{b}) is not an edge of g")
        if fixed_mask[a] >> b & 1:
            raise ValueError(f"edge {{{a},{b}}} fixed more than once")
        fixed_mask[a] |= 1 << b
        fixed_mask[b] |= 1 << a
    # one shortcut test after the last fixed arc: a hit on a partial
    # orientation survives every arc added later (``_has_shortcut``)
    closure = _closure(n, fixed)
    if closure is None or _has_shortcut(g.adj, *closure, (1 << n) - 1):
        return
    reach, anc = closure

    free = [(u, v) for u, v in g.edges() if not fixed_mask[u] >> v & 1]
    # most-constrained first: descending endpoint-degree sum, then lex
    free.sort(key=lambda e: (-(g.degree(e[0]) + g.degree(e[1])), e))
    if not free:
        yield OrientedGraph._from_out(g, tuple(map(int.__and__, g.adj, reach)))
        return
    last = len(free) - 1
    # v->u is pushed first so that u->v is explored first; with no arc
    # fixed, the first edge's v->u half is made of the reverses
    stack = [(0, flip, reach, anc) for flip in ((True, False) if fixed else (False,))]
    while stack:
        i, flip, reach, anc = stack.pop()
        reach, anc = reach[:], anc[:]
        a, b = free[i][::-1] if flip else free[i]
        if not _add_arc(reach, anc, a, b) or _has_shortcut(g.adj, reach, anc, anc[a] | reach[b]):
            continue
        if i == last:
            # every edge is placed: v's out-neighbours are the ones it
            # reaches, and in the reverse the ones that reach it
            yield OrientedGraph._from_out(g, tuple(map(int.__and__, g.adj, reach)))
            if not fixed:
                yield OrientedGraph._from_out(g, tuple(map(int.__and__, g.adj, anc)))
        else:
            stack.append((i + 1, True, reach, anc))
            stack.append((i + 1, False, reach, anc))


def find_semi_transitive_orientation(g: Graph) -> OrientedGraph | None:
    """Some semi-transitive orientation of g, or None when none exists.

    Exhaustive backtracking, hence a decision procedure; the result is
    the first orientation of ``semi_transitive_orientations(g)``.
    """
    og = next(semi_transitive_orientations(g), None)
    if og is not None and not is_semi_transitive(og):
        raise OracleDisagreement("the engine's orientation is not semi-transitive")
    return og


def is_word_representable(g: Graph) -> bool:
    """Decided via the orientation criterion: representable iff some
    semi-transitive orientation exists."""
    return find_semi_transitive_orientation(g) is not None


def count_semi_transitive_extensions(
    g: Graph, partial: Iterable[tuple[int, int]]
) -> int:
    """Number of semi-transitive orientations of g agreeing with the
    partial assignment.  Raises ValueError when an arc of ``partial`` is
    not an edge of g or an edge is fixed more than once."""
    return sum(1 for _ in semi_transitive_orientations(g, partial))


# ---------------------------------------------------------------------------
# Transitive orientations (comparability testing support): Golumbic's
# G-decomposition (*Algorithmic Graph Theory and Perfect Graphs*, 1980,
# Thm 5.1).  An implication class grows breadth first as a list of arcs
# with their parents' indices, its members kept as out-masks.


def _forced(adj: Sequence[int], a: int, b: int) -> list[tuple[int, int]]:
    """The arcs that a->b forces in the graph ``adj`` (Golumbic's Γ):
    a->c when c sees a but not b, and c->b when c sees b but not a.
    This is Γ stated arc by arc for the checker ``is_forcing_chain``;
    ``_implication_class`` applies the same rule to whole masks."""
    forced = [(a, c) for c in _bits(adj[a] & ~adj[b] & ~(1 << b))]
    return forced + [(c, b) for c in _bits(adj[b] & ~adj[a] & ~(1 << a))]


def _implication_class(adj: Sequence[int], u: int, v: int) -> tuple[list, list, bool]:
    """The implication class of u->v in the graph ``adj``: its arcs in
    breadth-first order, the index of the arc that forced each (-1 for
    u->v), and False; or the arcs so far, the last one the first forced
    whose reverse the class holds, and True."""
    out = [0] * len(adj)  # a->b is in the class iff out[a] >> b & 1
    out[u] = 1 << v
    arcs, parent = [(u, v)], [-1]
    for i, (a, b) in enumerate(arcs):  # also reads the arcs appended below
        for c in _bits(adj[a] & ~adj[b] & ~(1 << b) & ~out[a]):
            out[a] |= 1 << c
            arcs.append((a, c))
            parent.append(i)
            if out[c] >> a & 1:
                return arcs, parent, True
        for c in _bits(adj[b] & ~adj[a] & ~(1 << a)):
            if not out[c] >> b & 1:
                out[c] |= 1 << b
                arcs.append((c, b))
                parent.append(i)
                if out[b] >> c & 1:
                    return arcs, parent, True
    return arcs, parent, False


def find_transitive_orientation(g: Graph) -> OrientedGraph | None:
    """A transitive orientation of g, or None when g is not a
    comparability graph.  The G-decomposition: add the implication class
    of the first edge left, within the edges left, to the orientation
    and remove its edges; repeat.  g is a comparability graph iff no
    class holds an edge both ways, and then the union is transitive."""
    und = list(g.adj)  # the edges no class has taken yet
    out = [0] * g.n
    for u in range(g.n):
        for v in _bits(und[u] & -(2 << u)):  # u's higher neighbours left
            if und[u] >> v & 1:  # unless an earlier edge's class took it
                arcs, _, clash = _implication_class(und, u, v)
                if clash:
                    return None
                for a, b in arcs:
                    out[a] |= 1 << b
                    und[a] &= ~(1 << b)
                    und[b] &= ~(1 << a)
    og = OrientedGraph._from_out(g, tuple(out))
    if not is_transitive(og):
        raise OracleDisagreement("the implication classes' union is not transitive")
    return og


def forcing_chain(g: Graph) -> list[tuple[int, int]] | None:
    """Arcs e_0, ..., e_k over edges of g, each forced by the one before
    (``_forced``) and e_k the reverse of e_0, or None when g is a
    comparability graph.  A transitive orientation holds all arcs of
    such a chain or none, so the chain certifies that g has none.  It
    comes from g's own classes, not the G-decomposition's later ones,
    which force within what earlier ones left: g is not a comparability
    graph iff one holds an edge both ways (Golumbic, Thm 5.1)."""
    seen = [0] * g.n  # edges of classes that hold no edge both ways
    for u, v in g.edges():
        if seen[u] >> v & 1:
            continue
        arcs, parent, clash = _implication_class(g.adj, u, v)
        if not clash:
            for a, b in arcs:
                seen[a] |= 1 << b
                seen[b] |= 1 << a
            continue
        # u->v, ..., the reverse of the clash arcs[-1]; forcing is
        # symmetric and commutes with reversal, so the path back from the
        # clash to u->v, every arc reversed, leads on to v->u
        fwd, back = [arcs.index(arcs[-1][::-1])], [len(arcs) - 1]
        for path in (fwd, back):
            while path[-1]:
                path.append(parent[path[-1]])
        return [arcs[i] for i in reversed(fwd)] + [arcs[i][::-1] for i in back[1:]]
    return None


def is_forcing_chain(g: Graph, v: int, chain: Sequence[tuple[int, int]]) -> bool:
    """Does ``chain`` show, by adjacency tests alone, that N(v) is not a
    comparability graph: arcs over edges of g inside N(v), each forcing
    the next, the last one the first reversed?  Labels other than ints
    and arcs other than pairs make a malformed certificate: no."""
    if type(v) is not int or not isinstance(chain, (list, tuple)) or not all(
        isinstance(arc, (list, tuple)) and len(arc) == 2 and type(arc[0]) is type(arc[1]) is int
        for arc in chain
    ):
        return False
    arcs = [tuple(arc) for arc in chain]
    inside = set(_bits(g.adj[v])) if 0 <= v < g.n else set()
    return (
        len(arcs) >= 2 and arcs[-1] == arcs[0][::-1]
        and all(set(arc) <= inside and g.adjacent(*arc) for arc in arcs)
        and all(nxt in _forced(g.adj, *arc) for arc, nxt in zip(arcs, arcs[1:]))
    )
