"""The label-order induced matcher that ``wordrep.graphs._match`` replaced,
kept as the test oracle for it.

It tries each host candidate of a pattern position in list order and
checks the candidate against the vertices matched so far, with no look
ahead.  The package's matcher narrows every later domain on each match
(forward checking) and skips a candidate that empties one; it drops
only candidates without a completion, so both must return the same
first map: the same ``contains_induced`` embedding and the same
``is_isomorphic`` answer."""

from __future__ import annotations

from wordrep.graphs import Embedding, Graph, _refine_colors


def match(host: Graph, pattern: Graph, order: list[int],
          candidates: list[list[int]]) -> list[int] | None:
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
    """The lexicographically least induced embedding, pattern vertices in
    label order, candidates filtered by degree and non-degree."""
    np_, nh = pattern.n, host.n
    if np_ > nh:
        return None
    hdeg = [host.degree(w) for w in range(nh)]
    candidates = [[w for w in range(nh) if hdeg[w] >= d and nh - hdeg[w] >= np_ - d]
                  for d in (pattern.degree(v) for v in range(np_))]
    mapping = match(host, pattern, list(range(np_)), candidates)
    return None if mapping is None else Embedding(tuple(mapping))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism by the same colour refinement and matching order as the
    package, with candidate lists."""
    if g.adj == h.adj:
        return True
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    gc, hc = _refine_colors(g), _refine_colors(h)
    if sorted(gc) != sorted(hc):
        return False
    by_color: dict[int, list[int]] = {}
    for w, c in enumerate(hc):
        by_color.setdefault(c, []).append(w)
    order = sorted(range(g.n), key=lambda v: (len(by_color[gc[v]]), -g.degree(v), v))
    return match(h, g, order, [by_color[gc[v]] for v in order]) is not None
