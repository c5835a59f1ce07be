"""Alternation semantics of words over vertex alphabets.

A word is a plain tuple of integer letters.  Two distinct letters x, y
alternate in a word w when deleting every other letter leaves a strictly
alternating sequence xyxy... or yxyx... (of any length).  A word
represents a graph on vertices 0..n-1 when its alphabet is exactly
{0..n-1} and the alternating pairs are exactly the edges.

Only a bounded witness search is offered here (uniform words up to a
caller-chosen uniformity); deciding representability outright is the
business of the orientation module.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import Graph

Word = tuple[int, ...]


def alternate(w: Iterable[int], x: int, y: int) -> bool:
    """Do letters x and y alternate in w?

    Raises ValueError when x == y or when either letter never occurs
    (the projection would be degenerate and the question ill-posed).
    """
    if x == y:
        raise ValueError("alternation needs two distinct letters")
    prev = None
    seen_x = seen_y = False
    ok = True
    for c in w:
        if c == x:
            seen_x = True
        elif c == y:
            seen_y = True
        else:
            continue
        if c == prev:
            ok = False
        prev = c
    if not seen_x or not seen_y:
        missing = x if not seen_x else y
        raise ValueError(f"letter {missing} does not occur in the word")
    return ok


def _broken_pairs(w: Iterable[int]) -> set[tuple[int, int]]:
    """Pairs (a, b), a < b, of word letters whose projection contains a
    repeat.  Copies preceding the partner's first occurrence count, so
    the pair history runs over the whole alphabet from the start."""
    w = tuple(w)
    letters = sorted(set(w))
    last: dict[tuple[int, int], int] = {}
    broken: set[tuple[int, int]] = set()
    for c in w:
        for d in letters:
            if d == c:
                continue
            key = (c, d) if c < d else (d, c)
            if last.get(key) == c:
                broken.add(key)
            else:
                last[key] = c
    return broken


def alternation_graph(w: Iterable[int], n: int) -> Graph:
    """Graph on 0..n-1 whose edges are exactly the alternating pairs of w.

    The alphabet of w must be exactly {0..n-1}.
    """
    w = tuple(w)
    alpha = set(w)
    if alpha != set(range(n)):
        raise ValueError(f"alphabet {sorted(alpha)} is not 0..{n - 1}")
    broken = _broken_pairs(w)
    edges = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if (a, b) not in broken
    ]
    return Graph(n, edges)


def represents(w: Iterable[int], g: Graph) -> bool:
    """True iff w is a word-representant of g (labelled equality, not
    isomorphism)."""
    return representation_defect(w, g) is None


def representation_defect(w: Iterable[int], g: Graph) -> str | None:
    """None when w represents g, otherwise a short description of the
    first discrepancy found."""
    w = tuple(w)
    alpha = set(w)
    if alpha != set(range(g.n)):
        return f"alphabet {sorted(alpha)} does not match vertex set 0..{g.n - 1}"
    broken = _broken_pairs(w)
    for a in range(g.n):
        for b in range(a + 1, g.n):
            alternates = (a, b) not in broken
            if alternates and not g.adjacent(a, b):
                return f"letters {a},{b} alternate but {{{a},{b}}} is not an edge"
            if not alternates and g.adjacent(a, b):
                return f"letters {a},{b} do not alternate but {{{a},{b}}} is an edge"
    return None


def find_representant(g: Graph, max_uniformity: int) -> Word | None:
    """Search for a uniform word-representant of g.

    Tries k-uniform words for k = 1..max_uniformity and returns the
    lexicographically least hit among words starting with letter 0 at
    the least feasible uniformity.  Pinning letter 0 to the front is a
    sound symmetry cut: a k-uniform word and all its cyclic shifts
    represent the same labelled graph, and some shift starts with 0.
    None means no uniform representant within the bound; it does NOT
    prove g non-representable.
    """
    if max_uniformity < 1:
        raise ValueError("max_uniformity must be at least 1")
    if g.n == 0:
        return ()
    for k in range(1, max_uniformity + 1):
        w = _search_uniform(g, k)
        if w is not None:
            return w
    return None


def _search_uniform(g: Graph, k: int) -> Word | None:
    """Backtracking search for a k-uniform representant of g.

    The pair state tracks, for every letter pair, which letter of the
    pair occurred last and whether the pair is already broken (has a
    repeat in its projection).  An edge pair that breaks prunes the
    branch at once; a non-edge pair must be broken by the time both
    letters are used up.
    """
    n = g.n
    total = n * k
    remaining = [k] * n
    last = [[-1] * n for _ in range(n)]
    broken = [[False] * n for _ in range(n)]
    word: list[int] = []

    def try_place(c: int):
        """Append c, returning a record for undo, or None to prune."""
        changed: list[tuple[int, int, int, bool]] = []
        for d in range(n):
            if d == c:
                continue
            old_last = last[c][d]
            old_broken = broken[c][d]
            if old_last == c and not old_broken:
                if g.adjacent(c, d):
                    undo_place(changed)  # edge pair would stop alternating
                    return None
                changed.append((c, d, old_last, old_broken))
                broken[c][d] = broken[d][c] = True
            elif old_last != c:
                changed.append((c, d, old_last, old_broken))
                last[c][d] = last[d][c] = c
        if remaining[c] == 1:
            # c is exhausted: every exhausted non-edge partner must be broken
            for d in range(n):
                if d != c and remaining[d] == 0 and not g.adjacent(c, d) and not broken[c][d]:
                    undo_place(changed)
                    return None
        return changed

    def undo_place(changed) -> None:
        for c, d, old_last, old_broken in reversed(changed):
            last[c][d] = last[d][c] = old_last
            broken[c][d] = broken[d][c] = old_broken

    def extend() -> bool:
        if len(word) == total:
            return True
        candidates = (0,) if not word else range(n)  # cyclic-shift cut: w[0] = 0
        for c in candidates:
            if remaining[c] == 0:
                continue
            changed = try_place(c)
            if changed is None:
                continue
            remaining[c] -= 1
            word.append(c)
            if extend():
                return True
            word.pop()
            remaining[c] += 1
            undo_place(changed)
        return False

    if extend():
        result = tuple(word)
        assert represents(result, g)
        return result
    return None


# ---------------------------------------------------------------------------
# Word text format: whitespace-separated decimal labels, or a compact
# digit string when every label is a single digit.


def parse_word(text: str) -> Word:
    text = text.strip()
    if not text:
        raise ValueError("empty word")
    if any(ch.isspace() for ch in text):
        return tuple(int(tok) for tok in text.split())
    if text.isdigit():
        return tuple(int(ch) for ch in text)
    raise ValueError(f"cannot parse word {text!r}")


def format_word(w: Iterable[int]) -> str:
    w = tuple(w)
    if w and all(0 <= c <= 9 for c in w):
        return "".join(str(c) for c in w)
    return " ".join(str(c) for c in w)
