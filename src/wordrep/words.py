"""Alternation semantics of words over vertex alphabets.

A word is a plain tuple of integer letters.  Two distinct letters x, y
alternate in a word w when deleting every other letter leaves a strictly
alternating sequence xyxy... or yxyx... (of any length).  A word
represents a graph on vertices 0..n-1 when its alphabet is exactly
{0..n-1} and the alternating pairs are exactly the edges.

One pair rule serves the alternation graph, the defect report and the
search: with ``pos[c]`` the index of c's last copy (-1 before its
first), placing c again repeats the pair {c, d} exactly when d's last
copy comes before c's (``_repeats``).  ``alternate`` is the independent
per-pair scan that the tests check the rule against.

Only a bounded witness search is offered here (uniform words up to a
caller-chosen uniformity), a depth-first loop over an explicit stack;
deciding representability outright is the business of the orientation
module.  The search borrows its shortcut rule: orienting each edge of
a uniform representant from the letter that occurs first gives a
semi-transitive orientation (Halldórsson, Kitaev and Pyatkin,
Semi-transitive orientations and word-representable graphs, Discrete
Appl. Math. 2016), so a prefix whose first copies already fix a
shortcut has no representant below it.
"""

from __future__ import annotations

from collections.abc import Iterable

from .graphs import Graph, _bits
from .orient import OracleDisagreement

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


def _repeats(pos: list[int], c: int) -> int:
    """Mask of the letters d whose pair with c repeats when c is placed
    again: d's last copy comes before c's, and a d never seen counts
    too.  Zero on c's first copy."""
    p = pos[c]
    mask = 0
    for d, q in enumerate(pos):
        if q < p:
            mask |= 1 << d
    return mask


def _broken(w: Word, n: int) -> list[int]:
    """Per letter of 0..n-1, the mask of letters whose pair with it
    repeats somewhere in w (a symmetric relation)."""
    pos = [-1] * n
    broken = [0] * n
    for i, c in enumerate(w):
        broken[c] |= _repeats(pos, c)
        pos[c] = i
    for a in range(n):
        for b in _bits(broken[a]):
            broken[b] |= 1 << a
    return broken


def alternation_graph(w: Iterable[int], n: int) -> Graph:
    """Graph on 0..n-1 whose edges are exactly the alternating pairs of w.

    The alphabet of w must be exactly {0..n-1}.
    """
    w = tuple(w)
    alpha = set(w)
    if alpha != set(range(n)):
        raise ValueError(f"alphabet {sorted(alpha)} is not 0..{n - 1}")
    full = (1 << n) - 1
    return Graph._from_adj(n, tuple(full & ~(m | 1 << a) for a, m in enumerate(_broken(w, n))))


def represents(w: Iterable[int], g: Graph) -> bool:
    """True iff w is a word-representant of g (labelled equality, not
    isomorphism)."""
    return representation_defect(w, g) is None


def representation_defect(w: Iterable[int], g: Graph) -> str | None:
    """None when w represents g, otherwise a short description of the
    first discrepancy, in (a, b) lexicographic order."""
    w = tuple(w)
    alpha = set(w)
    if alpha != set(range(g.n)):
        return f"alphabet {sorted(alpha)} does not match vertex set 0..{g.n - 1}"
    for a, alt in enumerate(alternation_graph(w, g.n).adj):
        diff = alt ^ g.adj[a]  # rows before a agree, so bits below a are clear
        if diff:
            b = (diff & -diff).bit_length() - 1
            if alt >> b & 1:
                return f"letters {a},{b} alternate but {{{a},{b}}} is not an edge"
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
    for k in range(1, max_uniformity + 1):
        w = _search_uniform(g, k)
        if w is not None:
            return w
    return None


def _search_uniform(g: Graph, k: int) -> Word | None:
    """Depth-first search for a k-uniform representant of g.

    A stack entry is (letters to try, parent's word, remaining copies,
    pos, broken masks, used-up mask, seen mask of the letters placed).
    Siblings share the parent's state, which is copied on pop and never
    mutated.  Three prunes, none of which cuts a representant:

    - placing a letter prunes when it repeats an edge pair;
    - using c up prunes when c still alternates with a non-neighbour d:
      d has k or k - 1 copies placed, any last one comes after c's, so
      {c, d} would end alternating;
    - placing c's first copy prunes when the arcs that first copies fix
      hold a shortcut (``_fixes_a_shortcut``).

    An entry tries its least letter after pushing back the rest, so the
    lexicographically least word comes first and the stack holds at
    most two entries per level.  Only letter 0 may start the word (the
    cyclic-shift cut).
    """
    n = g.n
    if n == 0:
        return ()
    full = (1 << n) - 1
    # per letter, written at its first copy, read only while it is seen
    anc, bad, cover = [0] * n, [0] * n, [0] * n
    stack = [(1, (), [k] * n, [-1] * n, [0] * n, 0, 0)]
    while stack:
        letters, word, remaining, pos, broken, used, seen = stack.pop()
        c = (letters & -letters).bit_length() - 1
        if letters ^ 1 << c:
            stack.append((letters ^ 1 << c, word, remaining, pos, broken, used, seen))
        repeats = _repeats(pos, c)
        if repeats & g.adj[c]:
            continue
        if not seen >> c & 1:
            if _fixes_a_shortcut(g.adj, seen, c, anc, bad, cover):
                continue
            seen |= 1 << c
        remaining, pos, broken = remaining[:], pos[:], broken[:]
        broken[c] |= repeats
        for d in _bits(repeats):
            broken[d] |= 1 << c
        remaining[c] -= 1
        if not remaining[c]:
            if (full ^ 1 << c) & ~g.adj[c] & ~broken[c]:
                continue
            used |= 1 << c
        pos[c] = len(word)
        word += (c,)
        if len(word) == n * k:
            if not represents(word, g):
                raise OracleDisagreement(f"the word {format_word(word)} found does not represent g")
            return word
        stack.append((full & ~used, word, remaining, pos, broken, used, seen))
    return None


def _fixes_a_shortcut(adj: tuple[int, ...], seen: int, c: int,
                      anc: list[int], bad: list[int], cover: list[int]) -> bool:
    """Place c's first copy after the seen letters' and write c's sets.

    First occurrence fixes a -> c for each seen neighbour a of c, and
    c -> b for each unseen neighbour b.  The first-occurrence
    orientation of a uniform representant is semi-transitive
    (Halldórsson, Kitaev and Pyatkin), so True means no word below.  A
    shortcut new here has its path end at c, or run on to an unseen
    neighbour b of c with {a, b} an edge.  anc[c] is the set of letters
    that reach c, bad[c] the letters a with a path a ~> x ~> y ~> c
    where x and y are not adjacent, and cover[c] the letters adjacent or
    equal to c and to each letter of anc[c].  Both unions skip a letter
    already reached: its sets are inside those of the letter before it.
    """
    anc_c, bad_c, cover_c = 0, 0, adj[c] | 1 << c
    rest = seen & adj[c]
    while rest:
        p = rest.bit_length() - 1
        anc_c |= anc[p] | 1 << p
        bad_c |= bad[p]
        cover_c &= cover[p]
        rest &= ~anc_c
    rest = anc_c & ~adj[c] & ~bad_c
    while rest:
        x = rest.bit_length() - 1
        bad_c |= anc[x] | 1 << x
        rest &= ~bad_c
    anc[c], bad[c], cover[c] = anc_c, bad_c, cover_c
    if bad_c & adj[c]:
        return True
    # a path x ~> c -> b with x not adjacent to b needs b outside cover_c
    ahead = adj[c] & ~seen
    for b in _bits(ahead if bad_c else ahead & ~cover_c):
        if bad_c & adj[b]:
            return True
        rest = anc_c & ~adj[b]
        while rest:
            x = rest.bit_length() - 1
            if anc[x] & adj[b]:
                return True
            rest &= ~anc[x] & ~(1 << x)
    return False


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
