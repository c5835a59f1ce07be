"""Alternation-word semantics: the worked fixtures, the definitional
properties, and the bounded uniform search."""

import random
import tracemalloc
from functools import cache
from itertools import combinations, permutations

import pytest

from conftest import EXHAUSTIVE, random_graph
from shortcut_witness import find_shortcut
from wordrep import families
from wordrep.graphs import Graph, _bits, enumerate_graphs
from wordrep.orient import OrientedGraph, is_semi_transitive
from wordrep.words import (
    _repeats,
    _search_uniform,
    alternate,
    alternation_graph,
    find_representant,
    format_word,
    parse_word,
    representation_defect,
    represents,
)


def word_of(digits: str) -> tuple[int, ...]:
    """1-based digit string to a 0-based word."""
    return tuple(int(c) - 1 for c in digits)


def test_worked_alternation_fixture():
    w = word_of("23125413241362")
    assert alternate(w, 1, 2)       # letters 2 and 3 of the 1-based original
    assert alternate(w, 4, 5)       # letters 5 and 6
    assert not alternate(w, 0, 2)   # letters 1 and 3


def test_alternate_errors():
    w = (0, 1, 0)
    with pytest.raises(ValueError):
        alternate(w, 1, 1)
    with pytest.raises(ValueError):
        alternate(w, 0, 2)


def test_alternate_symmetry():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(2, 6)
        w = [rng.randrange(n) for _ in range(rng.randint(2, 12))]
        present = sorted(set(w))
        if len(present) < 2:
            continue
        x, y = rng.sample(present, 2)
        assert alternate(w, x, y) == alternate(w, y, x)


def test_alternation_graph_fixtures():
    g = alternation_graph(word_of("1213423"), 4)
    assert g == families.named("FIG2_EXAMPLE")
    # any single permutation represents the complete graph
    for n in (1, 2, 3, 4, 5):
        p = tuple(range(n))
        assert alternation_graph(p, n) == families.complete(n)
    # a permutation followed by its reverse represents the empty graph
    for n in (1, 2, 3, 4, 5):
        p = tuple(range(n))
        assert alternation_graph(p + p[::-1], n) == Graph(n)
    with pytest.raises(ValueError):
        alternation_graph((0, 1), 3)


def test_represents_fixtures():
    assert represents(word_of("1213423"), families.named("FIG2_EXAMPLE"))
    assert represents((0, 1, 0), Graph(2, [(0, 1)]))
    assert not represents((0, 1, 0, 1), Graph(3, [(0, 1)]))  # alphabet incomplete
    defect = representation_defect((0, 1, 0, 1), Graph(3, [(0, 1)]))
    assert defect is not None and "alphabet" in defect
    # first differing pair is named
    defect = representation_defect((0, 1, 0, 1), Graph(2))
    assert defect is not None and "0,1" in defect


def test_represents_matches_alternation_graph():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 5)
        w = list(range(n)) + [rng.randrange(n) for _ in range(rng.randint(0, 8))]
        rng.shuffle(w)
        g = alternation_graph(w, n)
        assert represents(w, g)
        # flip one pair to get a wrong graph
        if g.n >= 2:
            u, v = 0, 1
            edges = set(map(frozenset, g.edges()))
            edges ^= {frozenset((u, v))}
            h = Graph(n, [tuple(sorted(e)) for e in edges])
            assert not represents(w, h)


def test_representation_is_hereditary_under_letter_deletion():
    rng = random.Random(12)
    for _ in range(120):
        n = rng.randint(2, 5)
        w = list(range(n)) + [rng.randrange(n) for _ in range(rng.randint(0, 7))]
        rng.shuffle(w)
        g = alternation_graph(w, n)
        v = rng.randrange(n)
        reduced = [c if c < v else c - 1 for c in w if c != v]
        assert represents(reduced, g.delete_vertex(v))


def test_permutation_powers_represent_cliques():
    for n in (1, 2, 3, 4):
        for r in (1, 2, 3):
            for p in permutations(range(n)):
                assert represents(p * r, families.complete(n))


def test_find_representant_examples():
    w = find_representant(families.complete(3), 1)
    assert w is not None and sorted(w) == [0, 1, 2]
    w = find_representant(Graph(3), 2)
    assert w is not None and represents(w, Graph(3))
    assert find_representant(families.named("W5"), 3) is None
    assert find_representant(Graph(0), 2) == ()
    assert all(_search_uniform(Graph(0), k) == () for k in (1, 2, 3))
    with pytest.raises(ValueError):
        find_representant(families.complete(2), 0)


def test_find_representant_uniformity_is_minimal():
    # the triangular prism needs uniformity 3
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    assert find_representant(prism, 2) is None
    w = find_representant(prism, 3)
    assert w is not None and represents(w, prism)
    assert all(w.count(c) == 3 for c in range(6))
    # canonical ordering: first occurrences ascend
    firsts = [w.index(c) for c in range(6)]
    assert firsts == sorted(firsts)


def test_find_representant_agrees_with_oracle_small():
    # on n <= 6 the equivalence holds in both directions: a graph is
    # word-representable iff it has a representant of uniformity <= 3
    from wordrep.orient import is_word_representable
    from wordrep.graphs import enumerate_graphs

    for n in range(7):
        for g in enumerate_graphs(n):
            w = find_representant(g, 3)
            if w is None:
                assert not is_word_representable(g)
            else:
                assert represents(w, g)
                assert is_word_representable(g)


@cache
def uniform_words(n: int, k: int) -> list[tuple[int, ...]]:
    """Every k-uniform word over 0..n-1 that starts with 0, in
    lexicographic order."""
    return sorted({p for p in permutations(tuple(range(n)) * k) if p[0] == 0})


def represents_by_pairs(w, g: Graph) -> bool:
    return all(alternate(w, a, b) == g.adjacent(a, b) for a, b in combinations(range(g.n), 2))


def least_uniform_word(g: Graph, max_uniformity: int):
    """Brute-force oracle: the first word of ``uniform_words`` that
    represents g, at the least uniformity that has one."""
    for k in range(1, max_uniformity + 1):
        for w in uniform_words(g.n, k):
            if represents_by_pairs(w, g):
                return w
    return None


@pytest.mark.parametrize("max_n, max_uniformity", [(4, 1), (4, 2), (3, 3)])
def test_find_representant_returns_the_least_word(max_n, max_uniformity):
    for n in range(1, max_n + 1):
        for g in enumerate_graphs(n):
            assert find_representant(g, max_uniformity) == least_uniform_word(g, max_uniformity)


def search_uniform_unpruned(g: Graph, k: int):
    """Oracle for ``_search_uniform``: the same search without the
    first-copy shortcut prune, whose use-up check looks only at the
    non-neighbours already used up."""
    n = g.n
    stack = [(1, (), [k] * n, [-1] * n, [0] * n, 0)]
    while stack:
        letters, word, remaining, pos, broken, used = stack.pop()
        c = (letters & -letters).bit_length() - 1
        if letters ^ 1 << c:
            stack.append((letters ^ 1 << c, word, remaining, pos, broken, used))
        repeats = _repeats(pos, c)
        if repeats & g.adj[c]:
            continue
        remaining, pos, broken = remaining[:], pos[:], broken[:]
        broken[c] |= repeats
        for d in _bits(repeats):
            broken[d] |= 1 << c
        remaining[c] -= 1
        if not remaining[c]:
            if used & ~g.adj[c] & ~broken[c]:
                continue
            used |= 1 << c
        pos[c] = len(word)
        word += (c,)
        if len(word) == n * k:
            return word
        stack.append(((1 << n) - 1 & ~used, word, remaining, pos, broken, used))
    return None


def test_word_search_prune_keeps_the_unpruned_answer():
    # the use-up and first-copy prunes drop only subtrees without a
    # word, so the least word (or None) is the oracle's; K_TRIANGLE 5
    # stops at k = 1 because the oracle takes minutes at k = 2
    rng = random.Random(14)
    cases = [(g, k) for n in range(1, 7) for g in enumerate_graphs(n) for k in (1, 2, 3)]
    for g in [families.k_triangle(l) for l in (3, 4, 5)] + [families.cycle(5), families.cycle(7)]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        cases += [(g, k) for k in ((1,) if g.n > 8 else (1, 2, 3))]
    for _ in range(60):
        g = random_graph(rng, 7)
        cases += [(g, 1), (g, 2)]
    # W5 has no word at any uniformity; the oracle takes 0.3 s at k = 4
    perm = list(range(6))
    rng.shuffle(perm)
    cases.append((Graph(6, [(perm[u], perm[v]) for u, v in families.named("W5").edges()]), 4))
    if EXHAUSTIVE:
        cases += [(g, k) for g in enumerate_graphs(7) for k in (1, 2, 3)]
    for g, k in cases:
        assert _search_uniform(g, k) == search_uniform_unpruned(g, k)


def first_occurrence_orientation(w) -> OrientedGraph:
    """alternation_graph(w) with each edge directed from the letter
    that occurs first."""
    n = len(set(w))
    first = [w.index(c) for c in range(n)]
    g = alternation_graph(w, n)
    return OrientedGraph(g, [(a, b) if first[a] < first[b] else (b, a) for a, b in g.edges()])


def test_first_occurrence_orientation_of_a_uniform_word_is_semi_transitive():
    # the lemma the search's first-copy prune rests on, checked by the
    # engine's closure and by the independent path walk
    words = [w for n in range(1, 7) for g in enumerate_graphs(n)
             if (w := find_representant(g, 3)) is not None]
    rng = random.Random(27)
    for _ in range(200):
        n, k = rng.randint(1, 8), rng.randint(1, 3)
        w = list(range(n)) * k
        rng.shuffle(w)
        words.append(tuple(w))
    for w in words:
        og = first_occurrence_orientation(w)
        assert is_semi_transitive(og), w
        assert find_shortcut(og) is None, w


def test_alternation_graph_and_defect_agree_with_alternate():
    rng = random.Random(47)
    for _ in range(400):
        n = rng.randint(1, 6)
        w = list(range(n)) + [rng.randrange(n) for _ in range(rng.randint(0, 10))]
        rng.shuffle(w)
        g = alternation_graph(w, n)
        h = Graph(n, [(a, b) for a, b in combinations(range(n), 2) if rng.random() < 0.5])
        expected = None
        for a, b in combinations(range(n), 2):
            assert g.adjacent(a, b) == alternate(w, a, b)
            if expected is None and alternate(w, a, b) != h.adjacent(a, b):
                expected = (
                    f"letters {a},{b} alternate but {{{a},{b}}} is not an edge"
                    if alternate(w, a, b)
                    else f"letters {a},{b} do not alternate but {{{a},{b}}} is an edge"
                )
        assert representation_defect(w, h) == expected


def test_find_representant_on_a_large_clique():
    assert find_representant(families.complete(1000), 1) == tuple(range(1000))


def test_word_search_stack_stays_small():
    # at most two stack entries per level: about 4.7 MB traced for K_400
    g = families.complete(400)
    tracemalloc.start()
    try:
        assert find_representant(g, 1) == tuple(range(400))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_word_text_format():
    assert parse_word("0102312") == (0, 1, 0, 2, 3, 1, 2)
    assert parse_word("10 2 10 3") == (10, 2, 10, 3)
    assert format_word((0, 1, 0, 2)) == "0102"
    assert format_word((10, 2, 10)) == "10 2 10"
    assert parse_word(format_word((11, 0, 11, 5))) == (11, 0, 11, 5)
    with pytest.raises(ValueError):
        parse_word("")
    with pytest.raises(ValueError):
        parse_word("ab")
