"""Golden CLI corpus: the standard output of each case below must match
``tests/golden/<case>.out`` byte for byte (census ``seconds`` masked).

The inputs under ``tests/golden/`` are committed; re-record the expected
output only for an intended change of behaviour:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import io
import random
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from wordrep import families
from wordrep.cli import main
from wordrep.graphs import Graph, enumerate_graphs, write_graph6
from wordrep.split import split_partition

GOLDEN = Path(__file__).resolve().parent / "golden"
SECONDS = re.compile(r"(seconds(?:=|\": ))[0-9.]+")

K3_CHAIN = "0>1,1>2,0>2"

# case name -> (input file or None, argv before the input path)
CASES = {
    "classify_split_le7": ("split_le7.g6", ["classify"]),
    "classify_split_le7_json": ("split_le7.g6", ["classify", "--json", "--witness"]),
    "classify_named": ("named.g6", ["classify"]),
    "classify_named_witness": ("named.g6", ["classify", "--witness"]),
    "classify_named_json": ("named.g6", ["classify", "--json", "--witness"]),
    "classify_random": ("random.g6", ["classify"]),
    "classify_random_json": ("random.g6", ["classify", "--json", "--witness"]),
    "orient_find": ("small.g6", ["orient"]),
    "orient_dot": ("small.g6", ["orient", "--dot"]),
    "orient_count": ("small.g6", ["orient", "--count"]),
    "orient_all": ("small.g6", ["orient", "--all"]),
    "orient_classify_types": ("split_small.g6", ["orient", "--classify-types"]),
    "orient_fix_find": ("k_triangle3.g6", ["orient", "--fix", K3_CHAIN, "--dot"]),
    "orient_fix_count": ("k_triangle3.g6", ["orient", "--count", "--fix", K3_CHAIN]),
    "orient_fix_all": ("k_triangle3.g6", ["orient", "--all", "--fix", K3_CHAIN]),
    "orient_fix_cycle_find": ("k_triangle3.g6", ["orient", "--fix", "0>1,1>2,2>0"]),
    "orient_fix_cycle_count": ("k_triangle3.g6", ["orient", "--count", "--fix", "0>1,1>2,2>0"]),
    "orient_fix_cycle_all": ("k_triangle3.g6", ["orient", "--all", "--fix", "0>1,1>2,2>0"]),
    "orient_fix_one_arc_count": ("k_triangle3.g6", ["orient", "--count", "--fix", "3>0"]),
    "orient_fix_one_arc_all": ("k_triangle3.g6", ["orient", "--all", "--fix", "3>0"]),
    "orient_bits": ("t3.g6", ["orient", "--bits", "000000000000001", "--dot", "--classify-types"]),
    "generate_k_l_k_7_3_orientation": (None, ["generate", "K_L_K", "7", "3", "--orientation"]),
    "generate_k_l_k_5_1_orientation": (None, ["generate", "K_L_K", "5", "1", "--orientation"]),
    "generate_k_triangle_6_orientation": (None, ["generate", "K_TRIANGLE", "6", "--orientation"]),
    "census_6": (None, ["census", "6"]),
    "census_7_split_json": (None, ["census", "7", "--filter", "split", "--json"]),
}


def cocktail_party(k: int) -> Graph:
    n = 2 * k
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if v != u + k])


def input_graphs() -> dict[str, list[Graph]]:
    """The graphs behind each input file (used only to write them)."""
    named = [families.named(tag) for tag in families.family_tags()
             if tag not in ("K_TRIANGLE", "A_GRAPH", "K_L_K", "C", "K", "EMPTY")]
    named += [families.k_triangle(l) for l in range(3, 8)]
    named += [families.a_graph(l) for l in range(4, 7)]
    named += [families.k_ell_k(l, k) for l, k in ((4, 2), (5, 3), (6, 2), (7, 3))]
    named += [families.cycle(m) for m in range(3, 9)]
    named += [families.complete(n) for n in range(0, 7)]
    named += [Graph(n) for n in (1, 3)]
    rng = random.Random(1709)
    rand = [
        Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        for n in (6, 7, 8, 9) for p in (0.3, 0.5, 0.7) for _ in range(2)
    ]
    rand += [cocktail_party(k) for k in range(2, 7)]
    small = [families.named(tag) for tag in ("T1", "T2", "W5", "B1", "B2", "B3", "TWO_K2")]
    small += [families.complete(n) for n in (1, 2, 3, 4)]
    small += [families.cycle(m) for m in (4, 5)]
    small += [families.k_triangle(3), Graph(2), Graph(0)]
    return {
        "split_le7.g6": [g for n in range(8) for g in enumerate_graphs(n)
                         if split_partition(g) is not None],
        "named.g6": named,
        "random.g6": rand,
        "small.g6": small,
        "split_small.g6": [families.k_triangle(4), families.k_triangle(6),
                           families.k_ell_k(5, 3), families.named("M2"),
                           families.named("T1"), families.complete(3)],
        "k_triangle3.g6": [families.k_triangle(3)],
        "t3.g6": [families.named("T3")],
    }


def render(name: str) -> tuple[int, str]:
    infile, argv = CASES[name]
    args = argv + ([str(GOLDEN / infile)] if infile else [])
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, SECONDS.sub(r"\1<masked>", buf.getvalue())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli_output(name):
    code, out = render(name)
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


# Every committed input but split_le7.g6 must equal what input_graphs()
# writes, so a relabelled family transcription cannot slip through.
# split_le7.g6 stays out: canonical augmentation changed enumeration's
# representatives by design, so enumerate_graphs no longer yields the
# committed file's graphs, and the golden outputs are pinned to that file.
PINNED_INPUTS = ("named.g6", "random.g6", "small.g6", "split_small.g6",
                 "k_triangle3.g6", "t3.g6")


def test_committed_inputs_match_their_builders():
    graphs = input_graphs()
    for fname in PINNED_INPUTS:
        text = "".join(write_graph6(g) + "\n" for g in graphs[fname])
        assert text.encode() == (GOLDEN / fname).read_bytes(), fname


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for fname, graphs in input_graphs().items():
        path = GOLDEN / fname
        if not path.exists():  # inputs are fixed once committed
            path.write_text("".join(write_graph6(g) + "\n" for g in graphs))
    for name in sorted(CASES):
        code, out = render(name)
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.out").write_text(out)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    record()
