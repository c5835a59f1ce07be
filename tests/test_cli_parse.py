"""The CLI's table-driven parse agrees with argparse.

``cli._parse`` handles argv spelled exactly as ``cli.GRAMMAR`` writes it
and returns None for anything else, which ``main`` hands to the argparse
parser built from the same table.  Wherever ``_parse`` answers, its
namespace must be the one argparse gives.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordrep import cli
from test_golden import CASES

P, Q = "in.g6", "other.g6"  # input paths; they are never opened

# every argv that tests/test_cli.py passes to the CLI, its paths as P and Q
CLI_TEST_ARGVS = [
    ["classify", P], ["classify", P, Q], ["classify"], ["classify", "--witness", P],
    ["classify", P, "--json", "--witness", "--verify"],
    ["census", "6", "--expected", "1"], ["census", "5", "--expected", "3"],
    ["census", "6", "--filter", "split", "--expected", "0", "--json"], ["census", "9"],
    ["census", "6"], ["census", "6", "--expected", "2"], ["census", "7", "--json"],
    ["census", "9", "--filter", "connected", "--json", "--expected", "54957"],
    *(["census", str(n), "--filter", flt, *fmt] for n in range(9)
      for flt in ("all", "connected", "split") for fmt in ([], ["--json"])),
    ["generate", "K_TRIANGLE", "6", "--orientation"], ["generate", "A_GRAPH", "4"],
    ["generate", "K_TRIANGLE", "5", "--word"], ["generate", "NOPE"],
    ["generate", "K_L_K", "5", "3", "--orientation"], ["generate", "T4", "--orientation"],
    ["generate", "T4", "--word"], ["generate", "K_TRIANGLE", "4", "--word"],
    ["generate", "K", "63"], ["generate", "K", "100000"], ["generate", "K", "50"],
    ["generate", "K", "3"],
    ["orient", P], ["orient", P, "--count", "--fix", "0>1,1>2,0>2"], ["orient", P, "--all"],
    *(["orient", P, *mode, "--fix", fix] for mode in ([], ["--count"], ["--all"])
      for fix in ("0>1,1>0", "0>1,0>1", "a>b", "0>", "0>2", "5>0", "0>-1")),
    ["orient", P, "--classify-types"],
    ["orient", P, "--bits", "000000000000001", "--classify-types"],
    ["orient", P, "--bits", "010", "--classify-types"],
    *(["orient", P, "--bits", "000", *extra]
      for extra in (["--fix", "1>0"], ["--count"], ["--all"], ["--dot", "--classify-types"])),
    *(["orient", P, mode, extra] for mode in ("--count", "--all")
      for extra in ("--dot", "--classify-types")),
    ["represent", P, "--max-uniformity", "3"], ["represent", P, "--max-uniformity", "6"],
    ["represent", P, "--check", "0102312"], ["represent", P, "--check", "0123"],
    ["represent", "--check", "01a"], ["represent", P, "--max-uniformity", "0"],
    ["census"], ["bogus"], ["--help"], ["census", "-1"],
    ["orient", "missing.g6", P], ["represent", "missing.g6", P],
]
GOLDEN_ARGVS = [argv + ([P] if infile else []) for infile, argv in CASES.values()]


def argparse_namespace(argv):
    """``vars(build_parser().parse_args(argv))``, or None where argparse
    prints help or rejects argv."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def fast_namespace(argv):
    args = cli._parse(argv)
    return None if args is None else vars(args)


@pytest.mark.parametrize("argv", CLI_TEST_ARGVS + GOLDEN_ARGVS, ids=" ".join)
def test_fast_parse_agrees_on_the_tests_argvs(argv):
    fast = fast_namespace(argv)
    assert fast is None or fast == argparse_namespace(argv)


@pytest.mark.parametrize("argv", GOLDEN_ARGVS, ids=" ".join)
def test_golden_argvs_take_the_fast_parse(argv):
    assert fast_namespace(argv) is not None


# values for each valued argument, valid or not; "-"-led ones are drawn apart
VALUES = {
    "n": ["0", "7", "6", "x"],
    "--filter": ["all", "split", "connected", "nope", ""],
    "--expected": ["0", "3", "x", ""],
    "--max-uniformity": ["1", "3", "0", "x"],
    "--bits": ["000", "0101", ""],
    "--fix": ["0>1", "0>1,1>2", "", "a>b"],
    "--check": ["0102312", "01a"],
    "tag": ["K", "T1", "7"],
    "params": ["3", "x", "5"],
    "inputs": ["-", P, Q, "census", "a b.g6", ""],
}
DASHED = ["-1", "-", "--json", "-x", "--"]
STRAY = ["--help", "-h", "--bogus", "--"]


@st.composite
def argvs(draw):
    """(argv, plain): argv built from the grammar, plain when it is spelled
    as the grammar writes it (every option once, in full, apart from its
    value, which does not start with "-", and the positionals in one
    run); its values may still be invalid.  Half of the argvs are drawn
    to be flawed, each flaw drawn at random."""
    command = draw(st.sampled_from([*cli.GRAMMAR, "bogus", "clas"]))
    if command not in cli.GRAMMAR:
        return [command, *draw(st.lists(st.sampled_from(STRAY + [P]), max_size=2))], False
    _, _, exclusive, arguments = cli.GRAMMAR[command]
    flawed = draw(st.booleans())

    def flaw():
        return flawed and draw(st.integers(0, 3)) == 0

    groups, positionals = [], []  # groups: runs of tokens that stay together when shuffled
    for name, keywords in arguments.items():
        if name[0] != "-":
            counts = st.integers(0, 3) if keywords.get("nargs") else st.sampled_from([0, 1, 1, 2])
            positionals += [draw(st.sampled_from(VALUES[name])) for _ in range(draw(counts))]
            continue
        if not draw(st.booleans()) or name in exclusive and not flawed and any(
                tokens[0] in exclusive for tokens in groups):
            continue
        flag = "action" in keywords
        value = None if flag else draw(st.sampled_from(DASHED if flaw() else VALUES[name]))
        spelling = draw(st.sampled_from(["abbreviated", "equals", "repeated"])) if flaw() else ""
        option = name[:draw(st.integers(3, len(name) - 1))] if spelling == "abbreviated" else name
        tokens = [option] if flag else [option, value]
        if spelling == "equals":
            tokens = [f"{name}={'1' if flag else value}"]
        groups += [tokens] * (2 if spelling == "repeated" else 1)
    if flaw():
        positionals.append("-1")  # a positional led by "-"
    if flaw():
        groups.append([draw(st.sampled_from(STRAY))])
    # the positionals in one group, or one group each
    runs = [[word] for word in positionals] if flaw() else [positionals]
    order = draw(st.permutations([(tokens, False) for tokens in groups]
                                 + [(tokens, True) for tokens in runs]))
    argv = [command] + [token for tokens, _ in order for token in tokens]
    at = [i for i, (tokens, positional) in enumerate(order) if positional and tokens]
    options = [tokens[0] for tokens in groups]
    plain = (all(token in arguments for token in options)  # in full, not =, no stray
             and len(set(options)) == len(options)
             and len(set(options) & set(exclusive)) <= 1
             and not any(value[:1] == "-" for tokens in groups for value in tokens[1:])
             and "-1" not in positionals
             and not (at and at[-1] - at[0] >= len(at)))
    return argv, plain


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(argvs())
@example((["census", "7", "--filter", "nope"], True))
@example((["census", "7", "8", "--json"], True))
@example((["census", "7", "--expected", "x", "--json"], True))
@example((["represent", "--max-uniformity", "0"], True))
@example((["generate", "K", "--word", "3"], False))
def test_fast_parse_agrees_with_argparse(case):
    argv, plain = case
    fast = fast_namespace(argv)
    if plain:  # then the fast parse answers exactly as argparse does
        assert fast == argparse_namespace(argv)
    else:
        assert fast is None
