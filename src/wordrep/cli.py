"""Command-line surface: classification, censuses, family generation,
orientation search and bounded word search.

Graphs travel as graph6 text, one per line, on files or stdin.
Machine-readable output is line-oriented JSON behind --json.
`classify` and `census` take ``classify.classify_graph``'s one ladder,
split graph or not; its reason tokens are CLIQUE_LE_3, COMPARABILITY,
THEOREM_MAIN1, THEOREM_MAIN2, NEIGHBOURHOOD and ORACLE_SEARCH.
`census` classifies on every CPU the process may use, each forked
worker taking its share of the catalogue's parents, and prints in
catalogue order, as one process would.  ``Verdict`` writes each line's
verdict and witness, and `classify --verify` re-decides every verdict
the search did not give.  Exit codes: 0 success, 1 usage or parse
errors, 2 census expectation mismatch or a `represent --check` word
that does not represent its graph, 3 internal invariant violation (two
routes that must agree disagreed).
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import sys
import time

from . import families
from .classify import classify_graph as _verdict_for
from .graphs import (
    ENUMERATION_GUARD,
    GRAPH6_MAX_N,
    Graph,
    Graph6Error,
    _children,
    enumerate_graphs,
    is_connected,
    parse_graph6,
    write_graph6,
)
from .orient import (
    OracleDisagreement,
    count_semi_transitive_extensions,
    is_semi_transitive,
    orient_by_bits,
    orientation_bits,
    semi_transitive_orientations,
    to_dot,
)
from .split import (
    KIND_INVALID,
    check_relative_order,
    classify_all,
    is_split,
    split_partition,
)
from .words import find_representant, format_word, parse_word, represents

LARGE_CENSUS_VAR = "WORDREP_ALLOW_LARGE_CENSUS"


def _parse_inputs(paths: list[str]) -> tuple[list[Graph], int]:
    """Parse the graph6 lines of files or stdin; returns (graphs,
    error_count) and reports each failure on stderr: an unreadable file
    as one line naming it, a bad line with its line number, prefixed by
    the file name unless it came from stdin.  Lines are read as bytes and
    each byte decoded to its own code point, so a stray byte is a parse
    error on its line, never a decoding crash."""
    parsed: list[Graph] = []
    errors = 0
    for path in paths or ["-"]:
        try:
            if path == "-":  # a StringIO standing in for stdin has no buffer
                stdin = sys.stdin
                data = stdin.buffer.read() if hasattr(stdin, "buffer") else stdin.read().encode()
            else:
                with open(path, "rb") as handle:
                    data = handle.read()
        except OSError as exc:
            errors += 1
            print(f"{path}: {exc.strerror}", file=sys.stderr)
            continue
        where = "" if path == "-" else f"{path}: "
        for lineno, line in enumerate(data.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                parsed.append(parse_graph6(line.decode("latin-1")))
            except Graph6Error as exc:
                errors += 1
                print(f"{where}line {lineno}: {exc}", file=sys.stderr)
    return parsed, errors


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args) -> int:
    parsed, errors = _parse_inputs(args.inputs)
    for g in parsed:
        verdict = _verdict_for(g, split_partition(g), args.verify, args.witness)
        g6 = write_graph6(g)
        if args.json:
            payload = {"graph6": g6, **verdict.to_json()}
            print(json.dumps(payload))
        else:
            print(f"{g6}\t{verdict.to_text()}")
    return 1 if errors else 0


# ---------------------------------------------------------------------------
# census


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)  # missing on some platforms
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _census_records(broods, connected_only: bool):
    """One record per brood (the children of one parent): its class
    count per reason key, and the graph6 text, split flag and
    connectivity of each non-representable class, in brood order."""
    for brood in broods:
        counts: dict[str, int] = {}
        found = []
        for g in brood:
            connected = is_connected(g)
            if connected_only and not connected:
                continue
            sp = split_partition(g)
            verdict = _verdict_for(g, sp)
            key = ("" if verdict.representable else "non-") + f"representable/{verdict.reason}"
            counts[key] = counts.get(key, 0) + 1
            if not verdict.representable:
                found.append((write_graph6(g), sp is not None, connected))
        yield counts, found


def _fork_worker(records) -> tuple[int, int]:
    """Fork a process that marshals each of ``records`` into a pipe, or,
    at an exception, (None, (its name, its text)) and stops; returns the
    pid and the pipe's read end."""
    sys.stdout.flush()  # else the worker would hold a copy of what is unwritten
    sys.stderr.flush()
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    code = 1
    try:  # leave by os._exit: flush no inherited buffer, run no exit handler
        os.close(read)
        with os.fdopen(write, "wb") as out:
            try:
                for record in records:
                    marshal.dump(record, out)
                    out.flush()
            except Exception as exc:
                marshal.dump((None, (type(exc).__name__, str(exc))), out)
        code = 0
    finally:
        os._exit(code)


def _receive(stream) -> tuple[dict, list]:
    """The next record of a worker's pipe.  A pipe that ends early raises,
    and so does a worker's exception, as an OracleDisagreement if it was one."""
    try:
        counts, found = marshal.load(stream)
    except (EOFError, ValueError):
        raise RuntimeError("a census worker ended before its last record") from None
    if counts is None:
        name, text = found
        if name == OracleDisagreement.__name__:
            raise OracleDisagreement(text)
        raise RuntimeError(f"a census worker failed: {name}: {text}")
    return counts, found


def cmd_census(args) -> int:
    n = args.n
    allow_large = bool(os.environ.get(LARGE_CENSUS_VAR))
    if n > ENUMERATION_GUARD and not allow_large:
        print(
            f"census beyond n={ENUMERATION_GUARD} is gated; set {LARGE_CENSUS_VAR}=1 to override",
            file=sys.stderr,
        )
        return 1
    start = time.perf_counter()
    counts: dict[str, int] = {}
    total = non_rep = connected_non_rep = 0
    # split graphs are closed under vertex deletion: grow them from split parents
    hereditary = is_split if args.filter == "split" else None

    def brood(padj):  # the one class of order 0 has no parent
        return _children(n, padj, hereditary) if n else enumerate_graphs(0, hereditary=hereditary)

    parents = [g.adj for g in enumerate_graphs(n - 1, allow_large=allow_large,
                                               hereditary=hereditary)] if n else [()]
    # Parent i's brood goes to worker i % workers, worker 0 being this
    # process.  No two parents share a child, and the records are read
    # in parent order, so the output is that of one process.
    workers = min(_usable_cpus(), len(parents)) if hasattr(os, "fork") else 1
    shares = [_census_records(map(brood, parents[k::workers]), args.filter == "connected")
              for k in range(workers)]
    pids, streams = [], []
    try:
        for share in shares[1:]:
            pid, read = _fork_worker(share)
            pids.append(pid)
            streams.append(os.fdopen(read, "rb"))
        for i in range(len(parents)):
            k = i % workers
            brood_counts, found = _receive(streams[k - 1]) if k else next(shares[0])
            for key, cnt in brood_counts.items():
                counts[key] = counts.get(key, 0) + cnt
                total += cnt
            for g6, split, connected in found:
                non_rep += 1
                connected_non_rep += connected
                if args.json:
                    print(json.dumps({"graph6": g6, "split": split, "connected": connected}))
                else:
                    print(f"{g6}\tnon-representable" + ("\tsplit" if split else ""))
    finally:
        for stream in streams:
            stream.close()
        if pids:
            import signal  # here, so that only a census that forks loads it

            for pid in pids:  # a worker still running is no longer wanted
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    elapsed = time.perf_counter() - start
    summary = {
        "n": n,
        "filter": args.filter,
        "classes": total,
        "non_representable": non_rep,
        "connected_non_representable": connected_non_rep,
        "counts": dict(sorted(counts.items())),
        "seconds": round(elapsed, 3),
    }
    if args.json:
        print(json.dumps(summary))
    else:
        print(
            f"# n={n} filter={args.filter} classes={total} "
            f"non-representable={non_rep} "
            f"(connected: {connected_non_rep}) "
            f"seconds={summary['seconds']}"
        )
        for key, cnt in summary["counts"].items():
            print(f"#   {key}: {cnt}")
    if args.expected is not None and args.expected != non_rep:
        print(
            f"expected {args.expected} non-representable graphs, found {non_rep}",
            file=sys.stderr,
        )
        return 2
    return 0


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    try:
        # no family has fewer vertices than a parameter: fail before building
        big = max(args.params, default=0)
        if big > GRAPH6_MAX_N:
            raise ValueError(f"graph6 short form supports n <= {GRAPH6_MAX_N}, got n >= {big}")
        g = families.named(args.tag, *args.params)
        print(write_graph6(g))  # raises beyond the graph6 short form
        if args.word:
            w = families.explicit_word(args.tag, *args.params)
            assert represents(w, g)
            print(format_word(w))
        if args.orientation:
            og = families.canonical_orientation(args.tag, *args.params)
            print(orientation_bits(og))
            print(to_dot(og))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# orient


def _parse_fix(arcspec: str) -> list[tuple[int, int]]:
    """Arcs from "tail>head,..." text; the engine checks them against
    each graph."""
    arcs = []
    for part in arcspec.split(",") if arcspec else ():
        a, _, b = part.partition(">")  # b is empty when ">" is missing
        try:
            arcs.append((int(a), int(b)))
        except ValueError:
            raise ValueError(f"bad arc {part!r}; use tail>head") from None
    return arcs


def _classify_types_lines(g: Graph, og) -> int:
    """Print per-vertex type reports and any relative-order violations
    for og; returns a process exit code."""
    sp = split_partition(g)
    if sp is None:
        print("--classify-types needs a split input graph", file=sys.stderr)
        return 1
    try:
        reports = classify_all(sp, og)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    for rep in reports:
        print(json.dumps(rep.to_json()))
    if all(r.kind != KIND_INVALID for r in reports):
        for violation in check_relative_order(sp, reports):
            print(json.dumps(violation.to_json()))
    return 0


def cmd_orient(args) -> int:
    if args.bits is not None and args.fix:
        print("--bits inspects one exact orientation; it cannot take --fix", file=sys.stderr)
        return 1
    if (args.count or args.all) and (args.dot or args.classify_types):
        print("--dot and --classify-types show one orientation; they cannot take --count or --all",
              file=sys.stderr)
        return 1
    try:
        fixed = _parse_fix(args.fix)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    parsed, errors = _parse_inputs(args.inputs)
    status = 1 if errors else 0
    for g in parsed:
        g6 = write_graph6(g)
        try:  # a bad --bits string, or fixed arcs that do not fit g
            if args.bits is not None:
                og = orient_by_bits(g, args.bits)
            elif args.count:
                count = count_semi_transitive_extensions(g, fixed)
            elif args.all:
                # all_orientations order: by mask, whose bit i is character i
                found = sorted(
                    (orientation_bits(og) for og in semi_transitive_orientations(g, fixed)),
                    key=lambda bits: bits[::-1],
                )
            else:
                og = next(semi_transitive_orientations(g, fixed), None)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        if args.count:
            print(f"{g6}\t{count}")
            continue
        if args.all:
            for bits in found or ["none"]:
                print(f"{g6}\t{bits}")
            continue
        if args.bits is not None:
            verdict = "semi-transitive" if is_semi_transitive(og) else "not-semi-transitive"
            print(f"{g6}\t{args.bits}\t{verdict}")
        else:
            print(f"{g6}\t{'none' if og is None else orientation_bits(og)}")
            if og is None:
                continue
        if args.dot:
            print(to_dot(og))
        if args.classify_types:
            code = _classify_types_lines(g, og)
            if code:
                return code
    return status


# ---------------------------------------------------------------------------
# represent


def cmd_represent(args) -> int:
    try:
        checked = None if args.check is None else parse_word(args.check)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    parsed, errors = _parse_inputs(args.inputs)
    status = 1 if errors else 0
    for g in parsed:
        g6 = write_graph6(g)
        if checked is not None:
            ok = represents(checked, g)
            print(f"{g6}\t{'represents' if ok else 'does-not-represent'}")
            status = status or (0 if ok else 2)
            continue
        w = find_representant(g, args.max_uniformity)
        if w is None:
            print(f"{g6}\tnone")
        else:
            print(f"{g6}\t{format_word(w)}")
    return status


# ---------------------------------------------------------------------------
# parser plumbing


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordrep",
        description="word-representability of graphs via semi-transitive orientations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify graph6 lines")
    p.add_argument("inputs", nargs="*", help="graph6 files ('-' or none: stdin)")
    p.add_argument("--verify", action="store_true", help="cross-check with the oracle")
    p.add_argument("--witness", action="store_true", help="attach orientation witnesses")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("census", help="classify all isomorphism classes of order n")
    p.add_argument("n", type=_int_at_least(0))
    p.add_argument("--filter", choices=("all", "split", "connected"), default="all")
    p.add_argument("--expected", type=int, default=None,
                   help="exit 2 unless this many non-representable classes are found")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("generate", help="emit a named graph as graph6")
    p.add_argument("tag", help=f"one of: {', '.join(families.family_tags())}")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--orientation", action="store_true",
                   help="also emit the canonical orientation (bits + DOT)")
    p.add_argument("--word", action="store_true",
                   help="also emit the explicit representing word (odd K_TRIANGLE)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("orient", help="semi-transitive orientations of graph6 lines")
    p.add_argument("inputs", nargs="*")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="emit every orientation")
    group.add_argument("--count", action="store_true", help="emit only the count")
    group.add_argument("--bits", default=None, metavar="BITS",
                       help="inspect this exact orientation instead of searching")
    p.add_argument("--fix", default="", metavar="ARCS",
                   help="comma-separated forced arcs, e.g. 0>1,1>2")
    p.add_argument("--dot", action="store_true", help="also emit DOT text")
    p.add_argument("--classify-types", action="store_true",
                   help="print per-vertex type reports (split inputs)")
    p.set_defaults(func=cmd_orient)

    p = sub.add_parser("represent", help="bounded uniform word search")
    p.add_argument("inputs", nargs="*")
    p.add_argument("--max-uniformity", type=_int_at_least(1), default=3)
    p.add_argument("--check", default=None, metavar="WORD",
                   help="verify a word instead of searching")
    p.set_defaults(func=cmd_represent)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except OracleDisagreement as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
