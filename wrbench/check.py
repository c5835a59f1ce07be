"""Output checks for the wordrep benchmark.

Every certificate the CLI prints is re-verified here with the
library's own small checkers: orientation bits with
``is_semi_transitive`` (and the ``--fix`` arcs with ``has_arc``),
forbidden-pattern witnesses with ``Embedding.is_valid`` against
``families.named``, words with ``represents``.  Verdicts and counts are
compared with ``expected.json``, recorded per isomorphism class at the
seed commit.  Each function returns the problems it found; an empty
list means the output is right.
"""

from __future__ import annotations

import json
import re

from wordrep import families
from wordrep.graphs import Embedding, Graph
from wordrep.orient import is_semi_transitive, orient_by_bits
from wordrep.words import parse_word, represents

from corpus import Entry, Request


def host_graph(entry: Entry) -> Graph:
    return Graph(entry.n, entry.edges)


def pattern_graph(name: str) -> Graph:
    """The graph a pattern witness names: T1..T4, or A_l for A_GRAPH l."""
    match = re.fullmatch(r"A_(\d+)", name)
    if match:
        return families.named("A_GRAPH", int(match.group(1)))
    return families.named(name)


def orientation_problem(host: Graph, bits: str, fix=()) -> str | None:
    try:
        og = orient_by_bits(host, bits)
    except ValueError as exc:
        return f"unreadable orientation {bits!r}: {exc}"
    if not is_semi_transitive(og):
        return f"orientation {bits} is not semi-transitive"
    missing = [arc for arc in fix if not og.has_arc(*arc)]
    if missing:
        return f"orientation {bits} drops fixed arcs {missing}"
    return None


def check_verdict(entry: Entry, record: dict, expected: bool, want_orientation: bool) -> str | None:
    """One ``classify --json`` record against its class's expected
    verdict; representable verdicts must carry an orientation when
    ``want_orientation``."""
    where = f"{entry.key} ({entry.graph6})"
    if record.get("graph6") != entry.graph6:
        return f"{where}: output names graph {record.get('graph6')!r}"
    representable = record.get("representable")
    if representable is not expected:
        return f"{where}: verdict {representable}, expected {expected}"
    witness = record.get("witness") or {}
    host = host_graph(entry)
    if "orientation" in witness:
        if not representable:
            return f"{where}: orientation witness on a non-representable verdict"
        problem = orientation_problem(host, witness["orientation"])
        return f"{where}: {problem}" if problem else None
    if "pattern" in witness:
        if representable:
            return f"{where}: pattern witness on a representable verdict"
        try:
            pattern = pattern_graph(witness["pattern"])
        except ValueError:
            return f"{where}: unknown pattern {witness['pattern']!r}"
        if not Embedding(tuple(witness["vertices"])).is_valid(host, pattern):
            return f"{where}: {witness['pattern']} is not induced at {witness['vertices']}"
        return None
    if representable and want_orientation:
        return f"{where}: representable verdict without the requested orientation"
    return None


def check_classify(entries: list[Entry], lines: list[str], rc: int,
                   expected: dict[str, bool], want_orientation: bool) -> list[str]:
    """All verdicts of one classify process; one problem per wrong item."""
    if rc != 0:
        return [f"classify exited with {rc}"] * len(entries)
    problems = []
    for i, entry in enumerate(entries):
        if i >= len(lines):
            problems.append(f"{entry.key}: no verdict line")
            continue
        try:
            record = json.loads(lines[i])
        except json.JSONDecodeError:
            problems.append(f"{entry.key}: unreadable line {lines[i]!r}")
            continue
        problem = check_verdict(entry, record, expected[entry.key], want_orientation)
        if problem:
            problems.append(problem)
    if len(lines) > len(entries):
        problems.append(f"{len(lines) - len(entries)} extra output lines")
    return problems


def check_census(lines: list[str], rc: int, expected: dict[str, int]) -> list[str]:
    """A ``census --json`` run: exit code, the summary's counts, and one
    listed graph per non-representable class."""
    if rc != 0:
        return [f"census exited with {rc}"]
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return ["census printed no summary"]
    problems = [
        f"{key} = {summary.get(key)}, expected {value}"
        for key, value in expected.items()
        if summary.get(key) != value
    ]
    if len(lines) - 1 != expected["non_representable"]:
        problems.append(f"{len(lines) - 1} graphs listed, expected {expected['non_representable']}")
    return problems


def check_request(req: Request, lines: list[str], rc: int, expected) -> list[str]:
    """One orient/represent request against its recorded outcome: a count
    for ``count`` and ``all``, found-or-not for ``first`` and ``word``."""
    where = f"{req.key} ({req.entry.graph6})"
    if rc != 0:
        return [f"{where}: exited with {rc}"]
    host = host_graph(req.entry)
    rows = [line.split("\t") for line in lines]
    if not rows or any(len(r) != 2 or r[0] != req.entry.graph6 for r in rows):
        return [f"{where}: malformed output {lines!r}"]
    values = [r[1] for r in rows]
    if req.kind == "count":
        return [] if values == [str(expected)] else [f"{where}: count {values}, expected {expected}"]
    if req.kind == "all":
        if values == ["none"]:
            values = []
        bad = next((p for p in (orientation_problem(host, b) for b in values) if p), None)
        if bad:
            return [f"{where}: {bad}"]
        if len(set(values)) != expected or len(values) != expected:
            return [f"{where}: {len(values)} orientations listed, expected {expected}"]
        return []
    if len(values) != 1:
        return [f"{where}: {len(values)} lines, expected one"]
    (value,) = values
    if value == "none":
        return [] if not expected else [f"{where}: none, expected a result"]
    if not expected:
        return [f"{where}: found {value!r}, expected none"]
    if req.kind == "first":
        problem = orientation_problem(host, value, req.fix)
    else:
        try:
            ok = represents(parse_word(value), host)
        except ValueError as exc:
            ok, value = False, f"{value!r} ({exc})"
        problem = None if ok else f"word {value} does not represent the graph"
    return [f"{where}: {problem}"] if problem else []
