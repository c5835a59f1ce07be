"""Record the expectations the benchmark checks against.

    python3 wrbench/record.py            # writes wrbench/expected.json

Run once, at a commit whose answers are trusted, from the root of its
checkout.  Classify verdicts are taken per isomorphism class with
``classify --json --verify``, which re-decides every split graph with
the orientation search and fails on any disagreement.  Orientation
counts come from ``orient --count`` and must agree with the number of
orientations ``orient --all`` lists.  The census figures are the
published class counts for n = 7 and are checked against the CLI here.
"""

from __future__ import annotations

import json
import sys

import run

CENSUS7 = {
    "all": {"classes": 1044, "non_representable": 26, "connected_non_representable": 25},
    "connected": {"classes": 853, "non_representable": 25, "connected_non_representable": 25},
    "split": {"classes": 164, "non_representable": 3, "connected_non_representable": 3},
}


def record_classes(part: str) -> dict[str, bool]:
    import corpus

    entries = corpus.classes(part)
    proc = run.run_program(["classify", "--json", "--verify"], corpus.corpus_text(entries),
                           timeout=3600)
    if proc.rc != 0 or len(proc.lines) != len(entries):
        raise SystemExit(f"{part}: classify --verify failed ({proc.rc}): {proc.stderr}")
    return {e.key: json.loads(line)["representable"] for e, line in zip(entries, proc.lines)}


def record_requests() -> dict[str, object]:
    import corpus

    out: dict[str, object] = {}
    for req in corpus.orient_requests(corpus.DEFAULT_SEED):
        proc = run.run_program(req.argv(), req.entry.graph6 + "\n")
        values = [line.split("\t")[1] for line in proc.lines]
        if proc.rc != 0 or not values:
            raise SystemExit(f"{req.key}: exited with {proc.rc}: {proc.stderr}")
        if req.kind == "count":
            out[req.key] = int(values[0])
        elif req.kind == "all":
            out[req.key] = 0 if values == ["none"] else len(values)
        else:
            out[req.key] = values != ["none"]
    for key, value in out.items():
        twin = key.replace("all:", "count:", 1)
        if key.startswith("all:") and out[twin] != value:
            raise SystemExit(f"{key}: --all lists {value}, --count says {out[twin]}")
    return out


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import check

    for flt, want in CENSUS7.items():
        argv = ["census", "7", "--filter", flt, "--json"]
        proc = run.run_program(argv)
        problems = check.check_census(proc.lines, proc.rc, want)
        if problems:
            raise SystemExit(f"census 7 --filter {flt}: {problems}")
    expected = {
        "census7": CENSUS7,
        "oracle_mixed": record_classes("oracle_mixed"),
        "split_fastpath": record_classes("split_fastpath"),
        "orient_words": record_requests(),
    }
    with open(run.HERE / "expected.json", "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
