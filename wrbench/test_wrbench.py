"""Tests of the benchmark itself: python3 -m pytest wrbench -q"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
from spans import CALL, RESUME, LayerStats, Tracer, covered, self_times  # noqa: E402

EXPECTED = json.loads((HERE / "expected.json").read_text())


# ---------------------------------------------------------------------------
# Corpus.


def test_corpus_is_deterministic_per_seed():
    for workload in ("oracle_mixed", "split_fastpath"):
        a = corpus.corpus_text(corpus.graph_corpus(workload, 5))
        assert a == corpus.corpus_text(corpus.graph_corpus(workload, 5))
        assert a != corpus.corpus_text(corpus.graph_corpus(workload, 6))
    reqs = [(r.key, r.entry.graph6, r.fix) for r in corpus.orient_requests(5)]
    assert reqs == [(r.key, r.entry.graph6, r.fix) for r in corpus.orient_requests(5)]


def test_corpus_matches_the_recorded_expectations():
    for workload in ("oracle_mixed", "split_fastpath"):
        keys = [e.key for e in corpus.graph_corpus(workload, corpus.HELD_OUT_SEED)]
        assert len(keys) == len(set(keys)) >= 200
        assert set(keys) == set(EXPECTED[workload])
    assert {r.key for r in corpus.orient_requests(3)} == set(EXPECTED["orient_words"])


def test_graph6_encoder_agrees_with_the_library():
    from wordrep.graphs import parse_graph6

    for e in corpus.graph_corpus("oracle_mixed", 2)[:40]:
        g = parse_graph6(e.graph6)
        assert (g.n, tuple(g.edges())) == (e.n, e.edges)


def test_relabelling_keeps_fixed_arcs_on_edges():
    for req in corpus.orient_requests(9):
        edges = set(req.entry.edges)
        assert all((min(a, b), max(a, b)) in edges for a, b in req.fix)


# ---------------------------------------------------------------------------
# Spans and self time.


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(1, 3), (2, 5)], 2.5, 4) == 1.5
    assert covered([], 0, 1) == 0


def test_self_time_on_a_synthetic_span_tree():
    # root [0,10] -> a [1,4] -> c [2,3]; root -> b [5,9]; b's generator
    # resumptions g [5.5,6] and [7,7.5] nest under b.
    spans = [
        (0, 0.0, 10.0, -1, None, CALL),
        (1, 1.0, 4.0, 0, True, CALL),
        (2, 2.0, 3.0, 1, False, CALL),
        (1, 5.0, 9.0, 0, True, CALL),
        (3, 5.5, 6.0, 3, True, RESUME),
        (3, 7.0, 7.5, 3, False, RESUME),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 3.0, 0.5, 0.5]
    stats = LayerStats()
    stats.add(["root", "a", "c", "g"], spans)
    assert stats.self_s == {"root": 3.0, "a": 5.0, "c": 1.0, "g": 1.0}
    assert stats.calls == {"root": 1, "a": 2, "c": 1}
    assert stats.hits["a"] == 2 and stats.hits["c"] == 0
    assert stats.yielded["g"] == 1


def test_tracer_spans_calls_and_generator_resumptions():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))

    def leaf(x):
        return x if x else None

    wrapped_leaf = tracer.wrap("leaf", leaf)

    def gen(k):
        for i in range(k):
            wrapped_leaf(i)
            yield i

    wrapped_gen = tracer.wrap("gen", gen)
    root = tracer.wrap("root", lambda: list(wrapped_gen(2)))
    assert root() == [0, 1]
    assert not tracer.stack
    by_name = [(tracer.names[s[0]], s[3], s[4], s[5]) for s in tracer.spans]
    assert by_name == [
        ("root", -1, True, CALL),
        ("gen", 0, True, CALL),
        ("gen", 0, True, RESUME),
        ("leaf", 2, False, CALL),
        ("gen", 0, True, RESUME),
        ("leaf", 4, True, CALL),
        ("gen", 0, False, RESUME),
    ]


def test_traced_cli_sees_calls_through_every_binding(tmp_path):
    """split_partition is called from cli and from classify through their
    own imported names, is_word_representable from cli: all are traced."""
    span_file = tmp_path / "spans.bin"
    graphs = "".join(corpus.Entry(t, *corpus._named(t)).graph6 + "\n" for t in ("T1", "W5"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "traced_cli.py"), str(span_file), "classify"],
        input=graphs, capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(HERE.parent / "src")})
    assert proc.returncode == 0, proc.stderr
    import marshal

    names, spans = marshal.loads(span_file.read_bytes())
    callers = {(names[s[0]], names[spans[s[3]][0]] if s[3] >= 0 else None) for s in spans}
    assert ("split.split_partition", "cli") in callers
    assert ("split.split_partition", "classify.classify_split") in callers
    assert ("orient.is_word_representable", "cli") in callers
    assert ("orient.find_semi_transitive_orientation", "orient.is_word_representable") in callers
    assert ("cli", None) in callers


# ---------------------------------------------------------------------------
# Checker.


def _triangle():
    return corpus.Entry("k3", 3, ((0, 1), (0, 2), (1, 2)))


def test_checker_rejects_a_corrupted_orientation_bit():
    entry = _triangle()
    good = {"graph6": entry.graph6, "representable": True, "reason": "X",
            "witness": {"orientation": "000"}}
    assert check.check_verdict(entry, good, True, True) is None
    bad = dict(good, witness={"orientation": "010"})  # 0->1, 2->0, 1->2: a cycle
    assert "not semi-transitive" in check.check_verdict(entry, bad, True, True)


def test_checker_rejects_a_flipped_verdict_and_a_bad_pattern():
    entry = corpus.Entry("t1", *corpus._named("T1"))
    record = {"graph6": entry.graph6, "representable": False, "reason": "X",
              "witness": {"pattern": "T1", "vertices": list(range(7))}}
    assert check.check_verdict(entry, record, False, False) is None
    assert "expected True" in check.check_verdict(entry, record, True, False)
    moved = dict(record, witness={"pattern": "T1", "vertices": [1, 0, 2, 3, 4, 5, 6]})
    assert "not induced" in check.check_verdict(entry, moved, False, False)


def test_checker_rejects_a_wrong_census_count():
    want = EXPECTED["census7"]["split"]
    lines = ["{}"] * 3 + [json.dumps(dict(want, classes=163))]
    assert check.check_census(lines, 0, want) == ["classes = 163, expected 164"]
    assert check.check_census(lines[:-1] + [json.dumps(want)], 0, want) == []
    assert check.check_census(lines, 2, want) == ["census exited with 2"]


def test_checker_rejects_a_missing_fixed_arc_and_a_wrong_word():
    from wordrep import families
    from wordrep.orient import orientation_bits

    entry = corpus.Entry("kt5", *corpus._named("K_TRIANGLE", 5))
    req = corpus.Request("kt5", "first", entry, corpus._transitive_clique(5))
    bits = orientation_bits(families.canonical_orientation("K_TRIANGLE", 5))
    assert check.check_request(req, [f"{entry.graph6}\t{bits}"], 0, True) == []
    reverse = bits.translate(str.maketrans("01", "10"))  # still semi-transitive
    assert "drops fixed arcs" in check.check_request(req, [f"{entry.graph6}\t{reverse}"], 0, True)[0]
    c5 = corpus.Request("c5", "word", corpus.Entry("c5", *corpus._named("C", 5)))
    assert check.check_request(c5, [f"{c5.entry.graph6}\t0 1 4 0 3 4 2 3 1 2"], 0, True) == []
    assert "does not represent" in check.check_request(c5, [f"{c5.entry.graph6}\t0 1 2 3 4"], 0, True)[0]


def test_a_flipped_expectation_fails_the_run(tmp_path):
    corrupted = json.loads(json.dumps(EXPECTED))
    key = sorted(corrupted["split_fastpath"])[0]
    corrupted["split_fastpath"][key] = not corrupted["split_fastpath"][key]
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(corrupted))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "corpora", "--seed", "3",
         "--seconds", "0", "--expected", str(path)],
        capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 1
    assert (result["correct"], result["failed"], result["attempted"]) == (False, 1, 210 + 804)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_metrics()
