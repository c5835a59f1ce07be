"""CLI surface: line protocols, JSON schemas, exit codes."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wordrep import cli, families
from wordrep.cli import main
from wordrep.graphs import Graph, parse_graph6, write_graph6
from wordrep.orient import (
    OracleDisagreement,
    OrientedGraph,
    is_forcing_chain,
    is_semi_transitive,
    orient_by_bits,
    orientation_bits,
)
from wordrep.words import parse_word, represents
from conftest import EXHAUSTIVE


SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*argv, preexec_fn=None, stdin=None, env=None):
    """Run ``python -m wordrep.cli`` in a fresh interpreter on this tree,
    with ``env`` added to the environment."""
    env = {**os.environ, "PYTHONPATH": str(SRC), **(env or {})}
    return subprocess.run([sys.executable, "-m", "wordrep.cli", *argv], stdin=stdin,
                          capture_output=True, text=True, env=env, preexec_fn=preexec_fn)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def g6(tag, *params):
    return write_graph6(families.named(tag, *params))


def test_classify_lines(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(f"{g6('W5')}\n{g6('T1')}\n{g6('K', 4)}\n")
    code, out, err = run(capsys, "classify", str(path))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].split("\t")[1:3] == ["non-representable", "NEIGHBOURHOOD"]
    assert lines[1].split("\t")[1:3] == ["non-representable", "THEOREM_MAIN1"]
    assert "witness=A_4:" in lines[1]
    # K4 reduces to one vertex, and the reason names the rung that decided it
    assert lines[2].split("\t")[1:3] == ["representable", "COMPARABILITY"]


def test_classify_json_schema(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(f"{g6('T3')}\n{g6('K_TRIANGLE', 4)}\n")
    code, out, err = run(capsys, "classify", str(path), "--json", "--witness", "--verify")
    assert code == 0
    first, second = map(json.loads, out.splitlines())
    assert set(first) == {"graph6", "representable", "reason", "witness"}
    assert first["representable"] is False
    assert first["reason"] == "THEOREM_MAIN2"
    assert first["witness"]["pattern"] == "T3"
    assert isinstance(first["witness"]["vertices"], list)
    assert second["representable"] is True
    bits = second["witness"]["orientation"]
    og = orient_by_bits(parse_graph6(second["graph6"]), bits)
    assert is_semi_transitive(og)


def test_classify_neighbourhood_chain(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(f"{g6('W5')}\n")
    code, out, err = run(capsys, "classify", str(path), "--json", "--witness", "--verify")
    assert code == 0
    record = json.loads(out)
    assert (record["representable"], record["reason"]) == (False, "NEIGHBOURHOOD")
    witness = record["witness"]
    assert set(witness) == {"vertex", "chain"}
    assert is_forcing_chain(parse_graph6(record["graph6"]), witness["vertex"], witness["chain"])
    code, out, err = run(capsys, "classify", str(path))
    chain = ",".join(f"{a}>{b}" for a, b in witness["chain"])
    assert out.split("\t")[3] == f"chain={witness['vertex']}:{chain}\n"


def test_classify_parse_errors_exit_1(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(f"{g6('W5')}\n\x01bogus\n")
    code, out, err = run(capsys, "classify", str(path))
    assert code == 1
    assert "line 2" in err
    assert len(out.splitlines()) == 1  # the good line still classified


def test_parse_errors_name_the_file_and_its_own_line(tmp_path, capsys):
    first = tmp_path / "a.g6"
    first.write_text(f"{g6('W5')}\n{g6('T1')}\n{g6('K', 4)}\n")
    second = tmp_path / "b.g6"
    second.write_text(f"\x01bogus\n{g6('K', 3)}\n")
    code, out, err = run(capsys, "classify", str(first), str(second))
    assert code == 1
    assert len(out.splitlines()) == 4
    assert len(err.splitlines()) == 1 and err.startswith(f"{second}: line 1: ")


def test_classify_reads_stdin(capsys, monkeypatch):
    data = f"{g6('K', 4)}\n\n\x01bogus\n{g6('W5')}\n".encode()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, out, err = run(capsys, "classify")
    assert code == 1
    lines = out.splitlines()
    assert [line.split("\t")[1:3] for line in lines] == [
        ["representable", "COMPARABILITY"],
        ["non-representable", "NEIGHBOURHOOD"],
    ]
    assert len(err.splitlines()) == 1 and err.startswith("line 3: ")


def test_census_small(capsys):
    code, out, err = run(capsys, "census", "6", "--expected", "1")
    assert code == 0
    lines = out.splitlines()
    non_rep = [l for l in lines if not l.startswith("#")]
    assert len(non_rep) == 1
    from wordrep.graphs import is_isomorphic

    assert is_isomorphic(parse_graph6(non_rep[0].split("\t")[0]), families.named("W5"))
    assert any("classes=156" in l for l in lines)


def test_census_expectation_mismatch(capsys):
    code, out, err = run(capsys, "census", "5", "--expected", "3")
    assert code == 2
    assert "expected 3" in err


def test_census_split_filter(capsys):
    code, out, err = run(capsys, "census", "6", "--filter", "split", "--expected", "0", "--json")
    assert code == 0
    summary = json.loads(out.splitlines()[-1])
    assert summary["classes"] == 56
    assert summary["non_representable"] == 0


def test_census_guard(capsys, monkeypatch):
    monkeypatch.delenv("WORDREP_ALLOW_LARGE_CENSUS", raising=False)
    code, out, err = run(capsys, "census", "9")
    assert code == 1
    assert "WORDREP_ALLOW_LARGE_CENSUS" in err


SECONDS = re.compile(r"(seconds(?:=|\": ))[0-9.]+")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n", range(9))
def test_census_output_does_not_depend_on_the_worker_count(capsys, monkeypatch, n):
    real_fork, forks = os.fork, []

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    for flt in ("all", "connected", "split"):
        for fmt in ([], ["--json"]):
            seen = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(cli, "_usable_cpus", lambda k=workers: k)
                code, out, err = run(capsys, "census", str(n), "--filter", flt, *fmt)
                seen.append((code, SECONDS.sub(r"\g<1>0", out), err))
            assert seen[1] == seen[0] and seen[2] == seen[0], (flt, fmt)
    # order n has one parent per class of order n-1: 1, 1, 2, 4, ... classes
    assert bool(forks) == (n >= 3)
    assert_no_child_left()


def in_worker(action):
    """A stand-in for the CLI's ``_verdict_for`` that runs ``action`` in
    a census worker and classifies as usual in the main process."""
    main_pid, verdict_for = os.getpid(), cli._verdict_for

    def verdict(*args):
        if os.getpid() != main_pid:
            action()
        return verdict_for(*args)

    return verdict


def test_census_worker_disagreement_exits_3(capsys, monkeypatch):
    def disagree():
        raise OracleDisagreement("planted in a worker")

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_verdict_for", in_worker(disagree))
    code, out, err = run(capsys, "census", "6")
    assert code == 3
    assert err == "internal invariant violation: planted in a worker\n"
    assert "classes=" not in out
    assert_no_child_left()


def test_census_worker_that_dies_is_an_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_verdict_for", in_worker(lambda: os._exit(1)))
    with pytest.raises(RuntimeError, match="census worker ended before its last record"):
        main(["census", "6"])
    assert "classes=" not in capsys.readouterr().out
    assert_no_child_left()
    # and a process exits non-zero, without totals
    script = ("import os, sys\n"
              "from wordrep import cli\n"
              "main_pid, verdict_for = os.getpid(), cli._verdict_for\n"
              "def verdict(*args):\n"
              "    if os.getpid() != main_pid:\n"
              "        os._exit(1)\n"
              "    return verdict_for(*args)\n"
              "cli._usable_cpus, cli._verdict_for = lambda: 2, verdict\n"
              "sys.exit(cli.main(['census', '6']))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "census worker ended before its last record" in proc.stderr
    assert "classes=" not in proc.stdout


class BrokenStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError


def test_census_stopped_early_reaps_its_workers(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert main(["census", "6", "--expected", "2"]) == 2  # the exit after the summary
    assert_no_child_left()
    monkeypatch.setattr(sys, "stdout", BrokenStdout())  # W5's line finds stdout closed
    assert main(["census", "6"]) == 0
    assert_no_child_left()
    monkeypatch.undo()

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_verdict_for", interrupt)  # in the main process too
    with pytest.raises(KeyboardInterrupt):
        main(["census", "6"])
    assert_no_child_left()


def test_census_under_dev_mode_warns_nothing():
    # Real forked workers and a real pipe: a worker pipe left open is a
    # ResourceWarning, forking with threads a DeprecationWarning, and -W
    # error turns either into a traceback on stderr.
    cmd = [sys.executable, "-X", "dev", "-W", "error", "-m", "wordrep.cli", "census", "7"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([*cmd, "--json"], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout.splitlines()[-1])["classes"] == 1044
    # -u: each line reaches the pipe as printed, so the reader's close
    # lands while the census still runs and its next line meets EPIPE
    reader = subprocess.Popen([cmd[0], "-u", *cmd[1:]], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env)
    assert reader.stdout.readline().endswith(b"\tnon-representable\tsplit\n")
    reader.stdout.close()
    _, err = reader.communicate(timeout=120)
    assert (reader.returncode, err) == (0, b"")


@pytest.mark.skipif(not EXHAUSTIVE, reason="census 9 takes minutes; set WORDREP_EXHAUSTIVE=1")
def test_census_9_connected(capsys, monkeypatch):
    # the repo's own count: every representable verdict at n = 9 carries an
    # orientation that an independent shortcut walk accepted
    monkeypatch.setenv("WORDREP_ALLOW_LARGE_CENSUS", "1")
    code, out, err = run(capsys, "census", "9", "--filter", "connected", "--json",
                         "--expected", "54957")
    assert code == 0, err
    summary = json.loads(out.splitlines()[-1])
    assert summary["classes"] == 261080
    assert summary["connected_non_representable"] == 54957


def test_generate(capsys):
    code, out, err = run(capsys, "generate", "K_TRIANGLE", "6", "--orientation")
    assert code == 0
    lines = out.splitlines()
    assert parse_graph6(lines[0]) == families.k_triangle(6)
    og = orient_by_bits(families.k_triangle(6), lines[1])
    assert og == families.k_triangle_canonical_orientation(6)
    assert lines[2] == "digraph G {"
    assert any("->" in l for l in lines[3:])


def test_generate_a_graph_is_t1(capsys):
    code, out, err = run(capsys, "generate", "A_GRAPH", "4")
    assert code == 0
    from wordrep.graphs import is_isomorphic

    assert is_isomorphic(parse_graph6(out.strip()), families.named("T1"))


def test_generate_word(capsys):
    code, out, err = run(capsys, "generate", "K_TRIANGLE", "5", "--word")
    assert code == 0
    g6line, word = out.splitlines()
    assert represents(parse_word(word), parse_graph6(g6line))


def test_generate_errors(capsys):
    code, out, err = run(capsys, "generate", "NOPE")
    assert code == 1
    code, out, err = run(capsys, "generate", "K_L_K", "5", "3", "--orientation")
    assert code == 0
    code, out, err = run(capsys, "generate", "T4", "--orientation")
    assert code == 1
    assert "no canonical orientation" in err
    code, out, err = run(capsys, "generate", "T4", "--word")
    assert (code, out, err) == (1, "G~rcd_\n", "no explicit word defined for T4\n")
    code, out, err = run(capsys, "generate", "K_TRIANGLE", "4", "--word")
    assert (code, err) == (1, "the explicit word needs odd l >= 3\n")
    code, out, err = run(capsys, "generate", "K", "63")  # beyond graph6 short form
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "n <= 62" in err


def test_generate_rejects_a_large_parameter_before_building_the_graph():
    # K_100000 needs about 1.25 GB of adjacency; under a 256 MB
    # address-space cap, building it would die with a MemoryError
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    proc = run_module("generate", "K", "100000", preexec_fn=cap)
    assert proc.returncode == 1 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "n <= 62" in proc.stderr


def test_orient_default_and_none(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(f"{g6('K_TRIANGLE', 3)}\n{g6('T4')}\n")
    code, out, err = run(capsys, "orient", str(path))
    assert code == 0
    lines = out.splitlines()
    g, bits = lines[0].split("\t")
    og = orient_by_bits(parse_graph6(g), bits)
    assert is_semi_transitive(og)
    assert lines[1].endswith("\tnone")


def test_orient_count_with_fixed_clique(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(g6("K_TRIANGLE", 3) + "\n")
    code, out, err = run(capsys, "orient", str(path), "--count", "--fix", "0>1,1>2,0>2")
    assert code == 0
    assert out.strip().split("\t")[1] == "4"


def test_orient_fix_rejects_an_edge_named_twice(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(write_graph6(families.complete(3)) + "\n")
    for fix in ("0>1,1>0", "0>1,0>1"):
        for mode in ([], ["--count"], ["--all"]):
            code, out, err = run(capsys, "orient", str(path), *mode, "--fix", fix)
            assert code == 1 and out == ""
            assert len(err.splitlines()) == 1 and "more than once" in err


def test_orient_fix_rejects_a_malformed_arc(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(write_graph6(families.complete(3)) + "\n")
    for fix in ("a>b", "0>"):
        for mode in ([], ["--count"], ["--all"]):
            code, out, err = run(capsys, "orient", str(path), *mode, "--fix", fix)
            assert code == 1 and out == ""
            assert err == f"bad arc {fix!r}; use tail>head\n"


def test_orient_fix_rejects_a_non_edge(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(write_graph6(Graph(3, [(0, 1), (1, 2)])) + "\n")
    for fix in ("0>2", "5>0", "0>-1"):
        for mode in ([], ["--count"], ["--all"]):
            code, out, err = run(capsys, "orient", str(path), *mode, "--fix", fix)
            assert code == 1 and out == ""
            assert len(err.splitlines()) == 1 and "not an edge" in err


def test_classify_and_orient_on_k50(tmp_path, capsys):
    # 1225 edges: deeper than Python's recursion limit
    code, out, err = run(capsys, "generate", "K", "50")
    assert code == 0
    path = tmp_path / "in.g6"
    path.write_text(out)
    code, out, err = run(capsys, "classify", "--witness", str(path))
    assert code == 0
    g, status, _, extra = out.rstrip("\n").split("\t")
    assert status == "representable" and extra.startswith("orientation=")
    assert is_semi_transitive(orient_by_bits(parse_graph6(g), extra[len("orientation="):]))
    code, out, err = run(capsys, "orient", str(path))
    assert code == 0
    g, bits = out.rstrip("\n").split("\t")
    assert is_semi_transitive(orient_by_bits(parse_graph6(g), bits))


def test_orient_all_lists_every_orientation(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(write_graph6(families.complete(3)) + "\n")
    code, out, err = run(capsys, "orient", str(path), "--all")
    assert code == 0
    assert len(out.splitlines()) == 6


def test_orient_classify_types(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(g6("K_TRIANGLE", 6) + "\n")
    code, out, err = run(capsys, "orient", str(path), "--classify-types")
    assert code == 0
    lines = out.splitlines()
    reports = [json.loads(l) for l in lines[1:]]
    kinds = sorted(r["kind"] for r in reports)
    assert kinds == ["B", "B", "B", "B", "B", "C"]
    cvert = next(r for r in reports if r["kind"] == "C")
    assert cvert["source_group"] == [0] and cvert["sink_group"] == [5]
    assert cvert["boundary"] == [0, 5]


def test_orient_bits_inspection(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(g6("T3") + "\n")
    # clique oriented 0->1->2->3, vertices 4 and 5 made sinks, vertex 6
    # threaded 0->6, 1->6, 6->3: every vertex is typed but the type-B
    # vertex 4 straddles vertex 6's boundary pair
    code, out, err = run(capsys, "orient", str(path), "--bits", "000000000000001",
                         "--classify-types")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith("\tnot-semi-transitive")
    payloads = [json.loads(l) for l in lines[1:]]
    reports = [p for p in payloads if "kind" in p and "vertex" in p]
    violations = [p for p in payloads if "y" in p]
    assert sorted(r["kind"] for r in reports) == ["B", "B", "C"]
    assert violations == [{"y": 4, "x": 6, "boundary": [1, 3], "kind": "AB"}]


def test_orient_classify_types_rejects_what_it_cannot_type(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(write_graph6(families.cycle(4)) + "\n")
    code, out, err = run(capsys, "orient", str(path), "--classify-types")
    assert code == 1 and len(out.splitlines()) == 1
    assert err == "--classify-types needs a split input graph\n"
    # bits 010 orient the triangle 0->1->2->0
    path.write_text(write_graph6(families.complete(3)) + "\n")
    code, out, err = run(capsys, "orient", str(path), "--bits", "010", "--classify-types")
    assert code == 1 and out == "Bw\t010\tnot-semi-transitive\n"
    assert err == "clique is not transitively oriented\n"


def test_orient_classify_types_prints_invalid_reports_without_violations(tmp_path, capsys):
    # vertex 3 sends both edges to the path 0->1->2, over positions 0 and 2
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 0), (3, 2), (0, 4)])
    bits = orientation_bits(OrientedGraph(g, [(0, 1), (1, 2), (0, 2), (3, 0), (3, 2), (0, 4)]))
    path = tmp_path / "in.g6"
    path.write_text(write_graph6(g) + "\n")
    code, out, err = run(capsys, "orient", str(path), "--bits", bits, "--classify-types")
    assert code == 0 and err == ""
    assert [json.loads(l) for l in out.splitlines()[1:]] == [
        {"vertex": 3, "kind": "INVALID", "source_group": [], "sink_group": [], "boundary": None},
        {"vertex": 4, "kind": "B", "source_group": [], "sink_group": [], "boundary": None},
    ]


def test_orient_classify_types_lists_type_c_group_violations(tmp_path, capsys):
    # two type-C vertices over the path 0->...->4: 6's sink group holds
    # 5's boundary pair, and 5's source group holds 6's
    clique = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    g = Graph(7, clique + [(5, 0), (5, 1), (5, 2), (5, 4), (6, 0), (6, 2), (6, 3), (6, 4)])
    og = OrientedGraph(g, clique + [(0, 5), (1, 5), (2, 5), (5, 4), (0, 6), (6, 2), (6, 3), (6, 4)])
    path = tmp_path / "in.g6"
    path.write_text(write_graph6(g) + "\n")
    code, out, err = run(capsys, "orient", str(path), "--bits", orientation_bits(og),
                         "--classify-types")
    assert code == 0 and err == ""
    assert [json.loads(l) for l in out.splitlines()[1:]] == [
        {"vertex": 5, "kind": "C", "source_group": [0, 1, 2], "sink_group": [4],
         "boundary": [2, 4]},
        {"vertex": 6, "kind": "C", "source_group": [0], "sink_group": [2, 3, 4],
         "boundary": [0, 2]},
        {"y": 6, "x": 5, "boundary": [2, 4], "kind": "C_SINK_GROUP"},
        {"y": 5, "x": 6, "boundary": [0, 2], "kind": "C_SOURCE_GROUP"},
    ]


def test_orient_bits_rejects_search_options(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(write_graph6(families.complete(3)) + "\n")
    # bits 000 orient 0->1, 0->2, 1->2, against the fixed arc 1>0
    for extra in (["--fix", "1>0"], ["--count"], ["--all"]):
        code, out, err = run(capsys, "orient", str(path), "--bits", "000", *extra)
        assert code == 1 and out == ""
        assert err
    code, out, err = run(capsys, "orient", str(path), "--bits", "000", "--dot",
                         "--classify-types")
    assert code == 0
    assert out.splitlines()[0] == "Bw\t000\tsemi-transitive"


def test_orient_count_and_all_reject_single_orientation_output(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(g6("K_TRIANGLE", 3) + "\n")
    for mode in ("--count", "--all"):
        for extra in ("--dot", "--classify-types"):
            code, out, err = run(capsys, "orient", str(path), mode, extra)
            assert code == 1 and out == ""
            assert len(err.splitlines()) == 1 and mode in err and extra in err


def test_represent_roundtrip(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(f"{g6('K', 3)}\n{g6('W5')}\n")
    code, out, err = run(capsys, "represent", str(path), "--max-uniformity", "3")
    assert code == 0
    lines = out.splitlines()
    w = parse_word(lines[0].split("\t")[1])
    assert represents(w, families.complete(3))
    assert lines[1].endswith("\tnone")


def test_represent_gives_up_quickly_on_non_representable_graphs(tmp_path, capsys):
    # the first copies' shortcut prune keeps the search small at every
    # uniformity; without it T1 took 28 s at k = 4 alone
    import signal

    def expire(signum, frame):
        raise TimeoutError("represent took more than 10 s")

    path = tmp_path / "in.g6"
    path.write_text(f"{g6('W5')}\n{g6('T1')}\n")
    previous = signal.signal(signal.SIGALRM, expire)
    try:
        signal.alarm(10)
        code, out, err = run(capsys, "represent", str(path), "--max-uniformity", "6")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0 and err == ""
    assert out == f"{g6('W5')}\tnone\n{g6('T1')}\tnone\n"


def test_represent_check(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(g6("FIG2_EXAMPLE") + "\n")
    code, out, err = run(capsys, "represent", str(path), "--check", "0102312")
    assert code == 0
    assert "\trepresents" in out
    code, out, err = run(capsys, "represent", str(path), "--check", "0123")
    assert code == 2


def test_represent_check_rejects_a_bad_word_before_any_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"")))
    code, out, err = run(capsys, "represent", "--check", "01a")
    assert code == 1 and out == ""
    assert err == "cannot parse word '01a'\n"


def test_usage_error_exits_1(capsys):
    assert main(["census"]) == 1
    assert main(["bogus"]) == 1
    assert main(["--help"]) == 0


def test_census_negative_order_is_a_usage_error(capsys):
    code, out, err = run(capsys, "census", "-1")
    assert code == 1 and out == ""
    assert err.startswith("usage:") and "at least 0" in err


def test_represent_zero_uniformity_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(g6("K", 3) + "\n")
    code, out, err = run(capsys, "represent", str(path), "--max-uniformity", "0")
    assert code == 1 and out == ""
    assert err.startswith("usage:") and "at least 1" in err


def test_internal_disagreement_exits_3(tmp_path, capsys, monkeypatch):
    from wordrep.orient import OracleDisagreement
    import wordrep.cli as cli

    def boom(*args, **kwargs):
        raise OracleDisagreement("synthetic disagreement")

    monkeypatch.setattr(cli, "_verdict_for", boom)
    path = tmp_path / "in.g6"
    path.write_text(g6("K", 3) + "\n")
    code, out, err = run(capsys, "classify", str(path))
    assert code == 3
    assert "invariant violation" in err


def test_a_wrong_explicit_word_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(families, "explicit_word", lambda tag, *params: (0, 1, 0, 1))
    code, out, err = run(capsys, "generate", "K_TRIANGLE", "5", "--word")
    assert code == 3
    assert err.startswith("internal invariant violation: ")
    # the check is a raise, not an assert, so python -O keeps it
    script = ("import sys; from wordrep import cli, families; "
              "families.explicit_word = lambda tag, *params: (0, 1, 0, 1); "
              "sys.exit(cli.main(['generate', 'K_TRIANGLE', '5', '--word']))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 3
    assert proc.stderr.startswith("internal invariant violation: ")


@pytest.mark.parametrize("command", ["classify", "orient", "represent"])
def test_unreadable_input_is_one_stderr_line(tmp_path, command):
    missing = tmp_path / "missing.g6"
    good = tmp_path / "in.g6"
    good.write_text(g6("K", 3) + "\n")
    proc = run_module(command, str(missing), str(good))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(f"{missing}: ")
    assert proc.stdout.startswith(g6("K", 3) + "\t")  # the readable file is still processed


UNDECODABLE = f"{g6('K', 3)}\n".encode() + b"\xff\n" + f"{g6('W5')}\n".encode()


@pytest.mark.parametrize("command", ["classify", "orient", "represent"])
def test_undecodable_byte_is_one_parse_error(tmp_path, command):
    path = tmp_path / "in.g6"
    path.write_bytes(UNDECODABLE)
    proc = run_module(command, str(path))
    assert proc.returncode == 1
    assert proc.stderr == f"{path}: line 2: invalid header byte 255 (byte offset 0)\n"
    assert [line.split("\t")[0] for line in proc.stdout.splitlines()] == [g6("K", 3), g6("W5")]


@pytest.mark.parametrize("encoding", ["utf-8", "ascii"])
def test_undecodable_stdin_byte_is_one_parse_error(tmp_path, encoding):
    path = tmp_path / "in.g6"
    path.write_bytes(UNDECODABLE)
    with path.open("rb") as handle:
        proc = run_module("classify", stdin=handle, env={"PYTHONIOENCODING": encoding})
    assert proc.returncode == 1
    assert proc.stderr == "line 2: invalid header byte 255 (byte offset 0)\n"
    assert [line.split("\t")[0] for line in proc.stdout.splitlines()] == [g6("K", 3), g6("W5")]


def test_module_entry_point_matches_main(capsys):
    proc = run_module("generate", "K", "3")
    assert proc.returncode == 0
    assert main(["generate", "K", "3"]) == 0
    assert proc.stdout == capsys.readouterr().out
