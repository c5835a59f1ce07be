"""The wordrep benchmark: drives the ``wordrep`` CLI the way its users do
and checks every answer.

    python3 wrbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` there, in fresh interpreters, one per CLI call.  Each workload
repeats passes over its seeded input until ``--seconds`` have gone by
(at least one pass), closed loop: a pass runs its CLI calls one after
another.  ``--workload all`` runs every workload in turn.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` each pass is run twice,
untraced and then with spans recorded around the library's public
functions (see ``spans.py``), and the object holds the per-layer
metrics instead.  A wrong answer is counted in ``failed`` and makes the
exit code 1.  See ``README.md`` for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".wrbench"

SETUP_PER_PASS = 3
REQUEST_TIMEOUT_S = 60
CLI = "from wordrep.cli import console_main; console_main()"
# wordrep's runtime is pure standard library, so program processes skip
# site-packages (-S): processing them costs 40-100 ms per interpreter
# here, varies from run to run, and belongs to the machine's installed
# packages rather than to wordrep.
PYTHON = (sys.executable, "-S")
ENV = dict(os.environ, PYTHONPATH=str(SRC))
# Each workload runs its parts in turn.  Two workloads rather than one
# per part: this machine's speed drifts by tens of percent for a minute
# at a time, and only runs of about a minute (which the time budget
# allows for two workloads) kept run-to-run spreads inside the bounds.
WORKLOADS = {
    "requests": ("census7", "orient_words"),
    "corpora": ("oracle_mixed", "split_fastpath"),
}
# classify parts, and whether each asks for --witness
CLASSIFY_PARTS = {"oracle_mixed": True, "split_fastpath": False}
CENSUS_FILTERS = ("all", "connected", "split")
REASONS = ("CLIQUE_LE_3", "COMPARABILITY", "THEOREM_MAIN1", "THEOREM_MAIN2", "ORACLE_SEARCH")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in output order."""
    from spans import ROOT as CLI_ROOT, TARGETS

    ratios = {
        "graphs.is_isomorphic": "true_ratio",
        "orient.find_semi_transitive_orientation": "found_ratio",
        "split.split_partition": "split_ratio",
        "graphs.contains_induced": "hit_ratio",
        "words.find_representant": "found_ratio",
    }
    out = []
    for module, func in TARGETS:
        name = f"{module}.{func}"
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
        if func in ("enumerate_graphs", "all_orientations"):
            out.append((f"{name}.yielded", "count", "lower"))
        if name in ratios:
            out.append((f"{name}.{ratios[name]}", "ratio", "higher"))
        if name == "split.split_partition":
            out.append((f"{name}.calls_per_input", "count", "lower"))
    out.append((f"{CLI_ROOT}.self_s", "s", "lower"))
    for reason in REASONS:
        out.append((f"classify.reason.{reason}.count", "count",
                    "lower" if reason == "ORACLE_SEARCH" else "higher"))
        out.append((f"classify.reason.{reason}.latency_s", "s", "lower"))
    out += [("trace.overhead_s", "s", "lower"), ("trace.overhead_ratio", "ratio", "lower")]
    return out


# ---------------------------------------------------------------------------
# Running the program.


@dataclass
class Proc:
    """One finished CLI process: exit code, stdout lines with the time
    each arrived, wall time from spawn to exit, peak RSS in KiB."""

    rc: int
    lines: list[str]
    stamps: list[float]
    wall: float
    rss_kb: int
    stderr: str


def run_program(argv: list[str], stdin_text: str = "", span_file: Path | None = None,
                timeout: float = REQUEST_TIMEOUT_S) -> Proc:
    """Run ``wordrep argv`` (or the traced launcher when ``span_file`` is
    given) unbuffered, timestamping each output line as it arrives."""
    if span_file is None:
        cmd = [*PYTHON, "-u", "-c", CLI, *argv]
    else:
        cmd = [*PYTHON, "-u", str(HERE / "traced_cli.py"), str(span_file), *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    err: list[str] = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    try:
        try:
            proc.stdin.write(stdin_text)
            proc.stdin.close()
        except BrokenPipeError:
            pass  # the program exited early; its exit code tells the checker
        lines, stamps = [], []
        for line in proc.stdout:
            stamps.append(time.perf_counter())
            lines.append(line.rstrip("\n"))
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        drain.join()
        proc.stdout.close()
        proc.stderr.close()
    return Proc(proc.returncode, lines, stamps, wall, usage.ru_maxrss, "".join(err))


# ---------------------------------------------------------------------------
# Workloads.  A pass returns what it did and what went wrong.


@dataclass
class Pass:
    wall: float = 0.0
    items: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    rss_kb: int = 0
    reasons: dict[str, list[float]] = field(default_factory=lambda: {r: [0, 0.0] for r in REASONS})
    span_files: list[Path] = field(default_factory=list)

    def add_proc(self, proc: Proc, items: int, problems: list[str], whole: bool) -> None:
        """Account one process.  With ``whole`` any problem fails all its
        items (a census or a request, one item each); otherwise each
        problem is one wrong item (a classify process)."""
        self.wall += proc.wall
        self.items += items
        self.rss_kb = max(self.rss_kb, proc.rss_kb)
        if problems:
            self.failed += items if whole else min(len(problems), items)
        if problems and proc.stderr:
            problems = problems + [f"stderr: {proc.stderr.strip()[-500:]}"]
        self.problems += problems


class Workload:
    """Inputs and expectations for one workload under one seed.  A
    workload is a sequence of parts; a pass runs every part once."""

    def __init__(self, name: str, seed: int, expected: dict):
        import corpus

        self.name = name
        self.parts = WORKLOADS[name]
        self.expected = expected
        self.entries = {part: corpus.graph_corpus(part, seed)
                        for part in self.parts if part in CLASSIFY_PARTS}
        self.texts = {part: corpus.corpus_text(e) for part, e in self.entries.items()}
        self.requests = corpus.orient_requests(seed) if "orient_words" in self.parts else []
        self.spans = 0

    def _span_file(self, p: Pass, traced: bool) -> Path | None:
        if not traced:
            return None
        self.spans += 1
        path = WORK_DIR / f"spans-{os.getpid()}-{self.spans}.bin"
        p.span_files.append(path)
        return path

    def run_pass(self, traced: bool = False) -> Pass:
        import check

        p = Pass()
        for part in self.parts:
            want = self.expected[part]
            if part == "census7":
                for flt in CENSUS_FILTERS:
                    argv = ["census", "7", "--filter", flt, "--expected",
                            str(want[flt]["non_representable"]), "--json"]
                    proc = run_program(argv, span_file=self._span_file(p, traced))
                    p.add_proc(proc, 1, check.check_census(proc.lines, proc.rc, want[flt]), True)
                    p.latencies.append(proc.wall)
            elif part == "orient_words":
                for req in self.requests:
                    proc = run_program(req.argv(), req.entry.graph6 + "\n", self._span_file(p, traced))
                    p.add_proc(proc, 1, check.check_request(req, proc.lines, proc.rc, want[req.key]), True)
                    p.latencies.append(proc.wall)
            else:
                witness = CLASSIFY_PARTS[part]
                entries = self.entries[part]
                argv = ["classify", "--json"] + (["--witness"] if witness else [])
                proc = run_program(argv, self.texts[part], self._span_file(p, traced))
                p.add_proc(proc, len(entries),
                           check.check_classify(entries, proc.lines, proc.rc, want, witness), False)
                p.latencies += [b - a for a, b in zip(proc.stamps, proc.stamps[1:])]
                for reason, (count, seconds) in reason_costs(proc.lines, proc.stamps).items():
                    p.reasons[reason][0] += count
                    p.reasons[reason][1] += seconds
        return p


def reason_costs(lines: list[str], stamps: list[float]) -> dict[str, list[float]]:
    """Per deciding route: [verdicts, seconds], each verdict charged the
    gap since the previous line (the first line has no gap)."""
    out = {r: [0, 0.0] for r in REASONS}
    prev = None
    for line, stamp in zip(lines, stamps):
        try:
            reason = json.loads(line).get("reason")
        except (json.JSONDecodeError, AttributeError):
            reason = None
        if reason in out:
            out[reason][0] += 1
            if prev is not None:
                out[reason][1] += stamp - prev
        prev = stamp
    return out


def time_setup() -> float:
    """Wall seconds of a fresh interpreter that only imports wordrep.cli."""
    start = time.perf_counter()
    subprocess.run([*PYTHON, "-c", "import wordrep.cli"], cwd=ROOT, env=ENV, check=True,
                   timeout=REQUEST_TIMEOUT_S)
    return time.perf_counter() - start


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# One benchmark run.


def run_untraced(wl: Workload, seconds: float) -> tuple[dict, list[Pass]]:
    time_setup()  # leaves the bytecode cache warm, as an installed package has it
    setup, passes = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        # set-up samples are spread over the run, so that a slow spell of
        # the machine weighs on them no more than on the passes
        setup += [time_setup() for _ in range(SETUP_PER_PASS)]
        passes.append(wl.run_pass())
    # Every pass sends the same items in the same order: take each item's
    # median over the passes, then percentiles over the items, so that a
    # transient stall in one pass does not move the tail.
    latencies = [statistics.median(col) for col in zip(*(p.latencies for p in passes))]
    values = {
        # The minimum, not the median: on the machine this benchmark was
        # tuned on, start-up time flips between two levels (about 64 and
        # 115 ms) for minutes at a time, and which level the median of a
        # run lands on decided its value; the minimum held within 1%.
        "setup_s": min(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "items_per_s": statistics.median(p.items / p.wall for p in passes),
        "latency_p50_ms": 1000 * quantile(latencies, 50),
        "latency_p95_ms": 1000 * quantile(latencies, 95),
        "peak_rss_mb": statistics.median(p.rss_kb for p in passes) / 1024,
    }
    print(f"# {wl.name}: {len(passes)} passes, {len(latencies)} latency samples (items), "
          f"{len(setup)} setup samples", file=sys.stderr)
    print(f"# {wl.name}: pass walls {[round(p.wall, 4) for p in passes]}", file=sys.stderr)
    return {k: (values[k], unit) for k, unit in END_TO_END}, passes


def run_traced(wl: Workload, seconds: float) -> tuple[dict, list[Pass]]:
    from spans import LayerStats

    WORK_DIR.mkdir(exist_ok=True)
    stats = LayerStats()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(wl.run_pass())
        p = wl.run_pass(traced=True)
        traced.append(p)
        for path in p.span_files:
            if path.exists():
                stats.add_file(str(path))
                path.unlink()
    WORK_DIR.rmdir()
    n = len(traced)
    base = statistics.median(p.wall for p in plain)
    overhead = statistics.median(p.wall for p in traced) - base
    inputs = statistics.median(p.items for p in traced)
    metrics = {}
    for name, unit, _ in per_layer_metrics():
        target, _, what = name.rpartition(".")
        if target.startswith("classify.reason."):
            column = 0 if what == "count" else 1
            value = statistics.fmean(p.reasons[target.split(".")[2]][column] for p in plain)
        elif target == "trace":
            value = overhead if what == "overhead_s" else overhead / base
        elif what == "calls_per_input":
            value = stats.calls[target] / n / inputs
        elif what.endswith("_ratio"):
            value = stats.hits[target] / stats.calls[target] if stats.calls[target] else 0.0
        else:
            value = getattr(stats, what)[target] / n
        metrics[name] = (value, unit)
    print_layer_table(wl.name, metrics, base)
    return metrics, plain + traced


def print_layer_table(workload: str, metrics: dict, wall: float) -> None:
    print(f"# per-layer, {workload} (untraced wall_s {wall:.3f}):", file=sys.stderr)
    for name, (value, unit) in sorted(metrics.items(), key=lambda kv: (-kv[1][0] if kv[1][1] == "s" else 0, kv[0])):
        if value:
            share = f"  {100 * value / wall:5.1f}% of wall" if unit == "s" else ""
            print(f"#   {name:55s} {value:14.6f} {unit}{share}", file=sys.stderr)


def run_workload(name: str, seed: int, seconds: float, trace: bool, expected: dict) -> bool:
    wl = Workload(name, seed, expected)
    metrics, passes = (run_traced if trace else run_untraced)(wl, seconds)
    attempted = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [x for p in passes for x in p.problems]
    for problem in problems[:20]:
        print(f"! {name}: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(f"# {name}: attempted={attempted} failed={failed} failed_ratio={failed / attempted}",
          file=sys.stderr)
    if not trace:
        for key, (value, unit) in metrics.items():
            print(f"# {name}: {key} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", default=str(HERE / "expected.json"),
                        help="recorded verdicts and counts to check against")
    args = parser.parse_args(argv)
    if not (SRC / "wordrep" / "cli.py").is_file():
        print(f"no wordrep sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(args.expected) as fh:
        expected = json.load(fh)
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        ok = run_workload(name, args.seed, args.seconds, bool(args.trace), expected) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
