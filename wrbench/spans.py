"""Span recording around the public functions of ``wordrep``, and the
self-time arithmetic over the recorded span tree.

The benchmark installs these wrappers from its own files: nothing under
``src/`` knows about them.  A span is ``(name, start, end, parent, hit,
kind)``: ``parent`` is the index of the span that was open when this one
started (-1 at the root), ``hit`` says whether the call returned a
useful result (``None`` and ``False`` are misses), and ``kind`` is
``CALL`` for a call or ``RESUME`` for one resumption of a wrapped
generator, which is where a generator does its work.
"""

from __future__ import annotations

import inspect
import marshal
import sys
import time
from collections import defaultdict

CALL, RESUME = 0, 1

# (module, function) pairs that get a span per call.
TARGETS = (
    ("graphs", "enumerate_graphs"),
    ("graphs", "is_isomorphic"),
    ("graphs", "iso_invariant"),
    ("graphs", "contains_induced"),
    ("graphs", "parse_graph6"),
    ("graphs", "write_graph6"),
    ("split", "split_partition"),
    ("split", "is_split_comparability"),
    ("orient", "find_semi_transitive_orientation"),
    ("orient", "is_word_representable"),
    ("orient", "count_semi_transitive_extensions"),
    ("orient", "all_orientations"),
    ("orient", "is_semi_transitive"),
    ("classify", "find_a_ell"),
    ("classify", "classify_degree_two"),
    ("classify", "classify_clique_four"),
    ("classify", "classify_split"),
    ("words", "find_representant"),
    ("words", "represents"),
    ("families", "named"),
    ("families", "a_graph"),
)
ROOT = "cli"


class Tracer:
    """Holds the spans of one process in memory until ``dump``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []

    def wrap(self, name: str, func):
        """A stand-in for ``func`` that records a span per call; a
        generator function gets one more span per resumption.  The hot
        path binds everything to locals: the census makes ~10^5 traced
        calls per process."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, self.clock

        def resumes(gen):
            while True:
                parent = stack[-1] if stack else -1
                index = len(spans)
                spans.append(None)
                stack.append(index)
                start = clock()
                hit = None
                try:
                    value = next(gen)
                    hit = True
                except StopIteration:
                    hit = False
                    return
                finally:
                    spans[index] = (name_id, start, clock(), parent, hit, RESUME)
                    stack.pop()
                yield value

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            hit = None
            try:
                result = func(*args, **kwargs)
                hit = result is not None and result is not False
            finally:
                spans[index] = (name_id, start, clock(), parent, hit, CALL)
                stack.pop()
            return resumes(result) if is_gen else result

        is_gen = inspect.isgeneratorfunction(func)
        wrapper.__wrapped__ = func
        return wrapper

    def install(self) -> None:
        """Replace every binding of each target in every loaded
        ``wordrep`` module, so calls through ``from .x import f`` names
        are traced as well as module-qualified ones."""
        import wordrep.cli  # noqa: F401  (loads every submodule)

        modules = [m for k, m in sys.modules.items() if k == "wordrep" or k.startswith("wordrep.")]
        for module_name, func_name in TARGETS:
            original = getattr(sys.modules[f"wordrep.{module_name}"], func_name)
            wrapped = self.wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def run_root(self, func, *args):
        """Call ``func`` under the root span that ``cli.self_s`` is
        measured from."""
        return self.wrap(ROOT, func)(*args)

    def dump(self, path: str) -> None:
        """Write names and spans with ``marshal``: a census process holds
        ~2 * 10^5 spans, which JSON would take most of a second to
        write, all of it charged to the traced run."""
        with open(path, "wb") as fh:
            marshal.dump((self.names, self.spans), fh)


# ---------------------------------------------------------------------------
# Aggregation.


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[tuple]) -> list[float]:
    """Per span, its duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name_id, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered(children.get(i, []), start, end)
        for i, (_, start, end, _, _, _) in enumerate(spans)
    ]


class LayerStats:
    """Per wrapped name: calls, resumptions that yielded, hits among
    calls and summed self time, accumulated over any number of span
    dumps."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.hits: dict[str, int] = defaultdict(int)
        self.yielded: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)

    def add(self, names: list[str], spans: list[tuple]) -> None:
        for span, own in zip(spans, self_times(spans)):
            name_id, _, _, _, hit, kind = span
            name = names[name_id]
            self.self_s[name] += own
            if kind == CALL:
                self.calls[name] += 1
                self.hits[name] += bool(hit)
            elif hit:
                self.yielded[name] += 1

    def add_file(self, path: str) -> None:
        """Add a file ``Tracer.dump`` wrote (and only such a file:
        ``marshal`` is not safe on untrusted bytes)."""
        with open(path, "rb") as fh:
            names, spans = marshal.load(fh)
        self.add(names, spans)
