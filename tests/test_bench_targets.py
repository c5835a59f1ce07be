"""The benchmark's traced runs (``wrbench/spans.py``) wrap library
functions looked up by name; each of those names must still exist."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "wrbench" / "spans.py"
SRC = str(Path(__file__).resolve().parent.parent / "src")


def _targets():
    """The ``TARGETS`` tuple of ``wrbench/spans.py``, read without
    importing the benchmark."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {SPANS}")


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    missing = [
        f"{module}.{name}"
        for module, name in targets
        if not callable(getattr(importlib.import_module(f"wordrep.{module}"), name, None))
    ]
    assert missing == []


def test_cli_import_path():
    """``import wordrep.cli`` stays off the costly stdlib modules, and
    still loads every traced module: ``Tracer.install`` imports
    ``wordrep.cli`` and then reads each target's module from
    ``sys.modules``.  argparse (with gettext and shutil) loads only for
    help, usage errors and unusual spellings, json (with re) only for
    the output that is JSON."""
    probe = (
        f"import sys; sys.path.insert(0, {SRC!r}); import wordrep.cli; "
        "print(' '.join(sorted(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], check=True, capture_output=True, text=True
    )
    loaded = set(out.stdout.split())
    assert {"dataclasses", "typing", "inspect"} & loaded == set()
    assert {"argparse", "json", "re", "gettext", "shutil"} & loaded == set()
    assert {f"wordrep.{module}" for module, _ in _targets()} <= loaded


# The CLI in a fresh interpreter; the last line of standard error says
# whether the call loaded argparse.
RUN_CLI = (
    f"import sys; sys.path.insert(0, {SRC!r}); from wordrep.cli import main; "
    "code = main(sys.argv[1:]); print('argparse' in sys.modules, file=sys.stderr); "
    "sys.exit(code)"
)


def run_cli(argv, stdin=""):
    env = {**os.environ, "COLUMNS": "80"}  # argparse wraps help to the terminal's width
    return subprocess.run([sys.executable, "-S", "-c", RUN_CLI, *argv], input=stdin,
                          capture_output=True, text=True, env=env)


# Each spelling that the benchmark's calls use, with a graph6 input.
BENCHMARK_CALLS = [
    (["census", "7", "--filter", "split", "--expected", "3", "--json"], ""),
    (["orient", "--count", "--fix", "0>1,1>2,0>2"], "E}Y_\n"),  # K_TRIANGLE 3
    (["orient", "--all"], "Ehfw\n"),  # W5
    (["orient", "--fix", "0>1,1>2,0>2"], "E}Y_\n"),
    (["represent", "--max-uniformity", "3"], "Dhc\n"),  # C5
    (["classify", "--json", "--witness"], "Dhc\nEhfw\n"),
]


@pytest.mark.parametrize("argv,stdin", BENCHMARK_CALLS,
                         ids=[" ".join(argv) for argv, _ in BENCHMARK_CALLS])
def test_benchmark_calls_do_not_load_argparse(argv, stdin):
    proc = run_cli(argv, stdin)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert proc.stderr == "False\n"


HELP = """\
usage: wordrep [-h] {classify,census,generate,orient,represent} ...

word-representability of graphs via semi-transitive orientations

positional arguments:
  {classify,census,generate,orient,represent}
    classify            classify graph6 lines
    census              classify all isomorphism classes of order n
    generate            emit a named graph as graph6
    orient              semi-transitive orientations of graph6 lines
    represent           bounded uniform word search

options:
  -h, --help            show this help message and exit
"""


@pytest.mark.parametrize("argv,code,out,err", [
    (["--help"], 0, HELP, ""),
    (["--bogus"], 1, "", "usage: wordrep [-h] {classify,census,generate,orient,represent} ...\n"
                         "wordrep: error: the following arguments are required: command\n"),
    (["census", "-1"], 1, "", "usage: wordrep census [-h] [--filter {all,split,connected}]\n"
                              "                      [--expected EXPECTED] [--json]\n"
                              "                      n\n"
                              "wordrep census: error: argument n: must be at least 0, got -1\n"),
])
def test_help_and_usage_errors_go_through_argparse(argv, code, out, err):
    proc = run_cli(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err + "True\n")


def test_package_import_loads_no_submodule():
    """``import wordrep`` re-exports nothing: each name is imported from
    the module that defines it, so the package root loads no submodule."""
    probe = (
        f"import sys; sys.path.insert(0, {SRC!r}); import wordrep; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('wordrep'))))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], check=True, capture_output=True, text=True
    )
    assert out.stdout.split() == ["wordrep"]
