"""The benchmark's traced runs (``wrbench/spans.py``) wrap library
functions looked up by name; each of those names must still exist."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "wrbench" / "spans.py"


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
    ``sys.modules``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import wordrep.cli; "
        "print(' '.join(sorted(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], check=True, capture_output=True, text=True
    )
    loaded = set(out.stdout.split())
    assert {"dataclasses", "typing", "inspect"} & loaded == set()
    assert {f"wordrep.{module}" for module, _ in _targets()} <= loaded


def test_package_import_loads_no_submodule():
    """``import wordrep`` re-exports nothing: each name is imported from
    the module that defines it, so the package root loads no submodule."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import wordrep; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('wordrep'))))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], check=True, capture_output=True, text=True
    )
    assert out.stdout.split() == ["wordrep"]
