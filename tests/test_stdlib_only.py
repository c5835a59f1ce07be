"""The runtime stays pure standard library: every import in
``src/wordrep/*.py`` names a standard-library module or ``wordrep``
itself (relative imports included)."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wordrep"


def imported_modules(path: Path) -> list[str]:
    """Top-level names of the modules that ``path`` imports anywhere."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("wordrep" if node.level else node.module.split(".")[0])
    return names


def test_runtime_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 1
    allowed = sys.stdlib_module_names | {"wordrep"}
    foreign = {path.name: sorted(set(imported_modules(path)) - allowed) for path in files}
    assert {name: mods for name, mods in foreign.items() if mods} == {}
