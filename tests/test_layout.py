"""Module boundaries inside the package: a private name stays in its module,
and every module-level import is used.

A helper that another module needs is public in the module that owns it, so
each primitive has one implementation rather than private copies and
cross-module reaches into them.  An import left behind by a deletion fails
the unused-import check.
"""

import ast
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parent.parent / "src" / "tame3"


def _tame3_imports(path: Path) -> list[tuple[int, str, str]]:
    """(line, module, name) for every import from a tame3 module, at module
    level or inside a function; module keeps its leading dots."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module != "tame3" and not module.startswith("tame3."):
            continue
        found.extend((node.lineno, "." * node.level + module, alias.name)
                     for alias in node.names)
    return found


def _private_imports(path: Path) -> list[str]:
    """'line: name from module' for every import of an underscore name from
    another tame3 module."""
    return [f"{line}: {name} from {module}" for line, module, name in _tame3_imports(path)
            if name.startswith("_")]


@pytest.mark.parametrize("path", sorted(PKG.glob("*.py")), ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert _private_imports(path) == []


def test_detector_sees_function_level_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\nfrom os import _exit\n"
                     "def f():\n    from .algebra import _hidden, visible\n"
                     "from tame3.search import _Cache\n")
    assert set(_private_imports(probe)) == {"4: _hidden from .algebra",
                                            "5: _Cache from tame3.search"}


def test_engine_does_not_import_conditions():
    # the reduction loop builds strict su steps itself; the checkers sit above it
    found = [(line, name) for line, module, name in _tame3_imports(PKG / "engine.py")
             if module in (".conditions", "tame3.conditions")]
    assert found == []


def _unused_imports(path: Path) -> list[str]:
    """'line: name' for every module-level import whose bound name is never
    referenced elsewhere in the module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.extend((node.lineno, (alias.asname or alias.name).split(".")[0])
                         for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for line, name in bound if name not in used]


@pytest.mark.parametrize("path", sorted(p for p in PKG.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_unused_import_detector(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\nimport os.path\nimport json\n"
                     "from typing import Iterator, Optional\n"
                     "def f(x: Optional[int]):\n    return os.path.join(str(x))\n")
    assert _unused_imports(probe) == ["3: json", "4: Iterator"]
