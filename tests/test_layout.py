"""Module boundaries inside the package: a private name stays in its module,
every module-level import is used, only the algebra module writes the
fields of a Poly, only the algebra module calls the sparse solver, only
the engine module states a non-tameness verdict, and every public function
or method is referenced inside the package or kept for a stated reason.

A helper that another module needs is public in the module that owns it, so
each primitive has one implementation rather than private copies and
cross-module reaches into them.  An import left behind by a deletion fails
the unused-import check.  A Poly remembers its weighted degree, its
powers, its leading form and its values and gradients at the probe points,
which is sound only while no other module changes its contents after it is
built.
A non-tameness claim is read off one rule (a rigorous stuck on a verified
map), so its wording lives next to that rule and nowhere else.
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


def _solver_imports(path: Path) -> list[str]:
    """'line: module' for every import of solve_sparse_int from a tame3 module."""
    return [f"{line}: {module}" for line, module, name in _tame3_imports(path)
            if name == "solve_sparse_int"]


@pytest.mark.parametrize("path", sorted(p for p in PKG.glob("*.py") if p.name != "algebra.py"),
                         ids=lambda p: p.name)
def test_only_algebra_calls_the_sparse_solver(path):
    # solve_sparse_int is the row interface to algebra.Elimination; a
    # wrapper on it in the algebra module sees every call
    assert _solver_imports(path) == []


def test_solver_import_detector(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .algebra import Poly, solve_sparse_int\n"
                     "def f():\n    from tame3.algebra import solve_sparse_int\n")
    assert _solver_imports(probe) == ["1: .algebra", "3: tame3.algebra"]


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


_POLY_FIELDS = ("nums", "den", "_deg", "_lead", "_powers", "_probes")
_POLY_DICTS = ("nums", "_powers", "_probes")
_DICT_MUTATORS = ("update", "pop", "popitem", "clear", "setdefault", "__setitem__",
                  "__delitem__")


def _poly_field_writes(path: Path) -> list[str]:
    """'line: target' for every assignment or deletion of an attribute named
    like a Poly field (nums, den, the degree memo _deg, the leading-form
    memo _lead, the power memo _powers, the probe-point memo _probes), every
    store into .nums[...], ._powers[...] or ._probes[...], and every setattr
    or dict-mutating call on those names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
            targets = [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if not isinstance(getattr(sub, "ctx", None), (ast.Store, ast.Del)):
                    continue
                if ((isinstance(sub, ast.Attribute) and sub.attr in _POLY_FIELDS)
                        or (isinstance(sub, ast.Subscript)
                            and isinstance(sub.value, ast.Attribute)
                            and sub.value.attr in _POLY_DICTS)):
                    found.append(f"{sub.lineno}: {ast.unparse(sub)}")
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            if (name in ("setattr", "__setattr__", "delattr", "__delattr__")
                    and any(isinstance(a, ast.Constant) and a.value in _POLY_FIELDS
                            for a in node.args)):
                found.append(f"{node.lineno}: {ast.unparse(node)}")
            elif (name in _DICT_MUTATORS and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Attribute)
                  and node.func.value.attr in _POLY_DICTS):
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", sorted(p for p in PKG.glob("*.py") if p.name != "algebra.py"),
                         ids=lambda p: p.name)
def test_only_algebra_writes_poly_fields(path):
    assert _poly_field_writes(path) == []


def test_poly_field_write_detector(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(p, q, m):\n"
                     "    nums, den = dict(p.nums), p.den\n"
                     "    c = p.nums[m] + q.nums.get(m, 0)\n"
                     "    p.nums = nums\n"
                     "    q.nums[m] = c\n"
                     "    p.den *= 2\n"
                     "    a, q._deg = 1, None\n"
                     "    del p.nums[m]\n"
                     "    object.__setattr__(p, 'den', 3)\n"
                     "    q.nums.update({m: 1})\n"
                     "    p._powers = {}\n"
                     "    q._powers[2] = p\n"
                     "    q._powers.clear()\n"
                     "    p._lead = (m, q)\n"
                     "    q._probes = {}\n"
                     "    p._probes[0] = (1, (0, 0, 0))\n"
                     "    q._probes.setdefault(1, None)\n"
                     "    return nums, den\n")
    assert _poly_field_writes(probe) == [
        "4: p.nums", "5: q.nums[m]", "6: p.den", "7: q._deg", "8: p.nums[m]",
        "11: p._powers", "12: q._powers[2]", "14: p._lead", "15: q._probes",
        "16: p._probes[0]",
        "9: object.__setattr__(p, 'den', 3)", "10: q.nums.update({m: 1})",
        "13: q._powers.clear()", "17: q._probes.setdefault(1, None)"]


def test_one_module_states_the_verdict():
    stating = [p.name for p in sorted(PKG.glob("*.py")) if "not tame" in p.read_text()]
    assert stating == ["engine.py"]


# Public functions and methods that no code in the package references, each
# kept for its own reason; anything else unreferenced is dead code.
_KEPT_UNREFERENCED = {
    "solve_sparse_int": "the benchmark's tracer wraps it by name to count solves",
    "normalize_to_su": "the paper's constructive normalization, run by criterion 10",
    "su_pair_uniqueness": "the paper's uniqueness of the strict pair, a checker",
    "check_not_er": "the paper's not-elementarily-reducible checker",
    "TameFactor.as_endo": "a factor as a triple, the reference that apply equals",
    "ReductionTrace.ledger": "the degree after each step, read by criterion 4",
    "ReductionTrace.recompose_origin": "undoes a trace's steps back to its input",
    "certificate_json": "the byte-stable certificate of criterion 3",
    "jacobian_det": "the Jacobian determinant, checked against sympy",
    "max_complement_attained_twice": "the paper's max-attained-twice predicate, criterion 7",
    "multiplicity_by_roots": "the independent multiplicity oracle of criterion 6",
    "degS": "the representation degree that the inequality report is checked against",
    "coprime_claims": "the integer facts of criterion 13",
}


def _unreferenced_public(paths: list[Path]) -> list[str]:
    """Qualified names of the public module-level functions and methods of
    public classes in paths whose name is never referenced, as a Name or an
    Attribute, in any of paths other than an __init__.py.  References match
    by bare name, so a member sharing its name with a used one counts as
    used."""
    defined, referenced = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defined.extend((f"{node.name}.{sub.name}", sub.name) for sub in node.body
                               if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                               and not sub.name.startswith("_"))
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("_")):
                defined.append((node.name, node.name))
    return sorted(qualname for qualname, name in defined if name not in referenced)


def test_every_public_member_is_referenced_or_kept():
    assert _unreferenced_public(sorted(PKG.glob("*.py"))) == sorted(_KEPT_UNREFERENCED)


def test_unreferenced_public_detector(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import exported_only\n")
    a = tmp_path / "a.py"
    a.write_text("def called():\n    return 1\n"
                 "def exported_only():\n    return called()\n"
                 "def _private():\n    pass\n"
                 "class Box:\n    def read(self):\n        pass\n"
                 "    def unread(self):\n        pass\n"
                 "    def _hidden(self):\n        pass\n"
                 "class _Inner:\n    def lost(self):\n        pass\n")
    b = tmp_path / "b.py"
    b.write_text("from .a import Box\nvalue = Box().read\n")
    assert _unreferenced_public([tmp_path / "__init__.py", a, b]) == [
        "Box.unread", "exported_only"]
