"""Every name a module imports is used.

An AST scan of each non-``__init__`` module under ``src/repro``,
``tests/``, ``benchmarks/`` and ``examples/``: a name bound by
``import`` or ``from ... import`` must be referenced somewhere in the
module, as a name, the root of an attribute chain, inside a string
annotation, or in ``__all__`` (a re-export), or another scanned module
must import it from this one.  Package ``__init__`` files exist to
re-export and are skipped.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
SCANNED = (SRC, os.path.join(ROOT, "tests"), os.path.join(ROOT, "benchmarks"),
           os.path.join(ROOT, "examples"))


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside an annotation, including quoted forward references."""

    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                quoted = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= _annotation_names(quoted)
    return names


def unused_imports(path: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each imported name ``path`` never references."""

    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name,
                                        node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) \
                and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            used |= _annotation_names(node.returns)
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant)
                     and isinstance(elt.value, str)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def imported_from(paths: list[str]) -> dict[str, set[str]]:
    """Module path -> the names other modules of ``paths`` import from it
    (``from .mod import x`` and, for scripts on ``sys.path``, ``from mod
    import x`` resolved next to the importer)."""

    names: dict[str, set[str]] = {}
    for path in paths:
        with open(path) as handle:
            tree = ast.parse(handle.read(), path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not node.module:
                continue
            base = os.path.dirname(path)
            for _ in range(node.level - 1):
                base = os.path.dirname(base)
            target = os.path.join(base, *node.module.split(".")) + ".py"
            names.setdefault(target, set()).update(
                alias.name for alias in node.names)
    return names


def _modules() -> list[str]:
    paths = []
    for top in SCANNED:
        for root, _dirs, files in os.walk(top):
            paths += [os.path.join(root, name) for name in files
                      if name.endswith(".py") and name != "__init__.py"]
    return sorted(paths)


def test_scan_covers_the_package():
    modules = _modules()
    assert len(modules) > 100
    assert {os.path.relpath(path, ROOT).split(os.sep)[0]
            for path in modules} == {"src", "tests", "benchmarks",
                                     "examples"}


def test_no_unused_imports():
    modules = _modules()
    exported = imported_from(modules)
    problems = [f"{os.path.relpath(path, ROOT)}:{line}: {name}"
                for path in modules
                for line, name in unused_imports(path)
                if name not in exported.get(path, ())]
    assert not problems, "unused imports:\n" + "\n".join(problems)


def test_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy.linalg\n"
        "from typing import Optional, Sequence\n"
        "from json import dumps as _dumps\n"
        "__all__ = ['Sequence']\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return numpy.linalg.norm(x)\n")
    assert unused_imports(str(module)) == [(2, "os"), (5, "_dumps")]
