"""Every name a module under ``src/repro`` imports is used.

An AST scan of each non-``__init__`` module: a name bound by ``import``
or ``from ... import`` must be referenced somewhere in the module, as a
name, the root of an attribute chain, inside a string annotation, or in
``__all__`` (a re-export).  Package ``__init__`` files exist to
re-export and are skipped.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "repro")


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


def _modules() -> list[str]:
    paths = []
    for root, _dirs, files in os.walk(SRC):
        paths += [os.path.join(root, name) for name in files
                  if name.endswith(".py") and name != "__init__.py"]
    return sorted(paths)


def test_scan_covers_the_package():
    assert len(_modules()) > 50


def test_no_unused_imports():
    problems = [f"{os.path.relpath(path, SRC)}:{line}: {name}"
                for path in _modules()
                for line, name in unused_imports(path)]
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
