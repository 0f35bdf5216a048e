"""Every function, class and method under ``src/repro`` is reached.

An AST worklist over the package, in the style of mypy's
``process_top_levels``: the definitions are the module-level functions
and classes of every module and the methods of those classes.  The
roots are what the project exposes:

* the ``[project.scripts]`` entry points of ``pyproject.toml``;
* ``repro.__all__``;
* every ``.py`` under ``examples/`` and ``benchmarks/`` and
  ``perfbench/bench.py`` (its hook strings name what it times);
* the Python run by ``.github/workflows/ci.yml`` (``python -c`` strings
  and ``python - <<'EOF'`` heredocs);
* the fenced Python blocks of ``README.md``;
* the module-level statements of every module, which run on import.

Tests are not roots, and neither are imports or the ``__all__`` lists
of subpackages (re-exports use nothing).  A definition is reached when
reached code uses its name: as a name, an attribute, a keyword, or an
identifier inside a string literal that is not a docstring (generated
code such as ``"mem.lread("``).  A method is reached only once its
class is, and dunder methods come with their class.  Names are matched
without resolving modules: a name used anywhere reaches every
definition of that name, so the scan can miss dead code, and it
reports a definition only when no reached code names it.
"""

from __future__ import annotations

import ast
import os
import re
import textwrap
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass
class Definition:
    path: str
    line: int
    qualname: str
    name: str
    uses: set[str]
    methods: list[Definition] = field(default_factory=list)


def _docstrings(tree: ast.AST) -> set[int]:
    """``id`` of each docstring constant in ``tree``."""

    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *DEF_NODES)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                ids.add(id(first.value))
    return ids


def names_used(nodes, docstrings: set[int]) -> set[str]:
    """Identifiers ``nodes`` use as names, attributes, keywords or text."""

    used = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                used.add(node.arg)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and id(node) not in docstrings:
                used.update(IDENTIFIER.findall(node.value))
    return used


def _is_all(stmt: ast.stmt) -> bool:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) \
        else []
    return any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets)


def scan_module(path: str, rel: str) -> tuple[list[Definition], set[str]]:
    """The definitions of one module and the names its import-time
    statements use."""

    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    docs = _docstrings(tree)
    defs, top = [], []
    for stmt in tree.body:
        if isinstance(stmt, DEF_NODES):
            if isinstance(stmt, ast.ClassDef):
                own = stmt.bases + stmt.keywords + stmt.decorator_list + \
                    [s for s in stmt.body
                     if not isinstance(s, DEF_NODES)]
            else:
                own = [stmt]
            definition = Definition(rel, stmt.lineno, stmt.name, stmt.name,
                                    names_used(own, docs))
            if isinstance(stmt, ast.ClassDef):
                definition.methods = [
                    Definition(rel, sub.lineno, f"{stmt.name}.{sub.name}",
                               sub.name, names_used([sub], docs))
                    for sub in stmt.body if isinstance(sub, DEF_NODES)]
            defs.append(definition)
        elif not isinstance(stmt, (ast.Import, ast.ImportFrom)) \
                and not _is_all(stmt):
            top.append(stmt)
    return defs, names_used(top, docs)


def unreached(modules: dict[str, str], roots: set[str]) -> list[Definition]:
    """Definitions of ``modules`` (relative name -> path) that nothing
    reached from ``roots`` uses."""

    defs, pending = [], set(roots)
    for rel, path in sorted(modules.items()):
        found, top = scan_module(path, rel)
        defs += found
        pending |= top
    by_name: dict[str, list[Definition]] = {}
    for definition in defs:
        by_name.setdefault(definition.name, []).append(definition)
        for method in definition.methods:
            by_name.setdefault(method.name, []).append(method)
    owner = {id(m): d for d in defs for m in d.methods}
    seen: set[str] = set()
    reached: set[int] = set()

    def reach(definition: Definition) -> None:
        if id(definition) in reached:
            return
        reached.add(id(definition))
        pending.update(definition.uses)
        for method in definition.methods:
            if method.name in seen or (method.name.startswith("__")
                                       and method.name.endswith("__")):
                reach(method)

    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        for definition in by_name.get(name, ()):
            parent = owner.get(id(definition))
            if parent is None or id(parent) in reached:
                reach(definition)
    dead = []
    for definition in defs:
        if id(definition) not in reached:
            dead.append(definition)
            continue
        dead += [m for m in definition.methods if id(m) not in reached]
    return dead


# ----------------------------------------------------------------------
# roots
# ----------------------------------------------------------------------
def _read(*parts: str) -> str:
    with open(os.path.join(ROOT, *parts)) as handle:
        return handle.read()


def _source_uses(source: str, where: str) -> set[str]:
    tree = ast.parse(source, where)
    return names_used([tree], _docstrings(tree))


def _script_entry_points() -> set[str]:
    text = _read("pyproject.toml")
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'=\s*"[\w.]+:(\w+)"', section))


def _package_all() -> set[str]:
    tree = ast.parse(_read("src", "repro", "__init__.py"))
    return {elt.value for stmt in tree.body if _is_all(stmt)
            for elt in ast.walk(stmt.value) if isinstance(elt, ast.Constant)}


def _python_files(*parts: str) -> list[str]:
    top = os.path.join(ROOT, *parts)
    if os.path.isfile(top):
        return [top]
    return sorted(os.path.join(root, name)
                  for root, _dirs, files in os.walk(top)
                  for name in files if name.endswith(".py"))


def ci_python_blocks() -> list[str]:
    """The Python the CI workflow runs, one source string per block."""

    text = _read(".github", "workflows", "ci.yml")
    blocks = []
    for body in re.findall(r'python -c "(.*?)"', text, re.S):
        # a backslash-newline inside shell double quotes joins the lines
        blocks.append(textwrap.dedent(body.replace("\\\n", "")))
    for body in re.findall(r"python3? - [^\n]*<<'EOF'\n(.*?)\n\s*EOF\n",
                           text, re.S):
        blocks.append(textwrap.dedent(body))
    return blocks


def readme_python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", _read("README.md"), re.S)


def roots() -> set[str]:
    names = _script_entry_points() | _package_all()
    for path in (_python_files("examples") + _python_files("benchmarks")
                 + _python_files("perfbench", "bench.py")):
        names |= _source_uses(_read(path), path)
    for where, blocks in (("ci.yml", ci_python_blocks()),
                          ("README.md", readme_python_blocks())):
        for source in blocks:
            names |= _source_uses(source, where)
    return names


def package_modules() -> dict[str, str]:
    return {os.path.relpath(path, ROOT): path
            for path in _python_files("src", "repro")}


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
def test_roots_are_found():
    assert "main" in _script_entry_points()
    assert {"Program", "simulate"} <= _package_all()
    assert len(ci_python_blocks()) >= 8
    assert len(readme_python_blocks()) >= 4
    names = roots()
    assert {"validate_sweep_file", "validate_explore_file",
            "compile_segment_vectorized", "run_gemm"} <= names


def test_every_definition_is_reached():
    dead = unreached(package_modules(), roots())
    problems = [f"{d.path}:{d.line}: {d.qualname}" for d in dead]
    assert not problems, "unreached definitions:\n" + "\n".join(problems)


def test_scan_flags_unreached_definitions(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        '"""uses dead_doc only in a docstring."""\n'
        "from os import path as dead_import\n"
        "__all__ = ['dead_export']\n"
        "TABLE = {'k': from_table}\n"
        "def entry():\n"
        "    '''calls dead_doc'''\n"
        "    return Used().go() + f'{x}mem.from_string(' + entry()\n"
        "def from_table(): pass\n"
        "def from_string(): pass\n"
        "def dead_doc(): pass\n"
        "def dead_export(): pass\n"
        "def dead_recursive(): return dead_recursive()\n"
        "def go(): pass\n"
        "class Used:\n"
        "    def __repr__(self): return ''\n"
        "    def go(self): return self.dead_in_dead_class\n"
        "    def dead_method(self): pass\n"
        "class Dead:\n"
        "    def dead_in_dead_class(self): pass\n")
    dead = unreached({"mod.py": str(module)}, {"entry"})
    assert [(d.line, d.qualname) for d in dead] == [
        (10, "dead_doc"), (11, "dead_export"), (12, "dead_recursive"),
        (17, "Used.dead_method"), (18, "Dead")]
