"""Every configuration field is set somewhere to a value other than its
default.

A field nobody sets is a constant with extra steps: it widens every
configuration's surface and invites a test matrix nobody runs.  For each
field of every configuration class under ``src/repro`` (a class named
``*Config`` or ``*Options``) this scan looks for a call that
passes it by keyword with a value other than the field's default
literal (any non-literal value counts as set) in ``tests/``,
``benchmarks/``, ``examples/``, ``perfbench/``, and ``src/`` outside
the module that defines the field.  A value that only forwards the
same-named field of another object (``dram=config.dram``) passes a
setting along and does not count.
"""

from __future__ import annotations

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
SEARCHED = ("tests", "benchmarks", "examples", "perfbench",
            os.path.join("src", "repro"))

_NO_LITERAL = object()


def _literal(node: ast.expr | None):
    """The value of a literal expression, else ``_NO_LITERAL``."""

    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, RecursionError):
        return _NO_LITERAL


def config_classes() -> dict[tuple[str, str], dict[str, object]]:
    """``(module path, class name)`` -> {field name: default literal}
    (``_NO_LITERAL`` where the default is not a literal)."""

    found = {}
    for root, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path) as handle:
                tree = ast.parse(handle.read(), path)
            for cls in tree.body:
                if isinstance(cls, ast.ClassDef) \
                        and cls.name.endswith(("Config", "Options")):
                    found[path, cls.name] = {
                        stmt.target.id: _literal(stmt.value)
                        for stmt in cls.body
                        if isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)}
    return found


def keyword_arguments() -> list[tuple[str, str, ast.expr]]:
    """``(path, keyword, value)`` of every keyword argument of a call in
    the searched trees."""

    found = []
    for top in SEARCHED:
        for root, _dirs, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                with open(path) as handle:
                    tree = ast.parse(handle.read(), path)
                found += [(path, kw.arg, kw.value) for node in ast.walk(tree)
                          if isinstance(node, ast.Call)
                          for kw in node.keywords if kw.arg]
    return found


def _forwards(value: ast.expr, field: str) -> bool:
    return isinstance(value, ast.Attribute) and value.attr == field


def unset_fields() -> list[str]:
    unset = []
    passed = keyword_arguments()
    for (module, name), fields in sorted(config_classes().items()):
        for field, default in fields.items():
            values = [_literal(value) for path, keyword, value in passed
                      if keyword == field and path != module
                      and not _forwards(value, field)]
            if not any(value is _NO_LITERAL or value != default
                       for value in values):
                unset.append(f"{name}.{field}")
    return unset


def test_scan_reads_the_fields():
    classes = {name: fields for (_path, name), fields
               in config_classes().items()}
    assert {"SimConfig", "DramConfig", "ProfilingConfig",
            "HLSOptions"} <= classes.keys()
    assert classes["SimConfig"]["exec_mode"] == "auto"
    assert classes["SimConfig"]["attribution"] is False
    assert classes["HLSOptions"]["profiling"] is _NO_LITERAL


def test_every_config_field_is_set():
    unset = unset_fields()
    assert not unset, "config fields no caller sets:\n" + "\n".join(unset)
