"""Every module-level import in ``src/trsqp``, ``tests`` and ``demos`` is used
in its module.

No linter runs in CI, so this stands in for pyflakes' F401. An import kept
on purpose, such as a name another module patches, carries ``# noqa: F401``
on its line.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "trsqp"
MODULES = [path for where in (SRC, ROOT / "tests", ROOT / "demos") for path in sorted(where.glob("*.py"))]


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports at module level (in an ``if`` or ``try``
    block too) and never loads or lists in ``__all__``, except on lines
    marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imports, blocks = [], list(tree.body)
    while blocks:
        node = blocks.pop(0)
        if isinstance(node, (ast.If, ast.Try)):
            blocks += node.body + node.orelse + getattr(node, "finalbody", [])
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            imports += [alias for alias in node.names if "# noqa: F401" not in lines[alias.lineno - 1]]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    bound = ((alias.asname or alias.name).split(".")[0] for alias in imports)
    return [name for name in bound if name not in used]


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}"
)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import numpy as np\nfrom functools import cached_property\nnp.zeros(1)", ["cached_property"]),
        ("import os.path\nos.path.join('a')", []),
        ("from .x import f  # noqa: F401 -- patched elsewhere", []),
        ("from .x import (\n    f,\n    g,  # noqa: F401\n)\nf()", []),
        ("from .x import f\n__all__ = ['f']", []),
        ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from .s import S\nTYPE_CHECKING", ["S"]),
        ("from __future__ import annotations\ndef f():\n    import json\n    return 1", []),
    ],
    ids=["unused", "dotted", "noqa", "noqa-alias-line", "all", "type-checking", "future-and-local"],
)
def test_guard_reads_names_bindings_and_markers(source, unused):
    assert unused_imports(source) == unused
