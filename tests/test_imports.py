"""Every module-level import in ``src/trsqp``, ``tests``, ``demos`` and
``bench`` is used in its module, and ``src/trsqp`` builds memo keys in one
place.

No linter runs in CI, so this stands in for pyflakes' F401. An import kept
on purpose, such as a name another module patches, carries ``# noqa: F401``
on its line.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "trsqp"
MODULES = [
    path
    for where in (SRC, ROOT / "tests", ROOT / "demos", ROOT / "bench")
    for path in sorted(where.glob("*.py"))
]


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


def key_reads(source: str, module: str) -> list[tuple[str, str]]:
    """Each read of ``.tobytes`` in ``source`` as ("tobytes", the qualified
    name of the function or class it sits in, else ``module``), and each
    import or attribute read of ``_kept`` as ("_kept", ``module``)."""
    reads = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Attribute):
                if child.attr == "tobytes":
                    reads.append(("tobytes", where))
                elif child.attr == "_kept":
                    reads.append(("_kept", module))
            elif isinstance(child, ast.ImportFrom):
                reads.extend(("_kept", module) for alias in child.names if alias.name == "_kept")
            visit(child, where)

    visit(ast.parse(source), module)
    return reads


def test_memo_keys_are_built_in_one_place():
    # problem._kept builds every memo key from the arrays it is handed; the
    # point generator hashes x into a stream key, and true_kkt checks whether
    # a solver state sits at x before it borrows the state's c and factor.
    reads = {read for path in sorted(SRC.glob("*.py")) for read in key_reads(path.read_text(), path.stem)}
    assert reads == {
        ("tobytes", "problem._kept"),
        ("tobytes", "rng.RngStream.point_generator"),
        ("tobytes", "benchmarks.true_kkt"),
        ("_kept", "solver"),
        ("_kept", "benchmarks"),
    }


@pytest.mark.parametrize(
    "source, reads",
    [
        ("key = x.tobytes()", [("tobytes", "m")]),
        ("def f(x):\n    return lambda: x.tobytes()", [("tobytes", "m.f")]),
        ("class C:\n    def g(self, x):\n        return hash(x.tobytes())", [("tobytes", "m.C.g")]),
        ("key = tuple(map(np.ndarray.tobytes, arrays))", [("tobytes", "m")]),
        ("from .problem import Problem, _kept", [("_kept", "m")]),
        ("from . import problem\nproblem._kept({}, 'c', f, x)", [("_kept", "m")]),
        ("def f(x):\n    kept = x.tolist()\n    return kept, tobytes", []),
    ],
    ids=["module", "nested", "method", "unbound", "import", "attribute", "names-only"],
)
def test_key_guard_reads_calls_references_and_imports(source, reads):
    assert key_reads(source, "m") == reads
