"""Every name ``src/repro`` imports is used.

A stdlib :mod:`ast` check (no linter is a declared dependency): an
imported name must be read somewhere in its module -- code, an
annotation, or a quoted annotation -- or re-exported through the
module's ``__all__``.  An import kept for its side effect must be
written so that it is used.
"""

import ast
from pathlib import Path


SRC = Path(__file__).resolve().parent.parent / "src"


def imported_names(tree):
    """``(line, bound name)`` of every import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def annotations(tree):
    """Every annotation expression in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def exported(tree):
    """The string entries of a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return set()


def used_names(tree):
    """Names a module reads, quoted annotations and ``__all__`` included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted)
                         if isinstance(n, ast.Name)}
    return used | exported(tree)


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    return [f"{path.relative_to(SRC)}:{line}: {name}"
            for line, name in imported_names(tree) if name not in used]


def test_no_unused_imports():
    found = [item for path in sorted((SRC / "repro").rglob("*.py"))
             for item in unused_imports(path)]
    assert not found, "imported but unused:\n" + "\n".join(found)


def test_check_sees_unused_and_used_names(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os\n"
        "import os.path as osp\n"
        "from typing import Dict, List, Optional\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: 'Optional[int]') -> Dict:\n"
        "    return osp\n"
    )
    tree = ast.parse(module.read_text())
    used = used_names(tree)
    unused = [name for _line, name in imported_names(tree)
              if name not in used]
    assert unused == ["os", "List"]
