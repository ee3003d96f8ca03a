"""The package imports only what ``pyproject.toml`` declares.

A clean install gets the standard library plus ``[project]
dependencies``; any other top-level import in ``src/repro`` makes
``import repro`` fail there.  The first case walks every import
statement with :mod:`ast`; the second imports the public packages in
a fresh interpreter with an undeclared graph library blocked.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def declared_dependencies():
    """Distribution names in ``[project] dependencies``, normalized.

    Parsed with a regex rather than ``tomllib``, which Python 3.10
    (the declared floor) lacks.
    """
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\s*$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert project, "pyproject.toml has no [project] table"
    listing = re.search(
        r"^dependencies\s*=\s*\[(.*?)\]", project.group(1), re.M | re.S
    )
    assert listing, "[project] has no dependencies list"
    names = set()
    for spec in re.findall(r"[\"']([^\"']+)[\"']", listing.group(1)):
        name = re.match(r"[A-Za-z0-9_.\-]+", spec.strip()).group(0)
        names.add(name.lower().replace("-", "_"))
    return names


def declared_python_floor():
    """The ``(major, minor)`` of ``requires-python = ">=X.Y"``."""
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(
        r"^requires-python\s*=\s*[\"']>=\s*(\d+)\.(\d+)", text, re.M
    )
    assert match, "pyproject.toml declares no requires-python floor"
    return int(match.group(1)), int(match.group(2))


def top_level_imports(path):
    """Top-level module of every absolute import in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_python_floor_covers_the_syntax_in_use():
    # ``@dataclass(slots=True)`` needs Python 3.10.
    sources = sorted((SRC / "repro").rglob("*.py"))
    uses_310 = [
        str(path.relative_to(ROOT)) for path in sources
        if re.search(r"dataclass\([^)]*slots=True", path.read_text())
    ]
    assert uses_310
    assert declared_python_floor() >= (3, 10), uses_310[:3]


def test_every_import_is_stdlib_repro_or_declared():
    allowed = set(sys.stdlib_module_names) | {"repro"}
    allowed |= declared_dependencies()
    sources = sorted((SRC / "repro").rglob("*.py"))
    assert sources
    undeclared = [
        f"{path.relative_to(ROOT)}:{line}: {module}"
        for path in sources
        for line, module in top_level_imports(path)
        if module not in allowed
    ]
    assert undeclared == []


def test_packages_import_without_networkx():
    code = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "import repro, repro.network, repro.machine, repro.host\n"
        "import repro.fleet, repro.obs\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
