"""Every imported name is read somewhere in its file."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name an import statement of source binds and
    no Name node reads.  `import a.b` binds a; `from __future__` imports
    bind nothing to read."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append((node.lineno, name))
    return unused


def test_no_unused_imports():
    paths = [p for d in ("src", "demos", "bench", "tests")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(paths) > 20
    assert [(str(p.relative_to(ROOT)), *u) for p in paths
            for u in unused_imports(p.read_text(encoding="utf-8"))] == []


def test_unused_import_scan_flags_what_it_should():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as js\nfrom fractions import Fraction\n"
              "from math import comb\n\n"
              "def f():\n    import re\n    return os.path.join, comb, re\n")
    assert unused_imports(source) == [(3, "js"), (4, "Fraction")]
