"""Source hygiene: no module in ``src/geovar`` or ``scripts`` imports a name
it never uses.

The check reads the syntax tree only, so it needs no linter: a name bound by
an ``import`` statement anywhere in a file must appear as a name somewhere
in the same file.  The package's ``__init__`` re-exports its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import geovar

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "geovar").glob("*.py")) + sorted(
    (ROOT / "scripts").glob("*.py")
)


def unused_imports(source, exempt=()):
    """Names bound by the imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(
        (line, name) for name, line in imported.items()
        if name not in used and name not in exempt
    )


def test_checker_flags_an_unused_import():
    source = "import math\nimport os.path\nfrom numpy import pi, e\nprint(os.path.sep, pi)\n"
    assert unused_imports(source) == [(1, "math"), (3, "e")]
    assert unused_imports(source, exempt={"math", "e"}) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    exempt = geovar.__all__ if path.name == "__init__.py" else ()
    assert unused_imports(path.read_text(), exempt) == []
