"""Source hygiene: no module in ``src/geovar`` or ``scripts`` imports a name
it never uses or reads the process environment, no module in
``src/geovar`` defines a function or class that nothing uses, and no
module in ``src/geovar`` reads another geovar module's underscore name.

The checks read the syntax tree only, so they need no linter:

- a name bound by an ``import`` statement anywhere in a file must appear as
  a name somewhere in the same file; the package's ``__init__`` re-exports
  its ``__all__``;
- a top-level function or class of ``src/geovar`` must be referenced in
  ``src``, ``scripts``, ``tests`` or ``bench``: as a name, an attribute, an
  imported name or a string constant (the bench tracer patches functions by
  name);
- a module of ``src/geovar`` imports no underscore name from another geovar
  module and reads none as an attribute of an imported geovar module;
- a module of ``src/geovar`` or ``scripts`` reads neither ``os.environ`` nor
  ``os.getenv``, under any name it binds to ``os``, and imports neither from
  ``os``: a run takes its settings from its command line and config file.
"""

import ast
from pathlib import Path

import pytest

import geovar

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "geovar").glob("*.py")) + sorted(
    (ROOT / "scripts").glob("*.py")
)
REFERRERS = [
    p for d in ("src", "scripts", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))
]


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


def unreferenced_definitions(defining, referring):
    """``(file, line, name)`` of each top-level function or class of the
    ``defining`` sources (``{file: source}``) that no ``referring`` source
    names, reads as an attribute, imports or spells as a string."""
    used = set()
    for source in referring:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        (name, node.lineno, node.name)
        for name, source in defining.items()
        for node in ast.parse(source).body
        if isinstance(node, kinds) and node.name not in used
    )


def test_checker_flags_an_unreferenced_definition():
    defining = {
        "model.py": "def factory():\n    pass\n\ndef leftover():\n    pass\n\n"
                    "class Kept:\n    pass\n",
        "tracer.py": "import model\nPATCHED = ['factory']\n",
    }
    referring = list(defining.values()) + ["from model import Kept\n"]
    assert unreferenced_definitions(defining, referring) == [("model.py", 4, "leftover")]
    assert unreferenced_definitions(defining, referring + ["model.leftover()\n"]) == []


def test_every_definition_is_referenced():
    defining = {
        f"geovar/{p.name}": p.read_text() for p in (ROOT / "src" / "geovar").glob("*.py")
    }
    referring = [p.read_text() for p in REFERRERS]
    assert unreferenced_definitions(defining, referring) == []


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reads(source):
    """``(line, "module.name")`` of each underscore name of another geovar
    module that ``source`` imports or reads as a module attribute."""
    tree = ast.parse(source)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "geovar"
        ):
            base = (node.module or "").removeprefix("geovar").lstrip(".")
            for alias in node.names:
                if not base:  # from . import discrete
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append((node.lineno, f"{base}.{alias.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_checker_flags_a_private_name_of_another_module():
    source = (
        "from . import discrete, groups as g\n"
        "from .ocp import _terminal_mismatch, layout\n"
        "from geovar.discrete import _window_views\n"
        "g._check_tag('SO3')\n"
        "discrete.window_views, discrete.__name__, self._cache, _local()\n"
    )
    assert private_reads(source) == [
        (2, "ocp._terminal_mismatch"), (3, "discrete._window_views"), (4, "g._check_tag"),
    ]
    assert private_reads("import numpy as np\nnp._NoValue\n") == []


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "geovar").glob("*.py")), ids=lambda p: f"geovar/{p.name}"
)
def test_no_private_names_across_modules(path):
    assert private_reads(path.read_text()) == []


ENVIRONMENT = ("environ", "getenv")


def environment_reads(source):
    """``(line, "os.name")`` of each read of the process environment in
    ``source``: ``os.environ`` or ``os.getenv`` through a name bound to
    ``os``, or either one imported from ``os``."""
    tree = ast.parse(source)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "os" or (not alias.asname and alias.name.startswith("os.")):
                    modules.add(alias.asname or "os")  # import os.path binds os
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"os.{a.name}") for a in node.names if a.name in ENVIRONMENT]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append((node.lineno, f"os.{node.attr}"))
    return sorted(found)


def test_checker_flags_a_read_of_the_environment():
    source = (
        "import os.path\n"
        "import os as system, os.path as osp\n"
        "from os import getenv, sep\n"
        "os.environ.get('A'), system.getenv('B')\n"
        "osp.environ, cfg.environ, environ, os.path.join(sep)\n"
    )
    assert environment_reads(source) == [
        (3, "os.getenv"), (4, "os.environ"), (4, "os.getenv"),
    ]
    assert environment_reads("import os\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_reads_the_environment(path):
    assert environment_reads(path.read_text()) == []
