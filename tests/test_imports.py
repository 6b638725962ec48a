"""The imports of ``src/solidus``: every module uses each name it imports, and
none loads ``dataclasses`` or, through it, ``inspect``.

``__init__.py`` is left out of the first rule: it imports names only to
re-export them.  A name counts as used when it appears as a bare name or as the
base of an attribute anywhere in the module, annotations included.  The records
are ``NamedTuple``s and a ``__slots__`` class, so a fresh ``import solidus``, which
every entry point pays before it evaluates anything, skips the import and
code generation of ``dataclasses``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "solidus"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SLOW_TO_IMPORT = {"dataclasses", "inspect"}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom .external import ext_add, pure\npure(0)\n") == [
        "line 1: os",
        "line 2: ext_add",
    ]
    assert unused_imports("import os.path\nfrom __future__ import annotations\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    tree = ast.parse(source)
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    return modules | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in imported_modules(path.read_text())


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # the modules loaded before the import are subtracted, so a site hook that loads one cannot fail the test
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import solidus\n"
        "package = set(sys.modules) - before\n"
        "import solidus.cli\n"
        "print(json.dumps([sorted(package), sorted(set(sys.modules) - before)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    package, cli = json.loads(done.stdout)
    assert "solidus.checks" in package and "solidus.cli" in cli
    assert not SLOW_TO_IMPORT & set(package)
    assert not SLOW_TO_IMPORT & set(cli)
