"""Every typed error is in use, and the README's library example runs.

An exception class in ``errors.py`` counts as used when another module of
``src/solidus`` raises it or subclasses it, so a change that stops raising a
typed error must also delete it.  The README's "Library example" block is run
as written.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "solidus"


def raised_or_subclassed(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
        elif isinstance(node, ast.ClassDef):
            names.update(base.id for base in node.bases if isinstance(base, ast.Name))
    return names


def test_the_check_sees_raises_and_subclasses():
    source = "class E(SolidusError):\n    pass\nraise ParseError('x', 1)\nraise InternalError\nraise\n"
    assert raised_or_subclassed(source) == {"SolidusError", "ParseError", "InternalError"}


def test_every_error_class_is_raised_or_subclassed_elsewhere():
    errors = {
        node.name
        for node in ast.parse((PACKAGE / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    }
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "errors.py":
            used |= raised_or_subclassed(path.read_text())
    assert sorted(errors - used) == []


def test_the_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None, "README.md has no Library example block"
    exec(compile(block.group(1), "README.md", "exec"), {})
