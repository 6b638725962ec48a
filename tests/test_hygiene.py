"""Every typed error is in use, every law parameter has a sort, the README's
library example runs, and every helper module of ``tests/`` is in use and listed.

An exception class in ``errors.py`` counts as used when another module of
``src/solidus`` raises it or subclasses it, so a change that stops raising a
typed error must also delete it.  Every verdict parameter is annotated with an
``Annotated`` sort, each dependency a sort's draw or domain names is an
earlier parameter of the same verdict, and each drawn value is an instance of
its sort's type.  The README's "Library example" block is run as written.

A helper module of ``tests/`` (one not named ``test_*.py``, other than
``conftest.py``) counts as used when a test module imports it.  Each is either
an independent oracle or keeps a parent's code, and a module of the second
kind is listed with the ROADMAP item whose oracle will retire it: a change
that adds one must add it to ``PARENT_COPIES`` with its reason.
"""

import ast
import re
from pathlib import Path
from typing import Annotated, get_origin

import pytest

from solidus.checks import REGISTRY, dependencies
from solidus.generate import GeneratorConfig, Sampler

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "solidus"
TESTS = ROOT / "tests"
#: the independent oracles among the helper modules
ORACLES = {"field_oracle"}
#: the helper modules that keep a parent's code, with the ROADMAP item whose oracle retires each
PARENT_COPIES = {
    "descent_parser": "item 5: an independent evaluator for REPL answers",
    "composed_external": "item 6: an independent set-semantics model of the external layer",
    "full_difference": "item 6: an independent set-semantics model of the external layer",
}


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


def test_a_sorts_dependencies_are_its_parameters_without_a_default():
    assert dependencies(Sampler.precise) == ()
    assert dependencies(lambda s, y, x, k=1: None) == ("y", "x")


def test_every_law_parameter_has_a_sort():
    for chk in REGISTRY.values():
        annotations = chk.verdict.__annotations__
        assert [name for name in chk.names if get_origin(annotations.get(name)) is not Annotated] == [], chk.check_id


def test_every_dependency_is_an_earlier_parameter():
    for chk in REGISTRY.values():
        for i, name in enumerate(chk.names):
            for f in chk.verdict.__annotations__[name].__metadata__:  # the draw, then the domain if any
                reads = dependencies(f)
                assert set(reads) <= set(chk.names[:i]), (chk.check_id, name, reads)
    mutant = REGISTRY["mutant.distributivity_naive"].verdict
    assert dependencies(mutant.__annotations__["z"].__metadata__[0]) == ("y",)
    beyond = REGISTRY["axiom.arith.archimedean"].verdict.__annotations__["y"].__metadata__
    assert [dependencies(f) for f in beyond] == [("x",), ("x",)]


@pytest.mark.parametrize("seed", (1, 7, 42))
def test_each_drawn_value_has_its_parameters_type(seed):
    for chk in REGISTRY.values():
        types = [chk.verdict.__annotations__[name].__origin__ for name in chk.names]
        sampler = Sampler(GeneratorConfig(seed=seed), chk.check_id)
        for _ in range(3):
            values = chk.draw(sampler)
            assert len(values) == len(types), chk.check_id
            assert all(isinstance(v, t) for v, t in zip(values, types)), (chk.check_id, values)


def _imported(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def test_every_helper_module_is_imported_and_listed():
    helpers = {p.stem for p in TESTS.glob("*.py") if not p.name.startswith("test_") and p.name != "conftest.py"}
    imported = set().union(*(_imported(p) for p in TESTS.glob("test_*.py")))
    assert sorted(helpers - imported) == []
    assert sorted(helpers ^ (ORACLES | set(PARENT_COPIES))) == []
    # a parent copy says so in its docstring; an oracle does not
    copies = {name for name in helpers if "kept as a test-only reference" in ast.get_docstring(ast.parse((TESTS / f"{name}.py").read_text()))}
    assert copies == set(PARENT_COPIES)
