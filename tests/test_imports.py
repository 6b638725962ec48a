"""The imports of ``src/solidus``: every module uses each name it imports, none
loads ``dataclasses`` or, through it, ``inspect``, and the calculator does not
load the check harness.

``__init__.py`` is left out of the first rule: it imports names only to
re-export them.  A name counts as used when it appears as a bare name or as the
base of an attribute anywhere in the module, annotations included.  The records
are ``NamedTuple``s and a ``__slots__`` class, so the harness's cold start
(``--check``) skips the import and code generation of ``dataclasses``.  A fresh
``import solidus`` or ``import solidus.cli``, which every entry point pays
before it evaluates anything, loads neither ``checks`` nor ``generate``: the
package resolves their names on first access (PEP 562) and exports the same
names as when it imported them eagerly.
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
HARNESS = {"solidus.checks", "solidus.generate"}


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


def fresh(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60).stdout


def test_the_calculator_loads_no_harness_and_the_harness_no_dataclasses():
    # the modules loaded before the import are subtracted, so a site hook that loads one cannot fail the test
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import solidus\n"
        "package = set(sys.modules) - before\n"
        "import solidus.cli\n"
        "cli = set(sys.modules) - before\n"
        "import solidus.checks\n"
        "print(json.dumps([sorted(package), sorted(cli), sorted(set(sys.modules) - before)]))\n"
    )
    package, cli, harness = map(set, json.loads(fresh(code)))
    assert "solidus.parser" in package and "solidus.cli" in cli
    assert not HARNESS & package and not HARNESS & cli
    assert HARNESS <= harness and not SLOW_TO_IMPORT & harness


#: ``solidus.__all__`` as it was while the package imported the harness eagerly
PUBLIC = """
    CheckFailure CheckReport Classification DegenerateDomainError EmptySetError ExternalNum FULL
    GeneratorConfig Halfline HalflineKind IDEMPOTENTS INDUCTION_CATALOG INFINITESIMALS InternalError
    LIMITED NEG_INFINITY NX_ZERO Neutrix NotAboveUnityError NotIdempotentError NotLimitedError
    NotStrictlyOrderedError NotZerolessError ONE_POLY Ordering ParseError PreciseNum
    PreconditionFailedError RHO ResourceLimitError RhoPoly Sampler Side SolidusError UnknownCheckError
    UnknownFormulaError ZERO_POLY archimedean_witness as_external as_polynomial canonicalize checks
    classify closed_cut compare_precise decompose errors evaluate exit_code ext_add ext_compare
    ext_disjoint ext_inv ext_member ext_mul ext_neg ext_subset external field format_report
    format_reports generate halfline hl_complement hl_member induction_spotcheck is_ideal_of
    is_idempotent is_limited is_natural is_zeroless lower magnitude maximal_ideal minkowski_escapes
    naturals neutrix nx_add nx_contains nx_mul nx_product nx_scale open_cut parse parser pure
    run_catalog run_check separate_from_hole separate_precise series_expand shadow unity upper zup
    zup_finite
""".split()


def test_the_package_exports_the_harness_names_it_loads_on_first_use():
    import solidus
    import solidus.checks
    import solidus.generate

    assert solidus.__all__ == PUBLIC
    exported = {}
    exec("from solidus import *", exported)
    assert all(exported[name] is getattr(solidus, name) for name in PUBLIC)
    # the submodule names resolve through the package only before their first import
    code = "import solidus, sys; print([getattr(solidus, m) is sys.modules[f'solidus.{m}'] for m in ('generate', 'checks')])"
    assert fresh(code) == "[True, True]\n"
    for name in ("GeneratorConfig", "Sampler"):
        assert getattr(solidus, name) is getattr(solidus.generate, name)
    for name in ("CheckFailure", "CheckReport", "exit_code", "format_report", "format_reports",
                 "minkowski_escapes", "run_catalog", "run_check"):
        assert getattr(solidus, name) is getattr(solidus.checks, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        solidus.no_such_name
    assert not hasattr(solidus, "REGISTRY")
