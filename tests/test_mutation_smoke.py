"""Mutation smoke gate: the check catalog kills injected implementation bugs.

Each mutant changes one token of one module of ``src/solidus``.  It is applied
to a fresh copy of the package, and the catalog runs there from the command
line at a small sample count.  A killed mutant makes the run exit with status 1
and makes the named check read ``fail``.  The catalog otherwise only checks the
implementation against laws evaluated by that same implementation; this gate
shows that a wrong implementation does not pass it.  Every printed input of an
``ExternalNum``, ``PreciseNum`` or ``Neutrix`` sort is read back through
``eval_text`` of the unmutated package and must lie in its sort's domain, so a counterexample
is never shown on an input its law does not take.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from solidus.checks import REGISTRY, dependencies
from solidus.external import ExternalNum
from solidus.field import PreciseNum
from solidus.generate import GeneratorConfig, Sampler
from solidus.neutrix import Neutrix
from solidus.parser import eval_text

SRC = Path(__file__).resolve().parent.parent / "src"

# (module, old, new, the check that kills it); each ``old`` occurs exactly once
MUTANTS = [
    # a limited representative tested against the infinitesimals: degree < 0 for <= 0
    ("external.py", "nx_contains(LIMITED, alpha.rep)", "nx_contains(INFINITESIMALS, alpha.rep)", "thm.shadow_field"),
    ("external.py", "_over_rep(b.nx, b.rep, 2)", "_over_rep(b.nx, b.rep, 1)", "axiom.mul.inverse"),
    (
        "halfline.py",
        "HalflineKind.STRONGLY_OPEN: HalflineKind.STRONGLY_OPEN,",
        "HalflineKind.STRONGLY_OPEN: HalflineKind.OPEN,",
        "axiom.scheme.dedekind",
    ),
    # a complement that raises on every call: only the documented DegenerateDomainError is a pass
    ("halfline.py", "Halfline(side, _DUAL[h.kind], h.bound)", "Halfline(side, _DUAL[h.side], h.bound)", "axiom.scheme.dedekind"),
    ("naturals.py", "poly.ks[-1][0] >= 0", "poly.ks[-1][0] > 0", "axiom.arith.naturals"),
    # the neutrix order ignoring closure, and the overlap case of the external order reversed
    ("neutrix.py", "return x < y or (x == y and c < c2)", "return x < y", "thm.product_idempotents"),
    ("external.py", "Ordering.LT if a.nx < b.nx", "Ordering.LT if a.nx > b.nx", "thm.chain"),
    # distinct overlapping values compared equal: neither is below the other
    ("external.py", "Ordering.EQ if a.nx == b.nx else", "Ordering.EQ if True else", "axiom.order.antisymmetric"),
    # a zero scalar scales like 1, leaving the magnitude instead of giving {0}
    ("neutrix.py", "sa = (0, x.ks[0][0], x.grid, True) if x.ks else _ZERO_KEY", "sa = (0, x.ks[0][0], x.grid, True) if x.ks else LIMITED._key", "axiom.mul.assoc"),
    # the int thresholds: membership with the closed and open bounds swapped, a
    # cut left unreduced (unequal to the same cut reduced), truncation strictness flipped
    ("neutrix.py", "k <= bound if closed else k < bound", "k < bound if closed else k <= bound", "oracle.order"),
    ("neutrix.py", "g = math.gcd(n, d)", "g = 1", "axiom.mul.assoc"),
    ("external.py", "_expand(rep, n, d, closed)", "_expand(rep, n, d, not closed)", "oracle.minkowski"),
    # the leading term of a difference: exponents compared without the cross grid,
    # coefficients without the denominators, and two ratios' tied leading terms
    # walked past instead of building the difference
    ("field.py", "ka * gb", "ka", "thm.three_cases"),
    ("field.py", "ca * db - cb * da", "ca - cb", "thm.three_cases"),
    ("field.py", "if x.den != y.den:", "if False:", "oracle.minkowski"),
    # a ratio that does not divide out read as its quotient: x + 1/(1 + rho^(-1)) would be natural
    ("field.py", "return quotient if rem.is_zero() else None", "return quotient", "axiom.arith.naturals"),
    # the induction battery checks the documented expected failure as well
    ("checks.py", 'fid != "even_or_odd"', 'fid != "odd_or_even"', "axiom.arith.induction"),
]


def _statuses(stdout: str) -> dict[str, str]:
    """check id -> status, from the ``id<TAB>status<TAB>samples<TAB>failures`` lines."""
    rows = (line.split("\t") for line in stdout.splitlines() if not line.startswith("#"))
    return {row[0]: row[1] for row in rows if len(row) == 4}


def _failures(stdout: str):
    """(check id, {input name: printed text}) for every counterexample block."""
    check_id, inputs = None, {}
    for line in stdout.splitlines():
        if not line.startswith("#"):
            check_id = line.split("\t")[0]
        elif line.startswith("# input "):
            name, text = line[len("# input ") :].split(" = ", 1)
            inputs[name] = text
        elif line.startswith("# expected: "):
            yield check_id, inputs
            inputs = {}


def _outside_domains(stdout: str) -> list[str]:
    """The printed inputs of an ExternalNum, PreciseNum or Neutrix sort that, read back, lie outside its domain."""
    outside = []
    for check_id, inputs in _failures(stdout):
        sorts = REGISTRY[check_id].verdict.__annotations__
        values = {}
        for name, text in inputs.items():
            if sorts[name].__origin__ is ExternalNum:
                values[name] = eval_text(text)
            elif sorts[name].__origin__ is PreciseNum:
                values[name] = eval_text(text).rep
            elif sorts[name].__origin__ is Neutrix:
                values[name] = eval_text(text).nx
        for name, value in values.items():
            _, *domain = sorts[name].__metadata__
            if domain and not domain[0](value, *[values[r] for r in dependencies(domain[0])]):
                outside.append(f"{check_id}: {name} = {inputs[name]}")
    return outside


def _mutated(tmp_path: Path, module: str, old: str, new: str) -> dict:
    """Copy the package under tmp_path with ``old`` replaced by ``new`` in module; the environment that imports it."""
    package = tmp_path / "solidus"
    shutil.copytree(SRC / "solidus", package, ignore=shutil.ignore_patterns("__pycache__"))
    path = package / module
    text = path.read_text()
    assert text.count(old) == 1, f"{old!r} must occur exactly once in {module}"
    path.write_text(text.replace(old, new))
    return dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")


@pytest.mark.parametrize("module, old, new, killer", MUTANTS, ids=[m[3] for m in MUTANTS])
def test_the_catalog_kills_the_mutant(tmp_path, module, old, new, killer):
    env = _mutated(tmp_path, module, old, new)
    run = subprocess.run(
        [sys.executable, "-m", "solidus.cli", "--check", "--seed", "1", "--count", "20"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stderr
    assert _statuses(run.stdout)[killer] == "fail", run.stdout
    assert _outside_domains(run.stdout) == []
    if killer == "axiom.mul.inverse":
        # shrinking keeps the kind of failure: the wrong inverse is shown on the
        # zeroless inputs the law takes, not as a crash on L or o
        assert "# observed: raised NotZerolessError" not in run.stdout, run.stdout


def test_the_naturals_mutant_leaves_the_natural_draws_alone(tmp_path):
    # Natural's domain reads the stored fields, not the is_natural that the mutant
    # breaks, so naturals with a constant term are still drawn and tested
    env = _mutated(tmp_path, "naturals.py", "poly.ks[-1][0] >= 0", "poly.ks[-1][0] > 0")
    script = (
        "from solidus.checks import REGISTRY\n"
        "from solidus.generate import GeneratorConfig, Sampler\n"
        "s = Sampler(GeneratorConfig(seed=42), 'axiom.arith.naturals')\n"
        "for _ in range(200):\n"
        "    print(*REGISTRY['axiom.arith.naturals'].draw(s), sep='\\t')\n"
    )
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    sampler = Sampler(GeneratorConfig(seed=42), "axiom.arith.naturals")
    draws = [REGISTRY["axiom.arith.naturals"].draw(sampler) for _ in range(200)]
    assert run.stdout.splitlines() == ["\t".join(str(v) for v in values) for values in draws]
    assert sum(bool(x.num.ks) and x.num.ks[-1][0] == 0 for x, _, _ in draws) > 20
