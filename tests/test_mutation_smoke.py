"""Mutation smoke gate: the check catalog kills injected implementation bugs.

Each mutant changes one token of one module of ``src/solidus``.  It is applied
to a fresh copy of the package, and the catalog runs there from the command
line at a small sample count.  A killed mutant makes the run exit with status 1
and makes every check of its kill set read ``fail``.  The catalog otherwise
only checks the implementation against laws evaluated by that same
implementation; this gate shows that a wrong implementation does not pass it.
Every printed input of an ``ExternalNum``, ``PreciseNum`` or ``Neutrix`` sort
is read back through ``eval_text`` of the unmutated package and must lie in its
sort's domain, so a counterexample is never shown on an input its law does not
take.
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

# (module, old, new, every check that fails under it at seed 1, n=20, the test id first);
# each ``old`` occurs exactly once.  The kill sets move with the draw stream, like a pin.
MUTANTS = [
    # a limited representative tested against the infinitesimals: degree < 0 for <= 0
    ("external.py", "nx_contains(LIMITED, alpha.rep)", "nx_contains(INFINITESIMALS, alpha.rep)", ("thm.shadow_field",)),
    (
        "external.py",
        "_over_rep(b.nx, b.rep, 2)",
        "_over_rep(b.nx, b.rep, 1)",
        ("axiom.mul.inverse", "axiom.mixed.unity_magnitude"),
    ),
    (
        "halfline.py",
        "HalflineKind.STRONGLY_OPEN: HalflineKind.STRONGLY_OPEN,",
        "HalflineKind.STRONGLY_OPEN: HalflineKind.OPEN,",
        ("axiom.scheme.dedekind",),
    ),
    # a complement that raises on every call: only the documented DegenerateDomainError is a pass
    (
        "halfline.py",
        "Halfline(side, _DUAL[h.kind], h.bound)",
        "Halfline(side, _DUAL[h.side], h.bound)",
        ("axiom.scheme.dedekind",),
    ),
    (
        "naturals.py",
        "poly.ks[-1][0] >= 0",
        "poly.ks[-1][0] > 0",
        ("axiom.arith.naturals", "axiom.arith.archimedean", "axiom.arith.induction"),
    ),
    # the neutrix order ignoring closure, and the overlap case of the external order reversed
    (
        "neutrix.py",
        "return x < y or (x == y and c < c2)",
        "return x < y",
        ("thm.product_idempotents", "axiom.exist.separation", "axiom.magprod.maximal_ideal", "thm.order_consistency"),
    ),
    (
        "external.py",
        "Ordering.LT if a.nx < b.nx",
        "Ordering.LT if a.nx > b.nx",
        (
            "thm.chain", "axiom.exist.intermediate_magnitude", "axiom.exist.separation", "axiom.order.absorbed_below",
            "axiom.order.amplification", "oracle.order", "thm.max_ideal", "thm.order_consistency",
            "thm.product_idempotents", "thm.reciprocal_oslash", "thm.reciprocal_pound", "thm.square_between",
            "thm.sup_inf_characterization", "thm.three_cases", "thm.trichotomy",
        ),
    ),
    # distinct overlapping values compared equal: neither is below the other
    (
        "external.py",
        "Ordering.EQ if a.nx == b.nx else",
        "Ordering.EQ if True else",
        (
            "axiom.order.antisymmetric", "axiom.exist.intermediate_magnitude", "axiom.exist.separation",
            "axiom.order.absorbed_below", "axiom.order.amplification", "axiom.order.mul_compatible", "oracle.order",
            "thm.chain", "thm.max_ideal", "thm.reciprocal_oslash", "thm.reciprocal_pound", "thm.square_between",
            "thm.sup_inf_characterization", "thm.three_cases", "thm.trichotomy",
        ),
    ),
    # a zero scalar scales like 1, leaving the magnitude instead of giving {0}
    (
        "neutrix.py",
        "sa = (0, x.ks[0][0], x.grid, True) if x.ks else _ZERO_KEY",
        "sa = (0, x.ks[0][0], x.grid, True) if x.ks else LIMITED._key",
        (
            "axiom.mul.assoc", "axiom.magprod.maximal_ideal", "axiom.mixed.distributivity",
            "axiom.mixed.product_magnitude", "axiom.mixed.unity_magnitude", "axiom.mul.comm", "thm.order_consistency",
            "thm.oslash_pound", "thm.product_idempotents", "thm.sup_consistency",
        ),
    ),
    # the int thresholds: membership with the closed and open bounds swapped, a
    # cut left unreduced (unequal to the same cut reduced), truncation strictness flipped
    (
        "neutrix.py",
        "k <= bound if closed else k < bound",
        "k < bound if closed else k <= bound",
        (
            "oracle.order", "axiom.exist.separation", "axiom.order.absorbed_below", "oracle.minkowski", "thm.chain",
            "thm.order_consistency", "thm.product_idempotents", "thm.shadow_field", "thm.square_between",
            "thm.three_cases",
        ),
    ),
    (
        "neutrix.py",
        "g = math.gcd(n, d)",
        "g = 1",
        (
            "axiom.mul.assoc", "axiom.magprod.scale_to_idempotent", "axiom.mixed.unity_magnitude", "axiom.mul.inverse",
            "axiom.mul.unity", "axiom.mul.unity_product", "axiom.order.amplification", "thm.linearization",
            "thm.sup_consistency", "thm.unity_multiplicative",
        ),
    ),
    (
        "external.py",
        "_expand(rep, n, d, closed)",
        "_expand(rep, n, d, not closed)",
        ("oracle.minkowski", "axiom.order.antisymmetric", "thm.subdistributivity", "thm.three_cases"),
    ),
    # a closed cut that no longer holds its threshold: L loses the appreciable numbers
    (
        "neutrix.py",
        "k <= bound if closed else k < bound",
        "k < bound if closed else k < bound",
        (
            "thm.square_between", "axiom.exist.separation", "axiom.order.absorbed_below", "oracle.minkowski",
            "oracle.order", "thm.chain", "thm.max_ideal", "thm.order_consistency", "thm.reciprocal_oslash",
            "thm.reciprocal_pound", "thm.shadow_field", "thm.three_cases",
        ),
    ),
    # the leading term of a difference: exponents compared without the cross grid,
    # coefficients without the denominators, and two ratios' tied leading terms
    # walked past instead of building the difference
    (
        "field.py",
        "ka * gb",
        "ka",
        (
            "thm.three_cases", "axiom.order.mul_compatible", "axiom.order.reflexive", "axiom.order.total",
            "axiom.scheme.dedekind", "oracle.minkowski", "oracle.order", "thm.subdistributivity",
        ),
    ),
    ("field.py", "ca * db - cb * da", "ca - cb", ("thm.three_cases", "oracle.minkowski")),
    ("field.py", "if x.den != y.den:", "if False:", ("oracle.minkowski",)),
    # a ratio that does not divide out read as its quotient: x + 1/(1 + rho^(-1)) would be natural
    ("field.py", "return quotient if rem.is_zero() else None", "return quotient", ("axiom.arith.naturals",)),
    # the induction battery checks the documented expected failure as well
    ("checks.py", 'fid != "even_or_odd"', 'fid != "odd_or_even"', ("axiom.arith.induction",)),
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


@pytest.mark.parametrize("module, old, new, kills", MUTANTS, ids=[m[3][0] for m in MUTANTS])
def test_the_catalog_kills_the_mutant(tmp_path, module, old, new, kills):
    env = _mutated(tmp_path, module, old, new)
    run = subprocess.run(
        [sys.executable, "-m", "solidus.cli", "--check", "--seed", "1", "--count", "20"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stderr
    # every listed check fails, so no later verdict can hide one of these failures; more may fail
    statuses = _statuses(run.stdout)
    assert {c: statuses[c] for c in kills} == dict.fromkeys(kills, "fail"), run.stdout
    assert _outside_domains(run.stdout) == []
    if kills[0] == "axiom.mul.inverse":
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


def test_the_threshold_mutant_leaves_the_zeroless_draws_alone(tmp_path):
    # Zeroless's draw and domain read the stored fields, not the neutrix
    # membership that the swapped-bound mutant breaks, so its laws get the same inputs
    env = _mutated(tmp_path, "neutrix.py", "k <= bound if closed else k < bound", "k < bound if closed else k <= bound")
    ids = ("axiom.mul.inverse", "axiom.mul.unity_product", "thm.unity_multiplicative")
    script = (
        "from solidus.checks import REGISTRY\n"
        "from solidus.generate import GeneratorConfig, Sampler\n"
        f"for check_id in {ids!r}:\n"
        "    s = Sampler(GeneratorConfig(seed=42), check_id)\n"
        "    for _ in range(200):\n"
        "        print(*REGISTRY[check_id].draw(s), sep='\\t')\n"
    )
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    draws = []
    for check_id in ids:
        sampler = Sampler(GeneratorConfig(seed=42), check_id)
        draws += [REGISTRY[check_id].draw(sampler) for _ in range(200)]
    assert run.stdout.splitlines() == ["\t".join(str(v) for v in values) for values in draws]
    # the draws reach the values the mutant misjudges: a degree at a finite cut's threshold
    at_threshold = [
        x for values in draws for x in values
        if x.nx._key[0] == 0 and x.rep.num.ks[0][0] * x.nx._key[2] == x.nx._key[1] * x.rep.num.grid
    ]
    assert len(at_threshold) > 20
