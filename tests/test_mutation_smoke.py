"""Mutation smoke gate: the check catalog kills injected implementation bugs.

Each mutant changes one token of one module of ``src/solidus``.  It is applied
to a fresh copy of the package, and the catalog runs there from the command
line at a small sample count.  A killed mutant makes the run exit with status 1
and makes the named check read ``fail``.  The catalog otherwise only checks the
implementation against laws evaluated by that same implementation; this gate
shows that a wrong implementation does not pass it.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# (module, old, new, the check that kills it); each ``old`` occurs exactly once
MUTANTS = [
    ("external.py", "alpha.rep.degree() <= 0", "alpha.rep.degree() < 0", "thm.shadow_field"),
    ("external.py", "nx_scale(inv_rep * inv_rep, b.nx)", "nx_scale(inv_rep, b.nx)", "axiom.mul.inverse"),
    (
        "halfline.py",
        "HalflineKind.STRONGLY_OPEN: HalflineKind.STRONGLY_OPEN,",
        "HalflineKind.STRONGLY_OPEN: HalflineKind.OPEN,",
        "axiom.scheme.dedekind",
    ),
    ("naturals.py", "poly.ks[-1][0] >= 0", "poly.ks[-1][0] > 0", "axiom.arith.naturals"),
    # the neutrix order ignoring closure, and the overlap case of the external order reversed
    ("neutrix.py", "return x < y or (x == y and c < c2)", "return x < y", "thm.product_idempotents"),
    ("external.py", "Ordering.LT if a.nx < b.nx", "Ordering.LT if a.nx > b.nx", "thm.chain"),
    # distinct overlapping values compared equal: neither is below the other
    ("external.py", "Ordering.EQ if a.nx == b.nx else", "Ordering.EQ if True else", "axiom.order.antisymmetric"),
    # scaling by zero leaves the magnitude instead of giving {0}; nx_mul also returns NX_ZERO
    ("neutrix.py", "if p.is_zero():\n        return NX_ZERO", "if p.is_zero():\n        return a", "axiom.mul.assoc"),
    # the induction battery checks the documented expected failure as well
    ("checks.py", 'fid != "even_or_odd"', 'fid != "odd_or_even"', "axiom.arith.induction"),
]


def _statuses(stdout: str) -> dict[str, str]:
    """check id -> status, from the ``id<TAB>status<TAB>samples<TAB>failures`` lines."""
    rows = (line.split("\t") for line in stdout.splitlines() if not line.startswith("#"))
    return {row[0]: row[1] for row in rows if len(row) == 4}


@pytest.mark.parametrize("module, old, new, killer", MUTANTS, ids=[m[3] for m in MUTANTS])
def test_the_catalog_kills_the_mutant(tmp_path, module, old, new, killer):
    package = tmp_path / "solidus"
    shutil.copytree(SRC / "solidus", package, ignore=shutil.ignore_patterns("__pycache__"))
    path = package / module
    text = path.read_text()
    assert text.count(old) == 1, f"{old!r} must occur exactly once in {module}"
    path.write_text(text.replace(old, new))

    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "solidus.cli", "--check", "--seed", "1", "--count", "20"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stderr
    assert _statuses(run.stdout)[killer] == "fail", run.stdout
