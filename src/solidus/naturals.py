"""The arithmetical layer: naturals, Archimedean witnesses, induction battery.

Naturals are interpreted as the rho-polynomials with nonnegative integer
exponents, integer coefficients and nonnegative value.  This family is
discrete (no natural strictly between x and x+1: the difference would be an
integer polynomial with value in (0,1), impossible), closed under + and *, and
cofinal, which is what the Archimedean axiom needs.

The full first-order induction scheme cannot hold for any computable
interpretation of N (a Tennenbaum-type obstruction); for instance "every
natural is even or odd" fails here because (rho - 1)/2 is not in the family.
Induction is therefore verified only on a curated catalog of {+,*}-formulas.
The battery only reports where a formula fails; the check catalog is the one
place that declares the even/odd instance a documented expected failure.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import InternalError, PreconditionFailedError, UnknownFormulaError
from .external import EXT_ZERO, ExternalNum
from .field import PreciseLike, PreciseNum, RhoPoly, as_polynomial
from .neutrix import FULL


def is_natural(p: PreciseLike) -> bool:
    """Membership in the natural-number family.

    The value must be a polynomial (the denominator divides out exactly) with
    integer exponents >= 0 (grid 1, least ``k`` >= 0), integer coefficients
    (den 1), and nonnegative sign.
    """
    poly = as_polynomial(PreciseNum.of(p))
    if poly is None or poly.sign() < 0 or poly.grid != 1 or poly.den != 1:
        return False
    return not poly.ks or poly.ks[-1][0] >= 0


def _upper_degree(alpha: ExternalNum):
    return max(alpha.rep.degree(), alpha.nx.q)


def archimedean_witness(x: ExternalNum, y: ExternalNum) -> RhoPoly:
    """A natural z, in polynomial form, with z*x > y, given 0 < x < y.

    The candidate C*rho^k starts from the degree gap and the leading
    coefficient ratio and escalates until the comparison confirms it, so the
    postcondition is verified rather than assumed.  ``y`` must stay below some
    precise element: the whole-field magnitude has no precise majorant, so no
    multiple of x can exceed it.
    """
    if not EXT_ZERO < x < y:
        raise PreconditionFailedError("requires 0 < x < y")
    if y.nx == FULL:
        raise PreconditionFailedError("no natural multiple exceeds the whole-field magnitude")

    gap = _upper_degree(y) - _upper_degree(x)
    k0 = max(0, math.ceil(gap)) if gap > 0 else 0

    cx = x.rep.num.leading_coeff() or 1
    cy = y.rep.num.leading_coeff() or 1
    c = int(abs(cy / cx)) + 1

    for k in range(k0, k0 + 64):
        z = RhoPoly.rho_power(k, c)
        if x * z > y:
            return z
        c *= 2
    raise InternalError("archimedean witness escalation failed to terminate")


# --- curated induction catalog ------------------------------------------------

Predicate = Callable[[PreciseNum], bool]


def _even_or_odd(x: PreciseNum) -> bool:
    return is_natural(x / 2) or is_natural((x - 1) / 2)


def _predecessor(x: PreciseNum) -> bool:
    return x == 0 or is_natural(x - 1)


def _catalog() -> dict[str, Predicate]:
    two, three, four, five, six = (PreciseNum.of(n) for n in (2, 3, 4, 5, 6))
    return {
        "add_zero": lambda x: x + 0 == x,  # x + 0 = x
        "add_comm": lambda x: x + three == three + x,  # x + 3 = 3 + x
        "add_assoc": lambda x: (x + two) + five == x + (two + five),  # (x + 2) + 5 = x + (2 + 5)
        "mul_one": lambda x: x * 1 == x,  # x * 1 = x
        "mul_zero": lambda x: x * 0 == PreciseNum.of(0),  # x * 0 = 0
        "mul_succ": lambda x: x * (four + 1) == x * four + x,  # x * (4 + 1) = x * 4 + x
        "mul_comm": lambda x: x * six == six * x,  # x * 6 = 6 * x
        "mul_assoc": lambda x: x * (two * three) == (x * two) * three,  # x * (2 * 3) = (x * 2) * 3
        "distrib": lambda x: x * (two + five) == x * two + x * five,  # x * (2 + 5) = x * 2 + x * 5
        # (x + 1) * (x + 1) = x * x + 2 * x + 1
        "square_expand": lambda x: (x + 1) * (x + 1) == x * x + two * x + 1,
        "double": lambda x: x + x == two * x,  # x + x = 2 * x
        "predecessor": _predecessor,  # x = 0 or exists y with x = y + 1
        "even_or_odd": _even_or_odd,  # exists y with x = 2*y or x = 2*y + 1
    }


#: Each formula's id and its predicate, the formula's truth at a natural x.
INDUCTION_CATALOG = _catalog()

#: Nonstandard naturals used for step and conclusion spot checks.
NONSTANDARD_SAMPLES = tuple(
    RhoPoly(t)
    for t in (
        [(1, 1)],                      # rho
        [(1, 1), (0, 1)],              # rho + 1
        [(1, 2)],                      # 2 rho
        [(2, 1)],                      # rho^2
        [(2, 1), (1, 3), (0, 1)],      # rho^2 + 3 rho + 1
        [(1, 1), (0, -1)],             # rho - 1
    )
)


def induction_spotcheck(formula_id: str, bound: int = 50) -> tuple[list[str], list[str]]:
    """Check the inductive step and the conclusion for one catalog formula.

    Both are checked on the standard naturals 0..bound and on the nonstandard
    samples; a failing base case is a conclusion failure at 0.  Returns
    ``(step_failures, conclusion_failures)``, the rendered points where the
    formula holds at x but not at x + 1, and where it does not hold at x.
    Whether a failure is expected is the check catalog's decision.
    """
    if bound < 0:
        raise PreconditionFailedError("the standard range 0..bound needs bound >= 0")
    try:
        holds_at = INDUCTION_CATALOG[formula_id]
    except KeyError:
        raise UnknownFormulaError(formula_id) from None
    samples = [PreciseNum.of(n) for n in range(bound + 1)]
    samples += [PreciseNum.of(p) for p in NONSTANDARD_SAMPLES]
    holds = {x: holds_at(x) for x in samples}
    step_failures, conclusion_failures = [], []
    for x, ok in holds.items():
        if ok:
            # a successor that is itself a sample (x < bound, and rho - 1) is already evaluated
            y = x + 1
            step = holds.get(y)
            if not (holds_at(y) if step is None else step):
                step_failures.append(str(x))
        if not ok:
            conclusion_failures.append(str(x))
    return step_failures, conclusion_failures
