"""Executable encodings of the axioms and theorems, with counterexample reports.

Each law is declared once, by a ``@law`` line directly above its verdict: the
verdict returns None when the law holds and a message when it does not, and
its parameter names label the drawn inputs in reports.  Each parameter is
annotated with its sort, as the paper states each axiom over sorts: a sort
such as ``External`` or ``Magnitude`` is an ``Annotated`` type whose metadata
draws one value of it; a sort whose name restricts its type (``Zeroless``)
adds its domain, the test of the values it admits.  A verdict takes its
inputs' domains as given: a premise belongs in a sort, not in an ``if`` that
the code under test decides.  Inputs are drawn one parameter at a time, in
order.  A draw or domain may read earlier inputs: each parameter it takes
after the first without a default names an earlier parameter of the verdict
and receives its drawn value (``Absorbable`` draws ``y`` near ``x``'s
neutrix).  A value outside its domain is drawn again with the first input its
domain reads, or alone; a tuple is rejected at most ``MAX_DRAWS`` times.  A
verdict without parameters is an exact identity, evaluated once.  The catalog
order is the declaration order.  ``run_check`` alone decides what a failure
is: the verdict's message, or a crash of the verdict.  A failure is shrunk
toward fewer terms, simpler exponents and smaller coefficients, but only to
inputs in every domain that fail the same way: a message stays a message and a
crash a crash of the same exception type, so shrinking cannot slip from a
wrong answer to an input the law does not take.  Inputs are rendered in the
canonical expression syntax.  Three entries are declared as expected failures:
two deliberately wrong ones (naive distributivity and a corrupted magnitude
product table) demonstrate that the harness discriminates, and the even-or-odd
induction instance fails at a nonstandard natural, as documented.

Evaluation is sequential; reports are keyed by sample index, so the output is
deterministic for a given (check id, config, count).
"""

import functools
import operator
from fractions import Fraction
from typing import Annotated, Callable, NamedTuple, Optional

from .errors import DegenerateDomainError, InternalError, UnknownCheckError
from .external import (
    ExternalNum,
    ext_compare,
    ext_disjoint,
    ext_inv,
    ext_member,
    ext_subset,
    magnitude,
    pure,
    shadow,
    unity,
)
from .field import ZERO_POLY, Ordering, PreciseNum, RhoPoly, _poly
from .generate import COEFF_BOUND, EXPONENT_DENOMINATOR_BOUND, EXPONENT_RANGE, NEUTRIX_Q_RANGE, GeneratorConfig, Sampler, below_threshold, shrink, zeroless_domain
from .halfline import (
    Halfline,
    HalflineKind,
    hl_complement,
    hl_member,
    lower,
    magnitude_gap_witness,
    separate_from_hole,
    separate_precise,
    zup,
)
from .naturals import INDUCTION_CATALOG, archimedean_witness, induction_spotcheck, is_natural
from .neutrix import (
    FULL,
    IDEMPOTENTS,
    INFINITESIMALS,
    LIMITED,
    Neutrix,
    NX_ZERO,
    _cut,
    decompose,
    is_ideal_of,
    is_idempotent,
    maximal_ideal,
    nx_mul,
    nx_scale,
)

LT, EQ, GT = Ordering.LT, Ordering.EQ, Ordering.GT


# --- reports -------------------------------------------------------------------


class CheckFailure(NamedTuple):
    inputs: tuple[tuple[str, str], ...]
    expected: str
    observed: str


class CheckReport:
    """The one mutable record: ``run_check`` appends to its lists, fresh for each report."""

    __slots__ = ("check_id", "samples", "failures", "expect_failures", "notes")

    def __init__(self, check_id: str, samples: int, failures=None, expect_failures: bool = False, notes=None):
        self.check_id, self.samples, self.expect_failures = check_id, samples, expect_failures
        self.failures, self.notes = [] if failures is None else failures, [] if notes is None else notes

    def __eq__(self, other) -> bool:
        return type(other) is CheckReport and all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self) -> str:
        return f"CheckReport({', '.join(f'{f}={getattr(self, f)!r}' for f in self.__slots__)})"

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def status(self) -> str:
        if self.failures:
            return "expected-fail" if self.expect_failures else "fail"
        return "unexpected-pass" if self.expect_failures else "pass"

    @property
    def ok(self) -> bool:
        return bool(self.failures) == self.expect_failures


class Check(NamedTuple):
    check_id: str
    group: str
    description: str
    names: tuple[str, ...]
    draw: Callable[[Sampler], tuple]
    verdict: Callable[..., Optional[str]]
    expected: str
    expect_failures: bool = False
    note: str = ""
    admits: Callable[[tuple], bool] = lambda values: True  # every value lies in its sort's domain

    @property
    def single(self) -> bool:
        """A verdict without parameters is an exact identity, evaluated once."""
        return not self.names


REGISTRY: dict[str, Check] = {}
ALIASES: dict[str, str] = {}

AXIOM_GROUPS = (
    "addition",
    "multiplication",
    "order",
    "mixed",
    "existence",
    "magnitude-product",
)


#: rejections of one input tuple before a sort's domain counts as a bug
MAX_DRAWS = 64


def dependencies(f: Callable) -> tuple[str, ...]:
    """The verdict parameters a sort's draw or domain reads: its parameters after the first without a default."""
    code = f.__code__
    return code.co_varnames[1 : code.co_argcount - len(f.__defaults__ or ())]


def law(
    check_id: str, group: str, description: str, expected: str,
    *, expect_failures: bool = False, note: str = "", alias: str | None = None,
):
    """Register the decorated verdict as a check, in declaration order.

    The verdict's parameter names label the drawn inputs in reports, and each
    parameter's sort draws its value, one call per parameter, in order.  A
    sort's draw and domain receive the drawn values of the parameters they
    name.  A value outside its domain is drawn again with the first input its
    domain reads, or alone, and a tuple's ``MAX_DRAWS``-th rejection raises.
    """

    def register(verdict: Callable[..., Optional[str]]):
        if check_id in REGISTRY:
            raise ValueError(f"duplicate check id {check_id}")
        code = verdict.__code__
        names = code.co_varnames[: code.co_argcount]
        # per parameter: its draw, the indices of the inputs the draw reads, its domain or None, and those it reads
        plan = []
        for name in names:
            sort_draw, *domain = verdict.__annotations__[name].__metadata__
            domain = domain[0] if domain else None
            reads = [names.index(r) for r in dependencies(sort_draw)]
            checks = [names.index(r) for r in dependencies(domain)] if domain else []
            plan.append((sort_draw, reads, domain, checks))
        domains = [(i, domain, checks) for i, (_, _, domain, checks) in enumerate(plan) if domain]

        def draw(s: Sampler) -> tuple:
            values: list = []
            rejected = 0
            while len(values) < len(plan):
                sort_draw, reads, domain, checks = plan[len(values)]
                value = sort_draw(s, *[values[j] for j in reads])
                if domain is None or domain(value, *[values[j] for j in checks]):
                    values.append(value)
                elif (rejected := rejected + 1) == MAX_DRAWS:
                    raise InternalError(f"{check_id}: {MAX_DRAWS} draws were rejected")
                else:
                    del values[min(checks, default=len(values)) :]
            return tuple(values)

        def admits(values: tuple) -> bool:
            for i, domain, checks in domains:
                if not domain(values[i], *[values[j] for j in checks]):
                    return False
            return True

        REGISTRY[check_id] = Check(check_id, group, description, names, draw, verdict, expected, expect_failures, note, admits)
        if alias is not None:
            ALIASES[alias] = check_id
        return verdict

    return register


def resolve_check_id(check_id: str) -> str:
    resolved = ALIASES.get(check_id, check_id)
    if resolved not in REGISTRY:
        raise UnknownCheckError(check_id)
    return resolved


def run_check(check_id: str, cfg: GeneratorConfig | None = None, n: int = 1000) -> CheckReport:
    """Evaluate one registered law; raises UnknownCheckError for bad ids."""
    if n < 1:
        raise ValueError("need at least one sample")
    chk = REGISTRY[resolve_check_id(check_id)]
    sampler = Sampler(cfg or GeneratorConfig(), chk.check_id)
    count = 1 if chk.single else n
    report = CheckReport(chk.check_id, count, expect_failures=chk.expect_failures)
    if chk.note:
        report.notes.append(chk.note)

    def evaluate(values: tuple) -> Optional[tuple[Optional[type], str]]:
        """None when the law holds, else (kind, message): kind None for a message, the exception type for a crash."""
        try:
            message = chk.verdict(*values)
        except Exception as exc:  # a crashing law counts as a failing law
            return type(exc), f"raised {type(exc).__name__}: {exc}"
        return None if message is None else (None, message)

    for _ in range(count):
        values = chk.draw(sampler)
        failure = evaluate(values)
        if failure is None:
            continue
        kind, observed = failure

        def same_kind(trial: tuple) -> bool:
            # any other failure would let shrinking slip from the bug to a crash outside the law's domain
            nonlocal observed
            again = evaluate(trial)
            if again is None or again[0] is not kind:
                return False
            observed = again[1]
            return True

        # a trial outside a sort's domain is no counterexample to the law
        shrunk = shrink(values, lambda t: chk.admits(t) and same_kind(t))
        report.failures.append(
            CheckFailure(
                inputs=tuple(zip(chk.names, (str(v) for v in shrunk))),
                expected=chk.expected,
                observed=observed,
            )
        )
    return report


def catalog_ids(groups: tuple[str, ...] | None = None) -> list[str]:
    return [cid for cid, chk in REGISTRY.items() if groups is None or chk.group in groups]


def run_catalog(
    cfg: GeneratorConfig | None = None,
    n: int = 1000,
    only: str | None = None,
) -> list[CheckReport]:
    if only is not None:
        resolved = ALIASES.get(only, only)
        ids = [resolved] if resolved in REGISTRY else [cid for cid in REGISTRY if cid.startswith(only)]
        if not ids:
            raise UnknownCheckError(only)
    else:
        ids = list(REGISTRY)
    return [run_check(cid, cfg, n) for cid in ids]


def format_report(report: CheckReport) -> str:
    lines = [
        f"{report.check_id}\t{report.status}\t{report.samples}\t{len(report.failures)}"
    ]
    for note in report.notes:
        lines.append(f"# note: {note}")
    for failure in report.failures:
        for name, text in failure.inputs:
            lines.append(f"# input {name} = {text}")
        lines.append(f"# expected: {failure.expected}")
        lines.append(f"# observed: {failure.observed}")
    return "\n".join(lines)


def format_reports(reports: list[CheckReport]) -> str:
    return "\n".join(format_report(r) for r in reports)


def exit_code(reports: list[CheckReport]) -> int:
    return 0 if all(r.ok for r in reports) else 1


# --- small helpers -------------------------------------------------------------


def _neq(expected: ExternalNum, got: ExternalNum) -> Optional[str]:
    if expected == got:
        return None
    return f"{got} (expected {expected})"


def _member_menu(nx: Neutrix) -> list[PreciseNum]:
    """Deterministic group elements hugging the threshold, for oracles."""
    if nx == NX_ZERO:
        return [PreciseNum.of(0)]
    if nx == FULL:
        return [PreciseNum.of(v) for v in (0, 1, -1, RhoPoly.rho_power(2), RhoPoly.rho_power(-2, -3))]
    m = functools.partial(below_threshold, nx)  # c * rho^(q - j/2)
    menu = [ZERO_POLY, m(1), m(1, -2), m(2, 3), m(2, -1) + m(4)]
    if nx.closed:
        menu += [m(0), m(0, -3), m(0, 2) + m(2)]
    return [PreciseNum.of(p) for p in menu]


def _representative_menu(alpha: ExternalNum, k: int | None = None) -> list[PreciseNum]:
    return [alpha.rep + g for g in _member_menu(alpha.nx)[:k]]


def _witness_above(a: ExternalNum, b: ExternalNum) -> PreciseNum:
    """A precise member of ``a`` strictly above ``b``; requires a > b."""
    return a.rep if ext_disjoint(a, b) else separate_precise(b, a)


# a positive monomial strictly between a sup sort's magnitude and o or L: rho^(q/2), rho^(-1) for 0, rho for M
def _between_below_and_infinitesimals(below: Neutrix) -> PreciseNum:
    return PreciseNum.of(RhoPoly.rho_power(below.q / 2 if below != NX_ZERO else -1))


def _between_limited_and_above(above: Neutrix) -> PreciseNum:
    return PreciseNum.of(RhoPoly.rho_power(above.q / 2 if above != FULL else 1))


# --- sorts ---------------------------------------------------------------------


def _positive_monomial(s: Sampler) -> PreciseNum:
    k, grid = s._grid(*EXPONENT_RANGE)
    c, d = s._coefficient()
    return PreciseNum.of(_poly(grid, d, [(k, abs(c))]))


def _degree_zero_positive(s: Sampler) -> PreciseNum:
    x = abs(s.limited_precise())
    d = x.degree()
    if d < 0:
        x = x * PreciseNum.of(RhoPoly.rho_power(-d))
    return x


def _natural(s: Sampler) -> PreciseNum:
    p = RhoPoly((s.integer(0, 2), s.integer(-COEFF_BOUND, COEFF_BOUND)) for _ in range(s.integer(0, 2)))
    return PreciseNum.of(-p if p.sign() < 0 else p)


def _unit_offset(s: Sampler) -> PreciseNum:
    return [
        PreciseNum.of(Fraction(1, s.integer(2, 5))),
        PreciseNum.of(RhoPoly.rho_power(-1, s.integer(1, 3))),
        PreciseNum.of(Fraction(1, 2)) + PreciseNum.of(RhoPoly.rho_power(-2)),
        # 1/(1 + rho^(-1)) does not divide out, so no natural plus it is a polynomial
        PreciseNum(RhoPoly.constant(1), RhoPoly([(0, 1), (-1, 1)])),
    ][s.integer(0, 3)]


# a dependent draw: each parameter after the sampler receives the verdict's input of that name
def _absorbable(s: Sampler, x: ExternalNum) -> ExternalNum:
    if s.rng.random() >= 0.6:
        return s.external()
    sub = min(s.neutrix(), x.nx)
    return ExternalNum(s.member_of(x.nx), sub)


def _often_equal(s: Sampler, x: ExternalNum) -> ExternalNum:
    # antisymmetry is vacuous on strictly ordered pairs; feed it equal values
    # rebuilt from different representatives a third of the time
    return ExternalNum(s.representative_of(x), x.nx) if s.rng.random() < 0.35 else s.external()


def _unity_candidate(s: Sampler, x: ExternalNum) -> ExternalNum:
    # candidates v with x*v = x: unity blurred below its own neutrix
    return ExternalNum(1, min(s.neutrix(), unity(x).nx)) if s.rng.random() < 0.7 else s.zeroless()


def _often_negated(s: Sampler, y: ExternalNum) -> ExternalNum:
    # violations of the naive distributive law need cancellation in y + z; draw some
    return -y if s.rng.random() < 0.5 else s.external()


def _above_limited(s: Sampler) -> Neutrix:
    # M one time in five, else a cut drawn as scaled_neutrix draws one, with its threshold in (0, 2]
    if s.rng.random() < 0.2:
        return FULL
    closed, den = s.rng.random() >= 0.5, s.integer(1, EXPONENT_DENOMINATOR_BOUND)
    return _cut(s.integer(1, NEUTRIX_Q_RANGE[1] * den), den, closed)


# Domains are written on the stored fields where they can be, so that a bug in
# the code a law tests does not also narrow or widen the inputs it is tested on.
def _natural_domain(p: PreciseNum) -> bool:
    # not through naturals.is_natural: a polynomial of integer exponents >= 0 and integer coefficients, not negative
    num = p.num
    return p.is_polynomial() and num.grid == 1 and num.den == 1 and p.sign() >= 0 and (not num.ks or num.ks[-1][0] >= 0)


# a sort is its type with the draw of one value of it and, when its name
# restricts the type, its domain: the test of the values it admits
External = Annotated[ExternalNum, Sampler.external]
Zeroless = Annotated[ExternalNum, Sampler.zeroless, zeroless_domain]
NonPrecise = Annotated[ExternalNum, Sampler.external, lambda x: x.nx != NX_ZERO]
Absolute = Annotated[ExternalNum, lambda s: abs(s.external()), lambda x: x.rep.sign() >= 0]
MostlyPositive = Annotated[ExternalNum, lambda s: s.positive_zeroless() if s.rng.random() < 0.8 else s.external()]
PositiveOrMagnitude = Annotated[
    ExternalNum,
    lambda s: abs(s.zeroless()) if s.rng.random() < 0.7 else pure(s.scaled_neutrix()),
    lambda x: x.rep.sign() >= 0,
]
Absorbable = Annotated[ExternalNum, _absorbable]  # often absorbed by x's neutrix
OftenEqual = Annotated[ExternalNum, _often_equal]
UnityCandidate = Annotated[ExternalNum, _unity_candidate]
AtLeast = Annotated[ExternalNum, lambda s, y: y + abs(s.external()), lambda z, y: y <= z]
Beyond = Annotated[  # strictly above x > 0, with a magnitude below M
    ExternalNum,
    lambda s, x: x + abs(s.external()) + ExternalNum(1),
    lambda y, x: y.nx != FULL and ExternalNum(0) < x < y,
]
OftenNegated = Annotated[ExternalNum, _often_negated]
Magnitude = Annotated[Neutrix, Sampler.neutrix]
# the sign of a cut's threshold, -inf and +inf included, is that of (rank, n) in its
# stored key (rank, n, d, closed): read there, not through the neutrix order
BelowInfinitesimals = Annotated[
    Neutrix, lambda s: NX_ZERO if s.rng.random() < 0.1 else s.scaled_neutrix(), lambda A: A._key[:2] < (0, 0)
]
AboveLimited = Annotated[Neutrix, _above_limited, lambda A: A._key[:2] > (0, 0)]
Precise = Annotated[PreciseNum, Sampler.precise]
# the degree of a PreciseNum is its numerator's leading exponent, num.ks[0][0] over num.grid
NonzeroPrecise = Annotated[PreciseNum, Sampler.nonzero_precise, lambda p: p.sign() != 0]
PositivePrecise = Annotated[PreciseNum, Sampler.positive_precise, lambda p: p.sign() > 0]
LimitedPrecise = Annotated[PreciseNum, Sampler.limited_precise, lambda p: p.sign() == 0 or p.num.ks[0][0] <= 0]
Appreciable = Annotated[PreciseNum, _degree_zero_positive, lambda p: p.sign() > 0 and p.num.ks[0][0] == 0]
PositiveInfinitesimal = Annotated[
    PreciseNum,
    lambda s: abs(s.member_of(INFINITESIMALS, allow_zero=False)),
    lambda p: p.sign() > 0 and p.num.ks[0][0] < 0,
]
AboveInfinitesimals = Annotated[
    PreciseNum,
    lambda s: abs(_degree_zero_positive(s)) * PreciseNum.of(_poly(2, 1, [(s.integer(0, 4), 1)])),
    lambda p: p.sign() > 0 and p.num.ks[0][0] >= 0,
]
# a positive monomial, so the square root exists in the model
PositiveMonomial = Annotated[PreciseNum, _positive_monomial, lambda p: p.is_polynomial() and len(p.num.ks) == 1 and p.sign() > 0]
Natural = Annotated[PreciseNum, _natural, _natural_domain]
# strictly between 0 and 1, on the stored ratio, not through PreciseNum's order: den is positive
UnitOffset = Annotated[PreciseNum, _unit_offset, lambda u: u.sign() > 0 and (u.den - u.num).sign() > 0]
LowerHalfline = Annotated[Halfline, lambda s: lower([*HalflineKind][s.integer(0, len(HalflineKind) - 1)], s.external())]


# --- axiom verdicts -------------------------------------------------------------

# 1. addition


@law("axiom.add.assoc", "addition", "x+(y+z) = (x+y)+z", "associativity of addition")
def _v_add_assoc(x: External, y: External, z: External):
    return _neq(x + y + z, x + (y + z))


@law("axiom.add.comm", "addition", "x+y = y+x", "commutativity of addition")
def _v_add_comm(x: External, y: External):
    return _neq(x + y, y + x)


@law("axiom.add.neutral", "addition", "x+e(x) = x, minimally", "individualized neutral element")
def _v_add_neutral(x: External, f: Absorbable):
    e = magnitude(x)
    if x + e != x:
        return f"x + e(x) = {x + e}"
    if x + f == x and e + f != e:
        return f"f absorbed by x but e + f = {e + f}"
    return None


@law("axiom.add.symmetric", "addition", "x+(-x) = e(x) with e(-x) = e(x)", "individualized symmetric element")
def _v_add_symmetric(x: External):
    s = -x
    if x + s != magnitude(x):
        return f"x + (-x) = {x + s}"
    if magnitude(s) != magnitude(x):
        return f"e(-x) = {magnitude(s)}"
    return None


@law("axiom.add.magnitude_linear", "addition", "e(x+y) is e(x) or e(y)", "magnitude of a sum")
def _v_add_magnitude_linear(x: External, y: External):
    e = magnitude(x + y)
    if e != magnitude(x) and e != magnitude(y):
        return f"e(x + y) = {e}"
    return None


# 2. multiplication


@law("axiom.mul.assoc", "multiplication", "x(yz) = (xy)z", "associativity of multiplication")
def _v_mul_assoc(x: External, y: External, z: External):
    return _neq(x * y * z, x * (y * z))


@law("axiom.mul.comm", "multiplication", "xy = yx", "commutativity of multiplication")
def _v_mul_comm(x: External, y: External):
    return _neq(x * y, y * x)


@law("axiom.mul.unity", "multiplication", "x*u(x) = x, minimally", "individualized unity")
def _v_mul_unity(x: Zeroless, v: UnityCandidate):
    u = unity(x)
    if x * u != x:
        return f"x * u(x) = {x * u}"
    if x * v == x and u * v != u:
        return f"x * v = x but u * v = {u * v}"
    return None


@law("axiom.mul.inverse", "multiplication", "x*d(x) = u(x) with u(d) = u(x)", "individualized division")
def _v_mul_inverse(x: Zeroless):
    d = ext_inv(x)
    if x * d != unity(x):
        return f"x * d(x) = {x * d}"
    if unity(d) != unity(x):
        return f"u(d(x)) = {unity(d)}"
    return None


@law("axiom.mul.unity_product", "multiplication", "u(xy) is u(x) or u(y)", "unity of a product")
def _v_mul_unity_product(x: Zeroless, y: Zeroless):
    u = unity(x * y)
    if u != unity(x) and u != unity(y):
        return f"u(x*y) = {u}"
    return None


# 3. order


@law("axiom.order.reflexive", "order", "x <= x", "reflexivity")
def _v_order_reflexive(x: External):
    if ext_compare(x, x) is not EQ:
        return f"compare(x, x) = {ext_compare(x, x).name}"
    return None


@law("axiom.order.antisymmetric", "order", "x<=y and y<=x imply x=y", "antisymmetry")
def _v_order_antisymmetric(x: External, y: OftenEqual):
    if not y < x and not x < y and x != y:
        return "x <= y and y <= x but x != y"
    return None


@law("axiom.order.transitive", "order", "x<=y<=z implies x<=z", "transitivity")
def _v_order_transitive(x: External, y: External, z: External):
    if x <= y and y <= z:
        if x > z:
            return "x <= y <= z but x > z"
    return None


@law("axiom.order.total", "order", "compare is total and antitone under swap", "totality")
def _v_order_total(x: External, y: External):
    ab, ba = ext_compare(x, y), ext_compare(y, x)
    if ab.value != -ba.value:
        return f"compare(x, y) = {ab.name} but compare(y, x) = {ba.name}"
    return None


@law("axiom.order.add_compatible", "order", "x<=y implies x+z<=y+z", "compatibility with addition")
def _v_order_add_compatible(x: External, y: External, z: External):
    if x <= y and x + z > y + z:
        return f"x + z = {x + z} > y + z = {y + z}"
    return None


@law("axiom.order.absorbed_below", "order", "y+e(x)=e(x) implies y<=e(x) and -y<=e(x)", "absorbed elements are small")
def _v_order_absorbed_below(x: External, y: Absorbable):
    e = magnitude(x)
    if y + e == e:
        if y > e:
            return "y + e(x) = e(x) but y > e(x)"
        if -y > e:
            return "y + e(x) = e(x) but -y > e(x)"
    return None


@law("axiom.order.mul_compatible", "order", "e(x)<x and y<=z imply xy<=xz", "compatibility with positive multiplication")
def _v_order_mul_compatible(x: MostlyPositive, y: External, z: External):
    if y > z:
        y, z = z, y
    if magnitude(x) < x:  # the swap gives y <= z
        if x * y > x * z:
            return f"x*y = {x * y} > x*z = {x * z}"
    return None


@law("axiom.order.amplification", "order", "e(y)<=y<=z implies e(x)y<=e(x)z", "amplification by magnitudes")
def _v_order_amplification(x: External, y: Absolute, z: AtLeast):
    # Absolute gives e(y) <= y, and AtLeast gives y <= z
    e = magnitude(x)
    if e * y > e * z:
        return f"e(x)*y = {e * y} > e(x)*z = {e * z}"
    return None


# 4. mixed


@law("axiom.mixed.scale", "mixed", "e(x)*y is a magnitude", "products with magnitudes are magnitudes")
def _v_mixed_scale(x: External, y: External):
    product = magnitude(x) * y
    if not product.rep.is_zero():
        return f"e(x)*y = {product} is not a magnitude"
    return None


@law("axiom.mixed.product_magnitude", "mixed", "e(xy) = e(x)y + e(y)x", "magnitude of a product")
def _v_mixed_product_magnitude(x: External, y: External):
    lhs = magnitude(x * y)
    rhs = magnitude(x) * y + magnitude(y) * x
    return _neq(rhs, lhs)


@law("axiom.mixed.unity_magnitude", "mixed", "e(u(x)) = e(x)/x", "magnitude of the unity")
def _v_mixed_unity_magnitude(x: Zeroless):
    lhs = magnitude(unity(x))
    rhs = magnitude(x) / x
    return _neq(rhs, lhs)


@law("axiom.mixed.distributivity", "mixed", "xy+xz = x(y+z)+e(x)y+e(x)z", "distributivity with magnitude correction", alias="axiom.distributivity")
def _v_distributivity(x: External, y: External, z: External):
    e = magnitude(x)
    return _neq(x * (y + z) + e * y + e * z, x * y + x * z)


@law("axiom.mixed.negation", "mixed", "-(xy) = (-x)y", "negation of a product")
def _v_mixed_negation(x: External, y: External):
    return _neq((-x) * y, -(x * y))


# 5. existence


@law("axiom.exist.zero_min", "existence", "0 + x = x", "minimal magnitude")
def _v_exist_zero_min(x: External):
    return _neq(x, ExternalNum(0) + x)


@law("axiom.exist.one_unity", "existence", "1 * x = x", "minimal unity")
def _v_exist_one_unity(x: External):
    return _neq(x, ExternalNum(1) * x)


@law("axiom.exist.max_absorbs", "existence", "e(x) + M = M", "maximal magnitude")
def _v_exist_max_absorbs(x: External):
    return _neq(pure(FULL), magnitude(x) + pure(FULL))


@law("axiom.exist.intermediate_magnitude", "existence", "a magnitude strictly between 0 and M exists", "intermediate magnitudes")
def _v_exist_intermediate():
    o = pure(INFINITESIMALS)
    if not (ExternalNum(0) < o < pure(FULL)):
        return "infinitesimals not strictly between 0 and M"
    return None


@law("axiom.exist.decomposition", "existence", "x = a + e(x) with a precise", "representative decomposition")
def _v_exist_decomposition(x: External):
    a = ExternalNum(x.rep)
    if magnitude(a) != ExternalNum(0):
        return f"representative has magnitude {magnitude(a)}"
    return _neq(x, a + magnitude(x))


@law("axiom.exist.separation", "existence", "distinct magnitudes are separated by a zeroless element", "separation of magnitudes")
def _v_exist_separation(A: Magnitude, B: Magnitude):
    if A == B:
        return None
    lo, hi = (A, B) if A < B else (B, A)
    z = separate_precise(pure(lo), pure(hi))
    zx = ExternalNum(z)
    if z.is_zero():
        return "witness is not zeroless"
    if not (pure(lo) < zx < pure(hi)):
        return f"witness {z} not strictly between"
    return None


# 6. magnitude products


@law("axiom.magprod.maximal_ideal", "magnitude-product", "I*J = I for the maximal ideal I of J", "maximal ideal absorption")
def _v_magprod_maximal_ideal():
    problems = []
    for j in (LIMITED, FULL):
        i = maximal_ideal(j)
        if nx_mul(i, j) != i:
            problems.append(f"I*J = {nx_mul(i, j)} for J = {j}")
        if not is_ideal_of(i, j):
            problems.append(f"I = {i} is not an ideal of {j}")
        if not i < j:
            problems.append(f"I = {i} not strictly below {j}")
    if maximal_ideal(LIMITED) != INFINITESIMALS or maximal_ideal(FULL) != NX_ZERO:
        problems.append("maximal ideal table wrong")
    return "; ".join(problems) or None


@law("axiom.magprod.scale_to_idempotent", "magnitude-product", "every magnitude is precise * idempotent", "scaling to an idempotent")
def _v_magprod_scale_to_idempotent(A: Magnitude):
    p, i = decompose(A)
    if not is_idempotent(i):
        return f"decomposed idempotent {i} is not idempotent"
    if p.is_zero():
        return "decomposed scalar is zero"
    if A in (NX_ZERO, FULL):
        return None if i == A else f"expected {A}, got {i}"
    if nx_scale(p, i) != A:
        return f"p*I = {nx_scale(p, i)}"
    return None


# schemes and arithmetical axioms


def _probe_points(b: ExternalNum) -> list[ExternalNum]:
    points = [b, ExternalNum(b.rep), ExternalNum(0), pure(FULL)]
    points += [ExternalNum(b.rep + g) for g in _member_menu(b.nx)[:4]]
    one = PreciseNum.of(1)
    points += [ExternalNum(b.rep + one), ExternalNum(b.rep - one)]
    big = PreciseNum.of(RhoPoly.rho_power(5))
    points += [ExternalNum(b.rep + big), ExternalNum(b.rep - big)]
    return points


@law("axiom.scheme.dedekind", "scheme", "represented halflines have weak bounds of the right kind", "generalized completeness on represented halflines")
def _v_scheme_dedekind(h: LowerHalfline):
    b = zup(h)
    points = _probe_points(b)
    inside = [hl_member(h, p) for p in points]  # points[0] is b
    if h.kind is HalflineKind.CLOSED and not inside[0]:
        return "closed halfline misses its maximum"
    if h.kind is not HalflineKind.CLOSED and inside[0]:
        return f"{h.kind.value} halfline contains its weak bound"
    outside = [y for y, i in zip(points, inside) if not i]
    for x in (x for x, i in zip(points, inside) if i):
        for y in outside:
            if y < x:
                return f"not downward closed: {y} < member {x}"
    try:
        comp = hl_complement(h)
    except DegenerateDomainError:  # the full domain has no complement; any other error fails
        return None
    for x, i in zip(points, inside):
        if i == hl_member(comp, x):
            return f"complement fails to partition at {x}"
    return None


@law("axiom.arith.naturals", "arithmetical", "naturals are discrete, closed and nonnegative", "natural number axiom")
def _v_arith_naturals(x: Natural, y: Natural, offset: UnitOffset):
    if not is_natural(PreciseNum.of(0)):
        return "0 is not natural"
    if is_natural(-(x + 1)):
        return f"negative {-(x + 1)} accepted as natural"
    one = PreciseNum.of(1)
    for v in (x, y, x + y, x * y, x + one):
        if not is_natural(v):
            return f"{v} escapes the natural family"
    mid = x + offset  # UnitOffset gives x < mid < x + 1
    if is_natural(mid):
        return f"natural strictly between {x} and its successor: {mid}"
    return None


@law("axiom.arith.induction", "arithmetical", "curated induction battery", "induction spot checks", note="full induction provably fails for computable interpretations; see even_or_odd")
def _v_arith_induction():
    # even_or_odd is the documented expected failure of the next law; any() reads either failure list
    formulas = [fid for fid in INDUCTION_CATALOG if fid != "even_or_odd"]
    problems = [f"{fid}: fail" for fid in formulas if any(induction_spotcheck(fid, bound=25))]
    return "; ".join(problems) or None


@law("axiom.arith.induction_even_odd", "arithmetical", "the even-or-odd induction instance fails at nonstandard points", "documented expected failure", expect_failures=True, note="holds on the standard naturals 0..bound but fails at the nonstandard natural rho: neither rho/2 nor (rho-1)/2 has integer coefficients, so rho is neither even nor odd in this interpretation; the induction scheme provably cannot hold in full for a computable family")
def _v_arith_induction_even_odd():
    steps, conclusions = induction_spotcheck("even_or_odd", bound=25)
    if conclusions:
        return f"even-or-odd fails at the nonstandard natural {conclusions[0]}, as documented"
    return f"even-or-odd's inductive step fails at {steps[0]}" if steps else None


@law("axiom.arith.archimedean", "arithmetical", "some natural multiple of x exceeds y", "Archimedean witness")
def _v_arith_archimedean(x: PositiveOrMagnitude, y: Beyond):
    z = PreciseNum.of(archimedean_witness(x, y))
    if not is_natural(z):
        return f"witness {z} is not natural"
    zx = ExternalNum(z) * x
    if zx <= y:
        return f"z*x = {zx} does not exceed y"
    return None


# theorems


@law("thm.chain", "theorem", "0 < o < 1 < L < M", "the canonical chain")
def _v_thm_chain():
    chain = [ExternalNum(0), pure(INFINITESIMALS), ExternalNum(1), pure(LIMITED), pure(FULL)]
    for a, b in zip(chain, chain[1:]):
        if not a < b:
            return f"{a} not strictly below {b}"
    return None


@law("thm.no_magnitude_between", "theorem", "no magnitude strictly between o and L", "extremality of o and L")
def _v_thm_no_magnitude_between(A: Magnitude):
    if INFINITESIMALS < A < LIMITED:
        return f"{A} lies strictly between the two canonical magnitudes"
    return None


@law("thm.reciprocal_pound", "theorem", "L < p iff 1/p < o", "reciprocal across L")
def _v_thm_reciprocal_pound(p: PositivePrecise):
    lhs = pure(LIMITED) < ExternalNum(p)
    rhs = ExternalNum(1 / p) < pure(INFINITESIMALS)
    if lhs != rhs:
        return f"L < p is {lhs} but 1/p < o is {rhs}"
    return None


@law("thm.reciprocal_oslash", "theorem", "o < p iff 1/p < L", "reciprocal across o")
def _v_thm_reciprocal_oslash(p: PositivePrecise):
    lhs = pure(INFINITESIMALS) < ExternalNum(p)
    rhs = ExternalNum(1 / p) < pure(LIMITED)
    if lhs != rhs:
        return f"o < p is {lhs} but 1/p < L is {rhs}"
    return None


@law("thm.sqrt_below_oslash", "theorem", "p < o implies sqrt(p) < o (power witnesses)", "roots stay infinitesimal")
def _v_thm_sqrt_below(s: PositiveMonomial):
    p = s * s
    if ExternalNum(p) < pure(INFINITESIMALS):
        if not ExternalNum(s) < pure(INFINITESIMALS):
            return f"p = {p} infinitesimal but sqrt(p) = {s} is not"
    return None


@law("thm.sqrt_above_pound", "theorem", "L < p implies L < sqrt(p) (power witnesses)", "roots stay large")
def _v_thm_sqrt_above(s: PositiveMonomial):
    p = s * s
    if pure(LIMITED) < ExternalNum(p):
        if not pure(LIMITED) < ExternalNum(s):
            return f"p = {p} above L but sqrt(p) = {s} is not"
    return None


@law("thm.square_between", "theorem", "o < p < L implies o < p^2 < L", "squares stay appreciable")
def _v_thm_square_between(p: Appreciable):
    # Appreciable gives o < p < L
    sq = ExternalNum(p * p)
    if not (pure(INFINITESIMALS) < sq < pure(LIMITED)):
        return f"p^2 = {p * p} escapes (o, L)"
    return None


@law("thm.sup_inf_characterization", "theorem", "o = sup of reciprocals of large elements; L = inf of their inverses", "sup/inf characterization")
def _v_thm_sup_inf_characterization(below: BelowInfinitesimals, above: AboveLimited):
    # below < o: exhibit p with below < p < o and L < 1/p
    w = _between_below_and_infinitesimals(below)
    if not (pure(below) < ExternalNum(w)):
        return f"cofinal witness {w} not above {below}"
    if not (ExternalNum(w) < pure(INFINITESIMALS)):
        return f"cofinal witness {w} not below o"
    if not (pure(LIMITED) < ExternalNum(1 / w)):
        return f"1/w = {1 / w} not above L"
    # above > L: exhibit 1/p with p < o and 1/p < above
    inv = _between_limited_and_above(above)
    if not (ExternalNum(inv) < pure(above)):
        return f"co-initial witness {inv} not below {above}"
    if not (ExternalNum(1 / inv) < pure(INFINITESIMALS)):
        return f"1/witness = {1 / inv} not below o"
    if not (pure(LIMITED) < ExternalNum(inv)):
        return f"co-initial witness {inv} not above L"
    return None


@law("thm.oslash_oslash", "theorem", "o*o = o", "idempotency of o")
def _v_thm_oslash_oslash():
    got = nx_mul(INFINITESIMALS, INFINITESIMALS)
    return None if got == INFINITESIMALS else f"o*o = {got}"


@law("thm.pound_pound", "theorem", "L*L = L", "idempotency of L")
def _v_thm_pound_pound():
    got = nx_mul(LIMITED, LIMITED)
    return None if got == LIMITED else f"L*L = {got}"


@law("thm.oslash_pound", "theorem", "o*L = o", "mixed product collapses down")
def _v_thm_oslash_pound():
    got = nx_mul(INFINITESIMALS, LIMITED)
    return None if got == INFINITESIMALS else f"o*L = {got}"


@law("thm.max_ideal", "theorem", "maximal ideals match their sup characterization", "sup characterization of maximal ideals")
def _v_thm_max_ideal_sup(omega: NonzeroPrecise):
    # J = LIMITED: every precise omega with L < |omega| has 1/omega below o,
    # and the family climbs past any magnitude below o.
    w = abs(omega)
    if pure(LIMITED) < ExternalNum(w):
        if not ExternalNum(1 / w) < pure(INFINITESIMALS):
            return f"1/|omega| = {1 / w} not below o"
    if pure(FULL) < ExternalNum(w):
        return "a precise element exceeds the whole-field magnitude"
    return None


@law("thm.product_idempotents", "theorem", "product of idempotents follows the trichotomy", "idempotent product trichotomy")
def _v_thm_product_idempotents():
    problems = []
    for e in IDEMPOTENTS:
        for f in IDEMPOTENTS:
            got = nx_mul(e, f)
            lo, hi = (e, f) if e <= f else (f, e)
            if pure(hi) < ExternalNum(1):
                expected = lo
            elif lo <= maximal_ideal(hi):
                expected = lo
            else:
                expected = hi
            if got != expected:
                problems.append(f"{e}*{f} = {got}, expected {expected}")
    return "; ".join(problems) or None


_UNIT_SCALARS = (
    PreciseNum.of(7),
    PreciseNum.of(RhoPoly.rho_power(2)),
    PreciseNum.of(RhoPoly.rho_power(Fraction(-3, 2), 4)),
)


@law("thm.idempotent_unique", "theorem", "the idempotent factor of a magnitude is unique", "uniqueness of the idempotent part")
def _v_thm_idempotent_unique(A: Magnitude):
    if A == NX_ZERO:
        return None
    _, i = decompose(A)
    for scalar in _UNIT_SCALARS:
        rescaled = nx_scale(scalar, A)
        if decompose(rescaled)[1] != i:
            return f"idempotent part changed under scaling by {scalar}: {decompose(rescaled)[1]}"
    for other in IDEMPOTENTS:
        if other == i:
            continue
        if any(nx_scale(scalar, other) == A for scalar in _UNIT_SCALARS):
            return f"{A} also decomposes over the idempotent {other}"
    return None


@law("thm.linearization", "theorem", "e*f = p*e or p*f for a positive precise p", "linearization of magnitude products")
def _v_thm_linearization(A: Magnitude, B: Magnitude):
    product = nx_mul(A, B)
    candidates: list[tuple[PreciseNum, Neutrix]] = []
    for base in (A, B):
        if base in (NX_ZERO, FULL):
            if product == base:
                candidates.append((PreciseNum.of(1), base))
        elif product not in (NX_ZERO, FULL) and product.closed == base.closed:
            candidates.append((PreciseNum.of(RhoPoly.rho_power(product.q - base.q)), base))
    for p, base in candidates:
        if p.sign() > 0 and nx_scale(p, base) == product:
            return None
    return f"no positive precise p with e*f = p*e or p*f (e*f = {product})"


@law("thm.order_consistency", "theorem", "magnitude products sit where the order demands", "consistency with the order")
def _v_thm_order_consistency(p: PositiveInfinitesimal, q: AboveInfinitesimals):
    # PositiveInfinitesimal gives p in I, and AboveInfinitesimals gives I < q
    i, j = INFINITESIMALS, LIMITED
    ij = nx_mul(i, j)
    pj = nx_scale(p, j)
    if not pj < ij:
        return f"p*J = {pj} not below I*J"
    pi = nx_scale(p, i)
    if pi > ij:
        return f"p*I = {pi} above I*J"
    qj = nx_scale(q, j)
    if pure(j) < ExternalNum(q):
        qi = nx_scale(q, i)
        if not ij < qi:
            return f"I*J not below q*I = {qi} for q above J"
    if not ij < qj:
        return f"I*J = {ij} not below q*J = {qj}"
    return None


@law("thm.sup_consistency", "theorem", "I*J is approachable from below but not from above", "consistency with suprema")
def _v_thm_sup_consistency(p: PositiveInfinitesimal, q: Appreciable, below: BelowInfinitesimals, above: AboveLimited):
    i, j = INFINITESIMALS, LIMITED
    ij = nx_mul(i, j)
    if ij != i:
        return f"I*J = {ij}"
    # approximation from below: p*J < I, and the family passes any magnitude below I
    pj = nx_scale(p, j)
    if not pj < i:
        return f"p*J = {pj} not strictly below I"
    w = _between_below_and_infinitesimals(below)
    if not below < nx_scale(w, j) < i:
        return f"w*J = {nx_scale(w, j)} does not pass {below} from below"
    # the maximum over scalars strictly inside J is attained: q has degree 0
    if nx_scale(q, i) != i:
        return f"q*I = {nx_scale(q, i)} for I < q < J"
    # approximation from above: r*I > J for J < r, never equal, and co-initial
    r = PreciseNum.of(RhoPoly.rho_power(1))
    if not j < nx_scale(r, i):
        return f"r*I = {nx_scale(r, i)} not above J"
    scaled = nx_scale(_between_limited_and_above(above), i)
    if not j < scaled < above:
        return f"r*I = {scaled} does not pass {above} from above"
    return None


@law("thm.distributivity_total", "theorem", "xy+xz = x(y+z) iff e(x)y+e(x)z is absorbed by e(x(y+z))", "the condition for distributivity")
def _v_thm_distributivity_total(x: External, y: External, z: OftenNegated):
    w = x * (y + z)
    e, f = magnitude(x), magnitude(w)
    if (x * y + x * z == w) != (e * y + e * z + f == f):
        return f"x*y + x*z = {x * y + x * z}, x*(y+z) = {w}, but e(x)*y + e(x)*z + e(w) = {e * y + e * z + f}"
    return None


@law("thm.subdistributivity", "theorem", "x(y+z) lands inside xy+xz for sampled members", "subdistributivity as sets")
def _v_thm_subdistributivity(x: External, y: External, z: External):
    target = x * y + x * z
    xs, ys, zs = (_representative_menu(v, 3) for v in (x, y, z))
    for a in xs:
        for b in ys:
            for c in zs:
                if not ext_member(a * (b + c), target):
                    return f"{a}*({b} + {c}) escapes x*y + x*z = {target}"
    return None


@law("thm.trichotomy", "theorem", "disjoint, subset or superset, consistent with compare", "set trichotomy")
def _v_thm_trichotomy(x: External, y: External):
    disjoint = ext_disjoint(x, y)
    sub = ext_subset(x, y)
    sup = ext_subset(y, x)
    cmp = ext_compare(x, y)
    if x == y:
        if disjoint or not (sub and sup):
            return "equal values must be mutual subsets"
        return None
    if disjoint + sub + sup != 1:
        return f"trichotomy count = {disjoint + sub + sup}"
    if disjoint and cmp is EQ:
        return "disjoint but compared equal"
    if sub and cmp is not LT:
        return f"x strictly inside y but compare = {cmp.name}"
    if sup and cmp is not GT:
        return f"y strictly inside x but compare = {cmp.name}"
    return None


@law("thm.three_cases", "theorem", "the three halfline kinds are mutually exclusive", "three cases are exclusive")
def _v_thm_three_cases(b1: NonPrecise, b2: NonPrecise):
    # pairwise separation of the three kinds at a common non-precise bound
    closed, open_, so = (lower(k, b1) for k in HalflineKind)
    if hl_member(closed, b1) == hl_member(open_, b1):
        return "bound fails to separate closed from open"
    if hl_member(closed, b1) == hl_member(so, b1):
        return "bound fails to separate closed from strongly open"
    rep_point = ExternalNum(b1.rep)
    if hl_member(open_, rep_point) == hl_member(so, rep_point):
        return "representative fails to separate open from strongly open"
    # uniqueness of bounds for a fixed kind
    if b1 != b2:
        lo, hi = (b1, b2) if b1 < b2 else (b2, b1)
        if hl_member(lower(HalflineKind.CLOSED, lo), hi):
            return f"closed({lo}) contains the larger bound {hi}"
        s = separate_precise(lo, hi)
        if hl_member(lower(HalflineKind.OPEN, lo), ExternalNum(s)) or not hl_member(
            lower(HalflineKind.OPEN, hi), ExternalNum(s)
        ):
            return f"separator {s} fails to distinguish the open halflines"
        if _so_distinguisher(lo, hi) is None:
            return f"no separator found for strongly open bounds {lo} / {hi}"
    return None


def _so_distinguisher(lo: ExternalNum, hi: ExternalNum) -> ExternalNum | None:
    """A point in exactly one of the strongly-open lower halflines at lo < hi."""
    lo_so = lower(HalflineKind.STRONGLY_OPEN, lo)
    hi_so = lower(HalflineKind.STRONGLY_OPEN, hi)
    candidates = []
    if hl_member(hi_so, lo):
        candidates.append(ExternalNum(separate_from_hole(lo, hi)))
    if lo.nx < hi.nx:
        u = magnitude_gap_witness(lo.nx, hi.nx)
        candidates.append(ExternalNum(lo.rep - u))
    candidates.append(ExternalNum(lo.rep))
    for x in candidates:
        if hl_member(lo_so, x) != hl_member(hi_so, x):
            return x
    return None


@law("thm.dedekind_precise", "theorem", "open and strongly open coincide at precise bounds", "precise collapse")
def _v_thm_dedekind_precise_collapse(p: Precise):
    b = ExternalNum(p)
    points = [ExternalNum(p + d) for d in (PreciseNum.of(-1), PreciseNum.of(0), PreciseNum.of(1), PreciseNum.of(RhoPoly.rho_power(-1)))]
    points.append(ExternalNum(p, INFINITESIMALS))
    for x in points:
        if hl_member(lower(HalflineKind.OPEN, b), x) != hl_member(
            lower(HalflineKind.STRONGLY_OPEN, b), x
        ):
            return f"open and strongly open differ at {x} for precise bound"
    return None


@law("thm.rational_form", "theorem", "non-precise values canonicalize to polynomial + magnitude", "canonical rational form")
def _v_thm_rational_form(x: NonPrecise):
    if not x.rep.is_polynomial():
        return f"canonical representative {x.rep} is not polynomial"
    if ExternalNum(x.rep, x.nx) != x:
        return "canonical form does not reconstruct"
    for y in _representative_menu(x, 4):
        if ExternalNum(y, x.nx) != x:
            return f"representative {y} reconstructs to {ExternalNum(y, x.nx)}"
    return None


@law("thm.shadow_field", "theorem", "shadows of limited precise elements form a field", "shadow field laws")
def _v_thm_shadow_field(a: LimitedPrecise, b: LimitedPrecise, c: LimitedPrecise):
    sh = lambda v: shadow(ExternalNum(v))
    x, y, z = sh(a), sh(b), sh(c)
    zero, one = pure(INFINITESIMALS), shadow(ExternalNum(1))
    if x + y != sh(a + b) or x * y != sh(a * b):
        return "shadow operations disagree with shadows of results"
    for g in (PreciseNum.of(RhoPoly.rho_power(-1, 2)), PreciseNum.of(RhoPoly.rho_power(Fraction(-1, 2)))):
        if sh(a + g) != x:
            return f"shadow depends on representative: {a} vs {a + g}"
    if x + y + z != x + (y + z):
        return "shadow addition not associative"
    if x * y * z != x * (y * z):
        return "shadow multiplication not associative"
    if x * (y + z) != x * y + x * z:
        return "shadow distributivity fails"
    if x + zero != x or x * one != x:
        return "shadow identities fail"
    if x + sh(-a) != zero:
        return "shadow negation fails"
    if x != zero:
        if x * sh(1 / a) != one:
            return f"shadow inverse fails: {x * sh(1 / a)}"
    return None


@law("thm.unity_multiplicative", "theorem", "u(xy) = u(x)u(y)", "multiplicativity of unities")
def _v_thm_unity_multiplicative(x: Zeroless, y: Zeroless):
    return _neq(unity(x) * unity(y), unity(x * y))


# oracles


def minkowski_escapes(
    alpha: ExternalNum, beta: ExternalNum, ext_op: Callable, op: Callable, k: int
) -> list[tuple[PreciseNum, PreciseNum, PreciseNum]]:
    """The sampled ``(x, y, op(x, y))``, over up to ``k`` member pairs, that
    escape ``ext_op(alpha, beta)``; empty when the operation is sound.  It
    builds ``beta``'s menu once, and only the representatives of ``alpha``
    that the first ``k`` pairs use."""
    if k < 1:
        raise ValueError("need at least one representative")
    result = ext_op(alpha, beta)
    ys = _representative_menu(beta)
    pairs = [(x, y) for x in _representative_menu(alpha, -(-k // len(ys))) for y in ys][:k]
    values = [(x, y, op(x, y)) for x, y in pairs]
    return [(x, y, v) for x, y, v in values if not ext_member(v, result)]


# (name, the external operation, the same operation on members)
MINKOWSKI_OPS = (("add", operator.add, operator.add), ("mul", operator.mul, operator.mul))


@law("oracle.minkowski", "oracle", "sampled member sums/products land in the computed value", "Minkowski soundness")
def _v_oracle_minkowski(x: External, y: External):
    for name, ext_op, op in MINKOWSKI_OPS:
        escapes = minkowski_escapes(x, y, ext_op, op, 20)
        if escapes:
            a, b, value = escapes[0]
            return f"{name}: {value} escapes (x={a}, y={b})"
    return None


@law("oracle.order", "oracle", "the order decision matches the member-sampling definition", "order oracle agreement")
def _v_oracle_order(x: External, y: External):
    cmp = ext_compare(x, y)
    if cmp is not GT:
        for rep in _representative_menu(x, 20):
            if ExternalNum(rep) > y:
                return f"x <= y but member {rep} exceeds y"
    if cmp is not LT:
        for rep in _representative_menu(y, 20):
            if ExternalNum(rep) > x:
                return f"y <= x but member {rep} exceeds x"
    if cmp is LT:
        w = _witness_above(y, x)
        if not ext_member(w, y) or ExternalNum(w) <= x:
            return f"x < y but no member of y exceeds x (tried {w})"
    if cmp is GT:
        w = _witness_above(x, y)
        if not ext_member(w, x) or ExternalNum(w) <= y:
            return f"y < x but no member of x exceeds y (tried {w})"
    return None


# mutants


@law("mutant.distributivity_naive", "mutant", "the naive law xy+xz = x(y+z) must fail", "naive distributivity (deliberately wrong)", expect_failures=True, note="kept failing on purpose: the harness must refute the naive law", alias="axiom.distributivity_naive")
def _v_mutant_distributivity(x: External, y: External, z: OftenNegated):
    return _neq(x * (y + z), x * y + x * z)


def _mutant_nx_mul(a: Neutrix, b: Neutrix) -> Neutrix:
    if {a, b} == {INFINITESIMALS, LIMITED}:
        return LIMITED
    return nx_mul(a, b)


@law("mutant.oslash_pound_wrong", "mutant", "a corrupted o*L = L table must fail the ideal axiom", "corrupted magnitude product (deliberately wrong)", expect_failures=True, note="kept failing on purpose: o*L = L contradicts maximal-ideal absorption")
def _v_mutant_oslash_pound():
    i, j = INFINITESIMALS, LIMITED
    got = _mutant_nx_mul(i, j)
    if got != maximal_ideal(j):
        return f"corrupted table gives o*L = {got}, breaking I*J = I"
    return None
