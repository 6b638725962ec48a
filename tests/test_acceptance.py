"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Sample counts and tolerances are pinned here; every assertion is exact (zero
failures), since the arithmetic itself is exact.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import time

from solidus.checks import AXIOM_GROUPS, MINKOWSKI_OPS, catalog_ids, minkowski_escapes, run_check
from solidus.cli import main
from solidus.external import (
    canonicalize,
    ext_compare,
    ext_inv,
    ext_mul,
    pure,
    unity,
)
from solidus.field import Ordering, PreciseNum, RhoPoly
from solidus.generate import GeneratorConfig, Sampler
from solidus.halfline import HalflineKind, hl_member, lower
from solidus.naturals import (
    INDUCTION_CATALOG,
    archimedean_witness,
    induction_spotcheck,
    is_natural,
)
from solidus.neutrix import (
    FULL,
    IDEMPOTENTS,
    INFINITESIMALS,
    LIMITED,
    NX_ZERO,
    maximal_ideal,
    nx_mul,
    nx_scale,
)
from solidus.parser import eval_text

CFG = GeneratorConfig()


def _report(number: int, label: str, passed: bool):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {label}")
    assert passed, f"acceptance criterion {number} failed: {label}"


def test_01_axiom_suite():
    start = time.monotonic()
    ids = catalog_ids(AXIOM_GROUPS)
    assert len(ids) == 31
    reports = [run_check(cid, CFG, 1000) for cid in ids]
    elapsed = time.monotonic() - start
    failures = {r.check_id: len(r.failures) for r in reports if r.failures}
    _report(
        1,
        f"31 axiom checks x 1000 samples, 0 failures, {elapsed:.1f}s < 120s",
        not failures and elapsed < 120.0,
    )


def test_02_exact_theorem_identities():
    ok = (
        nx_mul(INFINITESIMALS, LIMITED) == INFINITESIMALS
        and nx_mul(INFINITESIMALS, INFINITESIMALS) == INFINITESIMALS
        and nx_mul(LIMITED, LIMITED) == LIMITED
    )
    _report(2, "o*L = o, o*o = o, L*L = L as exact canonical equalities", ok)


def test_03_distributivity_law_and_refutation():
    corrected = run_check("axiom.mixed.distributivity", CFG, 1000)
    naive = run_check("mutant.distributivity_naive", CFG, 1000)
    refuted = bool(naive.failures)
    shrunk_small = refuted and all(
        len(dict(f.inputs)) == 3 for f in naive.failures
    )
    _report(
        3,
        "corrected law exact on 1000 triples; naive law refuted with shrunk counterexample",
        corrected.passed and refuted and shrunk_small,
    )


def test_04_minkowski_oracle():
    sampler = Sampler(CFG, "acceptance.minkowski")
    bad = 0
    for _ in range(500):
        a, b = sampler.external(), sampler.external()
        for _name, ext_op, op in MINKOWSKI_OPS:
            if minkowski_escapes(a, b, ext_op, op, 20):
                bad += 1
    _report(4, "500 pairs x both ops x 20 representatives all land inside", bad == 0)


def test_05_order_oracle_and_trichotomy():
    order = run_check("oracle.order", CFG, 1000)
    trichotomy = run_check("thm.trichotomy", CFG, 1000)
    _report(
        5,
        "compare agrees with the member-sampling order on 1000 pairs; trichotomy holds",
        order.passed and trichotomy.passed,
    )


def test_06_halfline_kinds():
    sampler = Sampler(CFG, "acceptance.halflines")
    ok = True
    count = 0
    while count < 200:
        b = sampler.external()
        if b.nx == NX_ZERO:
            continue
        count += 1
        closed = lower(HalflineKind.CLOSED, b)
        open_ = lower(HalflineKind.OPEN, b)
        strongly = lower(HalflineKind.STRONGLY_OPEN, b)
        rep_point = canonicalize(b.rep)
        ok = ok and hl_member(closed, b) and not hl_member(open_, b)
        ok = ok and not hl_member(strongly, b)
        ok = ok and hl_member(open_, rep_point) != hl_member(strongly, rep_point)
    for _ in range(200):
        p = sampler.precise()
        b = canonicalize(p)
        points = [
            canonicalize(p + d)
            for d in (
                PreciseNum.of(-1),
                PreciseNum.of(0),
                PreciseNum.of(1),
                PreciseNum.of(RhoPoly.rho_power(-1)),
            )
        ] + [canonicalize(p, INFINITESIMALS)]
        for x in points:
            ok = ok and (
                hl_member(lower(HalflineKind.OPEN, b), x)
                == hl_member(lower(HalflineKind.STRONGLY_OPEN, b), x)
            )
    _report(
        6,
        "three kinds separated on 200 non-precise bounds; precise bounds collapse open/strongly-open",
        ok,
    )


def test_07_linearization_and_idempotent_table():
    table = run_check("thm.product_idempotents", CFG, 1)
    ok = table.passed
    for e in IDEMPOTENTS:
        for f in IDEMPOTENTS:
            product = nx_mul(e, f)
            witnessed = False
            for base in (e, f):
                if base in (NX_ZERO, FULL):
                    witnessed = witnessed or product == base
                elif product not in (NX_ZERO, FULL) and product.closed == base.closed:
                    p = PreciseNum.of(RhoPoly.rho_power(product.q - base.q))
                    witnessed = witnessed or nx_scale(p, base) == product
            if product == NX_ZERO:
                witnessed = True
            ok = ok and witnessed
    scaled = run_check("thm.linearization", CFG, 200)
    _report(
        7,
        "precise p with e*f = p*e or p*f on 16 idempotent pairs + 200 scaled pairs",
        ok and scaled.passed,
    )


def test_08_maximal_ideals():
    ok = maximal_ideal(LIMITED) == INFINITESIMALS and maximal_ideal(FULL) == NX_ZERO
    sampler = Sampler(CFG, "acceptance.maxideal")
    for _ in range(100):
        omega = sampler.nonzero_precise()
        w = abs(omega)
        if ext_compare(pure(LIMITED), canonicalize(w)) is Ordering.LT:
            ok = ok and ext_compare(
                canonicalize(1 / w), pure(INFINITESIMALS)
            ) is Ordering.LT
        ok = ok and ext_compare(pure(FULL), canonicalize(w)) is not Ordering.LT
    sup = run_check("thm.max_ideal", CFG, 100)
    _report(8, "maximal ideal table validated plus sup characterization on 100 omegas", ok and sup.passed)


def test_09_shadow_field():
    report = run_check("thm.shadow_field", CFG, 500)
    _report(9, "shadow field axioms exact on 500 limited precise triples", report.passed)


def test_10_arithmetic_axioms():
    naturals = run_check("axiom.arith.naturals", CFG, 500)
    sampler = Sampler(CFG, "acceptance.archimedean")
    arch_ok = True
    produced = 0
    while produced < 500:
        x = sampler.positive_zeroless()
        y = canonicalize(1) + x + abs(sampler.external())
        if y.nx == FULL or not (canonicalize(0) < x < y):
            continue
        produced += 1
        z = archimedean_witness(x, y)
        arch_ok = arch_ok and is_natural(z)
        arch_ok = arch_ok and ext_mul(canonicalize(z), x) > y
    battery = [induction_spotcheck(fid, bound=50) for fid in INDUCTION_CATALOG]
    passing = [r for r in battery if r.status == "pass"]
    expected_fail = [r for r in battery if r.status == "expected-fail"]
    induction_ok = (
        len(passing) >= 10
        and len(expected_fail) == 1
        and expected_fail[0].formula_id == "even_or_odd"
        and "rho" in expected_fail[0].explanation
    )
    if expected_fail:
        print(
            f"  induction even_or_odd: EXPECTED-FAIL ({expected_fail[0].explanation.split(';')[0]})"
        )
    _report(
        10,
        "naturals discrete/closed on 500; archimedean on 500 pairs; battery >= 10 pass + 1 expected-fail",
        naturals.passed and arch_ok and induction_ok,
    )


def test_11_inverse_contract():
    sampler = Sampler(CFG, "acceptance.inverse")
    ok = True
    for _ in range(500):
        beta = sampler.zeroless()
        product = ext_mul(beta, ext_inv(beta))
        u = unity(beta)
        ok = ok and product == u
        expected_nx = (
            NX_ZERO
            if beta.nx == NX_ZERO
            else nx_scale(1 / beta.rep, beta.nx)
        )
        ok = ok and u.nx == expected_nx
    _report(11, "beta * inv(beta) = unity(beta) exactly on 500 zeroless values", ok)


def test_12_cli_round_trip_and_headless_check(capsys):
    sampler = Sampler(CFG, "acceptance.roundtrip")
    ok = True
    for _ in range(1000):
        value = sampler.external()
        back = eval_text(str(value))
        ok = ok and ext_compare(back, value) is Ordering.EQ
    code = main(["--check", "--count", "100"])
    capsys.readouterr()
    _report(12, "1000 parse/print round trips EQ; --check exits 0", ok and code == 0)
