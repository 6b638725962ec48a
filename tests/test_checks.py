"""Tests for the generator and the check harness itself."""

import hashlib
import operator
from fractions import Fraction as F
from typing import Annotated

import pytest

import solidus.checks
from solidus.checks import (
    ALIASES,
    AXIOM_GROUPS,
    MINKOWSKI_OPS,
    Check,
    REGISTRY,
    catalog_ids,
    exit_code,
    format_report,
    format_reports,
    law,
    minkowski_escapes,
    run_catalog,
    run_check,
)
from solidus.errors import InternalError, UnknownCheckError
from solidus.external import (
    Classification,
    canonicalize,
    classify,
    ext_add,
    ext_compare,
    ext_disjoint,
    ext_member,
    ext_mul,
    pure,
)
from solidus.field import Ordering, PreciseNum, RhoPoly
from solidus.generate import (
    COEFF_BOUND,
    EXPONENT_RANGE,
    MAX_TERMS,
    GeneratorConfig,
    Sampler,
    shrink,
)
from solidus.halfline import _BRACKETS, Halfline, HalflineKind, Side
from solidus.neutrix import (
    INFINITESIMALS,
    LIMITED,
    closed_cut,
    nx_contains,
)
from solidus.parser import eval_text

CFG = GeneratorConfig(seed=42)


class TestGenerators:
    def test_determinism(self):
        a = Sampler(CFG, "x")
        b = Sampler(CFG, "x")
        for _ in range(50):
            assert a.external() == b.external()

    def test_label_changes_stream(self):
        a = Sampler(CFG, "x")
        b = Sampler(CFG, "y")
        assert [a.precise() for _ in range(5)] != [b.precise() for _ in range(5)]

    def test_neutrix_tag_coverage(self):
        s = Sampler(CFG, "tags")
        shapes = {str(s.neutrix())[-1] for _ in range(10_000)}
        assert shapes == set("0oLM")

    def test_sign_coverage(self):
        s = Sampler(CFG, "signs")
        signs = {s.nonzero_precise().sign() for _ in range(100)}
        assert signs == {-1, 1}

    def test_zeroless_never_pure(self):
        s = Sampler(CFG, "zeroless")
        for _ in range(300):
            assert classify(s.zeroless()) is not Classification.PURE_NEUTRIX

    def test_member_of_lands_inside(self):
        s = Sampler(CFG, "members")
        for _ in range(300):
            nx = s.neutrix()
            assert nx_contains(nx, s.member_of(nx))

    def test_bounds_respected(self):
        s = Sampler(CFG, "bounds")
        for _ in range(200):
            p = s.rhopoly()
            assert len(p.terms) <= MAX_TERMS
            for e, c in p.terms:
                assert abs(c.numerator) <= COEFF_BOUND * c.denominator
                assert EXPONENT_RANGE[0] <= e <= EXPONENT_RANGE[1]


class TestShrink:
    def test_minimizes_term_count(self):
        start = PreciseNum.of(
            RhoPoly([(2, 3), (1, -7), (0, 5)])
        )

        def fails(values):
            (x,) = values
            return x.degree() == 2

        (small,) = shrink((start,), fails)
        assert small.degree() == 2
        assert len(small.num.terms) == 1
        assert small.num.leading_coeff() == 1

    def test_respects_predicate(self):
        start = canonicalize(RhoPoly([(1, 4), (0, 2)]), LIMITED)

        def fails(values):
            (x,) = values
            return ext_member(RhoPoly.rho_power(1), x)

        (small,) = shrink((start,), fails)
        assert ext_member(RhoPoly.rho_power(1), small)

    def test_a_raising_predicate_propagates(self):
        # the predicate decides what failing means; shrink does not guess
        def raises(values):
            raise ValueError("predicate crashed")

        with pytest.raises(ValueError, match="predicate crashed"):
            shrink((PreciseNum.of(RhoPoly([(2, 3), (1, -7)])),), raises)


class TestShrinkKeepsTheFailure:
    """run_check shrinks a failure only to inputs that fail the same way: a law's
    message stays a message, and a crash stays a crash of the same type."""

    START = PreciseNum.of(RhoPoly([(2, 3), (1, -7), (0, 5)]))

    def _run(self, monkeypatch, verdict):
        check = Check("test.shrink_kind", "theorems", "a test law", ("x",), lambda s: (self.START,), verdict, "holds")
        monkeypatch.setitem(REGISTRY, check.check_id, check)
        (failure,) = run_check(check.check_id, CFG, 1).failures
        ((_, text),) = failure.inputs
        return eval_text(text).rep, failure.observed

    def test_a_message_does_not_slip_to_a_crash(self, monkeypatch):
        def verdict(x):
            # out of this law's domain, single terms crash the verdict
            if len(x.num.terms) < 2:
                raise ValueError("one term")
            return f"{len(x.num.terms)} terms"

        shrunk, observed = self._run(monkeypatch, verdict)
        # the message is the one of the shrunk input, and the input is as small as the kind allows
        assert observed == "2 terms"
        assert len(shrunk.num.terms) == 2

    def test_a_crash_keeps_its_exception_type(self, monkeypatch):
        def verdict(x):
            n = len(x.num.terms)
            if n == 3:
                raise TypeError("three terms")
            if n == 2:
                return "two terms"
            raise KeyError("one term")

        shrunk, observed = self._run(monkeypatch, verdict)
        assert observed == "raised TypeError: three terms"
        assert len(shrunk.num.terms) == 3


class TestHalflinesShrink:
    """A failing halfline input shrinks through its bound, like any external number."""

    START = canonicalize(RhoPoly([(3, 7), (F(3, 2), -3), (0, 5)]), closed_cut(F(-3, 2)))

    @pytest.mark.parametrize("side", list(Side))
    @pytest.mark.parametrize("kind", list(HalflineKind))
    def test_the_bound_shrinks_to_representative_zero(self, monkeypatch, side, kind):
        def draw(s):
            return (Halfline(side, kind, self.START),)

        check = Check("test.shrink_halfline", "scheme", "a test law", ("h",), draw, lambda h: "always fails", "holds")
        monkeypatch.setitem(REGISTRY, check.check_id, check)
        (failure,) = run_check(check.check_id, CFG, 1).failures
        ((_, text),) = failure.inputs
        head, tail = _BRACKETS[(side, kind)].split("{}")
        assert text.startswith(head) and text.endswith(tail), text
        bound = eval_text(text[len(head) : len(text) - len(tail)])
        # every halfline fails, so the representative goes and the threshold simplifies to 0
        assert bound.rep.is_zero() and bound == pure(LIMITED), text


class TestDependentSorts:
    """Throwaway laws, registered into a copy of the registry, draw through their sorts."""

    @pytest.fixture(autouse=True)
    def registry(self, monkeypatch):
        monkeypatch.setattr(solidus.checks, "REGISTRY", dict(REGISTRY))

    def test_a_sort_reads_the_parameter_it_names(self):
        def after_a(s, a):
            return a + 1

        @law("test.depends", "test", "c = a + 1", "c follows a")
        def verdict(a: Annotated[int, lambda s: s.integer(0, 9)], b: Annotated[int, lambda s: s.integer(100, 109)], c: Annotated[int, after_a]):
            return None if c == a + 1 else f"c = {c}"

        sampler = Sampler(CFG, "test.depends")
        draws = [solidus.checks.REGISTRY["test.depends"].draw(sampler) for _ in range(50)]
        assert all(c == a + 1 and 100 <= b <= 109 for a, b, c in draws), draws
        assert run_check("test.depends", CFG, 50).passed

    def test_a_rejection_redraws_every_input_in_stream_order(self):
        rejections = []

        def reject_twice(s):
            value = s.integer(0, 10**6)
            if len(rejections) < 2:
                rejections.append(value)
                return None
            return value

        @law("test.reject_twice", "test", "any", "holds")
        def verdict(a: Annotated[int, lambda s: s.integer(0, 10**6)], b: Annotated[int, reject_twice]):
            return None

        sampler = Sampler(CFG, "test.reject_twice")
        got = solidus.checks.REGISTRY["test.reject_twice"].draw(sampler)
        reference = Sampler(CFG, "test.reject_twice")
        stream = [reference.integer(0, 10**6) for _ in range(6)]
        assert rejections == [stream[1], stream[3]]
        assert got == (stream[4], stream[5])
        assert sampler.rng.getstate() == reference.rng.getstate()

    def test_a_sort_that_always_rejects_raises_after_64_tries(self):
        tries = []

        def counted(s):
            tries.append(s.integer(0, 9))
            return 0

        @law("test.reject_always", "test", "any", "holds")
        def verdict(a: Annotated[int, counted], b: Annotated[int, lambda s: None]):
            return None

        with pytest.raises(InternalError):
            run_check("test.reject_always", CFG, 1)
        assert len(tries) == 64


class TestHarness:
    def test_unknown_check(self):
        with pytest.raises(UnknownCheckError):
            run_check("axiom.nonsense", CFG, 1)

    @pytest.mark.parametrize("check_id", ["axiom.add.assoc", "mutant.distributivity_naive"])
    @pytest.mark.parametrize("n", [0, -5])
    def test_sample_count_below_one_rejected(self, check_id, n):
        # an empty run would report pass, or unexpected-pass for a mutant
        with pytest.raises(ValueError):
            run_check(check_id, CFG, n)
        with pytest.raises(ValueError):
            run_catalog(CFG, n=n, only=check_id)

    def test_alias(self):
        r = run_check("axiom.distributivity", CFG, 25)
        assert r.check_id == "axiom.mixed.distributivity"
        assert r.passed

    def test_reports_reproducible(self):
        a = run_check("axiom.mixed.product_magnitude", CFG, 50)
        b = run_check("axiom.mixed.product_magnitude", CFG, 50)
        assert format_report(a) == format_report(b)

    def test_single_checks_ignore_n(self):
        r = run_check("thm.oslash_pound", CFG, 500)
        assert r.samples == 1 and r.passed

    def test_mutant_distributivity_fails_with_counterexample(self):
        r = run_check("mutant.distributivity_naive", CFG, 200)
        assert r.status == "expected-fail"
        assert r.ok
        assert r.failures
        first = r.failures[0]
        names = [name for name, _ in first.inputs]
        assert names == ["x", "y", "z"]

    def test_mutant_magnitude_table_fails(self):
        r = run_check("mutant.oslash_pound_wrong", CFG, 1)
        assert r.status == "expected-fail" and r.ok

    def test_exit_code_semantics(self):
        good = run_check("thm.chain", CFG, 1)
        assert exit_code([good]) == 0
        mutant = run_check("mutant.oslash_pound_wrong", CFG, 1)
        assert exit_code([good, mutant]) == 0  # expected failure is OK
        broken = run_check("thm.chain", CFG, 1)
        broken.expect_failures = True  # a passing check marked expect-fail is NOT ok
        assert exit_code([broken]) == 1

    def test_report_format(self):
        r = run_check("thm.oslash_pound", CFG, 1)
        line = format_report(r).splitlines()[0]
        assert line.split("\t") == ["thm.oslash_pound", "pass", "1", "0"]

    def test_run_catalog_prefix_filter(self):
        reports = run_catalog(CFG, n=5, only="axiom.add.")
        assert {r.check_id for r in reports} == {
            "axiom.add.assoc",
            "axiom.add.comm",
            "axiom.add.neutral",
            "axiom.add.symmetric",
            "axiom.add.magnitude_linear",
        }
        with pytest.raises(UnknownCheckError):
            run_catalog(CFG, n=5, only="zzz")

    def test_axiom_group_count(self):
        assert len(catalog_ids(AXIOM_GROUPS)) == 31

    def test_full_catalog_ok_at_small_n(self):
        reports = run_catalog(CFG, n=25)
        not_ok = [r.check_id for r in reports if not r.ok]
        assert not_ok == []
        assert exit_code(reports) == 0
        # golden digest: every status, sample count and shrunk counterexample
        digest = hashlib.sha256(format_reports(reports).encode()).hexdigest()
        assert digest == "ee3822fe41ec38d62bff2d98b4093afc4d5d7c4b050445f9185960d19e4d938c"

    def test_shrunk_counterexamples_pinned(self):
        # the expected failures at n=1000, one check per call: hundreds of
        # failing samples shrunk, as `solidus --check` prints them
        cfg = GeneratorConfig(seed=7)
        reports = [run_catalog(cfg, n=1000, only=cid)[0] for cid, c in REGISTRY.items() if c.expect_failures]
        assert [r.ok for r in reports] == [True] * 3
        digest = hashlib.sha256((format_reports(reports) + "\n").encode()).hexdigest()
        assert digest == "83231aec180bcfe763b9387dcbecc30e399b1c0b3ce019c2f43231564aa5cfd2"

    def test_registry_declarations_pinned(self):
        # covers what the catalog output never shows: the input names of
        # passing checks, the single flags, the notes and the aliases
        declared = (
            [
                (c.check_id, c.group, c.names, c.single, c.expect_failures, c.note)
                for c in REGISTRY.values()
            ],
            sorted(ALIASES.items()),
        )
        digest = hashlib.sha256(repr(declared).encode()).hexdigest()
        assert digest == "92ffdd5b0ee7ba0ea7c3214b2dd0953459592f6545bcb11ac8564ceac682b411"


def _overlap_is_equal(a, b):
    return Ordering.EQ if not ext_disjoint(a, b) else ext_compare(a, b)


def _inclusion_swapped(a, b):
    if ext_disjoint(a, b):
        return ext_compare(a, b)
    return Ordering.EQ if a.nx == b.nx else Ordering.LT if b.nx < a.nx else Ordering.GT


class TestOrderOracle:
    @pytest.mark.parametrize("wrong_order", [_overlap_is_equal, _inclusion_swapped])
    def test_catches_a_wrong_order(self, monkeypatch, wrong_order):
        # only the verdict's own order decision is wrong: the witness it asks
        # for is still built by halfline.separate_precise under the right order
        monkeypatch.setattr(solidus.checks, "ext_compare", wrong_order)
        report = run_check("oracle.order", GeneratorConfig(seed=0), 50)
        assert report.failures, wrong_order.__name__


class TestMinkowskiOracle:
    def test_soundness_samples(self):
        s = Sampler(CFG, "minkowski")
        for _ in range(40):
            a, b = s.external(), s.external()
            for _name, ext_op, op in MINKOWSKI_OPS:
                assert minkowski_escapes(a, b, ext_op, op, 20) == []

    def test_rejects_bad_inputs(self):
        a = canonicalize(1, INFINITESIMALS)
        with pytest.raises(ValueError):
            minkowski_escapes(a, a, ext_add, operator.add, 0)

    def test_member_products_escape_a_wrongly_narrow_result(self):
        a = canonicalize(1, INFINITESIMALS)
        assert minkowski_escapes(a, a, ext_mul, operator.mul, 20) == []
        # a product that drops the neutrix is caught by the member products
        narrow = lambda u, v: canonicalize(u.rep * v.rep)
        escapes = minkowski_escapes(a, a, narrow, operator.mul, 20)
        assert escapes
        for x, y, value in escapes:
            assert value == x * y and not ext_member(value, canonicalize(1))
