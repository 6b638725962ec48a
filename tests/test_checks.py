"""Tests for the generator and the check harness itself."""

import hashlib
import operator
import zlib
from fractions import Fraction as F
from typing import Annotated

import pytest

import rebuilt_menus as rebuilt
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
    ExternalNum,
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
from solidus.naturals import is_natural
from solidus.neutrix import (
    FULL,
    INFINITESIMALS,
    LIMITED,
    NX_ZERO,
    Neutrix,
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

    def test_zeroless_raises_rather_than_return_a_pure_neutrix(self):
        # with every neutrix M, every draw is M: the sampler must not return one
        s = Sampler(CFG, "zeroless")
        s.neutrix = lambda: FULL
        with pytest.raises(InternalError, match="zeroless: 64 draws"):
            s.zeroless()

    def test_nonprecise_keeps_to_its_domain(self):
        # a precise value is outside NonPrecise's domain, so no draw returns one
        domain = solidus.checks.NonPrecise.__metadata__[1]
        assert not domain(ExternalNum(1)) and domain(ExternalNum(1, LIMITED))
        s = Sampler(CFG, "thm.three_cases")
        for _ in range(200):
            assert all(b.nx != NX_ZERO for b in REGISTRY["thm.three_cases"].draw(s))

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

    def test_a_rejected_value_is_redrawn_with_the_first_input_its_domain_reads(self):
        # c's domain reads b: a rejected c redraws b, then c, and a stays as drawn
        seen = []

        def third_time(c, b):
            seen.append((b, c))
            return len(seen) == 3

        any_int = lambda s: s.integer(0, 2**8 - 1)

        @law("test.reject_twice", "test", "any", "holds")
        def verdict(a: Annotated[int, any_int], b: Annotated[int, any_int], c: Annotated[int, any_int, third_time]):
            return None

        sampler = Sampler(CFG, "test.reject_twice")
        got = solidus.checks.REGISTRY["test.reject_twice"].draw(sampler)
        reference = Sampler(CFG, "test.reject_twice")
        stream = [reference.integer(0, 2**8 - 1) for _ in range(7)]
        assert seen == [(stream[1], stream[2]), (stream[3], stream[4]), (stream[5], stream[6])]
        assert got == (stream[0], stream[5], stream[6])
        assert sampler.rng.getstate() == reference.rng.getstate()

    def test_a_domain_that_reads_no_input_redraws_its_value_alone(self):
        @law("test.reject_odd", "test", "any", "holds")
        def verdict(a: Annotated[int, lambda s: s.integer(0, 9)], b: Annotated[int, lambda s: s.integer(0, 9), lambda b: b % 2 == 0]):
            return None

        sampler = Sampler(CFG, "test.reject_odd")
        got = [solidus.checks.REGISTRY["test.reject_odd"].draw(sampler) for _ in range(20)]
        reference = Sampler(CFG, "test.reject_odd")
        want = []
        for _ in range(20):
            a, b = reference.integer(0, 9), reference.integer(0, 9)
            while b % 2:
                b = reference.integer(0, 9)
            want.append((a, b))
        assert got == want
        assert sampler.rng.getstate() == reference.rng.getstate()

    @pytest.mark.parametrize("rejections", [63, 64])
    def test_the_64th_rejection_of_a_tuple_raises_naming_the_check(self, rejections):
        tries = []

        def counted(s):
            tries.append(s.integer(0, 9))
            return 0

        @law("test.reject_many", "test", "any", "holds")
        def verdict(a: Annotated[int, counted], b: Annotated[int, lambda s: 1, lambda b, a: len(tries) > rejections]):
            return None

        if rejections == 64:
            with pytest.raises(InternalError, match="^test.reject_many: 64 draws were rejected$"):
                run_check("test.reject_many", CFG, 1)
        else:
            assert run_check("test.reject_many", CFG, 1).passed
        assert len(tries) == 64

    def test_a_shrink_trial_outside_a_domain_never_reaches_the_verdict(self):
        start = PreciseNum.of(RhoPoly([(2, 3), (1, -7), (0, 5)]))
        seen = []

        @law("test.shrink_domain", "test", "any", "holds")
        def verdict(
            x: Annotated[PreciseNum, lambda s: start, lambda x: len(x.num.ks) >= 2],
            y: Annotated[ExternalNum, lambda s, x: ExternalNum(x + 1, LIMITED), lambda y, x: ExternalNum(x) < y],
        ):
            seen.append((x, y))
            return "always fails"

        (failure,) = run_check("test.shrink_domain", CFG, 1).failures
        assert len(seen) > 1 and all(len(x.num.ks) >= 2 and ExternalNum(x) < y for x, y in seen)
        # every trial fails, so shrinking stops only at the domains' edges
        x, y = (eval_text(text) for _, text in failure.inputs)
        assert len(x.rep.num.ks) == 2 and x < y
        assert solidus.checks.REGISTRY["test.shrink_domain"].admits((x.rep, y))


class TestStoredFieldDomains:
    """Domains read on the stored fields agree with the functions they avoid calling."""

    def test_the_cut_domains_agree_with_the_neutrix_order(self):
        below = solidus.checks.BelowInfinitesimals.__metadata__[1]
        above = solidus.checks.AboveLimited.__metadata__[1]
        cuts = [NX_ZERO, FULL, *(Neutrix(F(n, d), closed) for n in range(-5, 6) for d in (1, 2, 3) for closed in (False, True))]
        assert [below(A) for A in cuts] == [A < INFINITESIMALS for A in cuts]
        assert [above(A) for A in cuts] == [A > LIMITED for A in cuts]

    @pytest.mark.parametrize("seed", (1, 7, 42))
    def test_the_natural_and_unit_offset_domains_agree_with_is_natural_and_the_order(self, seed):
        natural = solidus.checks.Natural.__metadata__[1]
        unit_offset = solidus.checks.UnitOffset.__metadata__[1]
        s = Sampler(GeneratorConfig(seed=seed), "domains")
        polys = [PreciseNum.of(s.rhopoly()) for _ in range(300)] + [solidus.checks._natural(s) for _ in range(300)]
        # no unit offset is natural, and 1/(1 + rho^(-1)) has a natural numerator over a denominator that does not divide it
        offsets = [solidus.checks._unit_offset(s) for _ in range(300)]
        assert sum(map(is_natural, polys)) > 250
        assert [natural(p) for p in polys + offsets] == [is_natural(p) for p in polys + offsets]
        values = [s.precise(ratio_probability=0.5) for _ in range(300)] + offsets
        assert sum(0 < u < 1 for u in values) > 250
        assert [unit_offset(u) for u in values] == [0 < u < 1 for u in values]


class TestSupremumWitnesses:
    @pytest.mark.parametrize("above", [FULL, closed_cut(1)], ids=["M", "closed_cut_1"])
    @pytest.mark.parametrize("check_id", ["thm.sup_inf_characterization", "thm.sup_consistency"])
    def test_zero_below_the_infinitesimals_has_a_witness(self, check_id, above):
        # BelowInfinitesimals admits 0, which no draw gives: each sup verdict takes it
        chk = REGISTRY[check_id]
        given = {"below": NX_ZERO, "above": above}
        values = tuple(given.get(name, v) for name, v in zip(chk.names, chk.draw(Sampler(CFG, check_id))))
        assert chk.admits(values)
        assert chk.verdict(*values) is None


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
        assert digest == "3e6b13043693ea093bc05cf22827d2ffa32cbfaacdd0137e20f993c9f5856ffc"

    def test_shrunk_counterexamples_pinned(self):
        # the expected failures at n=1000, one check per call: hundreds of
        # failing samples shrunk, as `solidus --check` prints them
        cfg = GeneratorConfig(seed=7)
        reports = [run_catalog(cfg, n=1000, only=cid)[0] for cid, c in REGISTRY.items() if c.expect_failures]
        assert [r.ok for r in reports] == [True] * 3
        digest = hashlib.sha256((format_reports(reports) + "\n").encode()).hexdigest()
        assert digest == "8f68d988ebec699b53d703d9e59c396d90f95383c9829bea5e404ae1002f76aa"

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


def _crc(value) -> int:
    """A pure, seed-free function of a value's printed form, for patched predicates."""
    return zlib.crc32(str(value).encode())


class TestRebuiltMenusReference:
    """The hoisted subdistributivity, Minkowski and Dedekind verdicts against the
    code that rebuilt their menus and memberships in the loop (``rebuilt_menus``):
    the same message, or None, on seeded draws and on forced failures."""

    VERDICTS = {
        "thm.subdistributivity": rebuilt._v_thm_subdistributivity,
        "axiom.scheme.dedekind": rebuilt._v_scheme_dedekind,
    }
    # menus hold 1, 5 or 8 members: k below, at and past a multiple of each, the verdict's 20, and all pairs
    KS = (1, 3, 5, 8, 9, 20, 64)

    @staticmethod
    def _draws(check_id, seed, n):
        s = Sampler(GeneratorConfig(seed=seed), check_id)
        return [REGISTRY[check_id].draw(s) for _ in range(n)]

    @staticmethod
    def _patch(monkeypatch, name, f):
        # the reference imported the function into its own namespace: patch both
        monkeypatch.setattr(solidus.checks, name, f)
        monkeypatch.setattr(rebuilt, name, f)

    def _messages(self, check_id, draws):
        new, old = REGISTRY[check_id].verdict, self.VERDICTS[check_id]
        messages = []
        for values in draws:
            got = new(*values)
            assert got == old(*values), tuple(map(str, values))
            messages.append(got)
        return messages

    def _escapes(self, draws, ops=MINKOWSKI_OPS):
        seen = 0
        for x, y in draws:
            for _name, ext_op, op in ops:
                for k in self.KS:
                    got = minkowski_escapes(x, y, ext_op, op, k)
                    assert got == rebuilt.minkowski_escapes(x, y, ext_op, op, k), (str(x), str(y), k)
                    seen += bool(got)
        return seen

    @pytest.mark.parametrize("seed", (1, 7, 42))
    @pytest.mark.parametrize("check_id", sorted(VERDICTS))
    def test_the_verdicts_agree_on_seeded_draws(self, check_id, seed):
        assert set(self._messages(check_id, self._draws(check_id, seed, 200))) == {None}

    @pytest.mark.parametrize("seed", (1, 7, 42))
    def test_the_escapes_agree_on_seeded_draws(self, seed):
        assert self._escapes(self._draws("oracle.minkowski", seed, 200)) == 0

    def test_an_escaping_member_sum_is_the_same_triple(self, monkeypatch):
        self._patch(monkeypatch, "ext_member", lambda v, t: _crc(v) % 7 != 0)
        draws = self._draws("thm.subdistributivity", 1, 100)
        messages = self._messages("thm.subdistributivity", draws)
        escaped = [(m, values) for m, values in zip(messages, draws) if m is not None]
        assert escaped and None in messages
        # not only the first triple: some reported members differ from the menus' heads, the representatives
        assert any(not m.startswith(f"{x.rep}*({y.rep} + {z.rep}) escapes") for m, (x, y, z) in escaped)

    def test_escapes_from_a_narrowed_operation_are_the_same_pairs(self, monkeypatch):
        narrowed = (
            ("add", lambda u, v: canonicalize(u.rep + v.rep), operator.add),
            ("mul", lambda u, v: canonicalize(u.rep * v.rep), operator.mul),
        )
        draws = self._draws("oracle.minkowski", 7, 60)
        assert self._escapes(draws, narrowed) > 100
        self._patch(monkeypatch, "ext_member", lambda v, t: _crc(v) % 5 != 0)
        assert self._escapes(draws) > 100
        # and the verdict reports the same first escape over either oracle
        verdict = REGISTRY["oracle.minkowski"].verdict
        messages = [verdict(*values) for values in draws]
        monkeypatch.setattr(solidus.checks, "minkowski_escapes", rebuilt.minkowski_escapes)
        assert messages == [verdict(*values) for values in draws]
        assert any(m and m.startswith("add: ") for m in messages)

    @pytest.mark.parametrize(
        "member, branches",
        [
            (lambda h, x: False, {"closed halfline misses", "complement fails"}),
            (lambda h, x: True, {"halfline contains its weak bound", "complement fails"}),
            (lambda h, x: solidus.halfline.hl_member(h, x) != (_crc(x) % 3 == 0), {"not downward closed"}),
            # right on the law's lower halfline, wrong on its complement
            (lambda h, x: solidus.halfline.hl_member(h, x) != (h.side is Side.UPPER and _crc(x) % 3 == 0), {"complement fails"}),
        ],
        ids=["never", "always", "flipped", "flipped-complement"],
    )
    def test_a_wrong_membership_fails_at_the_same_point(self, monkeypatch, member, branches):
        self._patch(monkeypatch, "hl_member", member)
        draws = self._draws("axiom.scheme.dedekind", 42, 100)
        messages = self._messages("axiom.scheme.dedekind", draws)
        reached = {branch for branch in branches for m in messages if m and branch in m}
        assert reached == branches, set(messages)

    def test_each_menu_and_membership_is_built_once(self, monkeypatch):
        calls = []

        def counted(f):
            def wrapper(*args):
                calls.append(args[0])
                return f(*args)
            return wrapper

        monkeypatch.setattr(solidus.checks, "_representative_menu", counted(solidus.checks._representative_menu))
        for x, y, z in self._draws("thm.subdistributivity", 7, 20):
            calls.clear()
            assert REGISTRY["thm.subdistributivity"].verdict(x, y, z) is None
            assert calls == [x, y, z]
        for x, y in self._draws("oracle.minkowski", 7, 20):
            calls.clear()
            minkowski_escapes(x, y, ext_add, operator.add, 20)
            assert calls == [y, x]
        monkeypatch.setattr(solidus.checks, "hl_member", counted(solidus.halfline.hl_member))
        for (h,) in self._draws("axiom.scheme.dedekind", 7, 20):
            calls.clear()
            assert REGISTRY["axiom.scheme.dedekind"].verdict(h) is None
            points = len(solidus.checks._probe_points(solidus.halfline.zup(h)))
            assert calls.count(h) == points
