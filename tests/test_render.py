"""The renderers print the canonical expression syntax and refuse numbers past
the int/str digit limit.

``field.render_poly`` and ``neutrix.render_neutrix`` print from the stored
``(grid, den, ks)`` and the neutrix's int key.  Fixed values print literal
expected text, every seeded value prints text that ``parser.eval_text`` reads
back as an equal value, and on both sides of the digit limit a number of
``digit_limit()`` digits prints while one of a digit more is refused with
one error text.  The REPL's exact text is pinned by the digests of
``test_bench_contract``.
"""

from fractions import Fraction as F

import pytest

from solidus.errors import ResourceLimitError
from solidus.external import ExternalNum, render_external
from solidus.field import PreciseNum, RhoPoly, digit_limit, render_poly, render_precise
from solidus.generate import GeneratorConfig, Sampler
from solidus.neutrix import Neutrix, render_neutrix
from solidus.parser import eval_text


def _ratio_draw(s: Sampler) -> PreciseNum:
    x = s.precise(ratio_probability=1.0)
    while x.is_polynomial():
        x = s.precise(ratio_probability=1.0)
    return x


RENDERERS = {RhoPoly: render_poly, PreciseNum: render_precise, Neutrix: render_neutrix, ExternalNum: render_external}
DRAWS = {
    "polynomial": lambda s: s.rhopoly(),
    "ratio": _ratio_draw,
    "neutrix": lambda s: s.neutrix(),
    "external": lambda s: s.external(),
}


def _external(value) -> ExternalNum:
    """A value as the external number it prints as: a precise one, or a pure magnitude."""
    if isinstance(value, ExternalNum):
        return value
    return ExternalNum(0, value) if isinstance(value, Neutrix) else ExternalNum(value)


def _polys(value) -> list[RhoPoly]:
    if isinstance(value, RhoPoly):
        return [value]
    if isinstance(value, PreciseNum):
        return [value.num, value.den]
    return _polys(value.rep) if isinstance(value, ExternalNum) else []


@pytest.mark.parametrize("seed", (1, 7, 42))
@pytest.mark.parametrize("kind", sorted(DRAWS))
def test_seeded_values_read_back_as_equal_values(seed, kind):
    s = Sampler(GeneratorConfig(seed=seed), f"render.{kind}")
    values = [DRAWS[kind](s) for _ in range(300)]
    for value in values:
        text = RENDERERS[type(value)](value)
        assert text == str(value)
        assert eval_text(text) == _external(value), text
    terms = [(k, c, p.grid, p.den) for value in values for p in _polys(value) for k, c in p.ks]
    if kind != "neutrix":
        # the draws reach unit and negative coefficients, the exponent 1 and negative exponents
        assert any(abs(c) == den for k, c, grid, den in terms if k)
        assert any(c < 0 for k, c, grid, den in terms)
        assert any(k == grid for k, c, grid, den in terms)
        assert any(k < 0 for k, c, grid, den in terms)


FIXED = [
    (RhoPoly([(1, 1)]), "rho"),
    (RhoPoly([(1, -1), (0, 1)]), "-rho + 1"),
    (RhoPoly([(2, 3), (0, -1)]), "3*rho^2 - 1"),
    (RhoPoly([(-1, F(-1, 2)), (F(-3, 2), 1)]), "-1/2*rho^(-1) + rho^(-3/2)"),
    # grid 6 and den 6: every exponent and coefficient reduces on its own
    (
        RhoPoly([(F(1, 2), F(3, 2)), (F(1, 3), F(-2, 3)), (F(1, 6), F(1, 6)), (0, F(-5, 6)), (F(-1, 2), -1)]),
        "3/2*rho^(1/2) - 2/3*rho^(1/3) + 1/6*rho^(1/6) - 5/6 - rho^(-1/2)",
    ),
    (
        PreciseNum(RhoPoly([(2, -1), (0, 3)]), RhoPoly([(1, 2), (F(-1, 2), F(1, 3))])),
        "(-1/2*rho + 3/2*rho^(-1))/(1 + 1/6*rho^(-3/2))",
    ),
    (Neutrix(F(-3, 2), True), "rho^(-3/2)*L"),
    (Neutrix(1, False), "rho*o"),
    (Neutrix(2, True), "rho^2*L"),
    (Neutrix(0, True), "L"),
    (Neutrix(0, False), "o"),
    (ExternalNum(RhoPoly([(1, -1)]), Neutrix(F(-1, 3), False)), "-rho + rho^(-1/3)*o"),
]


@pytest.mark.parametrize("value, text", FIXED, ids=[text for _, text in FIXED])
def test_fixed_values_print_their_text(value, text):
    assert RENDERERS[type(value)](value) == text
    # a precise value and a pure magnitude print alike as external numbers
    assert render_external(_external(value)) == text
    assert eval_text(text) == _external(value)


@pytest.mark.skipif(not digit_limit(), reason="this interpreter has no int/str digit limit")
def test_both_sides_of_the_digit_limit():
    limit = digit_limit()

    def cases(big):
        return [
            RhoPoly.constant(big),
            RhoPoly.constant(-big),
            RhoPoly.constant(F(1, big)),
            RhoPoly.rho_power(1, big),
            RhoPoly.rho_power(1, F(-3, big)),
            RhoPoly.rho_power(big),
            RhoPoly.rho_power(-big),
            RhoPoly.rho_power(F(1, big)),
            RhoPoly([(F(2, big), 1), (0, big)]),
            PreciseNum(RhoPoly.constant(1), RhoPoly([(0, 1), (-1, big)])),
            Neutrix(big, True),
            Neutrix(F(-1, big), False),
            ExternalNum(RhoPoly.rho_power(1, big), Neutrix(-1, True)),
            ExternalNum(RhoPoly.rho_power(1), Neutrix(F(-1, big), True)),
        ]

    # a number of `limit` digits prints, and reads back
    for value in cases(10**limit - 1):
        text = RENDERERS[type(value)](value)
        assert eval_text(text) == _external(value), type(value)
    # one of limit + 1 digits is refused, with the one error text
    for value in cases(10**limit):
        with pytest.raises(ResourceLimitError) as err:
            RENDERERS[type(value)](value)
        assert str(err.value) == f"a number of more than {limit} digits is too long to print", type(value)


def test_rendering_builds_no_fraction(fraction_calls):
    s = Sampler(GeneratorConfig(seed=42), "render.no_fraction")
    values = [draw(s) for draw in DRAWS.values() for _ in range(60)]
    fraction_calls.clear()
    for value in values:
        RENDERERS[type(value)](value)
    assert fraction_calls == []
