"""The int-pair renderers print what the ``Fraction`` renderer they replaced printed.

``field.render_poly`` and ``neutrix.render_neutrix`` print from the stored
``(grid, den, ks)`` and the neutrix's int key.  Every REPL answer stays the
same only if each prints the text of the reference in ``fraction_render``, and
refuses, with the same error text, what the reference refuses; both are
compared here on seeded values and on numbers on both sides of the digit limit.
"""

from fractions import Fraction as F

import pytest

import fraction_render as ref
from solidus.errors import ResourceLimitError
from solidus.external import ExternalNum, render_external
from solidus.field import PreciseNum, RhoPoly, digit_limit, render_poly, render_precise
from solidus.generate import GeneratorConfig, Sampler
from solidus.neutrix import Neutrix, render_neutrix


def _ratio_draw(s: Sampler) -> PreciseNum:
    x = s.precise(ratio_probability=1.0)
    while x.is_polynomial():
        x = s.precise(ratio_probability=1.0)
    return x


RENDERERS = {
    RhoPoly: (render_poly, ref.render_poly),
    PreciseNum: (render_precise, ref.render_precise),
    Neutrix: (render_neutrix, ref.render_neutrix),
    ExternalNum: (render_external, ref.render_external),
}
DRAWS = {
    "polynomial": lambda s: s.rhopoly(),
    "ratio": _ratio_draw,
    "neutrix": lambda s: s.neutrix(),
    "external": lambda s: s.external(),
}


def _outcome(render, value) -> tuple:
    try:
        return ("text", render(value))
    except ResourceLimitError as exc:
        return ("refused", str(exc))


def _both(value) -> tuple[tuple, tuple]:
    """The outcome of the int renderer and of the reference on ``value``."""
    render, reference = RENDERERS[type(value)]
    return _outcome(render, value), _outcome(reference, value)


def _polys(value) -> list[RhoPoly]:
    if isinstance(value, RhoPoly):
        return [value]
    if isinstance(value, PreciseNum):
        return [value.num, value.den]
    return _polys(value.rep) if isinstance(value, ExternalNum) else []


@pytest.mark.parametrize("seed", (1, 7, 42))
@pytest.mark.parametrize("kind", sorted(DRAWS))
def test_seeded_values_render_as_the_fraction_renderer(seed, kind):
    s = Sampler(GeneratorConfig(seed=seed), f"render.{kind}")
    values = [DRAWS[kind](s) for _ in range(300)]
    for value in values:
        got, want = _both(value)
        assert got == want == ("text", str(value)), value
    terms = [(k, c, p.grid, p.den) for value in values for p in _polys(value) for k, c in p.ks]
    if kind != "neutrix":
        # the draws reach unit and negative coefficients, the exponent 1 and negative exponents
        assert any(abs(c) == den for k, c, grid, den in terms if k)
        assert any(c < 0 for k, c, grid, den in terms)
        assert any(k == grid for k, c, grid, den in terms)
        assert any(k < 0 for k, c, grid, den in terms)


FIXED = [
    RhoPoly([(1, 1)]),
    RhoPoly([(1, -1), (0, 1)]),
    RhoPoly([(-1, F(-1, 2)), (F(-3, 2), 1)]),
    # grid 6 and den 6: every exponent and coefficient reduces on its own
    RhoPoly([(F(1, 2), F(3, 2)), (F(1, 3), F(-2, 3)), (F(1, 6), F(1, 6)), (0, F(-5, 6)), (F(-1, 2), -1)]),
    PreciseNum(RhoPoly([(2, -1), (0, 3)]), RhoPoly([(1, 2), (F(-1, 2), F(1, 3))])),
    Neutrix(F(-3, 2), True),
    Neutrix(1, False),
    Neutrix(0, True),
    ExternalNum(RhoPoly([(1, -1)]), Neutrix(F(-1, 3), False)),
]


@pytest.mark.parametrize("value", FIXED, ids=repr)
def test_fixed_values_render_as_the_fraction_renderer(value):
    got, want = _both(value)
    assert got == want
    if not isinstance(value, ExternalNum):
        # a precise value and a pure magnitude print alike as external numbers
        as_external = ExternalNum(0, value) if isinstance(value, Neutrix) else ExternalNum(value)
        assert _both(as_external) == (got, got)


@pytest.mark.skipif(not digit_limit(), reason="this interpreter has no int/str digit limit")
def test_both_sides_of_the_digit_limit_match_the_fraction_renderer():
    limit = digit_limit()
    cases = []
    # a number of `limit` digits prints; one of limit + 1 digits is refused
    for big in (10**limit - 1, 10**limit):
        cases += [
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
    outcomes = [_both(value) for value in cases]
    for value, (got, want) in zip(cases, outcomes):
        assert got == want, type(value)
    assert [got[0] for got, _ in outcomes] == ["text"] * (len(cases) // 2) + ["refused"] * (len(cases) // 2)


def test_rendering_builds_no_fraction(fraction_calls):
    s = Sampler(GeneratorConfig(seed=42), "render.no_fraction")
    values = [draw(s) for draw in DRAWS.values() for _ in range(60)]
    fraction_calls.clear()
    for value in values:
        RENDERERS[type(value)][0](value)
    assert fraction_calls == []
