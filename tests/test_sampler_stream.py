"""The sampler's stream: one 16-bit word per bounded int, every draw method pinned.

``generate.Sampler`` builds its draws from int pairs, without ``Fraction``.
Each bounded int is one ``getrandbits(16)`` word mapped by multiply-shift, so
a draw is fixed by the words it reads.  Pinned here: the stored fields of 60
draws of every draw method and each sampler's final rng state, and a digest of
the first draws of every registered check, the stream the check reports are
built from.  Checked against that claim: ``integer`` reads exactly one word per
value, and every draw method and every check's draw reads nothing from its rng
but 16-bit words and uniform floats, so it replays from the values it read.
``rhopoly``, which writes the draws of ``integer``, ``_grid`` and
``_coefficient`` out in place, is checked against their composition, and the
draw ranges against the bounds in ``generate``.
"""

import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest

from solidus.checks import REGISTRY
from solidus.external import ExternalNum
from solidus.field import PreciseNum, RhoPoly, _sum_terms
from solidus.generate import (
    COEFF_BOUND,
    EXPONENT_DENOMINATOR_BOUND,
    EXPONENT_RANGE,
    MAX_TERMS,
    NEUTRIX_Q_RANGE,
    GeneratorConfig,
    Sampler,
    derive_seed,
)
from solidus.neutrix import Neutrix

SEEDS = (0, 1, 7, 42)
LABELS = ("", "axiom.add.assoc", "thm.oslash_pound", "draws")


#: singletons, the package's spans, and the widest span integer allows
INTEGER_RANGES = [(a, a) for a in (-3, 0, 5)] + [(-9, 9), (2, 4), (0, 3), (1, 2), (0, 2**8 - 1), (-(2**7), 2**7 - 1)]


@pytest.mark.parametrize("seed", SEEDS + (1000004, 2**70 + 3))
def test_integer_is_one_multiply_shift_word(seed):
    s = Sampler(GeneratorConfig(seed=seed), "stream")
    ref = random.Random(derive_seed(seed, "stream"))
    for i in range(3000):
        lo, hi = INTEGER_RANGES[i % len(INTEGER_RANGES)]
        assert s.integer(lo, hi) == lo + (ref.getrandbits(16) * (hi - lo + 1) >> 16)
        if i % 3 == 0:  # interleaved floats keep the two streams in step
            assert s.rng.random() == ref.random()
    assert s.rng.getstate() == ref.getstate()


class _Tape:
    """An rng that records what a draw reads; it has no method but the two the sampler may call."""

    def __init__(self, rng: random.Random):
        self._rng, self.read = rng, []

    def getrandbits(self, k: int) -> int:
        w = self._rng.getrandbits(k)
        self.read.append((k, w))
        return w

    def random(self) -> float:
        x = self._rng.random()
        self.read.append((None, x))
        return x


class _Replay:
    """An rng that hands back a tape's values, each only to the call that read it."""

    def __init__(self, read: list):
        self._read = iter(read)

    def getrandbits(self, k: int) -> int:
        want, w = next(self._read)
        assert want == k
        return w

    def random(self) -> float:
        want, x = next(self._read)
        assert want is None
        return x

    def exhausted(self) -> bool:
        return next(self._read, None) is None


def _on(s: Sampler, rng) -> Sampler:
    s.rng, s._bits = rng, rng.getrandbits
    return s


def _replays_from_its_words(label: str, draw, view, count: int) -> None:
    """``count`` draws read only 16-bit words and floats, and the values read rebuild them."""
    tape = _Tape(random.Random(derive_seed(11, label)))
    drawn = [view(draw(_on(Sampler(GeneratorConfig(seed=11), label), tape))) for _ in range(count)]
    assert {k for k, _ in tape.read} <= {16, None}
    replay = _Replay(tape.read)
    assert [view(draw(_on(Sampler(GeneratorConfig(seed=11), label), replay))) for _ in range(count)] == drawn
    assert replay.exhausted()


def _fields(value):
    """The stored fields of a draw, so equal draws must be stored alike."""
    if isinstance(value, RhoPoly):
        return (value.grid, value.den, value.ks)
    if isinstance(value, PreciseNum):
        return (_fields(value.num), _fields(value.den))
    if isinstance(value, Neutrix):
        return value._key
    if isinstance(value, tuple):  # an int pair of _coefficient or _grid
        return value
    assert isinstance(value, ExternalNum)
    return (_fields(value.rep), _fields(value.nx))


DRAWS = {
    **{
        f"rhopoly_{m}_{'zero' if z else 'nonzero'}": lambda s, m=m, z=z: s.rhopoly(m, allow_zero=z)
        for m in (1, 2, 3)
        for z in (True, False)
    },
    **{
        f"precise_{p}_{'zero' if z else 'nonzero'}": lambda s, p=p, z=z: s.precise(p, allow_zero=z)
        for p in (0.0, 0.2, 0.4)
        for z in (True, False)
    },
    "neutrix": lambda s: s.neutrix(),
    "member_of": lambda s: s.member_of(s.neutrix()),
    "member_of_nonzero": lambda s: s.member_of(s.scaled_neutrix(), allow_zero=False),
    "external": lambda s: s.external(),
    "zeroless": lambda s: s.zeroless(),
    "positive_zeroless": Sampler.positive_zeroless,
    "representative_of": lambda s: s.representative_of(s.external()),
    "limited_precise": lambda s: s.limited_precise(),
}
SCALARS = {
    "_coefficient": Sampler._coefficient,
    "_grid_exponent": lambda s: s._grid(*EXPONENT_RANGE),
    "_grid_threshold": lambda s: s._grid(*NEUTRIX_Q_RANGE),
}


def test_every_draw_method_pinned():
    # the stored fields of 60 draws of each method on 16 samplers, and each sampler's final rng state
    h = hashlib.sha256()
    for (name, make), seed, label in itertools.product(sorted({**DRAWS, **SCALARS}.items()), SEEDS, LABELS):
        s = Sampler(GeneratorConfig(seed=seed), label)
        h.update(repr((name, seed, label, [_fields(make(s)) for _ in range(60)], s.rng.getstate())).encode())
    assert h.hexdigest() == "5842d1e435e82e386db2a2e94ba73985b12c218c6ef576aed546ba036dbc0f65"


def _rhopoly_by_parts(s: Sampler, max_terms: int, allow_zero: bool) -> RhoPoly:
    """What ``rhopoly`` writes out in place, composed of the draws it copies."""
    n = s.integer(0 if allow_zero else 1, max_terms)
    exponents: dict[F, None] = {}  # distinct values, in draw order
    for _ in range(32):
        if len(exponents) == n:
            break
        exponents[F(*s._grid(*EXPONENT_RANGE))] = None
    return _sum_terms([(e.numerator, e.denominator, *s._coefficient()) for e in exponents])


@pytest.mark.parametrize("seed", SEEDS)
def test_rhopoly_draws_as_integer_grid_and_coefficient(seed):
    s, ref = (Sampler(GeneratorConfig(seed=seed), "by_parts") for _ in range(2))
    for max_terms, allow_zero in itertools.product(range(1, MAX_TERMS + 1), (True, False)):
        for _ in range(300):
            assert _fields(s.rhopoly(max_terms, allow_zero)) == _fields(_rhopoly_by_parts(ref, max_terms, allow_zero))
    assert s.rng.getstate() == ref.rng.getstate()


def test_draw_ranges_are_the_bounds():
    s = Sampler(GeneratorConfig(seed=3), "ranges")
    bound = EXPONENT_DENOMINATOR_BOUND
    # every span that generate and checks draw through integer, each value reached and none outside
    spans = {(-COEFF_BOUND, COEFF_BOUND - 1), (-COEFF_BOUND, COEFF_BOUND), (1, bound), (0, 2), (0, 3), (0, 4), (1, 3), (2, 4), (2, 5)}
    spans |= {(lo * den, hi * den) for lo, hi in (EXPONENT_RANGE, NEUTRIX_Q_RANGE) for den in range(1, bound + 1)}
    spans |= {(1, NEUTRIX_Q_RANGE[1] * den) for den in range(1, bound + 1)}
    for lo, hi in sorted(spans):
        assert {s.integer(lo, hi) for _ in range(2000)} == set(range(lo, hi + 1)), (lo, hi)
    # past 2**8 values a word's share of the span is off by more than 0.4%
    for lo, hi in ((0, 2**8), (0, 2**16), (1, 0)):
        with pytest.raises(ValueError):
            s.integer(lo, hi)
    # rhopoly's draws, read back as reduced exponents and coefficients
    counts, exponents, coefficients = set(), set(), set()
    for _ in range(2000):
        p = s.rhopoly()
        counts.add(len(p.ks))
        exponents.update(F(k, p.grid) for k, _ in p.ks)
        coefficients.update(F(c, p.den) for _, c in p.ks)
    assert counts == set(range(MAX_TERMS + 1))
    assert all(EXPONENT_RANGE[0] <= e <= EXPONENT_RANGE[1] for e in exponents)
    assert {e.denominator for e in exponents} == set(range(1, bound + 1))
    assert {c.denominator for c in coefficients} == {1, 2, 3, 4}
    assert max(abs(c.numerator) for c in coefficients) == COEFF_BOUND and 0 not in coefficients


@pytest.mark.parametrize("draw", sorted(DRAWS) + sorted(SCALARS))
def test_draw_replays_from_its_words(draw):
    _replays_from_its_words(draw, DRAWS.get(draw) or SCALARS[draw], _fields, 60)


@pytest.mark.parametrize("check_id", sorted(REGISTRY))
def test_check_draw_replays_from_its_words(check_id):
    # checks.py picks from its menus through integer too, not rng.choice
    _replays_from_its_words(check_id, REGISTRY[check_id].draw, lambda xs: [str(x) for x in xs], 20)


NO_FRACTION = {**DRAWS, "scaled_neutrix": Sampler.scaled_neutrix, **SCALARS}


@pytest.mark.parametrize("draw", sorted(NO_FRACTION))
def test_draws_build_no_fraction(draw, fraction_calls):
    s = Sampler(GeneratorConfig(seed=5), draw)
    for _ in range(300):
        NO_FRACTION[draw](s)
    assert fraction_calls == []


def test_first_draws_of_every_check_pinned():
    # `solidus --check` prints statuses and counts only, so a changed stream under
    # checks that all pass leaves its digest as it was; this pins the draws
    cfg = GeneratorConfig(seed=7)
    lines = []
    for check_id, chk in REGISTRY.items():
        sampler = Sampler(cfg, check_id)
        for _ in range(3):
            lines.append("\t".join([check_id, *(str(v) for v in chk.draw(sampler))]))
    assert len(lines) == 3 * len(REGISTRY)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "ecbd08a3144d147d6c83ac199d0499499a592531e0db8a9079f02857a5615aa6"
