"""Deterministic random generation of field elements, neutrices and externals.

Sampling is seeded per check id, so reports are reproducible bit for bit.  The
distributions are not dictated by anything except usefulness: exponents are
drawn on a coarse grid and group members are clustered near the neutrix
threshold, where absorption bugs live.  The bounds are module constants;
GeneratorConfig carries only the seed.

Draws work on the int view that ``field`` and ``neutrix`` store: a scalar is a
pair ``(c, d)``, an exponent or threshold a pair ``(k, den)``, and results are
built by ``field._poly`` and ``neutrix._cut``, so no draw builds a
``Fraction``; the checks' own draws take the same pairs from ``_coefficient``
and ``_grid``.  Every bounded int is one 16-bit word ``w`` of the stream,
mapped to ``lo + (w * n >> 16)`` for the span ``n = hi - lo + 1`` by
multiply-shift (Lemire, ACM TOMACS 2019), with no rejection loop: each value
takes ``floor(2**16/n)`` or ``ceil(2**16/n)`` of the words, so its probability
is off from ``1/n`` by less than ``n/2**16`` of itself: under 0.03% for the
largest span the package draws, 19, and under 0.4% for the largest ``integer``
accepts, 2**8.  ``rhopoly`` writes that formula in place, as a call per int
is measurably slower, and a test holds it to what ``integer``, ``_grid`` and
``_coefficient`` draw.  It keeps its distinct exponents as ints on the common
grid ``_GRID`` in a dict, which iterates in insertion order as a set need not,
so the i-th coefficient drawn goes with the i-th distinct exponent.

``shrink`` simplifies a failing input greedily, one component at a time.  Its
predicate alone decides what still failing means, and it must not raise:
``run_check`` passes one that accepts only failures of the drawn kind.  It
works on the same int pairs: ``_rational_candidates`` simplifies an exponent,
a coefficient or a threshold as a reduced pair, and the candidates are built
by ``field._poly``, ``field._sum_terms`` and ``neutrix._cut``, so shrinking
builds no ``Fraction`` either.
"""

from __future__ import annotations

import random
import zlib
from math import gcd, lcm
from typing import Callable, Iterator, NamedTuple

from .errors import InternalError
from .external import ExternalNum, _canonical
from .field import ONE_POLY, PreciseNum, RhoPoly, _poly, _precise, _sum_terms
from .halfline import Halfline
from .neutrix import FULL, Neutrix, NX_ZERO, _cut


MAX_TERMS = 3
COEFF_BOUND = 9
EXPONENT_DENOMINATOR_BOUND = 2
EXPONENT_RANGE = (-2, 2)
NEUTRIX_Q_RANGE = (-2, 2)
SHRINK_MAX_ROUNDS = 200
#: member_of's drop below the threshold, in halves: four equally likely picks
_DROP_HALVES = {True: (0, 0, 1, 2), False: (1, 1, 2, 4)}
#: the least and greatest denominator a coefficient may draw
_COEFF_DENS = (2, 4)
#: rhopoly's common exponent grid and coefficient denominator: every den it draws divides them
_GRID = lcm(*range(1, EXPONENT_DENOMINATOR_BOUND + 1))
_DEN = lcm(*range(_COEFF_DENS[0], _COEFF_DENS[1] + 1))


class GeneratorConfig(NamedTuple):
    seed: int = 0


def derive_seed(seed: int, label: str) -> int:
    """Stable per-label seed; crc32 rather than hash() so runs are reproducible."""
    return (seed * 0x1F1F1F1F + zlib.crc32(label.encode())) & 0xFFFFFFFFFFFFFFFF


def below_threshold(nx: Neutrix, j: int, c: int = 1, d: int = 1) -> RhoPoly:
    """``(c/d) * rho^(q - j/2)`` for a finite cut's threshold ``q``, built on its
    int key: with ``q = n/e`` the exponent is ``(2n - j*e) / (2e)``."""
    _, n, e, _ = nx._key
    return _poly(2 * e, d, [(2 * n - j * e, c)])


def zeroless_domain(alpha: ExternalNum) -> bool:
    """The ``Zeroless`` domain, 0 outside ``alpha``, read on the stored fields and not through
    ``is_zeroless``, so a bug in the membership a law tests cannot move its inputs: the
    degree ``k/grid`` of ``rep`` against the threshold ``n/d`` of the cut's key."""
    num = alpha.rep.num
    if not num.ks:
        return False
    rank, n, d, closed = alpha.nx._key
    if rank:
        return rank < 0
    k, bound = num.ks[0][0] * d, n * num.grid
    return k > bound if closed else k >= bound


class Sampler:
    """Random source seeded from one GeneratorConfig and a label."""

    def __init__(self, cfg: GeneratorConfig, label: str = ""):
        self.rng = random.Random(derive_seed(cfg.seed, label))
        self._bits = self.rng.getrandbits

    # -- scalars ---------------------------------------------------------

    def integer(self, lo: int, hi: int) -> int:
        """An int in [lo, hi] from one 16-bit word, by multiply-shift (module docstring)."""
        n = hi - lo + 1
        if not 0 < n <= 1 << 8:
            raise ValueError(f"integer: a span of {n} values, outside 1..2**8")
        return lo + (self._bits(16) * n >> 16)

    def _coefficient(self) -> tuple[int, int]:
        """A nonzero coefficient as the pair ``(c, d)``, the value c/d, drawn as in ``rhopoly``."""
        c = self.integer(-COEFF_BOUND, COEFF_BOUND - 1)
        c += c >= 0  # 0..COEFF_BOUND-1 move up one, so no 0 is drawn
        return c, (self.integer(*_COEFF_DENS) if self.rng.random() < 0.25 else 1)

    def _grid(self, lo: int, hi: int) -> tuple[int, int]:
        """A multiple of 1/den in [lo, hi] as the pair ``(k, den)``, den drawn up to the bound."""
        den = self.integer(1, EXPONENT_DENOMINATOR_BOUND)
        return self.integer(lo * den, hi * den), den

    # -- field elements ----------------------------------------------------

    def rhopoly(self, max_terms: int = MAX_TERMS, allow_zero: bool = True) -> RhoPoly:
        """The term count, each exponent as ``_grid`` and each coefficient as ``_coefficient``
        draw them, with ``integer``'s formula in place."""
        bits, random = self._bits, self.rng.random
        lo = 0 if allow_zero else 1
        n = lo + (bits(16) * (max_terms - lo + 1) >> 16)
        # distinct exponents, so merging never pushes coefficients past the bound
        e_lo, e_hi = EXPONENT_RANGE
        d_lo, d_hi = _COEFF_DENS
        exponents: dict[int, None] = {}
        attempts = 0
        while len(exponents) < n and attempts < 32:
            g = 1 + (bits(16) * EXPONENT_DENOMINATOR_BOUND >> 16)
            k = e_lo * g + (bits(16) * ((e_hi - e_lo) * g + 1) >> 16)
            exponents[k * (_GRID // g)] = None
            attempts += 1
        terms = []
        den = 1
        for e in exponents:
            c = (bits(16) * (2 * COEFF_BOUND) >> 16) - COEFF_BOUND
            c += c >= 0
            d = 1
            if random() < 0.25:
                d = d_lo + (bits(16) * (d_hi - d_lo + 1) >> 16)
                den = _DEN
            terms.append((e, c, d))
        # over _DEN only when some coefficient drew a denominator; _poly reduces grid and den
        return _poly(_GRID, den, sorted([(e, c * den // d) for e, c, d in terms], reverse=True))

    def nonzero_rhopoly(self, max_terms: int = MAX_TERMS) -> RhoPoly:
        return self.rhopoly(max_terms, allow_zero=False)

    def precise(self, ratio_probability: float = 0.2, allow_zero: bool = True) -> PreciseNum:
        """``ratio_probability`` is the chance of drawing a denominator, not a ratio: a
        one-term denominator, or that of a zero numerator, normalises to 1, so at 0.4
        about 15% of draws are ratios."""
        num = self.rhopoly(allow_zero=allow_zero)
        if self.rng.random() < ratio_probability:
            return PreciseNum(num, self.nonzero_rhopoly(max_terms=2))
        return _precise(num, ONE_POLY)

    def nonzero_precise(self, ratio_probability: float = 0.2) -> PreciseNum:
        return self.precise(ratio_probability, allow_zero=False)

    def positive_precise(self) -> PreciseNum:
        return abs(self.nonzero_precise())

    # -- neutrices ---------------------------------------------------------

    def neutrix(self) -> Neutrix:
        roll = self.rng.random()
        if roll < 0.15:
            return NX_ZERO
        if roll < 0.25:
            return FULL
        return self.scaled_neutrix()

    def scaled_neutrix(self) -> Neutrix:
        closed = self.rng.random() >= 0.5
        return _cut(*self._grid(*NEUTRIX_Q_RANGE), closed)

    def member_of(self, nx: Neutrix, allow_zero: bool = True) -> PreciseNum:
        """A precise element of nx, clustered near the threshold."""
        if nx == NX_ZERO:
            return PreciseNum.of(0)
        if nx == FULL:
            return self.precise() if allow_zero else self.nonzero_precise()
        if allow_zero and self.rng.random() < 0.1:
            return PreciseNum.of(0)
        j = _DROP_HALVES[nx.closed][self.integer(0, 3)]
        p = below_threshold(nx, j, *self._coefficient())
        if self.rng.random() < 0.3:
            p = p + below_threshold(nx, j + 2, *self._coefficient())
        return PreciseNum.of(p)

    # -- externals -----------------------------------------------------------

    def external(self) -> ExternalNum:
        return _canonical(self.precise(), self.neutrix())

    def zeroless(self) -> ExternalNum:
        """Rejection sampling for zeroless values, by the ``Zeroless`` domain ``zeroless_domain``."""
        for _ in range(64):
            alpha = _canonical(self.nonzero_precise(), self.neutrix())
            if zeroless_domain(alpha):
                return alpha
        raise InternalError("zeroless: 64 draws in a row were pure neutrices")

    def positive_zeroless(self) -> ExternalNum:
        return abs(self.zeroless())

    def representative_of(self, alpha: ExternalNum) -> PreciseNum:
        """A precise member of alpha: rep + group element near the threshold."""
        return alpha.rep + self.member_of(alpha.nx)

    def limited_precise(self) -> PreciseNum:
        """Nonzero precise of degree <= 0 (for shadow-field checks)."""
        num = self.nonzero_precise(ratio_probability=0.0).num
        k = num.ks[0][0]
        return PreciseNum.of(num._times_term(-k, num.grid, 1, 1) if k > 0 else num)


# --- counterexample shrinking -------------------------------------------------


def _rational_candidates(n: int, d: int) -> Iterator[tuple[int, int]]:
    """Strictly simpler rationals than the reduced ``n/d``, as reduced int pairs:
    its integer part, 0, 1, -1 and half its numerator over ``d``.  Simpler means
    a smaller ``(denominator, |numerator|)``, so greedy shrinking cannot cycle."""
    h = n // 2
    g = gcd(h, d)
    seen = {(n, d)}
    for m, e in ((n // d, 1), (0, 1), (1, 1), (-1, 1), (h // g, d // g)):
        if (m, e) not in seen and (e, abs(m)) < (d, abs(n)):
            seen.add((m, e))
            yield m, e


def _poly_candidates(p: RhoPoly) -> Iterator[RhoPoly]:
    grid, den, ks = p.grid, p.den, p.ks
    # fewer terms first
    for i in range(len(ks)):
        yield _poly(grid, den, list(ks[:i] + ks[i + 1 :]))
    # simpler exponents, then simpler coefficients, each term as the quad (k, grid, c, den)
    quads = [(k, grid, c, den) for k, c in ks]
    for i, (k, c) in enumerate(ks):
        g = gcd(k, grid)
        for e in _rational_candidates(k // g, grid // g):
            yield _sum_terms(quads[:i] + [(*e, c, den)] + quads[i + 1 :])
    for i, (k, c) in enumerate(ks):
        g = gcd(c, den)
        for c2 in _rational_candidates(c // g, den // g):
            if c2[0]:
                yield _sum_terms(quads[:i] + [(k, grid, *c2)] + quads[i + 1 :])


def _precise_candidates(x: PreciseNum) -> Iterator[PreciseNum]:
    if not x.is_polynomial():
        yield PreciseNum(x.num)
    for num2 in _poly_candidates(x.num):
        yield PreciseNum(num2, x.den)


def _neutrix_candidates(nx: Neutrix) -> Iterator[Neutrix]:
    # the key stores 0/1 at both infinities, and 0 has no simpler rational
    _, n, d, closed = nx._key
    for q in _rational_candidates(n, d):
        yield _cut(*q, closed)


def _candidates(value) -> Iterator:
    if isinstance(value, ExternalNum):
        for rep2 in _precise_candidates(value.rep):
            yield ExternalNum(rep2, value.nx)
        for nx2 in _neutrix_candidates(value.nx):
            yield ExternalNum(value.rep, nx2)
    elif isinstance(value, PreciseNum):
        yield from _precise_candidates(value)
    elif isinstance(value, Neutrix):
        yield from _neutrix_candidates(value)
    elif isinstance(value, Halfline):
        for bound2 in _candidates(value.bound):
            yield Halfline(value.side, value.kind, bound2)


def _trials(current: tuple) -> Iterator[tuple]:
    """Every single-component simplification of ``current``, in shrink order."""
    for i, value in enumerate(current):
        for candidate in _candidates(value):
            if candidate != value:
                yield current[:i] + (candidate,) + current[i + 1 :]


def shrink(values: tuple, still_fails: Callable[[tuple], bool]) -> tuple:
    """Greedy minimization: move to the first single-component simplification
    that ``still_fails`` accepts, until it accepts none.  An exception the
    predicate raises propagates."""
    current = tuple(values)
    for _ in range(SHRINK_MAX_ROUNDS):
        trial = next(filter(still_fails, _trials(current)), None)
        if trial is None:
            break
        current = trial
    return current
