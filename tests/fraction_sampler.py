"""The random generator on ``Fraction``s, kept as a test-only reference.

Before ``generate.Sampler`` drew on int pairs, it built each coefficient,
exponent and threshold as a ``Fraction``, drew integers with
``random.randint`` and ``random.choice``, collected a polynomial's distinct
exponents in a set of ``Fraction``s and built the result through
``RhoPoly(terms)``, ``RhoPoly.rho_power``, ``open_cut`` and ``closed_cut``.
This module is that sampler.  It shares no drawing code with
``solidus.generate`` (only the per-label seed and the bounds); compare its
values with the new sampler's, draw by draw, from the same seed and label.
"""

from __future__ import annotations

import random
from fractions import Fraction

from solidus.external import Classification, ExternalNum, classify
from solidus.field import PreciseNum, RhoPoly
from solidus.generate import (
    COEFF_BOUND,
    EXPONENT_DENOMINATOR_BOUND,
    EXPONENT_RANGE,
    MAX_TERMS,
    NEUTRIX_Q_RANGE,
    GeneratorConfig,
    derive_seed,
)
from solidus.neutrix import FULL, NX_ZERO, Neutrix, closed_cut, open_cut


class FractionSampler:
    def __init__(self, cfg: GeneratorConfig, label: str = ""):
        self.rng = random.Random(derive_seed(cfg.seed, label))

    def coefficient(self) -> Fraction:
        c = 0
        while c == 0:
            c = self.rng.randint(-COEFF_BOUND, COEFF_BOUND)
        if self.rng.random() < 0.25:
            return Fraction(c, self.rng.randint(2, 4))
        return Fraction(c)

    def _grid(self, lo: int, hi: int) -> Fraction:
        den = self.rng.randint(1, EXPONENT_DENOMINATOR_BOUND)
        return Fraction(self.rng.randint(lo * den, hi * den), den)

    def exponent(self) -> Fraction:
        return self._grid(*EXPONENT_RANGE)

    def threshold(self) -> Fraction:
        return self._grid(*NEUTRIX_Q_RANGE)

    def rhopoly(self, max_terms: int = MAX_TERMS, allow_zero: bool = True) -> RhoPoly:
        n = self.rng.randint(0 if allow_zero else 1, max_terms)
        exponents: set = set()
        attempts = 0
        while len(exponents) < n and attempts < 32:
            exponents.add(self.exponent())
            attempts += 1
        p = RhoPoly((e, self.coefficient()) for e in exponents)
        if not allow_zero and p.is_zero():
            return RhoPoly.constant(self.coefficient())
        return p

    def nonzero_rhopoly(self, max_terms: int = MAX_TERMS) -> RhoPoly:
        return self.rhopoly(max_terms, allow_zero=False)

    def precise(self, ratio_probability: float = 0.2, allow_zero: bool = True) -> PreciseNum:
        num = self.rhopoly(allow_zero=allow_zero)
        if self.rng.random() < ratio_probability:
            return PreciseNum(num, self.nonzero_rhopoly(max_terms=2))
        return PreciseNum(num)

    def nonzero_precise(self, ratio_probability: float = 0.2) -> PreciseNum:
        return self.precise(ratio_probability, allow_zero=False)

    def neutrix(self) -> Neutrix:
        roll = self.rng.random()
        if roll < 0.15:
            return NX_ZERO
        if roll < 0.25:
            return FULL
        return self.scaled_neutrix()

    def scaled_neutrix(self) -> Neutrix:
        maker = open_cut if self.rng.random() < 0.5 else closed_cut
        return maker(self.threshold())

    def member_of(self, nx: Neutrix, allow_zero: bool = True) -> PreciseNum:
        if nx == NX_ZERO:
            return PreciseNum.of(0)
        if nx == FULL:
            return self.precise() if allow_zero else self.nonzero_precise()
        if allow_zero and self.rng.random() < 0.1:
            return PreciseNum.of(0)
        if nx.closed:
            drop = self.rng.choice([Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1)])
        else:
            drop = self.rng.choice([Fraction(1, 2), Fraction(1, 2), Fraction(1), Fraction(2)])
        lead = RhoPoly.rho_power(nx.q - drop, self.coefficient())
        tail = RhoPoly.rho_power(nx.q - drop - 1, self.coefficient()) if self.rng.random() < 0.3 else RhoPoly()
        return PreciseNum.of(lead + tail)

    def external(self) -> ExternalNum:
        return ExternalNum(self.precise(), self.neutrix())

    def zeroless(self) -> ExternalNum:
        for _ in range(64):
            alpha = ExternalNum(self.nonzero_precise(), self.neutrix())
            if classify(alpha) is not Classification.PURE_NEUTRIX:
                return alpha
        hi = NEUTRIX_Q_RANGE[1] + 1
        return ExternalNum(RhoPoly.rho_power(hi), self.neutrix())

    def limited_precise(self) -> PreciseNum:
        x = self.nonzero_precise(ratio_probability=0.0)
        d = x.degree()
        if d > 0:
            x = x * PreciseNum.of(RhoPoly.rho_power(-d))
        return x
