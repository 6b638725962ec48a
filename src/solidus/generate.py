"""Deterministic random generation of field elements, neutrices and externals.

Sampling is seeded per check id, so reports are reproducible bit for bit.  The
distributions are not dictated by anything except usefulness: exponents are
drawn on a coarse grid and group members are clustered near the neutrix
threshold, where absorption bugs live.  The bounds are module constants;
GeneratorConfig carries only the seed.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .external import Classification, ExternalNum, classify
from .field import PreciseNum, RhoPoly
from .neutrix import (
    FULL,
    Neutrix,
    NX_ZERO,
    closed_cut,
    open_cut,
)


MAX_TERMS = 3
COEFF_BOUND = 9
EXPONENT_DENOMINATOR_BOUND = 2
EXPONENT_RANGE = (-2, 2)
NEUTRIX_Q_RANGE = (-2, 2)
SHRINK_MAX_ROUNDS = 200


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0


def derive_seed(seed: int, label: str) -> int:
    """Stable per-label seed; crc32 rather than hash() so runs are reproducible."""
    return (seed * 0x1F1F1F1F + zlib.crc32(label.encode())) & 0xFFFFFFFFFFFFFFFF


class Sampler:
    """Random source seeded from one GeneratorConfig and a label."""

    def __init__(self, cfg: GeneratorConfig, label: str = ""):
        self.rng = random.Random(derive_seed(cfg.seed, label))

    # -- scalars ---------------------------------------------------------

    def coefficient(self) -> Fraction:
        c = 0
        while c == 0:
            c = self.rng.randint(-COEFF_BOUND, COEFF_BOUND)
        if self.rng.random() < 0.25:
            return Fraction(c, self.rng.randint(2, 4))
        return Fraction(c)

    def _grid(self, lo: int, hi: int) -> Fraction:
        """A multiple of 1/den in [lo, hi], den drawn up to the denominator bound."""
        den = self.rng.randint(1, EXPONENT_DENOMINATOR_BOUND)
        return Fraction(self.rng.randint(lo * den, hi * den), den)

    def exponent(self) -> Fraction:
        return self._grid(*EXPONENT_RANGE)

    def threshold(self) -> Fraction:
        return self._grid(*NEUTRIX_Q_RANGE)

    # -- field elements ----------------------------------------------------

    def rhopoly(self, max_terms: int = MAX_TERMS, allow_zero: bool = True) -> RhoPoly:
        n = self.rng.randint(0 if allow_zero else 1, max_terms)
        # distinct exponents, so merging never pushes coefficients past the bound
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
        maker = open_cut if self.rng.random() < 0.5 else closed_cut
        return maker(self.threshold())

    def member_of(self, nx: Neutrix, allow_zero: bool = True) -> PreciseNum:
        """A precise element of nx, clustered near the threshold."""
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

    # -- externals -----------------------------------------------------------

    def external(self) -> ExternalNum:
        return ExternalNum(self.precise(), self.neutrix())

    def zeroless(self) -> ExternalNum:
        """Rejection sampling for zeroless values: never a pure neutrix."""
        for _ in range(64):
            alpha = ExternalNum(self.nonzero_precise(), self.neutrix())
            if classify(alpha) is not Classification.PURE_NEUTRIX:
                return alpha
        # Ensure a representative with degree above any threshold we can draw.
        hi = NEUTRIX_Q_RANGE[1] + 1
        return ExternalNum(RhoPoly.rho_power(hi), self.neutrix())

    def positive_zeroless(self) -> ExternalNum:
        return abs(self.zeroless())

    def representative_of(self, alpha: ExternalNum) -> PreciseNum:
        """A precise member of alpha: rep + group element near the threshold."""
        return alpha.rep + self.member_of(alpha.nx)

    def limited_precise(self) -> PreciseNum:
        """Nonzero precise of degree <= 0 (for shadow-field checks)."""
        x = self.nonzero_precise(ratio_probability=0.0)
        d = x.degree()
        if d > 0:
            x = x * PreciseNum.of(RhoPoly.rho_power(-d))
        return x


# --- counterexample shrinking -------------------------------------------------


def _complexity(x: Fraction) -> tuple[int, int]:
    return (x.denominator, abs(x.numerator))


def _fraction_candidates(x: Fraction) -> Iterator[Fraction]:
    # every candidate is strictly simpler, so greedy shrinking cannot cycle
    seen = {x}
    for candidate in (
        Fraction(x.numerator // x.denominator),
        Fraction(0),
        Fraction(1),
        Fraction(-1),
        Fraction(x.numerator // 2, x.denominator),
    ):
        if candidate not in seen and _complexity(candidate) < _complexity(x):
            seen.add(candidate)
            yield candidate


def _poly_candidates(p: RhoPoly) -> Iterator[RhoPoly]:
    terms = list(p.terms)
    # fewer terms first
    for i in range(len(terms)):
        yield RhoPoly(tuple(terms[:i] + terms[i + 1 :]))
    # simpler exponents, then simpler coefficients
    for i, (e, c) in enumerate(terms):
        for e2 in _fraction_candidates(e):
            yield RhoPoly(terms[:i] + [(e2, c)] + terms[i + 1 :])
    for i, (e, c) in enumerate(terms):
        for c2 in _fraction_candidates(c):
            if c2 != 0:
                yield RhoPoly(terms[:i] + [(e, c2)] + terms[i + 1 :])


def _precise_candidates(x: PreciseNum) -> Iterator[PreciseNum]:
    if not x.is_polynomial():
        yield PreciseNum(x.num)
    for num2 in _poly_candidates(x.num):
        yield PreciseNum(num2, x.den)


def _neutrix_candidates(nx: Neutrix) -> Iterator[Neutrix]:
    if nx not in (NX_ZERO, FULL) and nx.q != 0:
        for q2 in _fraction_candidates(nx.q):
            yield Neutrix(q2, nx.closed)


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


def _trials(current: tuple) -> Iterator[tuple]:
    """Every single-component simplification of ``current``, in shrink order."""
    for i, value in enumerate(current):
        for candidate in _candidates(value):
            if candidate != value:
                yield current[:i] + (candidate,) + current[i + 1 :]


def shrink(values: tuple, still_fails: Callable[[tuple], bool]) -> tuple:
    """Greedy minimization: keep any single-component simplification that still fails."""
    current = tuple(values)
    for _ in range(SHRINK_MAX_ROUNDS):
        for trial in _trials(current):
            try:
                if still_fails(trial):
                    current = trial
                    break
            except Exception:
                continue
        else:
            return current
    return current
