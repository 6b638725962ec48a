"""Deterministic random generation of field elements, neutrices and externals.

Sampling is seeded per check id, so reports are reproducible bit for bit.  The
distributions are not dictated by anything except usefulness: exponents are
drawn on a coarse grid and group members are clustered near the neutrix
threshold, where absorption bugs live.  All knobs sit in GeneratorConfig.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .external import Classification, ExternalNum, canonicalize, classify
from .field import ONE_POLY, PreciseNum, RhoPoly
from .neutrix import (
    FULL,
    Neutrix,
    NeutrixKind,
    NX_ZERO,
    closed_cut,
    open_cut,
)


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    max_terms: int = 3
    coeff_bound: int = 9
    exponent_denominator_bound: int = 2
    exponent_range: tuple[Fraction, Fraction] = (Fraction(-2), Fraction(2))
    neutrix_q_range: tuple[Fraction, Fraction] = (Fraction(-2), Fraction(2))

    def __post_init__(self):
        if self.max_terms <= 0 or self.coeff_bound <= 0 or self.exponent_denominator_bound <= 0:
            raise ValueError("generator bounds must be positive")
        if self.exponent_range[0] > self.exponent_range[1]:
            raise ValueError("empty exponent range")
        if self.neutrix_q_range[0] > self.neutrix_q_range[1]:
            raise ValueError("empty neutrix threshold range")


def derive_seed(seed: int, label: str) -> int:
    """Stable per-label seed; crc32 rather than hash() so runs are reproducible."""
    return (seed * 0x1F1F1F1F + zlib.crc32(label.encode())) & 0xFFFFFFFFFFFFFFFF


class Sampler:
    """Random source bound to one GeneratorConfig."""

    def __init__(self, cfg: GeneratorConfig, label: str = ""):
        self.cfg = cfg
        self.rng = random.Random(derive_seed(cfg.seed, label))

    # -- scalars ---------------------------------------------------------

    def coefficient(self) -> Fraction:
        c = 0
        while c == 0:
            c = self.rng.randint(-self.cfg.coeff_bound, self.cfg.coeff_bound)
        if self.rng.random() < 0.25:
            return Fraction(c, self.rng.randint(2, 4))
        return Fraction(c)

    def _grid(self, lo: Fraction, hi: Fraction) -> Fraction:
        den = self.rng.randint(1, self.cfg.exponent_denominator_bound)
        lo_n = -(-lo.numerator * den // lo.denominator)  # ceil(lo*den)
        hi_n = hi.numerator * den // hi.denominator      # floor(hi*den)
        if lo_n > hi_n:
            return lo
        return Fraction(self.rng.randint(lo_n, hi_n), den)

    def exponent(self) -> Fraction:
        return self._grid(*self.cfg.exponent_range)

    def threshold(self) -> Fraction:
        return self._grid(*self.cfg.neutrix_q_range)

    # -- field elements ----------------------------------------------------

    def rhopoly(self, max_terms: Optional[int] = None, allow_zero: bool = True) -> RhoPoly:
        n_max = self.cfg.max_terms if max_terms is None else max_terms
        n = self.rng.randint(0 if allow_zero else 1, n_max)
        # distinct exponents, so merging never pushes coefficients past the bound
        exponents: set = set()
        attempts = 0
        while len(exponents) < n and attempts < 32:
            exponents.add(self.exponent())
            attempts += 1
        p = RhoPoly.from_terms((e, self.coefficient()) for e in exponents)
        if not allow_zero and p.is_zero():
            return RhoPoly.constant(self.coefficient())
        return p

    def nonzero_rhopoly(self, max_terms: Optional[int] = None) -> RhoPoly:
        return self.rhopoly(max_terms, allow_zero=False)

    def precise(self, ratio_probability: float = 0.2) -> PreciseNum:
        num = self.rhopoly()
        if self.rng.random() < ratio_probability:
            return PreciseNum(num, self.nonzero_rhopoly(max_terms=2))
        return PreciseNum(num)

    def nonzero_precise(self, ratio_probability: float = 0.2) -> PreciseNum:
        num = self.nonzero_rhopoly()
        if self.rng.random() < ratio_probability:
            return PreciseNum(num, self.nonzero_rhopoly(max_terms=2))
        return PreciseNum(num)

    def positive_precise(self) -> PreciseNum:
        return abs(self.nonzero_precise())

    # -- neutrices ---------------------------------------------------------

    def neutrix(self) -> Neutrix:
        roll = self.rng.random()
        if roll < 0.15:
            return NX_ZERO
        if roll < 0.25:
            return FULL
        maker = open_cut if self.rng.random() < 0.5 else closed_cut
        return maker(self.threshold())

    def scaled_neutrix(self) -> Neutrix:
        maker = open_cut if self.rng.random() < 0.5 else closed_cut
        return maker(self.threshold())

    def member_of(self, nx: Neutrix, allow_zero: bool = True) -> PreciseNum:
        """A precise element of nx, clustered near the threshold."""
        if nx.kind is NeutrixKind.ZERO:
            return PreciseNum.of(0)
        if nx.kind is NeutrixKind.FULL:
            return self.precise() if allow_zero else self.nonzero_precise()
        if allow_zero and self.rng.random() < 0.1:
            return PreciseNum.of(0)
        if nx.kind is NeutrixKind.CLOSED_CUT:
            drop = self.rng.choice([Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1)])
        else:
            drop = self.rng.choice([Fraction(1, 2), Fraction(1, 2), Fraction(1), Fraction(2)])
        lead = RhoPoly.rho_power(nx.q - drop, self.coefficient())
        tail = RhoPoly.rho_power(nx.q - drop - 1, self.coefficient()) if self.rng.random() < 0.3 else RhoPoly()
        return PreciseNum.of(lead + tail)

    # -- externals -----------------------------------------------------------

    def external(self) -> ExternalNum:
        return canonicalize(self.precise(), self.neutrix())

    def zeroless(self) -> ExternalNum:
        """Rejection sampling for zeroless values: never a pure neutrix."""
        for _ in range(64):
            alpha = canonicalize(self.nonzero_precise(), self.neutrix())
            if classify(alpha) is not Classification.PURE_NEUTRIX:
                return alpha
        # Ensure a representative with degree above any threshold we can draw.
        hi = self.cfg.neutrix_q_range[1] + 1
        return canonicalize(RhoPoly.rho_power(hi), self.neutrix())

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
            yield RhoPoly.from_terms(terms[:i] + [(e2, c)] + terms[i + 1 :])
    for i, (e, c) in enumerate(terms):
        for c2 in _fraction_candidates(c):
            if c2 != 0:
                yield RhoPoly.from_terms(terms[:i] + [(e, c2)] + terms[i + 1 :])


def _precise_candidates(x: PreciseNum) -> Iterator[PreciseNum]:
    if x.den != ONE_POLY:
        yield PreciseNum(x.num)
    for num2 in _poly_candidates(x.num):
        yield PreciseNum(num2, x.den)


def _neutrix_candidates(nx: Neutrix) -> Iterator[Neutrix]:
    if nx.kind in (NeutrixKind.OPEN_CUT, NeutrixKind.CLOSED_CUT) and nx.q != 0:
        for q2 in _fraction_candidates(nx.q):
            yield Neutrix(nx.kind, q2)


def _candidates(value) -> Iterator:
    if isinstance(value, ExternalNum):
        for rep2 in _precise_candidates(value.rep):
            yield canonicalize(rep2, value.nx)
        for nx2 in _neutrix_candidates(value.nx):
            yield canonicalize(value.rep, nx2)
    elif isinstance(value, PreciseNum):
        yield from _precise_candidates(value)
    elif isinstance(value, RhoPoly):
        yield from _poly_candidates(value)
    elif isinstance(value, Neutrix):
        yield from _neutrix_candidates(value)


def shrink(values: tuple, still_fails: Callable[[tuple], bool], max_rounds: int = 200) -> tuple:
    """Greedy minimization: keep any single-component simplification that still fails."""
    current = tuple(values)
    for _ in range(max_rounds):
        improved = False
        for i, value in enumerate(current):
            for candidate in _candidates(value):
                if candidate == value:
                    continue
                trial = current[:i] + (candidate,) + current[i + 1 :]
                try:
                    if still_fails(trial):
                        current = trial
                        improved = True
                        break
                except Exception:
                    continue
            if improved:
                break
        if not improved:
            return current
    return current
