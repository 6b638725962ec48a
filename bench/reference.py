"""A fixed piece of standard-library work that measures the machine's speed.

``seconds()`` times two pieces shaped like the program's hot paths: Fraction
arithmetic with tuple sorting and dict merges over a few thousand objects, and
sparse polynomial sums and products through a small class, compared by leading
term.  Nothing of solidus runs here, so no change to the program moves it,
while a slow spell of the shared machine slows it much as it slows the
workloads.  The two pieces respond to such spells a little differently, and
their sum follows the workloads more closely than either alone.  The cyclic
collector is off meanwhile, so the program's heap cannot move the reference.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

ITEMS = 2000
POLYS = 300


class _Poly:
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    @staticmethod
    def of(pairs) -> "_Poly":
        acc: dict[Fraction, Fraction] = {}
        for e, c in pairs:
            acc[e] = acc.get(e, Fraction(0)) + c
        return _Poly(tuple((e, c) for e, c in sorted(acc.items(), key=lambda t: t[0], reverse=True) if c != 0))

    def __add__(self, other: "_Poly") -> "_Poly":
        return _Poly.of(self.terms + other.terms)

    def __mul__(self, other: "_Poly") -> "_Poly":
        return _Poly.of((ea + eb, ca * cb) for ea, ca in self.terms for eb, cb in other.terms)

    def lead(self) -> tuple[Fraction, Fraction]:
        return self.terms[0] if self.terms else (Fraction(0), Fraction(0))


def _sort_merge() -> None:
    items = [(Fraction(i * 7919 % 1009, i % 97 + 1), Fraction(i % 13 - 6, i % 11 + 1), str(i)) for i in range(ITEMS)]
    items.sort()
    acc: dict[Fraction, Fraction] = {}
    for e, c, _ in items:
        acc[e] = acc.get(e, Fraction(0)) + c
    sum(c for _, c in sorted(acc.items(), key=lambda t: t[0], reverse=True))


def _poly_products() -> None:
    polys = [
        _Poly.of(
            (Fraction((i * j) % 7 - 3, j % 3 + 1), Fraction(j % 5 - 2, i % 4 + 1) or Fraction(1)) for j in range(1 + i % 4)
        )
        for i in range(POLYS)
    ]
    best = _Poly(())
    for a, b in zip(polys, polys[1:]):
        x = a * b + a
        if x.lead() > best.lead():
            best = x


def seconds() -> float:
    """Wall time of one round of the reference work."""
    gc.disable()
    try:
        t0 = perf_counter()
        _sort_merge()
        _poly_products()
        return perf_counter() - t0
    finally:
        gc.enable()
