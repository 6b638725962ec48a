"""The external order and set predicates on the full difference, kept as a test-only reference.

Before ``field._difference_lead``, ``ext_compare``, ``ext_member``,
``ext_disjoint`` and ``ext_subset`` built the difference of two
representatives as a ``PreciseNum`` (negation, a common grid, a merge and a
gcd) and asked ``nx_contains`` and ``sign`` about it.  This module is those
four functions as they were; compare them with ``solidus.external``'s.
"""

from __future__ import annotations

from solidus.field import Ordering, PreciseNum
from solidus.neutrix import nx_add, nx_contains


def ext_compare(a, b) -> Ordering:
    delta = a.rep - b.rep
    if nx_contains(nx_add(a.nx, b.nx), delta):
        return Ordering.EQ if a.nx == b.nx else Ordering.LT if a.nx < b.nx else Ordering.GT
    return Ordering(delta.sign())


def ext_member(y, alpha) -> bool:
    return nx_contains(alpha.nx, PreciseNum.of(y) - alpha.rep)


def ext_disjoint(a, b) -> bool:
    return not nx_contains(nx_add(a.nx, b.nx), a.rep - b.rep)


def ext_subset(a, b) -> bool:
    return a.nx <= b.nx and nx_contains(b.nx, a.rep - b.rep)
