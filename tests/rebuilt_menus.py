"""Three verdicts as they were before their loop-invariant work was hoisted, kept as a test-only reference.

``thm.subdistributivity`` built ``y``'s representative menu once per member
of ``x`` and ``z``'s once per pair; ``minkowski_escapes`` built ``beta``'s menu
once per member of ``alpha`` and both menus in full before keeping the first
``k`` pairs; ``_representative_menu`` summed the whole member menu before
slicing it; and ``axiom.scheme.dedekind`` asked ``hl_member`` about every
point inside its members-by-points loop and again in the complement loop.
This module is that code as it was; compare its messages, and its escaping
triples, with ``solidus.checks``'s for equality.  It imports ``ext_member``
and ``hl_member`` into its own namespace, so a test that patches them must
patch them here as well as in ``solidus.checks``.
"""

from __future__ import annotations

from solidus.checks import _member_menu, _probe_points
from solidus.errors import DegenerateDomainError
from solidus.external import ext_member
from solidus.halfline import HalflineKind, hl_complement, hl_member, zup


def _representative_menu(alpha, k=None):
    menu = [alpha.rep + g for g in _member_menu(alpha.nx)]
    return menu if k is None else menu[:k]


def _v_scheme_dedekind(h):
    b = zup(h)
    points = _probe_points(b)
    in_bound = hl_member(h, b)
    if h.kind is HalflineKind.CLOSED and not in_bound:
        return "closed halfline misses its maximum"
    if h.kind is not HalflineKind.CLOSED and in_bound:
        return f"{h.kind.value} halfline contains its weak bound"
    members = [x for x in points if hl_member(h, x)]
    for x in members:
        for y in points:
            if y < x and not hl_member(h, y):
                return f"not downward closed: {y} < member {x}"
    try:
        comp = hl_complement(h)
    except DegenerateDomainError:  # the full domain has no complement; any other error fails
        return None
    for x in points:
        if hl_member(h, x) == hl_member(comp, x):
            return f"complement fails to partition at {x}"
    return None


def _v_thm_subdistributivity(x, y, z):
    target = x * y + x * z
    for a in _representative_menu(x, 3):
        for b in _representative_menu(y, 3):
            for c in _representative_menu(z, 3):
                if not ext_member(a * (b + c), target):
                    return f"{a}*({b} + {c}) escapes x*y + x*z = {target}"
    return None


def minkowski_escapes(alpha, beta, ext_op, op, k):
    if k < 1:
        raise ValueError("need at least one representative")
    result = ext_op(alpha, beta)
    pairs = [(x, y) for x in _representative_menu(alpha) for y in _representative_menu(beta)][:k]
    values = [(x, y, op(x, y)) for x, y in pairs]
    return [(x, y, v) for x, y, v in values if not ext_member(v, result)]
