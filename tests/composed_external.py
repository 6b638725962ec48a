"""External products, inverses and unities by the old composition, kept as a test-only reference.

Before ``neutrix.nx_product``, the magnitude of ``(a + A)(b + B)`` was
composed of three magnitudes, ``nx_add(nx_add(nx_scale(a, B), nx_scale(b, A)),
nx_mul(A, B))``, each built as a ``Neutrix``, and the product went through the
canonicalizing constructor again.  ``ext_inv`` and ``unity`` built the ratio
``1/rep^2`` or ``1/rep`` only to scale the neutrix by its degree, and the
truncation of a polynomial representative listed every term it kept.  This
module is that code as it was, ``nx_scale`` and ``nx_mul`` included, so that
it shares no magnitude product with ``solidus``; compare its results with
``solidus``'s field for field.  Every operation takes the general path: there
is no shortcut for precise operands.
"""

from __future__ import annotations

from solidus.errors import NotZerolessError
from solidus.external import ExternalNum, _external, is_zeroless
from solidus.field import ONE_POLY, PRECISE_ZERO, PreciseNum, _long_division, _poly, _precise
from solidus.neutrix import FULL, NX_ZERO, _cut, nx_add


def nx_mul(a, b):
    r, n, d, c = a._key
    r2, n2, d2, c2 = b._key
    if r < 0 or r2 < 0:
        return NX_ZERO
    if r or r2:
        return FULL
    return _cut(n * d2 + n2 * d, d * d2, c and c2)


def nx_scale(p, a):
    p = PreciseNum.of(p)
    if p.is_zero():
        return NX_ZERO
    rank, n, d, closed = a._key
    if rank:  # the cuts at infinity are fixed by every nonzero scalar
        return a
    num = p.num
    return _cut(n * num.grid + num.ks[0][0] * d, d * num.grid, closed)


def expand(x, n, d, strict):
    """``field._expand`` with the full list of kept terms."""
    if x.is_polynomial():
        p = x.num
        bound = n * p.grid
        keep = [kc for kc in p.ks if (kc[0] * d > bound if strict else kc[0] * d >= bound)]
        return p if len(keep) == len(p.ks) else _poly(p.grid, p.den, keep)
    return _long_division(x.num, x.den, n, d, strict)[0]


def canonicalize(rep, nx=NX_ZERO) -> ExternalNum:
    rep = PreciseNum.of(rep)
    rank, n, d, closed = nx._key
    if rank > 0:
        rep = PRECISE_ZERO
    elif not rank:
        rep = _precise(expand(rep, n, d, closed), ONE_POLY)
    return _external(rep, nx)


def as_external(value) -> ExternalNum:
    return value if isinstance(value, ExternalNum) else canonicalize(value)


def add(x, y) -> ExternalNum:
    x, y = as_external(x), as_external(y)
    return canonicalize(x.rep + y.rep, nx_add(x.nx, y.nx))


def sub(x, y) -> ExternalNum:
    y = as_external(y)
    return add(x, _external(-y.rep, y.nx))


def mul(x, y) -> ExternalNum:
    x, y = as_external(x), as_external(y)
    nx = nx_add(nx_add(nx_scale(x.rep, y.nx), nx_scale(y.rep, x.nx)), nx_mul(x.nx, y.nx))
    return canonicalize(x.rep * y.rep, nx)


def ext_inv(b) -> ExternalNum:
    if not is_zeroless(b):
        raise NotZerolessError(f"{b} contains 0 and has no inverse")
    inv_rep = 1 / b.rep
    return canonicalize(inv_rep, nx_scale(inv_rep * inv_rep, b.nx))


def unity(alpha) -> ExternalNum:
    if not is_zeroless(alpha):
        raise NotZerolessError(f"{alpha} contains 0 and has no unity")
    return canonicalize(1, nx_scale(1 / alpha.rep, alpha.nx))
