"""Seeded REPL script for the ``repl`` workload.

The script is plain text built here with the standard library only, so the
program under test receives nothing but the lines.  It is cut into blocks of
``BLOCK_LINES`` lines; every block holds the same number of lines of each
class, in a seeded order, and the expensive classes draw their size from fixed
strata, so every block costs about the same and the latency percentiles do not
hinge on a few lucky draws.

The sizes that set a line's cost (power exponent, expansion length, chain
depth) sit at fixed points of their range with a small seeded jitter; the seed
draws the operands, signs, exponents and the order of the lines.

A line is ``(text, expected)``.  ``expected`` is the exact output the REPL must
print when the benchmark knows the answer independently of the program
(identities, a geometric sum or binomial expansion written out here, a
classification fixed by construction); otherwise it is ``None`` and the line
only has to avoid printing ``error:``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

Line = tuple[str, "str | None"]

# Per block: plain arithmetic, long expansions, integer powers, ratio chains,
# and six lines of each of the five colon commands.
PLAIN, EXPANSIONS, POWERS, CHAINS, PER_COMMAND = 40, 12, 6, 12, 6
BLOCK_LINES = PLAIN + EXPANSIONS + POWERS + CHAINS + 5 * PER_COMMAND


def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _power(e: Fraction) -> str:
    if e == 0:
        return ""
    if e == 1:
        return "rho"
    return f"rho^({_frac(e)})"


def poly_text(terms: list[tuple[Fraction, Fraction]]) -> str:
    """``sum c * rho^e`` in the REPL grammar; terms as (exponent, coefficient)."""
    out = []
    for e, c in terms:
        mag = abs(c)
        if e == 0:
            body = _frac(mag)
        elif mag == 1:
            body = _power(e)
        else:
            body = f"{_frac(mag)}*{_power(e)}"
        if not out:
            out.append(f"-{body}" if c < 0 else body)
        else:
            out.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(out) if out else "0"


def _nx_text(q: Fraction, letter: str) -> str:
    return letter if q == 0 else f"{_power(q)}*{letter}"


class _Draw:
    """Seeded draws of operands as text."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def coeff(self) -> Fraction:
        c = self.rng.choice([-9, -7, -5, -3, -2, -1, 1, 2, 3, 4, 5, 6, 8, 9])
        return Fraction(c, self.rng.randint(2, 4)) if self.rng.random() < 0.25 else Fraction(c)

    def exponent(self) -> Fraction:
        return Fraction(self.rng.randint(-4, 4), 2) if self.rng.random() < 0.5 else Fraction(self.rng.randint(-2, 2))

    def terms(self, lo: int = 1, hi: int = 3) -> list[tuple[Fraction, Fraction]]:
        exps = sorted({self.exponent() for _ in range(self.rng.randint(lo, hi))}, reverse=True)
        return [(e, self.coeff()) for e in exps]

    def precise(self) -> str:
        num = poly_text(self.terms())
        if self.rng.random() < 0.2:
            return f"({num})/({poly_text(self.terms(2, 2))})"
        return f"({num})"

    def neutrix(self) -> str:
        return _nx_text(self.exponent(), self.rng.choice("oL"))

    def external(self) -> str:
        roll = self.rng.random()
        if roll < 0.45:
            return self.precise()
        if roll < 0.5:
            return f"({self.neutrix()})"
        return f"({self.precise()} + {self.neutrix()})"

    def zeroless(self) -> str:
        """A precise polynomial, or one with an open neutrix strictly below its degree."""
        terms = self.terms()
        if self.rng.random() < 0.5:
            return f"({poly_text(terms)})"
        q = terms[0][0] - Fraction(self.rng.randint(1, 4), 2)
        return f"({poly_text(terms)} + {_nx_text(q, 'o')})"

    def natural(self) -> list[tuple[Fraction, Fraction]]:
        exps = sorted({Fraction(self.rng.randint(0, 3)) for _ in range(self.rng.randint(1, 3))}, reverse=True)
        terms = [(e, Fraction(self.rng.randint(-5, 9) or 1)) for e in exps]
        terms[0] = (terms[0][0], Fraction(self.rng.randint(1, 9)))
        return terms


def _plain(d: _Draw) -> Line:
    a, b = d.external(), d.external()
    op = d.rng.choice("+-*/")
    if op == "/":
        return f"{a} / {d.zeroless()}", None
    if d.rng.random() < 0.3:
        return f"{a} {op} {b} {d.rng.choice('+-*')} {d.external()}", None
    return f"{a} {op} {b}", None


def _geometric(k: int, m: int) -> str:
    """1/(1 + rho^(-1/k)) written out to the terms of degree >= -m."""
    return poly_text([(Fraction(-j, k), Fraction((-1) ** j)) for j in range(m * k + 1)])


def _expansion(d: _Draw, stratum: int) -> Line:
    k = 2 + 8 * stratum + d.rng.randint(0, 3)
    m = 1 + stratum % 3
    line = f"1/(1 + rho^(-1/{k})) + rho^(-{m})*o"
    if stratum % 2 == 0:
        return f"{line} = {_geometric(k, m)} + rho^(-{m})*o", "true"
    return line, None


def _power_line(d: _Draw, stratum: int) -> Line:
    n = 5 + 18 * stratum + d.rng.randint(0, 3)
    a = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1))[stratum % 4]
    e = d.rng.choice([-2, -1, 1, 2])
    base = f"({poly_text([(a, Fraction(1)), (Fraction(0), Fraction(e))])})"
    if stratum % 2 == 0:
        expansion = [(a * (n - j), Fraction(comb(n, j) * e**j)) for j in range(n + 1)]
        expansion.sort(reverse=True)
        return f"{base}^{n} = {poly_text(expansion)}", "true"
    return f"{base}^{n}", None


def _chain(d: _Draw, i: int) -> Line:
    x, r = d.precise(), f"({poly_text(d.terms(1, 2))})"
    expr = x
    for _ in range(1 + i % 6):
        expr = f"({expr}*{r})/{r}"
    if i % 2:
        return f"{expr} = {x}", "true"
    return expr, None


def _cmp(d: _Draw, i: int) -> Line:
    if i % 2:
        return f":cmp {d.external()}, {d.external()}", None
    p, q = poly_text(d.terms()), d.exponent()
    if d.rng.random() < 0.5:
        below, nx = f"{_frac(d.coeff())}*{_power(q - Fraction(1, 2)) or '1'}", _nx_text(q, "o")
    else:
        below, nx = f"{_frac(d.coeff())}*{_power(q) or '1'}", _nx_text(q, "L")
    return f":cmp {p} + {nx}, {p} + {below} + {nx}", "EQ"


def _classify(d: _Draw, i: int) -> Line:
    terms = d.terms()
    if i % 3 == 0:
        return f":classify {poly_text(terms)}", "Precise"
    if i % 3 == 1:
        q = terms[0][0] + Fraction(d.rng.randint(0, 2), 2)
        return f":classify {poly_text(terms)} + {_nx_text(q, 'L')}", "PureNeutrix"
    q = terms[0][0] - Fraction(d.rng.randint(1, 4), 2)
    return f":classify {poly_text(terms)} + {_nx_text(q, d.rng.choice('oL'))}", "ZerolessNonPrecise"


def _nat(d: _Draw, i: int) -> Line:
    if i % 2:
        return f":nat {d.external()}", None
    n1, n2 = poly_text(d.natural()), poly_text(d.natural())
    if i % 4:
        return f":nat ({n1})*({n2})/({n2})", "true"
    return f":nat ({n1})*({n2})", "true"


def _arch(d: _Draw, i: int) -> Line:
    a = Fraction(d.rng.randint(-4, 0), 2)
    b = a + Fraction(d.rng.randint(1, 6), 2)
    x = f"{_frac(abs(d.coeff()))}*{_power(a) or '1'}"
    y = f"{_frac(abs(d.coeff()))}*{_power(b) or '1'} + {_nx_text(b - 1, d.rng.choice('oL'))}"
    return f":arch {x}, {y}", None


def _zup(d: _Draw, i: int) -> Line:
    return ":zup " + ", ".join(d.external() for _ in range(d.rng.randint(2, 4))), None


def block(seed: int, index: int) -> list[Line]:
    """Block ``index`` of the script for ``seed``: BLOCK_LINES lines in a seeded order."""
    d = _Draw(random.Random(f"solidus-repl:{seed}:{index}"))
    lines = [_plain(d) for _ in range(PLAIN)]
    lines += [_expansion(d, j) for j in range(EXPANSIONS)]
    lines += [_power_line(d, j) for j in range(POWERS)]
    lines += [_chain(d, j) for j in range(CHAINS)]
    for command in (_cmp, _classify, _nat, _arch, _zup):
        lines += [command(d, j) for j in range(PER_COMMAND)]
    d.rng.shuffle(lines)
    return lines
