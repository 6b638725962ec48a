"""Tests for the surface syntax, evaluator, REPL commands and exit codes."""

import hashlib
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

import descent_parser
import solidus.field
import solidus.parser
from solidus.cli import main, run_command
from solidus.errors import NotZerolessError, ParseError, ResourceLimitError, SolidusError
from solidus.external import canonicalize, ext_compare, ext_inv, ext_mul, is_zeroless, pure, render_external
from solidus.field import Ordering, RhoPoly, digit_limit
from solidus.generate import GeneratorConfig, Sampler
from solidus.neutrix import INFINITESIMALS, closed_cut
from solidus.parser import BinOp, Cmp, Lit, Pow, Sym, Unary, _integer_power, eval_text, evaluate, parse, parse_expr_list, tokenize
from test_imports import imported_modules

rp = RhoPoly.rho_power
BENCH = Path(__file__).resolve().parent.parent / "bench"


class TestParse:
    def test_tree_shape(self):
        tree = parse("(3 + o) * rho^(1/2)")
        assert isinstance(tree, BinOp) and tree.op == "*"
        assert isinstance(tree.left, BinOp) and tree.left.op == "+"
        assert isinstance(tree.left.left, Lit) and tree.left.left.value == 3
        assert type(tree.left.left.value) is int  # a literal builds no Fraction
        assert isinstance(tree.left.right, Sym) and tree.left.right.name == "o"
        assert isinstance(tree.right, Pow) and tree.right.exponent == (1, 2)  # the reduced int pair

    def test_function_application(self):
        tree = parse("e(rho + L)")
        assert isinstance(tree, Unary) and tree.op == "e"
        assert isinstance(tree.arg, BinOp)

    def test_incomplete_power(self):
        with pytest.raises(ParseError) as err:
            parse("rho^")
        assert err.value.column == 5

    def test_error_positions_inside_token(self):
        cases = {
            "1 + $": 5,
            "foo(1)": 1,
            "(1 + 2": 7,
            "rho^(1/0)": 8,
            "1 2": 3,
        }
        for text, col in cases.items():
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.column == col, text

    def test_ascii_only(self):
        # '²' and '٣' are digits to str.isdigit but not to the grammar
        cases = {"²": 1, "1²": 2, "1 + ٣": 5, "rhoé": 4, "é": 1}
        for text, col in cases.items():
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.column == col, text
            assert run_command(text).startswith("error: unexpected character"), text

    def test_comparison_nodes(self):
        tree = parse("1 + o <= 1 + L")
        assert isinstance(tree, Cmp) and tree.op == "<="

    def test_bare_and_parenthesized_integer_exponents(self):
        assert eval_text("rho^2") == eval_text("rho^(2)")
        assert eval_text("rho^(-2)") == eval_text("1/rho^2")


# every error the parser and evaluator raise, with its column; a rewrite of the
# parser must keep each text and column
ERROR_TABLE = [
    ("1 + $", "unexpected character '$'", 5),
    ("1 + ²", "unexpected character '²'", 5),
    ("1 + １", "unexpected character '１'", 5),
    ("1 + ρ", "unexpected character 'ρ'", 5),
    ("rho^(1/0)", "expected a positive integer denominator", 8),
    ("rho^(1/x)", "expected a positive integer denominator", 8),
    ("rho^(x)", "expected an integer", 6),
    ("rho^(-)", "expected an integer", 7),
    ("rho^x", "expected '('", 5),
    ("e 1", "expected '('", 3),
    ("foo(1)", "unknown identifier 'foo'", 1),
    ("(1 + 2", "expected ')'", 7),
    ("1 2", "unexpected '2'", 3),
    ("1 < 2 < 3", "unexpected '<'", 7),
    ("1 +", "expected a value", 4),
    ("o^(1/2)", "power base must be a pure power of rho", 2),
]


class TestErrorTable:
    @pytest.mark.parametrize("text, message, column", ERROR_TABLE)
    def test_error_text_and_column(self, text, message, column):
        assert run_command(text) == f"error: {message} (column {column})"

    def test_trees_only_a_library_caller_builds(self):
        with pytest.raises(ParseError) as err:
            evaluate(BinOp("+", Cmp("<", Lit(1, 1), Lit(2, 5), 3), Lit(1, 9), 7))
        assert (str(err.value), err.value.column) == ("comparison used as a value", 3)
        with pytest.raises(ParseError) as err:
            evaluate(object())
        assert (str(err.value), err.value.column) == ("unknown expression node", 1)


_WORDS = ["rho", "o", "L", "M", "e", "u", "inv", "abs", "shadow", "(", ")", "+", "-", "*", "/", "^"]
_WORDS += ["=", "<", "<=", ",", "0", "1", "2", "3", "12"]
_JUNK = ["$", "é", "²", "?", "x", "foo", "\t", "."]
_COMMAND_WORDS = ["", "", "", ":cmp", ":classify", ":zup", ":nat", ":arch", ":help", ":quit", ":wibble"]


def _junk_expr(rng: random.Random, depth: int) -> list[str]:
    roll = rng.random() if depth else 0
    if roll < 0.4:
        return [rng.choice(["rho", "o", "L", "M", "0", "1", "2", "3", "12"])]
    if roll < 0.65:
        return _junk_expr(rng, depth - 1) + [rng.choice("+-*/")] + _junk_expr(rng, depth - 1)
    if roll < 0.75:
        return [rng.choice(["e", "u", "inv", "abs", "shadow", ""]), "("] + _junk_expr(rng, depth - 1) + [")"]
    if roll < 0.85:
        exponent = rng.choice(
            [
                [str(rng.randint(0, 6))],
                ["(", "-", str(rng.randint(1, 6)), ")"],
                ["(", str(rng.randint(-6, 6)), "/", str(rng.randint(0, 7)), ")"],
            ]
        )
        return _junk_expr(rng, 0) + ["^"] + exponent
    if roll < 0.9:
        return ["-"] + _junk_expr(rng, depth - 1)
    return _junk_expr(rng, depth - 1) + [rng.choice(["=", "<", "<=", ","])] + _junk_expr(rng, depth - 1)


def junk_lines(seed: int, count: int) -> list[str]:
    """Seeded lines: grammar expressions with up to two words replaced, inserted
    or deleted, some behind a command word; about half of them are errors."""
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        words = [word for word in _junk_expr(rng, 3) if word]
        for _ in range(rng.choice([0, 0, 1, 2])):
            i = rng.randrange(len(words) + 1)
            word = rng.choice(_JUNK if rng.random() < 0.3 else _WORDS)
            kind = rng.randrange(3)
            if kind == 0 and i < len(words):
                words[i] = word
            elif kind == 1:
                words.insert(i, word)
            elif i < len(words) and len(words) > 1:
                del words[i]
        line = "".join(word + rng.choice(["", "", " "]) for word in words)
        if rng.random() < 0.4:
            line = (rng.choice(["", "  "]) + rng.choice(_COMMAND_WORDS) + " " + line).rstrip()
        lines.append(line)
    return lines


def test_junk_lines_output_pinned():
    # the standing guard on every error text and column: a change of any
    # output line, value or error, changes the digest
    lines = junk_lines(8, 5000)
    text = "\n".join(f"{line}\t{run_command(line)}" for line in lines)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "60d4825ee89d74e2a07a9e179fa4a8f02205ae71451a3c6c8942fc067ee7dd99"


def _per_match_tokens(source: str, start: int = 0):
    """The tokenizer as one loop over the matches, checking each: the reference
    for ``parser.tokenize``, as tokens or as the first error's text and column."""
    tokens, limit = [], digit_limit()
    for match in solidus.parser._TOKEN.finditer(source):
        kind, text, column = match.lastgroup, match.group(), start + match.start() + 1
        if kind == "bad":
            return (f"unexpected character {text!r}", column)
        if kind == "int" and limit and len(text) > limit:
            return (f"integer literal longer than {limit} digits", column)
        if kind:
            tokens.append((kind, text, column))
    return tokens + [("end", "", start + len(source) + 1)]


def _tokens(source: str, start: int = 0):
    try:
        return tokenize(source, start)
    except ParseError as exc:
        return (str(exc), exc.column)


def bench_lines() -> list[str]:
    """The lines of bench/script.py blocks 0-2 at seeds 1 and 7."""
    sys.path.insert(0, str(BENCH))
    try:
        import script
    finally:
        sys.path.remove(str(BENCH))
    return [text for seed in (1, 7) for i in range(3) for text, _ in script.block(seed, i)]


class TestTokenizer:
    # a superscript digit, a fullwidth digit and a Greek letter are not ASCII tokens
    BAD = ["²", "１", "ρ", "$", "é", "?"]
    BLANKS = ["\xa0", "\u2003", "\u3000", "\t"]

    @pytest.mark.skipif(not digit_limit(), reason="this interpreter has no int/str digit limit")
    @pytest.mark.parametrize("bad", BAD)
    def test_the_first_error_wins(self, bad):
        long = "7" * (digit_limit() + 1)
        too_long = f"integer literal longer than {digit_limit()} digits"
        assert _tokens(f"1 + {bad} + {long}") == (f"unexpected character {bad!r}", 5)
        assert _tokens(f"1 + {long} + {bad}") == (too_long, 5)
        # digits after a letter belong to a name: no literal, so the bad character is the error
        assert _tokens(f"rho{long} {bad}", 3) == (f"unexpected character {bad!r}", 3 + len(f"rho{long} ") + 1)
        for line in (f"1 + {bad} + {long}", f"1 + {long} + {bad}", f"{long}{bad}", f"{bad}{long}"):
            assert _tokens(line, 2) == _per_match_tokens(line, 2), line

    @pytest.mark.parametrize("blank", BLANKS)
    def test_unicode_blanks_separate_tokens(self, blank):
        line = f"1{blank}+{blank}rho"
        assert _tokens(line) == [("int", "1", 1), ("op", "+", 3), ("name", "rho", 5), ("end", "", 8)]
        assert run_command(line) == "rho + 1"

    def test_junk_and_bench_lines_tokenize_as_the_per_match_loop(self):
        lines = junk_lines(8, 5000) + bench_lines()
        errors = 0
        for i, line in enumerate(lines):
            want = _per_match_tokens(line, i % 3)
            assert _tokens(line, i % 3) == want, line
            errors += isinstance(want, tuple)
        assert errors > 100


class TestDescentReference:
    """The precedence-climbing parser builds the recursive-descent parser's trees
    (``descent_parser``): each node's class, fields and position, an exponent's
    reduced pair against its ``Fraction``, and each error's text and column."""

    def test_the_nodes_keep_their_fields(self):
        for cls in (Lit, Sym, Unary, BinOp, Pow, Cmp):
            assert cls._fields == descent_parser.FIELDS[cls.__name__]

    def test_junk_and_bench_lines_parse_as_the_descent_parser(self):
        junk = junk_lines(8, 5000)
        outcomes = [descent_parser.compare(line, i % 3) for i, line in enumerate(junk + bench_lines())]
        errors = sum(old[0] == "ParseError" for old in outcomes)
        assert errors > 1000 and len(outcomes) - errors > 2000
        # some exponents are written unreduced, as (2/4) or (-6/3)
        exponents = [(int(n), int(d)) for line in junk for n, d in re.findall(r"\^\(-?(\d+)/(\d+)\)", line)]
        assert any(gcd(n, d) > 1 for n, d in exponents)

    def test_parsing_the_bench_lines_builds_no_fraction(self, fraction_calls):
        lines = bench_lines()
        fraction_calls.clear()
        for line in lines:
            if line.startswith(":"):
                parse_expr_list(line.partition(" ")[2])
            else:
                parse(line)
        assert fraction_calls == []

    def test_the_parser_imports_nothing_from_fractions(self):
        # no module of the package imports dataclasses (tests/test_imports.py)
        assert "fractions" not in imported_modules(Path(solidus.parser.__file__).read_text())


class TestEval:
    def test_series_absorption(self):
        assert eval_text("1/(1 - 1/rho) + o") == canonicalize(1, INFINITESIMALS)

    def test_magnitude_of_precise(self):
        assert eval_text("e(5)") == canonicalize(0)

    def test_unity(self):
        assert eval_text("u(rho + L)") == canonicalize(rp(-1) * rp(1), closed_cut(-1))

    def test_symbols(self):
        assert eval_text("o") == pure(INFINITESIMALS)
        assert eval_text("M") == eval_text("rho^(5)*M")

    def test_scaled_neutrix_expression(self):
        assert eval_text("rho^(2)*L") == pure(closed_cut(2))

    def test_fractional_power_requires_pure_rho_power(self):
        assert eval_text("(rho^2*rho)^(1/3)") == eval_text("rho")
        assert eval_text("(1/rho)^(1/2)") == eval_text("rho^(-1/2)")
        # the error line carries the column of the '^'
        assert run_command("(2*rho)^(1/2)") == "error: power base must be a pure power of rho (column 8)"
        assert run_command("(1+o)^(1/2)") == "error: power base must be a pure power of rho (column 6)"

    def test_a_pure_power_of_rho_takes_any_exponent_in_one_step(self, monkeypatch):
        # rho^(k/g)^n renders as the repeated product gives it, without computing one
        bases = {F(k, g) for k in range(-6, 7) for g in (1, 2, 3, 7)}
        expected = {(q, n): str(_integer_power(eval_text(f"rho^({q})"), n)) for q in bases for n in range(-12, 13)}
        monkeypatch.setattr(solidus.parser, "_integer_power", None)
        for (q, n), text in expected.items():
            assert str(eval_text(f"(rho^({q}))^({n})")) == text, (q, n)

    def test_integer_power_of_general_values(self):
        assert eval_text("(1 + 1/rho)^2") == eval_text("1 + 2/rho + 1/rho^2")
        assert eval_text("(rho + 1)^(-1)") == eval_text("1/(rho + 1)")

    def test_power_by_squaring_matches_repeated_product(self):
        # str, not only ==: a representative over a ZERO neutrix is kept as a ratio
        sampler = Sampler(GeneratorConfig(seed=9), "power-reference")
        values = [sampler.external() for _ in range(24)]
        values += [canonicalize(sampler.precise(ratio_probability=1)) for _ in range(4)]
        assert {str(x.nx)[-1] for x in values} == set("0oLM")
        assert any(not x.rep.is_polynomial() for x in values)
        for x in values:
            runs = [(x, 24, 1)] + ([(ext_inv(x), 4, -1)] if is_zeroless(x) else [])
            for base, top, sign in runs:
                power = canonicalize(1)  # the left-to-right product, one factor per step
                for k in range(top + 1):
                    assert str(_integer_power(x, sign * k)) == str(power), (str(x), sign * k)
                    power = ext_mul(power, base)

    def test_comparisons_evaluate_to_bool(self):
        assert eval_text("o < L") is True
        assert eval_text("1 + o = 1 + o") is True
        assert eval_text("L <= o") is False

    def test_division_by_pure_neutrix_reported(self):
        out = run_command("1/(0*L + L)")
        assert "error" in out and "0" in out
        # a negative power inverts its base, and the error line carries the column of the '^'
        assert run_command("o^(-1)") == "error: o contains 0 and has no inverse (column 2)"
        assert run_command("(0*L+L)^(-3)") == "error: L contains 0 and has no inverse (column 8)"


def _outcome(evaluator, text: str) -> str:
    """The REPL's line for ``text`` under ``evaluator``: the canonical form, or the error with its column."""
    try:
        value = evaluator(parse(text))
    except SolidusError as exc:
        return f"error: {type(exc).__name__}: {exc} (column {exc.column})"
    return str(value).lower() if isinstance(value, bool) else render_external(value)


def _folded(expr):
    """The '+'/'-' chain ``expr``: each term evaluated, then folded with ExternalNum's own
    ``+`` and ``-`` from the left, an error taking the column of its operator."""
    nodes = []
    while isinstance(expr, BinOp) and expr.op in "+-":
        nodes.append(expr)
        expr = expr.left
    total = evaluate(expr)
    for node in reversed(nodes):
        term = evaluate(node.right)
        try:
            total = total + term if node.op == "+" else total - term
        except SolidusError as exc:
            exc.column = node.pos
            raise
    return total


class TestOnePassSum:
    """A '+'/'-' chain is summed in one pass, and must print the line of ``_folded``,
    its terms folded with ExternalNum's own operators; fixed chains print literal lines."""

    POLYS = ("7", "1/3", "rho", "-2*rho^(1/2)", "3/4*rho^(2/3)", "rho^(-1/5)", "5/6*rho^(-3/7)", "-rho^2", "2*rho^(-1)")
    NEUTRICES = ("o", "L", "M", "rho^(-2)*o", "rho^(1/2)*L", "rho*o", "rho^(-1/3)*L", "(3 + rho^(-1)*o)")
    # the second has a polynomial value over a two-term denominator, and the last
    # cancels it: a partial sum of zero resets the fold's denominator to 1
    RATIOS = ("1/(1+rho^(-1))", "(rho^2-1)/(rho-1)", "(2*rho+1)/(rho^(1/2)-3)", "rho/(rho + 1/2)", "1/(rho^(1/3) + 2)")
    RATIOS += ("(rho^2-1)/(rho-1) - rho - 1",)
    ERRORS = ("1/0", "u(o)", "o^(-1)", "(1+o)^(1/2)")

    def _chain(self, rng: random.Random, layout: str) -> str:
        n = rng.randint(10, 80)
        ratio_at = {"head": {0}, "middle": {n // 2}, "tail": {n - 1}, "none": set()}.get(layout) or {
            rng.randrange(n) for _ in range(3)
        }
        error_at = rng.randrange(n) if rng.random() < 0.15 else None
        ops, operands = [], []
        for i in range(n):
            roll = rng.random()
            if i in ratio_at:
                operand = rng.choice(self.RATIOS)
            elif i == error_at:
                operand = rng.choice(self.ERRORS)
            elif roll < 0.12 and operands:  # cancel an earlier operand
                j = rng.randrange(len(operands))
                ops.append("+" if ops[j] == "-" else "-")
                operands.append(operands[j])
                continue
            elif roll < 0.2:
                operand = rng.choice(self.NEUTRICES)
            else:
                operand = rng.choice(self.POLYS)
            ops.append(rng.choice("+-"))
            operands.append(operand)
        ops[0] = ""
        return " ".join(f"{op} {x}" if op else x for op, x in zip(ops, operands))

    def test_agrees_with_the_fold(self):
        rng = random.Random(2201)
        outcomes = []
        for i in range(200):
            text = self._chain(rng, ("head", "middle", "tail", "none", "many")[i % 5])
            outcomes.append(_outcome(evaluate, text))
            assert outcomes[-1] == _outcome(_folded, text), text
        # every kind of result was reached: ratios, each neutrix, zero and errors
        assert any("/(" in out for out in outcomes)
        for piece in ("*o", "*L", "M", "error: NotZerolessError"):
            assert any(piece in out for out in outcomes), piece

    @pytest.mark.parametrize(
        "text, line",
        [
            # a partial sum of zero resets the sum's denominator to 1
            ("(rho^2-1)/(rho-1) - rho - 1 + 5", "5"),
            ("(rho^2-1)/(rho-1) - rho - 1 + 5 + rho^(1/2) - 1/3", "rho^(1/2) + 14/3"),
            ("1/(1+rho^(-1)) + 1 - 1/(1+rho^(-1))", "(1 + rho^(-1))/(1 + rho^(-1))"),
            ("1/(1+rho^(-1)) - 1/(1+rho^(-1)) + 1 + rho", "rho + 1"),
            ("1/2 + rho^(1/3) - 1/2 - rho^(1/3)", "0"),
            ("rho^(-2)*o + 3*rho^(-1) - rho^(-3) + 2 - 7", "-5 + 3*rho^(-1) + rho^(-2)*o"),
            ("1 + 2*rho - M + rho^5", "M"),
            ("3 - rho^(1/2) + rho^(1/3)*L - 2*rho^(1/3) + o - rho^(1/3) = 3 - rho^(1/2) + rho^(1/3)*L", "true"),
            ("2 + rho - 1/0 + 5", "error: NotZerolessError: 0 contains 0 and has no inverse (column 12)"),
            (
                "1 + 1/(1+rho^(-1/60000)) + rho^(-2)*o + 3",
                "error: ResourceLimitError: series expansion longer than 100000 terms (column 26)",
            ),
        ],
    )
    def test_fixed_chains(self, text, line):
        assert _outcome(evaluate, text) == line

    def test_error_columns(self):
        assert run_command("2 + rho - 1/0 + 5") == "error: 0 contains 0 and has no inverse (column 12)"
        assert run_command("1 + 1/(1+rho^(-1/60000)) + rho^(-2)*o + 3") == (
            "error: series expansion longer than 100000 terms (column 26)"
        )
        assert run_command("(rho^2-1)/(rho-1) - rho - 1 + 5") == "5"

    def test_a_run_is_added_before_the_next_operand(self, monkeypatch):
        # with the run -1 added first, the expansion keeps 1,000 terms, one fewer than the limit refuses
        monkeypatch.setattr(solidus.field, "MAX_SERIES_TERMS", 1000)
        text = "0 - 1 + 1/(1+rho^(-1/1000)) + rho^(-1)*o"
        assert _outcome(evaluate, text) == _outcome(_folded, text)
        assert run_command(text).endswith(" + rho^(-1)*o")
        assert run_command("0 + 1/(1+rho^(-1/1000)) + rho^(-1)*o").startswith("error: series expansion")

    def test_a_polynomial_chain_adds_once(self, monkeypatch):
        text = " - ".join(f"{j + 1}/{j % 3 + 1}*rho^({j}/5)" for j in range(200))
        expected = _outcome(_folded, text)
        calls = []
        original = RhoPoly.__add__
        monkeypatch.setattr(RhoPoly, "__add__", lambda x, y: calls.append(1) or original(x, y))
        assert _outcome(evaluate, text) == expected
        assert len(calls) <= 2
        calls.clear()
        _folded(parse(text))  # the counter counts: the fold adds once per operator
        assert len(calls) == 199


class TestRoundTrip:
    def test_random_round_trip(self):
        sampler = Sampler(GeneratorConfig(seed=11), "round-trip")
        for _ in range(300):
            value = sampler.external()
            text = str(value)
            back = eval_text(text)
            assert ext_compare(back, value) is Ordering.EQ, text

    def test_ratio_representations(self):
        value = canonicalize(1, INFINITESIMALS)
        assert eval_text(str(value)) == value


class TestCommands:
    def test_cmp(self):
        assert run_command(":cmp o , L") == "LT"
        assert run_command(":cmp 1 + o , 1 + o") == "EQ"

    def test_classify(self):
        assert run_command(":classify 0*M") == "Precise"
        assert run_command(":classify 0*L + L") == "PureNeutrix"
        assert run_command(":classify rho + L") == "ZerolessNonPrecise"

    def test_zup(self):
        assert run_command(":zup 0 + o, 1 + o, 1/2") == "1 + o"

    def test_nat(self):
        assert run_command(":nat (rho^2 - 1)/(rho - 1)") == "true"
        assert run_command(":nat rho + 1/2") == "false"
        assert run_command(":nat rho + o") == "false"

    def test_arch(self):
        assert run_command(":arch 1 , rho") == "2*rho"
        assert run_command(":arch 1/rho , 1 + o") == "2*rho"

    def test_errors_do_not_abort(self):
        assert run_command("u(o)").startswith("error:")
        assert run_command(":cmp 1") == "error: expected 2 comma-separated expressions (column 1)"
        # a command's arguments are expressions, so a comparison is a syntax error
        assert run_command(":cmp 1<2, 3") == "error: unexpected '<' (column 7)"
        assert run_command(":wibble 1") == "error: unknown command ':wibble' (column 1)"
        # a command word without arguments takes none: `:quit inv<` in a batch must not end it
        assert run_command(":quit inv<") == "error: :quit takes no arguments (column 7)"
        assert run_command("  :help me") == "error: :help takes no arguments (column 9)"
        assert run_command(":q\t1") == "error: :q takes no arguments (column 4)"
        assert run_command(":exit  now") == "error: :exit takes no arguments (column 8)"
        assert [run_command(word + "  \n") for word in (":quit", ":q", ":exit")] == [":quit"] * 3
        assert run_command(":help").startswith("commands:")
        assert run_command(":arch 0, 1") == "error: requires 0 < x < y (column 1)"
        assert run_command("rho^").startswith("error:")

    def test_columns_count_from_the_start_of_the_line(self):
        assert run_command(":cmp 1 , (2") == "error: expected ')' (column 12)"
        assert run_command(":cmp 1/0, 2") == "error: 0 contains 0 and has no inverse (column 7)"
        assert run_command("  1/0") == "error: 0 contains 0 and has no inverse (column 4)"
        assert run_command(":zup 1,") == "error: expected a value (column 8)"
        assert run_command("  -u(0)") == "error: 0 contains 0 and has no unity (column 4)"
        # the line ending and trailing blanks do not move the end of the line
        assert run_command("(1 + 2  \n") == run_command("(1 + 2") == "error: expected ')' (column 7)"

    def test_evaluate_raises_the_operators_typed_error_with_its_column(self):
        with pytest.raises(NotZerolessError) as err:
            evaluate(parse("1/0"))
        assert err.value.column == 2
        assert str(err.value) == "0 contains 0 and has no inverse"

    def test_deep_nesting_is_an_error(self):
        for text in ("(" * 1500 + "1" + ")" * 1500, "(" * 300 + "1" + ")" * 300, "-" * 3000 + "1"):
            assert run_command(text) == "error: expression nested too deeply (column 1)"
            assert run_command(f":cmp {text} , 1") == "error: expression nested too deeply (column 1)"
        assert run_command("1 + 1") == "2"
        with pytest.raises(ResourceLimitError, match="nested too deeply"):
            parse("(" * 300 + "1" + ")" * 300)

    @pytest.mark.parametrize("opening, closing", [("(", ")"), ("abs(", ")"), ("-", "")])
    def test_the_nesting_limit_is_explicit(self, opening, closing):
        # parentheses, calls and prefix minus signs are refused past MAX_NESTING levels,
        # before Python's recursion limit is reached
        assert solidus.parser.MAX_NESTING == 200
        for depth, out in ((200, "1"), (201, "error: expression nested too deeply (column 1)")):
            text = opening * depth + "1" + closing * depth
            assert run_command(text) == out
            assert run_command(f":cmp {text} , 1") == ("EQ" if depth == 200 else out)
        with pytest.raises(ResourceLimitError, match="nested too deeply"):
            parse(opening * 201 + "1" + closing * 201)

    def test_the_three_kinds_of_nesting_count_together(self):
        mixed = "-abs((" * 67 + "1" + "))" * 67  # 3 * 67 = 201 levels, 67 of each kind
        assert run_command(mixed[1:]) == "1"
        assert run_command(mixed) == "error: expression nested too deeply (column 1)"

    def test_a_flat_product_does_not_recurse(self):
        # a '*'/'/' chain is evaluated down its left spine in a loop, however long
        assert run_command("1" + "*1" * 2000) == "1"
        assert run_command(f":cmp {'1' + '*1' * 2000} , 1") == "EQ"
        assert evaluate(parse("1" + "*1" * 2000)) == 1
        assert evaluate(parse("1" + "*2*rho/rho" * 500)) == 2**500
        assert run_command("2" + "*rho" * 999 + "/0" + "*1" * 999) == "error: 0 contains 0 and has no inverse (column 3998)"

    def test_a_flat_sum_does_not_recurse(self):
        # a '+'/'-' chain is summed in one pass, however long
        assert run_command("1" + "+1" * 2000) == "2001"
        assert run_command(f":cmp {'1' + '+1' * 2000} , 2001") == "EQ"
        assert run_command("2*(" + "+".join(["1"] * 1000) + ")") == "2000"
        assert evaluate(parse("1" + "-1" * 2000)) == -1999

    def test_blank_and_comment_lines(self):
        assert run_command("") == ""
        assert run_command("# hello") == ""

    def test_check_only(self):
        out = run_command(":check --count 3 --only thm.oslash_pound")
        assert out.splitlines()[0] == "thm.oslash_pound\tpass\t1\t0"

    def test_check_rejects_non_positive_count(self, capsys):
        for count in ("0", "-1", "-2"):
            out = run_command(f":check --count {count} --only thm.oslash_pound")
            assert out == f"error: argument --count: must be positive, got {count} (column 1)"
        assert run_command(":check --count x") == "error: argument --count: invalid int value: 'x' (column 1)"
        assert run_command(':check --only "thm') == "error: No closing quotation (column 1)"
        assert run_command(":check --wibble") == "error: unrecognized arguments: --wibble (column 1)"
        assert run_command(":check --only nope") == "error: unknown check id 'nope' (column 1)"
        assert capsys.readouterr().err == ""


class TestProductBudget:
    """A product of two sums is refused before it starts past MAX_PRODUCT_PAIRS term pairs."""

    FIVE, FOUR, THREE = "rho^4 + rho^3 + rho^2 + rho + 1", "rho^3 + rho^2 + rho + 1", "rho^2 + rho + 1"

    def test_the_budget_is_the_count_of_term_pairs(self, monkeypatch):
        monkeypatch.setattr(solidus.field, "MAX_PRODUCT_PAIRS", 15)
        # 5 x 3 pairs are within the budget, 4 x 4 are past it
        assert run_command(f"({self.FIVE})*({self.THREE})").startswith("rho^6 + 2*rho^5 + 3*rho^4 + 3*rho^3 + ")
        assert run_command(f"({self.FOUR})*({self.FOUR})") == "error: product of more than 15 term pairs (column 26)"
        # a factor of one term is a shift and a scale, never refused, however long the other
        twenty = " + ".join(f"rho^{k}" for k in range(1, 21))
        assert run_command(f"({twenty})*2*rho").startswith("2*rho^21 + 2*rho^20 + ")
        # a sum of two ratios multiplies their numerators and denominators
        assert run_command(f"1/({self.FOUR}) + 1/({self.FOUR} + rho^4)").startswith("error: product of more than 15")

    def test_a_power_is_refused_at_its_first_product_past_the_budget(self, monkeypatch):
        monkeypatch.setattr(solidus.field, "MAX_PRODUCT_PAIRS", 15)
        # (2+rho)^5 multiplies 5 terms by 2 last; (2+rho)^8 squares 5 terms
        assert run_command("(2+rho)^5") == "rho^5 + 10*rho^4 + 40*rho^3 + 80*rho^2 + 80*rho + 32"
        assert run_command("(2+rho)^8") == "error: product of more than 15 term pairs (column 8)"
        assert run_command("(2+rho)^(-8)") == "error: product of more than 15 term pairs (column 8)"


@pytest.mark.skipif(not digit_limit(), reason="this interpreter has no int/str digit limit")
class TestResourceLimits:
    """Input past a size limit gives one typed error line, and the REPL goes on."""

    LIMIT = digit_limit()
    # a long division stepping down by about 1e-12 toward the cutoff rho^(-1)
    SLOW = "1/(rho^(1/999983) + rho^(1/999979)) + rho^(-1)*o"

    def test_past_the_digit_limit_is_an_error_line(self):
        assert run_command("2^100000") == f"error: a number of more than {self.LIMIT} digits is too long to print (column 1)"
        too_long = f"error: integer literal longer than {self.LIMIT} digits"
        assert run_command("1" * 5000) == f"{too_long} (column 1)"
        assert run_command("rho^(1/" + "7" * 5000 + ")") == f"{too_long} (column 8)"
        with pytest.raises(ParseError) as exc:
            parse("1 + " + "0" * (self.LIMIT + 1))
        assert exc.value.column == 5

    def test_the_renderer_refuses_exactly_what_str_refuses(self):
        limit = self.LIMIT
        assert run_command("1" * limit) == "1" * limit
        assert run_command(f"10^{limit} - 1") == "9" * limit
        assert run_command(f"-1/(10^{limit} - 1)") == "-1/" + "9" * limit
        with pytest.raises(ValueError):
            str(10**limit)
        nines = "9" * limit
        for text in (f"10^{limit}", f"1/10^{limit}", f"10^{limit}*rho + o", f"(rho^(1/{nines}))^(1/{nines})"):
            with pytest.raises(ResourceLimitError):
                render_external(eval_text(text))

    def test_a_zero_limit_checks_nothing(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert run_command("1" * 5000) == "1" * 5000
            assert run_command("2^20000") == str(2**20000)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_a_long_expansion_is_refused(self, monkeypatch):
        monkeypatch.setattr(solidus.field, "MAX_SERIES_TERMS", 1000)
        # rho^(-1)*L keeps the 1000 terms above rho^(-1); rho^(-1)*o keeps rho^(-1) as well
        assert run_command("1/(1+rho^(-1/1000)) + rho^(-1)*L").endswith(" - rho^(-999/1000) + rho^(-1)*L")
        assert run_command("1/(1+rho^(-1/1000)) + rho^(-1)*o") == (
            "error: series expansion longer than 1000 terms (column 21)"
        )
        assert run_command(self.SLOW) == "error: series expansion longer than 1000 terms (column 37)"

    def test_batch_goes_on_after_a_refused_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solidus.field, "MAX_SERIES_TERMS", 1000)
        monkeypatch.setattr(solidus.field, "MAX_PRODUCT_PAIRS", 1000)
        script = tmp_path / "limits.txt"
        script.write_text("\n".join(["2^100000", "1" * 5000, self.SLOW, "(2+rho)^100", "1+1"]) + "\n")
        assert main(["--batch", str(script)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.startswith("error:") for line in out] == [True, True, True, True, False]
        assert out[-1] == "2"


class TestMainEntry:
    def test_batch_mode(self, tmp_path, capsys):
        script = tmp_path / "session.txt"
        script.write_text("1 + 1\n:cmp o , L\nbad syntax here\n:quit now\n:quit\nnever reached\n")
        code = main(["--batch", str(script)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "2"
        assert out[1] == "LT"
        assert out[2].startswith("error:")
        assert out[3] == "error: :quit takes no arguments (column 7)"
        assert len(out) == 4

    def test_check_mode_exit_zero(self, capsys):
        code = main(["--check", "--count", "2", "--only", "thm.chain"])
        out = capsys.readouterr().out
        assert code == 0
        assert "thm.chain\tpass" in out

    def test_check_mode_rejects_non_positive_count(self, capsys):
        for count in ("0", "-2"):
            with pytest.raises(SystemExit) as exc:
                main(["--check", "--count", count, "--only", "axiom.add.comm"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--count: must be positive" in captured.err

    def test_check_mode_unknown_id(self, capsys):
        code = main(["--check", "--only", "thm.nonexistent"])
        assert code == 2
        assert capsys.readouterr().err == "error: unknown check id 'thm.nonexistent'\n"

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["--frobnicate"])
        assert exc.value.code == 2

    def test_repl_via_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "solidus.cli"],
            input="1/2 + o\n:quit\n",
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "1/2 + o" in proc.stdout

    def test_a_closed_stdin_is_empty_input(self):
        # the shell closes descriptor 0 before the interpreter starts, so sys.stdin is None
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" -m solidus.cli <&-', sys.executable],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")

    @pytest.mark.parametrize(
        "command, code",
        [
            (["-m", "solidus.cli"], 0),
            (["-m", "solidus.cli", "--check", "--seed", "7", "--count", "20"], 0),
            # a law that always fails, registered before the checks run
            (["-c", "import sys, solidus.checks as c, solidus.cli as cli; c.law('t.fails', 't', '', '')(lambda: 'no');"
                    " sys.exit(cli.main(['--check', '--only', 't.fails']))"], 1),
        ],
    )
    def test_a_closed_stdout_discards_the_output(self, command, code):
        # the shell closes descriptor 1 before the interpreter starts, so sys.stdout is None
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-X", "dev", "-W", "error", *command],
            input="1+1\n",
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (code, "")

    def test_a_byte_that_is_not_utf8_is_one_error_line(self, tmp_path):
        # a batch file and a strict-UTF-8 stdin read the same way, and the output,
        # :check's echo of its argument included, stays encodable as strict UTF-8
        script = tmp_path / "bad.txt"
        script.write_bytes(b"1+1\n\xff\xfe\n:check \xff\n2+2\n")
        expected = [
            "2",
            "error: unexpected character '\ufffd' (column 1)",
            "error: unrecognized arguments: \ufffd (column 1)",
            "4",
        ]
        env = {**os.environ, "PYTHONIOENCODING": "utf-8:strict"}
        runs = [
            subprocess.run([sys.executable, "-m", "solidus.cli", *args], capture_output=True, env=env, timeout=60, **stdin)
            for args, stdin in ((["--batch", str(script)], {}), ([], {"input": script.read_bytes()}))
        ]
        for proc in runs:
            assert (proc.returncode, proc.stderr) == (0, b"")
            assert proc.stdout.decode("utf-8").splitlines() == expected

    def test_closed_stdout_exits_141_without_traceback(self, tmp_path):
        # about 700 KB of help text, more than a pipe holds, so a later write
        # meets the closed pipe
        script = tmp_path / "help.txt"
        script.write_text(":help\n" * 1000)
        proc = subprocess.Popen(
            [sys.executable, "-m", "solidus.cli", "--batch", str(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert proc.stdout.readline() == "commands:\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert "Traceback" not in err
