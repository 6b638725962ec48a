"""Tests for the surface syntax, evaluator, REPL commands and exit codes."""

import subprocess
import sys
from fractions import Fraction as F

import pytest

from solidus.cli import main, run_command
from solidus.errors import ParseError, SolidusError
from solidus.external import canonicalize, ext_compare, ext_inv, ext_mul, is_zeroless, pure
from solidus.field import Ordering, RhoPoly
from solidus.generate import GeneratorConfig, Sampler
from solidus.neutrix import INFINITESIMALS, closed_cut
from solidus.parser import BinOp, Cmp, Lit, Pow, Sym, Unary, _integer_power, eval_text, evaluate, parse

rp = RhoPoly.rho_power


class TestParse:
    def test_tree_shape(self):
        tree = parse("(3 + o) * rho^(1/2)")
        assert isinstance(tree, BinOp) and tree.op == "*"
        assert isinstance(tree.left, BinOp) and tree.left.op == "+"
        assert isinstance(tree.left.left, Lit) and tree.left.left.value == 3
        assert isinstance(tree.left.right, Sym) and tree.left.right.name == "o"
        assert isinstance(tree.right, Pow) and tree.right.exponent == F(1, 2)

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
        assert run_command(":cmp 1") == "error: expected 2 comma-separated expressions"
        assert run_command(":cmp 1<2, 3") == "error: expected a value, found a comparison"
        assert run_command(":wibble 1") == "error: unknown command ':wibble'"
        assert run_command("rho^").startswith("error:")

    def test_deep_nesting_is_an_error(self):
        for text in ("1" + "+1" * 2000, "(" * 1500 + "1" + ")" * 1500, "-" * 3000 + "1"):
            assert run_command(text) == "error: expression nested too deeply"
            assert run_command(f":cmp {text} , 1") == "error: expression nested too deeply"
        assert run_command("1 + 1") == "2"
        with pytest.raises(SolidusError, match="nested too deeply"):
            parse("(" * 300 + "1" + ")" * 300)
        with pytest.raises(SolidusError, match="nested too deeply"):
            evaluate(parse("1" + "+1" * 2000))

    def test_blank_and_comment_lines(self):
        assert run_command("") == ""
        assert run_command("# hello") == ""

    def test_check_only(self):
        out = run_command(":check --count 3 --only thm.oslash_pound")
        assert out.splitlines()[0] == "thm.oslash_pound\tpass\t1\t0"

    def test_check_rejects_non_positive_count(self, capsys):
        usage = "usage: :check [--seed S] [--count N] [--only ID]"
        for count in ("0", "-1", "-2"):
            out = run_command(f":check --count {count} --only thm.oslash_pound")
            assert out.splitlines() == [f"error: argument --count: must be positive, got {count}", usage]
        out = run_command(":check --count x")
        assert out.splitlines() == ["error: argument --count: invalid int value: 'x'", usage]
        assert run_command(':check --only "thm').splitlines() == ["error: No closing quotation", usage]
        assert run_command(":check --wibble").splitlines() == ["error: unrecognized arguments: --wibble", usage]
        assert capsys.readouterr().err == ""


class TestMainEntry:
    def test_batch_mode(self, tmp_path, capsys):
        script = tmp_path / "session.txt"
        script.write_text("1 + 1\n:cmp o , L\nbad syntax here\n:quit\nnever reached\n")
        code = main(["--batch", str(script)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "2"
        assert out[1] == "LT"
        assert out[2].startswith("error:")
        assert len(out) == 3

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
