"""The solidus command line: REPL, batch runner and headless check mode.

Bare lines evaluate expressions and print canonical forms; colon commands
expose classification, comparison, weak suprema, naturals and the check suite.
Exit codes: 0 success, 1 check failures (in --check mode), 2 usage errors,
141 (128 + SIGPIPE) when standard output is closed early, as by ``| head``.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys
from typing import NoReturn, Optional

from .checks import exit_code, format_reports, run_catalog
from .errors import ResourceLimitError, SolidusError, UnknownCheckError
from .external import classify, ext_compare, render_external
from .generate import GeneratorConfig
from .halfline import zup_finite
from .naturals import archimedean_witness, is_natural
from .neutrix import NX_ZERO
from .parser import evaluate, parse, parse_expr_list


HELP_TEXT = """\
commands:
  <expr>                      evaluate and print the canonical form
  :classify <expr>            Precise | PureNeutrix | ZerolessNonPrecise
  :cmp <expr> , <expr>        LT | EQ | GT
  :zup <expr> {, <expr>}      weak supremum (maximum) of the listed values
  :nat <expr>                 whether the value is a natural of this model
  :arch <expr> , <expr>       natural z with z*x > y (requires 0 < x < y)
  :check [--seed S] [--count N] [--only ID]
                              run the axiom/theorem check suite
  :help                       this text
  :quit                       leave the REPL
symbols: rho (positive infinite), o (infinitesimals), L (limited), M (everything)
"""


def _values(arg_text: str, expected: Optional[int] = None):
    exprs = parse_expr_list(arg_text)
    if expected is not None and len(exprs) != expected:
        raise SolidusError(f"expected {expected} comma-separated expressions")
    values = []
    for expr in exprs:
        value = evaluate(expr)
        if isinstance(value, bool):
            raise SolidusError("expected a value, found a comparison")
        values.append(value)
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _add_check_options(parser: argparse.ArgumentParser) -> None:
    """The options shared by `solidus --check` and `:check`."""
    parser.add_argument("--seed", type=int, default=0, help="generator seed for --check")
    parser.add_argument("--count", type=_positive_int, default=200, help="samples per check for --check")
    parser.add_argument("--only", type=str, default=None, help="check id or prefix filter for --check")


def _run_checks(ns: argparse.Namespace) -> tuple[str, int]:
    """Run the selected checks; an unknown id is a usage error (exit code 2)."""
    try:
        reports = run_catalog(GeneratorConfig(seed=ns.seed), n=ns.count, only=ns.only)
    except UnknownCheckError as exc:
        return f"error: unknown check id {exc.args[0]!r}", 2
    return format_reports(reports), exit_code(reports)


_CHECK_USAGE = "usage: :check [--seed S] [--count N] [--only ID]"


class _CheckParser(argparse.ArgumentParser):
    """The `:check` options; a usage error raises instead of writing to stderr and exiting."""

    def error(self, message: str) -> NoReturn:
        raise SolidusError(f"{message}\n{_CHECK_USAGE}")


def _check_command(rest: str) -> str:
    parser = _CheckParser(prog=":check", add_help=False)
    _add_check_options(parser)
    try:
        tokens = shlex.split(rest)
    except ValueError as exc:  # unbalanced quote or trailing escape
        parser.error(str(exc))
    return _run_checks(parser.parse_args(tokens))[0]


# value commands: name -> (number of expressions, None for any; render)
_COMMANDS = {
    ":classify": (1, lambda value: classify(value).value),
    ":cmp": (2, lambda a, b: ext_compare(a, b).name),
    ":zup": (None, lambda *values: render_external(zup_finite(values))),
    ":nat": (1, lambda v: "true" if v.nx == NX_ZERO and is_natural(v.rep) else "false"),
    ":arch": (2, lambda x, y: str(archimedean_witness(x, y))),
}


def run_command(line: str) -> str:
    """Execute one REPL line and return the rendered output (never raises)."""
    try:
        return _dispatch(line)
    except ResourceLimitError as exc:  # refused outside any node (nesting, printing): the whole line
        return f"error: {exc} (column 1)"
    except SolidusError as exc:  # ParseError and EvalError carry their column
        return f"error: {exc}"


def _dispatch(line: str) -> str:
    line = line.strip()
    if not line or line.startswith("#"):
        return ""
    if not line.startswith(":"):
        value = evaluate(parse(line))
        if isinstance(value, bool):
            return "true" if value else "false"
        return render_external(value)

    command, _, rest = line.partition(" ")
    rest = rest.strip()
    if command in (":quit", ":q", ":exit"):
        return ":quit"
    if command == ":help":
        return HELP_TEXT
    entry = _COMMANDS.get(command)
    if entry is not None:
        arity, render = entry
        return render(*_values(rest, arity))
    if command == ":check":
        return _check_command(rest)
    raise SolidusError(f"unknown command {command!r}")


def repl(stdin=None, stdout=None) -> int:
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    interactive = stdin.isatty() if hasattr(stdin, "isatty") else False
    if interactive:
        print("solidus -- exact external-number arithmetic (:help for commands)", file=stdout)
    while True:
        if interactive:
            stdout.write("solidus> ")
            stdout.flush()
        line = stdin.readline()
        if not line:
            break
        out = run_command(line)
        if out == ":quit":
            break
        if out:
            print(out, file=stdout)
    return 0


def run_batch(path: str, stdout=None) -> int:
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with handle:
        return repl(handle, stdout)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="solidus",
        description="Exact arithmetic for external numbers, with a property-based axiom harness.",
    )
    parser.add_argument("--batch", metavar="FILE", help="execute commands from FILE line by line")
    parser.add_argument("--check", action="store_true", help="run the check suite headlessly")
    _add_check_options(parser)
    ns = parser.parse_args(argv)

    try:
        if ns.check:
            output, code = _run_checks(ns)
            print(output, file=sys.stderr if code == 2 else sys.stdout)
        else:
            code = run_batch(ns.batch) if ns.batch else repl()
        # flush here, so a closed pipe is met inside this block
        sys.stdout.flush()
    except BrokenPipeError:
        # the recipe of the signal module docs: the interpreter flushes stdout
        # again at exit, so point it at devnull first
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
