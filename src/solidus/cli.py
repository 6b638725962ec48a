"""The solidus command line: REPL, batch runner and headless check mode.

Bare lines evaluate expressions and print canonical forms; colon commands
expose classification, comparison, weak suprema, naturals and the check
suite, whose harness loads with the first ``--check`` or ``:check``.
A failing line prints one ``error: <message> (column N)`` line, N counted from
the start of the line as typed; column 1 stands for the whole line.
Exit codes: 0 success, 1 check failures (in --check mode), 2 usage errors,
141 (128 + SIGPIPE) when standard output is closed early, as by ``| head``;
standard output closed from the start discards the output.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys
from typing import NoReturn, Optional

from .errors import ParseError, SolidusError, UnknownCheckError
from .external import classify, ext_compare, render_external
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


def _values(arg_text: str, start: int, expected: Optional[int] = None):
    exprs = parse_expr_list(arg_text, start)
    if expected is not None and len(exprs) != expected:
        raise SolidusError(f"expected {expected} comma-separated expressions")
    return [evaluate(expr) for expr in exprs]


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
    """Run the selected checks; raises UnknownCheckError for an unknown id."""
    from .checks import exit_code, format_reports, run_catalog
    from .generate import GeneratorConfig
    reports = run_catalog(GeneratorConfig(seed=ns.seed), n=ns.count, only=ns.only)
    return format_reports(reports), exit_code(reports)


class _CheckParser(argparse.ArgumentParser):
    """The `:check` options; a usage error raises instead of writing to stderr and exiting."""

    def error(self, message: str) -> NoReturn:
        raise SolidusError(message)


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
    except SolidusError as exc:  # an error without a column belongs to the whole line
        return f"error: {exc} (column {exc.column or 1})"


def _dispatch(line: str) -> str:
    line = line.rstrip()
    text = line.lstrip()
    if not text or text.startswith("#"):
        return ""
    if not text.startswith(":"):
        value = evaluate(parse(line))  # the tokenizer skips the leading blanks
        if isinstance(value, bool):
            return "true" if value else "false"
        return render_external(value)

    command = text.split(maxsplit=1)[0]
    start = len(line) - len(text) + len(command)  # the arguments begin after the command word
    rest = line[start:]
    if command in (":quit", ":q", ":exit", ":help"):
        if rest:  # a stray argument must not end a batch silently
            raise ParseError(f"{command} takes no arguments", len(line) - len(rest.lstrip()) + 1)
        return HELP_TEXT if command == ":help" else ":quit"
    entry = _COMMANDS.get(command)
    if entry is not None:
        arity, render = entry
        return render(*_values(rest, start, arity))
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


# how a batch file and standard input are read: a byte that is not UTF-8 reads
# as U+FFFD, which its line reports as an unexpected character
_DECODING = {"encoding": "utf-8", "errors": "replace"}


def run_batch(path: str, stdout=None) -> int:
    try:
        handle = open(path, "r", **_DECODING)
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
    # a closed standard output (`solidus >&-`) discards the output: sys.stdout is None
    sys.stdout = sys.stdout or open(os.open(os.devnull, os.O_WRONLY), "w", closefd=False)

    code = 0  # also when standard input is closed (`solidus <&-`): sys.stdin is None, empty input
    try:
        if ns.check:
            try:
                output, code = _run_checks(ns)
            except UnknownCheckError as exc:  # a usage error
                output, code = f"error: {exc}", 2
            print(output, file=sys.stderr if code == 2 else sys.stdout)
        elif ns.batch:
            code = run_batch(ns.batch)
        elif sys.stdin is not None:
            sys.stdin.reconfigure(**_DECODING)
            code = repl()
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
