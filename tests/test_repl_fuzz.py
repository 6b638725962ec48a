"""Grammar fuzzing of the REPL: every line prints a value or one error line.

Lines are built from the parser's own tables (symbols, functions, binary
operators, comparisons) and the value commands' names, with junk text spliced
in.  Three properties are checked:

(a) ``run_command`` never raises, and each output is a value or exactly one
    ``error: ... (column N)`` line with N inside the line or just past its
    end; ``run_batch`` on a file and ``repl`` on a stream print the same
    outputs for the same lines.
(b) Blanks or a command word in front of an expression whose error has a
    column N > 1 shift N by exactly their length.
(c) The parser builds the trees, error texts and columns of the recursive-descent
    reference (``descent_parser``).

Integer exponents stay at 6 or less and series expansions at 200 terms: the
limits on integer powers and product sizes are not set yet.
"""

import io
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import descent_parser
import solidus.field
from solidus.cli import _COMMANDS, repl, run_batch, run_command
from solidus.parser import _BINARY, _COMPARISONS, _FUNCTIONS, _SYMBOLS

ERROR = re.compile(r"error: [^\n]* \(column (\d+)\)")
FUZZ = settings(derandomize=True, deadline=None, max_examples=120)


@pytest.fixture(autouse=True, scope="module")
def short_series():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solidus.field, "MAX_SERIES_TERMS", 200)
        yield


def _junk(exclude: str = "") -> st.SearchStrategy[str]:
    # no line breaks, which would split the line, and no surrogates, which UTF-8 cannot write
    chars = st.characters(exclude_categories=("Cs",), exclude_characters="\r\n" + exclude)
    return st.text(chars, min_size=1, max_size=4)


_SPACE = st.sampled_from(["", " ", "  "])
_EXPONENTS = st.one_of(
    st.integers(0, 6).map(str),
    st.integers(-6, -1).map(lambda n: f"({n})"),
    st.tuples(st.integers(-6, 6), st.integers(1, 7)).map(lambda pq: f"({pq[0]}/{pq[1]})"),
)
_ATOMS = st.one_of(
    st.sampled_from(sorted(_SYMBOLS)),
    st.sampled_from(["0", "1", "2"]),
    st.integers(0, 10**12).map(str),
)


def _compound(inner: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    return st.one_of(
        st.tuples(inner, _SPACE, st.sampled_from(sorted(_BINARY)), _SPACE, inner).map("".join),
        st.tuples(st.sampled_from(sorted(_FUNCTIONS)), inner).map(lambda fa: f"{fa[0]}({fa[1]})"),
        st.tuples(inner, _EXPONENTS).map(lambda be: f"({be[0]})^{be[1]}"),
    )


EXPRESSIONS = st.recursive(_ATOMS, _compound, max_leaves=5)


@st.composite
def _spliced(draw, text: st.SearchStrategy[str], junk: st.SearchStrategy[str]) -> str:
    """The drawn text, often with junk at a drawn place."""
    line = draw(text)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(junk) + line[at:]
    return line


_COMPARE = st.tuples(EXPRESSIONS, _SPACE, st.sampled_from(sorted(_COMPARISONS)), _SPACE, EXPRESSIONS).map("".join)
_COMMAND = st.tuples(
    st.sampled_from(sorted(_COMMANDS)), st.lists(EXPRESSIONS, max_size=3).map(", ".join)
).map(" ".join)
LINES = st.tuples(
    _SPACE, _spliced(st.one_of(EXPRESSIONS, _COMPARE, _COMMAND, _junk()), _junk())
).map("".join)


def _column(out: str) -> int | None:
    match = ERROR.fullmatch(out)
    return int(match.group(1)) if match else None


def _printed(outputs: list[str]) -> str:
    """What the REPL prints for these outputs: up to a quit, blank outputs dropped."""
    printed = []
    for out in outputs:
        if out == ":quit":
            break
        if out:
            printed.append(out + "\n")
    return "".join(printed)


@pytest.fixture(scope="module")
def script(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "lines.txt"


@FUZZ
@given(lines=st.lists(LINES, min_size=1, max_size=4))
def test_every_line_prints_a_value_or_one_error_line(lines, script):
    outputs = [run_command(line) for line in lines]
    for line, out in zip(lines, outputs):
        if out.startswith("error"):
            column = _column(out)
            assert column is not None and 1 <= column <= len(line) + 1, (line, out)
        else:
            assert "\n" not in out, (line, out)
    text = "".join(line + "\n" for line in lines)
    stdout = io.StringIO()
    repl(io.StringIO(text), stdout)
    assert stdout.getvalue() == _printed(outputs)
    script.write_text(text, encoding="utf-8")
    stdout = io.StringIO()
    assert run_batch(str(script), stdout) == 0
    assert stdout.getvalue() == _printed(outputs)


@FUZZ
@given(expr=_spliced(EXPRESSIONS, _junk(exclude=",:<=")))
def test_a_prefix_shifts_the_error_column_by_its_length(expr):
    # no comparison and no comma: after a command word the line is an argument list
    out = run_command(expr)
    column = _column(out)
    assume(column is not None and column > 1)
    for prefix in ("  ", ":classify "):
        moved = out.replace(f"(column {column})", f"(column {column + len(prefix)})")
        assert run_command(prefix + expr) == moved, (prefix, expr)


@FUZZ
@given(line=LINES, start=st.integers(0, 3))
def test_the_descent_parser_builds_the_same_trees(line, start):
    descent_parser.compare(line, start)
