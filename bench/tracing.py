"""Traced replay of the workloads: spans around each layer's public calls.

Nothing here reaches inside the program.  ``replay`` re-runs
``checks.run_check`` from outside with the registry's own draw and verdict
functions and ``generate.shrink``; ``run_lines`` splits each REPL expression
line into ``parser.parse``, ``parser.evaluate`` and ``external.render_external``;
the ``probe_*`` functions time the public calls of the lower layers on the
workload's own operands, and cover the layers a workload's main path does not
reach, so every layer is measured on every workload.
"""

from __future__ import annotations

import operator
import statistics
from collections import Counter, defaultdict
from time import perf_counter

from solidus import (
    CheckFailure,
    CheckReport,
    ExternalNum,
    GeneratorConfig,
    HalflineKind,
    PreciseNum,
    Sampler,
    SolidusError,
    archimedean_witness,
    canonicalize,
    classify,
    compare_precise,
    evaluate,
    ext_add,
    ext_compare,
    ext_inv,
    ext_member,
    ext_mul,
    ext_neg,
    hl_member,
    is_natural,
    is_zeroless,
    lower,
    nx_contains,
    nx_mul,
    parse,
    series_expand,
)
from solidus.checks import REGISTRY
from solidus.cli import run_command
from solidus.external import render_external
from solidus.generate import shrink

GROUPS = ("axiom", "thm", "oracle", "mutant")
# One registered law per group, run on operands of workloads whose main path
# does not reach that group.  The mutant's third operand is -y, so it fails.
GROUP_PROBES = {
    "axiom": "axiom.mixed.distributivity",
    "thm": "thm.trichotomy",
    "oracle": "oracle.order",
    "mutant": "mutant.distributivity_naive",
}
POOL_SIZE = 64
PROBE_SAMPLES = 16
SMALL_TERMS = 8
COMMANDS = ("cmp", "classify", "nat", "arch", "zup")


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, op id, child time]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)

    def call(self, name, fn, *args):
        parent = self.stack[-1] if self.stack else -1
        record = [name, 0.0, 0.0, parent, self.op, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            return fn(*args)
        finally:
            record[2] = perf_counter()
            self.stack.pop()
            if parent >= 0:
                self.spans[parent][5] += record[2] - record[1]

    def durations(self) -> dict[str, list[tuple[float, float]]]:
        """name -> [(duration, self time)]."""
        out = defaultdict(list)
        for name, start, end, _, _, child in self.spans:
            out[name].append((end - start, end - start - child))
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op, _ in self.spans
        ]


def terms(value: ExternalNum) -> int:
    return len(value.rep.num.terms) + len(value.rep.den.terms)


# --- checks and generate --------------------------------------------------------


def replay(tr: Tracer, chk, draw, count: int) -> CheckReport:
    """checks.run_check from outside: the same draws, verdicts and shrink, traced."""
    verdict_span = "checks.verdict." + chk.check_id.split(".", 1)[0]

    def verdict(values):
        try:
            return chk.verdict(*values)
        except Exception as exc:  # run_check counts a crashing law as a failing one
            tr.counts["checks.raised"] += 1
            return f"raised {type(exc).__name__}: {exc}"

    def still_fails(values) -> bool:
        failing = tr.call("checks.shrink_verdict", verdict, values) is not None
        tr.counts["generate.shrink_candidates"] += 1
        tr.counts["generate.shrink_accepted"] += failing
        return failing

    failures = []
    for _ in range(count):
        tr.op += 1
        values = draw()
        observed = tr.call(verdict_span, verdict, values)
        if observed is None:
            continue
        shrunk = tr.call("generate.shrink", shrink, values, still_fails)
        observed = tr.call("checks.shrink_verdict", verdict, shrunk) or observed
        failures.append(
            CheckFailure(tuple(zip(chk.names, (str(v) for v in shrunk))), chk.expected, observed)
        )
    notes = [chk.note] if chk.note else []
    return CheckReport(chk.check_id, count, failures, chk.expect_failures, notes)


def replay_catalog(tr: Tracer, ids, cfg: GeneratorConfig, n: int, drawn: list) -> list[CheckReport]:
    reports = []
    for cid in ids:
        chk = REGISTRY[cid]
        sampler = Sampler(cfg, cid)

        def draw(chk=chk, sampler=sampler):
            values = tr.call("generate.draw", chk.draw, sampler)
            drawn.extend(values)
            return values

        reports.append(replay(tr, chk, draw, 1 if chk.single else n))
    return reports


def operand_pool(values) -> list[ExternalNum]:
    """At most POOL_SIZE external operands, evenly spread over ``values``."""
    pool = [
        canonicalize(v) if isinstance(v, PreciseNum) else v
        for v in values
        if isinstance(v, (ExternalNum, PreciseNum))
    ]
    return pool[:: max(1, len(pool) // POOL_SIZE)][:POOL_SIZE]


def probe_checks(tr: Tracer, pool: list[ExternalNum], groups) -> int:
    """One registered law per group on the pool; returns unexpected verdicts."""
    small = [v for v in pool if terms(v) <= SMALL_TERMS] or pool
    unexpected = 0
    for group in groups:
        chk = REGISTRY[GROUP_PROBES[group]]
        tuples = []
        for i in range(PROBE_SAMPLES):
            x, y, z = (small[(i + k) % len(small)] for k in range(3))
            tuples.append((x, y, ext_neg(y)) if group == "mutant" else (x, y, z)[: len(chk.names)])
        feed = iter(tuples)
        report = replay(tr, chk, lambda: next(feed), len(tuples))
        unexpected += bool(report.failures) and not chk.expect_failures
    return unexpected


def probe_draws(tr: Tracer, pool: list[ExternalNum], seed: int) -> int:
    """Draw a member of each pool value; returns draws that are not members."""
    sampler = Sampler(GeneratorConfig(seed=seed), "bench.probe")
    missing = 0
    for value in pool:
        member = tr.call("generate.draw", sampler.representative_of, value)
        missing += not ext_member(member, value)
    return missing


# --- parser and cli -------------------------------------------------------------


def wrong(out: str, expected) -> bool:
    """A line fails when it misses its known answer, or errs without one."""
    return out != expected if expected is not None else out.startswith("error:")


def _split(tr: Tracer, text: str):
    """cli.run_command's expression path, one span per layer."""
    try:
        value = tr.call("parser.evaluate", evaluate, tr.call("parser.parse", parse, text))
    except SolidusError as exc:
        return f"error: {exc}", None
    if isinstance(value, bool):
        return ("true" if value else "false"), None
    return tr.call("external.render", render_external, value), value


def _timed(fn, *args):
    t0 = perf_counter()
    result = fn(*args)
    return result, perf_counter() - t0


def _traced_line(tr: Tracer, text: str):
    """(output, value): colon commands whole through run_command, expressions split."""
    if text.startswith(":"):
        return tr.call("cli.command." + text[1:].split(" ", 1)[0], run_command, text), None
    return _split(tr, text)


def run_lines(tr: Tracer, lines) -> tuple[int, float, float, list[ExternalNum]]:
    """Each line traced and through run_command.

    Returns (failed, traced s, untraced s, values of the expression lines).

    A line fails when the traced output differs from run_command's, or when
    it misses its known answer.
    """
    failed, traced, untraced, values = 0, 0.0, 0.0, []
    for text, expected in lines:
        tr.op += 1
        if tr.op % 2:  # alternate which side runs first, so neither gains from going second
            want, plain_s = _timed(run_command, text)
            (out, value), traced_s = _timed(_traced_line, tr, text)
        else:
            (out, value), traced_s = _timed(_traced_line, tr, text)
            want, plain_s = _timed(run_command, text)
        if not text.startswith(":"):
            tr.samples["cli.overhead"].append(plain_s - traced_s)
        if value is not None:
            values.append(value)
            tr.samples["result_terms"].append(terms(value))
            tr.samples["result_den_terms"].append(len(value.rep.den.terms))
        untraced += plain_s
        traced += traced_s
        failed += out != want or wrong(out, expected)
    return failed, traced, untraced, values


def probe_lines(pool: list[ExternalNum]) -> list:
    """REPL lines over the pool, with answers the library gives for them."""
    lines = []
    for i, a in enumerate(pool):
        b = pool[(i + 1) % len(pool)]
        lines.append((f"({a}) {'+-*'[i % 3]} ({b})", None))
        lines.append((f":cmp {a}, {b}", ext_compare(a, b).name))
        lines.append((f":classify {a}", classify(a).value))
        lines.append((f":nat {a}", None))
        lines.append((f":zup {a}, {b}", None))
        pair = _arch_pair(a, b)
        if pair:
            lines.append((f":arch {pair[0]}, {pair[1]}", None))
    return lines


def _arch_pair(a: ExternalNum, b: ExternalNum):
    """Precise 0 < x < y from the representatives of a and b, if they differ."""
    x, y = abs(a.rep), abs(b.rep)
    if x.is_zero() or y.is_zero() or x == y:
        return None
    return (x, y) if x < y else (y, x)


# --- lower layers ---------------------------------------------------------------


def probe_layers(tr: Tracer, pool: list[ExternalNum]) -> None:
    """Time the public calls of field, neutrix, external, halfline and naturals."""
    kinds = list(HalflineKind)
    for i, a in enumerate(pool):
        b = pool[(i + 1) % len(pool)]
        x, y = a.rep, b.rep
        tr.samples["operand_terms"].append(terms(a))
        tr.call("field.poly_add", operator.add, x.num, y.num)
        tr.call("field.poly_mul", operator.mul, x.num, y.num)
        tr.call("field.precise_eq", operator.eq, x, PreciseNum(x.num, x.den) if i % 2 else y)
        tr.call("field.precise_cmp", compare_precise, x, y)
        if not y.is_zero():
            tr.call("field.precise_div", operator.truediv, x, y)
        if not x.is_zero():
            tr.call("field.series_expand", series_expand, x, x.degree() - 2, True)
        tr.call("neutrix.nx_contains", nx_contains, a.nx, y)
        tr.call("neutrix.nx_mul", nx_mul, a.nx, b.nx)
        tr.call("external.canonicalize", canonicalize, x, b.nx)
        tr.call("external.ext_add", ext_add, a, b)
        tr.call("external.ext_mul", ext_mul, a, b)
        tr.call("external.ext_compare", ext_compare, a, b)
        if is_zeroless(a):
            tr.call("external.ext_inv", ext_inv, a)
        tr.call("external.render", render_external, a)
        tr.call("halfline.hl_member", hl_member, lower(kinds[i % len(kinds)], b), a)
        tr.call("naturals.is_natural", is_natural, x)
        pair = _arch_pair(a, b)
        if pair:
            tr.call("naturals.archimedean_witness", archimedean_witness, *map(canonicalize, pair))


# --- metrics --------------------------------------------------------------------


def layer_metrics(tr: Tracer) -> dict[str, float]:
    spans = tr.durations()

    def total(name, self_time=False):
        return sum(s if self_time else d for d, s in spans.get(name, ()))

    def mean(name, scale):
        calls = spans.get(name, ())
        return sum(d for d, _ in calls) / len(calls) * scale if calls else 0.0

    def sample_mean(name, scale=1.0):
        values = tr.samples.get(name, ())
        return statistics.fmean(values) * scale if values else 0.0

    evaluate_ms = [d * 1e3 for d, _ in spans["parser.evaluate"]]
    candidates = tr.counts["generate.shrink_candidates"]
    m = {
        "generate.draw_s": total("generate.draw"),
        "generate.draws": len(spans.get("generate.draw", ())),
        "generate.shrink_s": total("generate.shrink", self_time=True),
        "generate.shrink_candidates": candidates,
        "generate.shrink_accept_ratio": tr.counts["generate.shrink_accepted"] / candidates if candidates else 0.0,
        "checks.verdict_s": sum(total("checks.verdict." + g) for g in GROUPS),
    }
    for g in GROUPS:
        m["checks.verdict_s." + g] = total("checks.verdict." + g)
    m["checks.verdicts"] = sum(len(spans.get("checks.verdict." + g, ())) for g in GROUPS)
    m["checks.raised"] = tr.counts["checks.raised"]
    m["checks.shrink_verdict_s"] = total("checks.shrink_verdict")
    for name in ("poly_add", "poly_mul", "precise_eq", "precise_cmp", "precise_div", "series_expand"):
        m[f"field.{name}_us"] = mean("field." + name, 1e6)
    m["field.operand_terms_mean"] = sample_mean("operand_terms")
    m["field.result_terms_mean"] = sample_mean("result_terms")
    m["field.result_terms_max"] = max(tr.samples.get("result_terms", [0]))
    m["field.result_den_terms_max"] = max(tr.samples.get("result_den_terms", [0]))
    for name in ("neutrix.nx_contains", "neutrix.nx_mul", "external.canonicalize", "external.ext_add",
                 "external.ext_mul", "external.ext_compare", "external.ext_inv", "external.render",
                 "halfline.hl_member", "naturals.is_natural", "naturals.archimedean_witness",
                 "parser.parse"):
        m[name + "_us"] = mean(name, 1e6)
    q = statistics.quantiles(evaluate_ms, n=100, method="inclusive")
    m["parser.evaluate_ms_p50"], m["parser.evaluate_ms_p99"] = q[49], q[98]
    for c in COMMANDS:
        m["cli.command_ms." + c] = mean("cli.command." + c, 1e3)
    m["cli.overhead_us"] = sample_mean("cli.overhead", 1e6)
    return m
