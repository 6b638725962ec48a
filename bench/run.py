"""Seeded benchmark of solidus: check catalog, REPL script and counterexample shrinking.

Run from the repository root:

    python3 bench/run.py --workload catalog --seed 1 --seconds 35 --trace 0

Workloads (one process, one thread; see BENCHMARK.json for why each exists):

    catalog  every registered check, one ``run_catalog(cfg, n=CATALOG_N, only=id)``
             call per check; a pass is the whole catalog for one seed.
    shrink   the checks registered with ``expect_failures`` at n=SHRINK_N, where
             the failing samples are shrunk; a pass is those checks for one seed.
    repl     a seeded REPL script (bench/script.py) fed line by line to
             ``cli.run_command``, a closed loop with one client; a pass is one
             block of script.BLOCK_LINES lines.

Passes repeat until ``--seconds`` have elapsed (a started pass completes).
Pass 0 uses ``--seed`` itself, later passes seeds derived from it, so one run
mixes several inputs and a memo cache in the program cannot serve a repeated
pass.  An op is one check call or one script line.

With ``--trace 0`` the end-to-end metrics are printed:

    setup_s      median time of a fresh interpreter's ``import solidus``
                 (which builds the check registry), over SETUP_RUNS runs
    verdict_s    median pass time: every op of the pass has its verdict
    cmds_per_s   ops completed per second over the run
    op_p50_ms, op_p80_ms, op_p99_ms
                 latency percentiles of one op, over all ops of the run
    peak_rss_mb  peak resident memory of this process

Every time (and cmds_per_s) is scaled to a fixed machine speed: before each
pass, and before each set-up import, the benchmark times ``reference.seconds``,
a fixed piece of standard-library work shaped like the program's hot paths
that runs nothing of solidus (bench/reference.py), and multiplies the measured
times by (REF_NOMINAL_S / r) ** REF_EXPONENT, where r is the median reference
time of the run (of the set-up imports, for setup_s).  A change to the program
cannot move the reference, so it moves the scaled times as it moves the
measured ones.  A slow spell of the machine slows both, the reference about
twice as much in log terms: regressing log catalog pass time on log reference
time gave slopes of 0.41 and 0.48, and in 35 s windows of four recordings
exponents of 0.5 to 0.75 left the least spread, so REF_EXPONENT is 0.5.  The
measured, unscaled values and the scale are printed as facts.

and ``attempted``/``failed`` count the ops and those that missed their
expected state: a check whose status disagrees with its registered
``expect_failures`` flag, or a line that misses its known answer or prints
``error:``.  Lines starting with ``#`` are facts, not metrics: the failure
counts with their bases, and the sha256 of pass 0's ``--check`` records (for
catalog byte for byte what ``solidus --check --seed S --count 50`` prints) and
of their header lines, or of pass 0's REPL output.

With ``--trace 1`` the per-layer metrics (bench/tracing.py) are printed.  A
cycle replays pass 0 untraced and traced, checks that the replay reproduces
``run_catalog`` (status, sample and failure counts, shrunk counterexamples) or
``run_command`` output for every check or line, and probes the lower layers
on the pass's operands; cycles repeat until ``--seconds``.  Times are medians
over cycles, counts come from cycle 0 and must repeat exactly.  Spans of cycle
0 are written to bench/out/.

Machine: Python 3.11.7 on a shared 2-CPU virtual machine, one process and one
thread.  CPU frequency and the load of other tenants cannot be pinned there:
single 5 s catalog passes varied between 4.88 and 5.95 s, a fixed pure-Python
loop varied with a 10-17% standard deviation within 20 s, and one CPU ran the
loop up to 25% slower than the other for minutes at a time; slow spells
of a minute or more moved the median pass time of whole 35 s runs by up to a
third.  So passes (and the set-up imports) take the CPUs in turn, steadiness
within a run comes from its repeats and medians, and steadiness between runs
from the reference scaling above: in 35 s windows of four 6-10 minute
recordings of catalog passes, the spread (quartile distance over median) of
the median pass time was 14-23% unscaled and 4-9% scaled.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from solidus import GeneratorConfig, run_catalog  # noqa: E402
from solidus.checks import REGISTRY, format_reports  # noqa: E402
from solidus.cli import run_command  # noqa: E402

import reference  # noqa: E402
import script  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("catalog", "repl", "shrink")
CATALOG_N = 50
SHRINK_N = 1000
SETUP_RUNS = 11
SETUP_CODE = "import time; t = time.perf_counter(); import solidus; print(time.perf_counter() - t)"
TIME_UNITS = ("s", "ms", "us", "%")
REF_NOMINAL_S = 0.060  # reference.seconds() on the machine described below, when quiet
REF_EXPONENT = 0.5  # the workloads slow by about the square root of the reference's slowdown


def pass_seed(seed: int, index: int) -> int:
    return seed if index == 0 else seed * 1_000_003 + index


def check_ids(workload: str) -> list[str]:
    if workload == "shrink":
        return [cid for cid, chk in REGISTRY.items() if chk.expect_failures]
    return list(REGISTRY)


def sample_count(workload: str) -> int:
    return SHRINK_N if workload == "shrink" else CATALOG_N


def check_wrong(report, n: int) -> bool:
    """The status disagrees with the registered expect_failures flag, or the sample count is off."""
    chk = REGISTRY[report.check_id]
    return bool(report.failures) != chk.expect_failures or report.samples != (1 if chk.single else n)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def with_reference(step):
    """Step i preceded by a reference timing on the same CPU: (reference_s, result)."""
    return lambda i: (reference.seconds(), step(i))


def scale_of(timed: list) -> float:
    """(REF_NOMINAL_S / median reference time of (reference_s, result) pairs) ** REF_EXPONENT."""
    return (REF_NOMINAL_S / statistics.median(r for r, _ in timed)) ** REF_EXPONENT


def setup_seconds() -> tuple[float, float]:
    """Median import time over SETUP_RUNS fresh interpreters, and the scale beside them."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def once() -> float:
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, capture_output=True, text=True, check=True, timeout=60
        )
        return float(done.stdout)

    once()  # writes the bytecode cache, as any earlier use of the package would
    timed = until(0, with_reference(lambda i: once()), at_least=SETUP_RUNS)
    return statistics.median(t for _, t in timed), scale_of(timed)


# --- untraced passes ------------------------------------------------------------


def checks_pass(workload: str, seed: int):
    cfg = GeneratorConfig(seed=seed)
    n, latencies, reports = sample_count(workload), [], []
    for cid in check_ids(workload):
        t0 = perf_counter()
        (report,) = run_catalog(cfg, n=n, only=cid)
        latencies.append(perf_counter() - t0)
        reports.append(report)
    return latencies, sum(check_wrong(r, n) for r in reports), format_reports(reports)


def repl_pass(lines):
    latencies, outputs, failed = [], [], 0
    for text, expected in lines:
        t0 = perf_counter()
        out = run_command(text)
        latencies.append(perf_counter() - t0)
        outputs.append(out)
        failed += tracing.wrong(out, expected)
    return latencies, failed, "\n".join(outputs)


def until(seconds: float, step, at_least: int = 1) -> list:
    """Call step(0), step(1), ... until ``seconds`` have passed and ``at_least`` steps ran.

    Step i runs on the i-th CPU the process may use, round robin.  The CPUs of
    a shared machine run at different speeds, and a process left on whichever
    one the scheduler picks makes whole runs fast or slow.
    """
    cpus = sorted(os.sched_getaffinity(0))
    results = []
    deadline = perf_counter() + seconds
    try:
        while len(results) < at_least or perf_counter() < deadline:
            os.sched_setaffinity(0, {cpus[len(results) % len(cpus)]})
            results.append(step(len(results)))
    finally:
        os.sched_setaffinity(0, cpus)
    return results


def untraced(workload: str, seed: int, seconds: float, lines=None):
    """End-to-end metrics; ``lines`` replaces the script's first block (for tests)."""
    setup, setup_scale = setup_seconds()
    if workload == "repl":
        def step(i):
            return repl_pass(lines if lines is not None and i == 0 else script.block(seed, i))
    else:
        def step(i):
            return checks_pass(workload, pass_seed(seed, i))
    timed = until(seconds, with_reference(step))
    scale, passes = scale_of(timed), [p for _, p in timed]
    latencies = [t for lat, _, _ in passes for t in lat]
    walls = [sum(lat) for lat, _, _ in passes]
    q = statistics.quantiles(latencies, n=100, method="inclusive")
    failed = sum(f for _, f, _ in passes)
    measured = {
        "setup_s": setup,
        "verdict_s": statistics.median(walls),
        "cmds_per_s": len(latencies) / sum(walls),
        "op_p50_ms": q[49] * 1e3,
        "op_p80_ms": q[79] * 1e3,
        "op_p99_ms": q[98] * 1e3,
    }
    metrics = {name: value * (setup_scale if name == "setup_s" else scale) for name, value in measured.items()}
    metrics["cmds_per_s"] = measured["cmds_per_s"] / scale
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    output = passes[0][2]
    if workload == "repl":
        facts = [
            f"cmds_failed {failed} of {len(latencies)} cmds_run",
            f"passes {len(passes)} of {script.BLOCK_LINES} lines",
            f"output_sha256 {sha256(output)} (pass 0)",
        ]
    else:
        tsv = output + "\n"  # what `solidus --check --seed S --count N` prints
        header = "".join(line + "\n" for line in tsv.splitlines() if not line.startswith("#"))
        facts = [
            f"checks_failed {failed} of {len(latencies)} checks_run",
            f"passes {len(passes)} of {len(check_ids(workload))} checks at n={sample_count(workload)}",
            f"tsv_sha256 {sha256(tsv)} (seed {seed}, n={sample_count(workload)})",
            f"tsv_header_sha256 {sha256(header)}",
        ]
    facts += [
        f"scale {scale:.4f} (reference {REF_NOMINAL_S / scale ** (1 / REF_EXPONENT) * 1e3:.2f} ms, median of {len(timed)}),"
        f" setup scale {setup_scale:.4f}",
        "unscaled " + " ".join(f"{name} {value:.6g}" for name, value in measured.items()),
    ]
    return metrics, len(latencies), failed, facts


# --- traced cycles --------------------------------------------------------------


def traced_cycle(workload: str, seed: int):
    """Pass 0 untraced and traced, then probes; returns (tracer, metrics, ops, failed, facts)."""
    tr = tracing.Tracer()
    if workload == "repl":
        lines = script.block(seed, 0)
        failed, traced_s, untraced_s, values = tracing.run_lines(tr, lines)
        pool = tracing.operand_pool(values)
        failed += tracing.probe_draws(tr, pool, seed)
        failed += tracing.probe_checks(tr, pool, tracing.GROUPS)
        ops, facts = len(lines), []
    else:
        cfg, n, drawn = GeneratorConfig(seed=seed), sample_count(workload), []
        ids = check_ids(workload)
        t0 = perf_counter()
        want = [run_catalog(cfg, n=n, only=cid)[0] for cid in ids]
        t1 = perf_counter()
        got = tracing.replay_catalog(tr, ids, cfg, n, drawn)
        t2 = perf_counter()
        untraced_s, traced_s = t1 - t0, t2 - t1
        mismatched = [w.check_id for w, g in zip(want, got) if format_reports([w]) != format_reports([g])]
        failed = len(mismatched) + sum(check_wrong(w, n) for w in want)
        pool = tracing.operand_pool(drawn)
        reached = tr.durations()
        missing = [g for g in tracing.GROUPS if "checks.verdict." + g not in reached]
        failed += tracing.probe_checks(tr, pool, missing)
        probe_failed, _, _, _ = tracing.run_lines(tr, tracing.probe_lines(pool))
        failed += probe_failed
        ops = len(ids)
        facts = [f"replay_mismatches {len(mismatched)} of {len(ids)} checks {' '.join(mismatched)}".rstrip()]
    tracing.probe_layers(tr, pool)
    metrics = tracing.layer_metrics(tr)
    metrics["trace.wall_s"] = traced_s
    metrics["trace.overhead_pct"] = (traced_s - untraced_s) / untraced_s * 100
    if workload != "repl":
        shrink_share = (metrics["generate.shrink_s"] + metrics["checks.shrink_verdict_s"]) / traced_s
        facts.append(f"shrink_share_of_traced_wall {shrink_share:.3f}")
    return tr, metrics, ops, failed, facts


def traced(workload: str, seed: int, seconds: float, units: dict[str, str]):
    cycles = until(seconds, lambda i: traced_cycle(workload, seed))
    first = cycles[0][1]
    metrics, failed, unsteady = {}, sum(c[3] for c in cycles), []
    for name, value in first.items():
        values = [c[1][name] for c in cycles]
        if units.get(name) in TIME_UNITS:
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = value
            if any(v != value for v in values):
                unsteady.append(name)
    out = ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    trace_file = out / f"trace-{workload}-{seed}.json"
    trace_file.write_text(json.dumps(cycles[0][0].dump()))
    facts = [f"cycle 0: {fact}" for fact in cycles[0][4]] + [
        f"cycles {len(cycles)}",
        f"counts_not_repeated {len(unsteady)} {' '.join(unsteady)}".rstrip(),
        f"spans {len(cycles[0][0].spans)} written to {trace_file.relative_to(ROOT)}",
    ]
    ops = sum(c[2] for c in cycles)
    return metrics, ops, failed + len(unsteady), facts


# --- entry point ----------------------------------------------------------------


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: float, trace: int, lines=None) -> tuple[list[str], dict]:
    spec = declared()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if trace:
        metrics, attempted, failed, facts = traced(workload, seed, seconds, units)
    else:
        metrics, attempted, failed, facts = untraced(workload, seed, seconds, lines)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return [f"# {workload} seed={seed}: {fact}" for fact in facts], result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    facts, result = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
