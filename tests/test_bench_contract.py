"""The benchmark in bench/ replays checks from outside the package.

It reads these attributes of every registry entry and calls each draw itself,
so removing or renaming one of them breaks the benchmark.  This test makes
such a change fail here as well.
"""

import hashlib
import importlib
import sys
from pathlib import Path

from solidus.checks import REGISTRY, format_reports, run_catalog
from solidus.cli import run_command
from solidus.generate import GeneratorConfig, Sampler

BENCH = Path(__file__).resolve().parent.parent / "bench"

CHECK_FIELDS = (
    "check_id",
    "group",
    "names",
    "single",
    "draw",
    "verdict",
    "expected",
    "expect_failures",
    "note",
)


def _import_bench(name: str):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


def test_bench_modules_import_against_this_registry():
    run = _import_bench("run")
    tracing = _import_bench("tracing")
    assert run.REGISTRY is REGISTRY
    assert tracing.REGISTRY is REGISTRY
    assert all(cid in REGISTRY for cid in tracing.GROUP_PROBES.values())


def test_registry_entries_expose_what_the_bench_reads():
    for chk in REGISTRY.values():
        for name in CHECK_FIELDS:
            assert hasattr(chk, name), (chk.check_id, name)
        values = chk.draw(Sampler(GeneratorConfig(seed=3), chk.check_id))
        if chk.single:
            assert values == (), chk.check_id
        else:
            assert len(values) == len(chk.names), chk.check_id


def test_bench_replay_matches_run_catalog():
    # pins GeneratorConfig(seed=), Sampler(cfg, label) and shrink(values, still_fails)
    tracing = _import_bench("tracing")
    ids = ["mutant.distributivity_naive"]
    cfg = GeneratorConfig(seed=3)
    replayed = tracing.replay_catalog(tracing.Tracer(), ids, cfg, 5, [])
    assert format_reports(replayed) == format_reports(run_catalog(cfg, 5, ids[0]))


def test_repl_output_pinned():
    # the REPL renderings of one benchmark script block and of large powers,
    # ratios and neutrices; a change of any rendered line changes the digest
    script = _import_bench("script")
    lines = [text for text, _ in script.block(0, 0)] + [
        "(rho+1)^200",
        "((rho+1)/(rho+2))^17",
        "(rho - 1 + rho^(-1)*L)^(-9)",
        "(1/(1+rho^(-1/3)) + rho^(-4)*o)^25",
        "(rho^(1/2) - 2)^(-5)",
        "o^0",
        "0^0",
    ]
    text = "\n".join(run_command(line) for line in lines)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "fb659e18cea9460b4c7be64e5dcecccff9d3fc8a54304752e6baeefd531239ab"


def test_three_thousand_repl_lines_pinned():
    # every line of the repl workload's first ten blocks at three seeds, seeds
    # outer and blocks inner, its outputs joined with no separator
    script = _import_bench("script")
    text = "".join(run_command(line) for seed in (11, 12, 13) for index in range(10) for line, _ in script.block(seed, index))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "de25ab009a61b46537758a59c9d508441ae6689092790d57c61595dfc415b4a2"
