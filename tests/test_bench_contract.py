"""The benchmark in bench/ replays checks from outside the package.

It reads these attributes of every registry entry and calls each draw itself,
so removing or renaming one of them breaks the benchmark.  This test makes
such a change fail here as well.
"""

import importlib
import sys
from pathlib import Path

from solidus.checks import REGISTRY
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
