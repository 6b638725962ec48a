"""Smoke test of the benchmark at tiny sizes: python3 -m pytest bench/test_bench.py -q"""

import json
import numbers

import pytest

import run
import script

TIME_UNITS = {"s", "ms", "us"}


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(run, "CATALOG_N", 3)
    monkeypatch.setattr(run, "SHRINK_N", 30)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    facts, result = run.run(workload, seed=0, seconds=0, trace=trace)
    spec = run.declared()["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0, facts
    assert result["attempted"] >= 1
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [(m["name"], m["unit"]) for m in spec]
    for name, m in result["metrics"].items():
        value = m["value"]
        assert isinstance(value, numbers.Real) and not isinstance(value, bool), name
        if not trace or m["unit"] in TIME_UNITS and name != "cli.overhead_us":
            assert value > 0, name
    json.dumps(result)


def test_planted_wrong_known_answer_counts_once():
    lines = script.block(0, 0) + [("(rho + 1)*(rho - 1) = rho^2", "true")]
    facts, result = run.run("repl", seed=0, seconds=0, trace=0, lines=lines)
    assert result["failed"] == 1 and not result["correct"]
    assert any(f"cmds_failed 1 of {len(lines)} cmds_run" in fact for fact in facts)


def test_times_are_scaled_by_the_median_reference():
    timed = [(run.REF_NOMINAL_S / 2, "a"), (run.REF_NOMINAL_S * 3, "b"), (run.REF_NOMINAL_S / 2, "c")]
    assert run.scale_of(timed) == pytest.approx(2.0**run.REF_EXPONENT)
    facts, result = run.run("catalog", seed=0, seconds=0, trace=0)
    (scale_fact,) = [f for f in facts if ": scale " in f]
    (unscaled,) = [f.split("unscaled ", 1)[1].split() for f in facts if "unscaled " in f]
    scale, raw = float(scale_fact.split(": scale ")[1].split()[0]), dict(zip(unscaled[::2], map(float, unscaled[1::2])))
    assert result["metrics"]["verdict_s"]["value"] == pytest.approx(raw["verdict_s"] * scale, rel=1e-3)
