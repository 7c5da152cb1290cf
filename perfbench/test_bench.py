"""The benchmark's own tests, on the tiny ``smoke`` workload.

    python3 -m pytest perfbench/test_bench.py -q
"""

import json
import math
from pathlib import Path

import oracles
import run
import tracing

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_every_metric_is_printed_with_its_unit(capsys):
    for flag, section in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "smoke", "--seconds", "0.2", "--trace", str(flag)]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared(section)
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_corrupted_reference_digest_counts_as_failure():
    refs = run.reference_digests("smoke", 1)
    clean, _ = run.measure("smoke", 1, 0.0, trace=False, references=refs)
    last = clean.jobs[-1].name
    refs[last] = [refs[last][0], "0" * 64]
    corrupted, metrics = run.measure("smoke", 1, 0.0, trace=False, references=refs)
    assert clean.failures == []
    assert len(corrupted.failures) == 1 and corrupted.failures[0].startswith(last)
    assert metrics["ok_rate"] < 1


def test_layer_self_times_and_harness_add_up_to_traced_wall():
    traced, metrics = run.measure("smoke", 1, 0.2, trace=True, references={})
    assert traced.balances
    for parts, wall in traced.balances:
        assert math.isclose(parts, wall, rel_tol=1e-9, abs_tol=1e-12)
    assert metrics["cli.main.calls"] == len(traced.jobs)
    assert metrics["words.is_reduced.calls"] > 0
    assert set(metrics) == set(tracing.metric_units())


def test_surface_subgroup_counts():
    counts = {(2, 3): 220, (2, 4): 5275, (3, 2): 63, (3, 3): 7924, (4, 2): 255, (2, 5): 151086}
    for (genus, index), count in counts.items():
        assert oracles.surface_subgroups(genus, index) == count
