"""Smoke test of the benchmark at a tiny size: every metric BENCHMARK.json
names appears with its unit, and no operation fails on this code."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run(workload, trace, capsys):
    result = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)], tiny=True)
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == result


def test_declared_metrics_match_the_code():
    import tracing
    import workloads
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == tracing.PER_LAYER
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == workloads.WHY
