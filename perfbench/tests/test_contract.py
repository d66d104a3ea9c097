"""BENCHMARK.json declares what the harness prints."""

import json
import os

import layers
import run
import workloads


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (name, workload.why) for name, workload in workloads.WORKLOADS.items()]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == [
        (name, unit, better)
        for name, unit, better, _moves, _on in layers.LAYER_METRICS]
