"""BENCHMARK.json and the metrics bench/run.py prints must agree."""

import json
from pathlib import Path

from run import DERIVED, END_TO_END, PER_LAYER
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)


def test_per_layer_metrics_match():
    declared = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert declared == [(name, unit) for name, unit, _ in PER_LAYER] + list(DERIVED)
