"""BENCHMARK.json names exactly the metrics and workloads the benchmark reports."""

import json
from pathlib import Path

from tracing import PER_LAYER
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_per_layer_metrics_match_the_tracer():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


def test_end_to_end_metrics():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        [("study_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
