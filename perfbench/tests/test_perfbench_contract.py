"""BENCHMARK.json names exactly what the benchmark measures."""

import json
import os

import primitives
import run
from qgcheck import builtin
from reduce import reduce_stats
from workloads import WORKLOADS

SPEC = os.path.join(os.path.dirname(__file__), "..", "..", "BENCHMARK.json")


def spec():
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def test_workloads_match():
    assert [w["name"] for w in spec()["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_and_units_match():
    declared = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert declared == run.END_TO_END_UNITS


def test_per_layer_metrics_and_units_match():
    declared = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    produced = (set(reduce_stats({}))
                | set(primitives.measure(builtin("c_z2")))
                | {"cli.import_s", "proc.cpu_s", "trace.overhead_s",
                   "error_rate"})
    assert set(declared) == produced
    assert all(run.unit_of(name) == unit for name, unit in declared.items())
