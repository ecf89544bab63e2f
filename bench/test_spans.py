"""Tests of the benchmark's span and metric arithmetic on synthetic data.

Run with: python3 -m pytest bench/test_spans.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from reference import NOMINAL_S
from run import END_TO_END, PER_LAYER, end_to_end, tail
from spans import Tracer, self_times, summarize


def test_self_time_subtracts_nested_children():
    # root [0, 10] with children [1, 3] and [4, 8]; [4, 8] has child [5, 6]
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 3.0, 8.0, 6.0]
    parent = [-1, 0, 0, 2]
    assert self_times(start, end, parent).tolist() == [4.0, 2.0, 3.0, 1.0]


def test_tracer_records_parents_ops_and_work():
    tracer = Tracer()
    leaf = tracer.wrap("m.leaf", lambda x: x, work=lambda x: 2 * x)
    root = tracer.wrap("m.root", lambda: leaf(3) + leaf(4))
    assert root() == 7  # inactive: no spans
    tracer.active = True
    tracer.op_id = 5
    assert root() == 7
    cols = tracer.arrays()
    assert [cols["names"][i] for i in cols["name"]] == ["m.root", "m.leaf", "m.leaf"]
    assert cols["parent"].tolist() == [-1, 0, 0]
    assert cols["op"].tolist() == [5, 5, 5]
    table = summarize(cols)
    assert table["m.leaf"]["calls"] == 2 and table["m.leaf"]["work"] == 14
    root_span = cols["end"][0] - cols["start"][0]
    assert table["m.root"]["self_s"] == pytest.approx(
        root_span - table["m.leaf"]["total_s"], abs=1e-12)
    assert np.all(cols["end"] >= cols["start"])


def test_tail_is_highest_percentile_with_ten_ops_beyond():
    times = [float(i) for i in range(1, 31)]  # 30 ops
    assert tail(times) == (20.0, pytest.approx(100.0 * 20 / 30))
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert tail([float(i) for i in range(19)]) == (18.0, 100.0)


def test_normalized_p50_scales_each_op_by_its_reference():
    ops = [{"seconds": t, "ref_s": r, "passed": True, "replicas": 0,
            "out_bits": 0, "std_err": None}
           for t, r in ((2.0, 0.1), (1.0, 0.025), (3.0, 0.1))]
    gated, extra = end_to_end(ops, setup_s=0.3)
    # op time / reference time: 20, 40, 30
    assert gated["op_p50_norm_s"] == pytest.approx(30 * NOMINAL_S)
    assert extra["op_p50_s"] == 2.0 and extra["fail_frac"] == 0.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
