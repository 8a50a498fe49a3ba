import json

import pytest

import calibration
import run
import workloads
from conftest import BENCH


def test_tail_keeps_ten_samples_beyond():
    values = list(range(100, 0, -1))  # 100..1, any order
    value, pct = run.tail(values)
    assert value == 90 and pct == 90.0
    assert sum(v > value for v in values) == 10
    assert run.tail([2.0, 1.0] + [5.0] * 9) == (1.0, pytest.approx(100 / 11))
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def _report(groups, group=1, items=None, failed=()):
    return {"groups": groups, "group": group, "items": items or len(groups) * group,
            "failed": list(failed)}


def test_digest_mismatch_counts_as_failed_item():
    ref = ["a", "b", "c"]
    assert run.bad_items(_report(["a", "b", "c"]), ref, ref) == set()
    assert run.bad_items(_report(["a", "x", "c"]), ref, ref) == {1}
    # agreeing with the first pass is not enough: the expected file decides
    assert run.bad_items(_report(["a", "b", "c"]), ref, ["a", "b", "z"]) == {2}
    assert run.bad_items(_report(["a", "b", "c"], failed=[0]), ref, None) == {0}


def test_group_mismatch_fails_every_item_of_the_group():
    report = _report(["g0", "gX", "g2"], group=100, items=250)
    assert run.bad_items(report, ["g0", "g1", "g2"], None) == set(range(100, 200))
    short = _report(["g0"], group=100, items=250)
    assert run.bad_items(short, ["g0", "g1", "g2"], None) == set(range(100, 250))


def test_latency_metrics_use_each_items_median_at_reference_speed():
    ref = calibration.REFERENCE_S
    # the same items at full, half and full speed again
    passes = [{"latencies_s": [0.1] * 20, "calibration_s": [ref] * 21, "before": list(range(20))},
              {"latencies_s": [0.2] * 20, "calibration_s": [2 * ref] * 21, "before": list(range(20))},
              {"latencies_s": [0.1] * 20, "calibration_s": [ref, ref], "before": [0] * 20}]
    latencies = run.item_latencies(passes)
    assert latencies == pytest.approx([0.1] * 20)
    assert run.latency_metrics(latencies, 0)["items_per_s"] == pytest.approx(10.0)
    assert run.latency_metrics(latencies, 4)["items_per_s"] == pytest.approx(8.0)
    assert run.latency_metrics(latencies, 0)["p50_ms"] == pytest.approx(100.0)


def test_independent_checks_reject_wrong_outputs():
    host = workloads.roundtrip_inputs(1, 1)[0]
    good = ("Type2", (1,) * 51, (), host)
    assert workloads.check_roundtrip(host, good)
    assert not workloads.check_roundtrip(host, ("Type1",) + good[1:])
    assert not workloads.check_roundtrip(host, ("Type2", (1,) * 50, (), host))
    assert not workloads.check_roundtrip(host, good[:3] + (host[1:],))
    big = (1, 2) * 400  # measure 800 > window_hi
    assert not workloads.check_canon(big, (big, 2))
    assert workloads.check_canon(big, ((1, 2) * 100, 2))
    outs = [((1,), (1,)), ((2,), (2,)), ((1,), (1,)), ((1, 2), (2,)), None]
    assert workloads.check_witness_items(outs) == [2, 3, 4]


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
