"""Workload generators and the benchmark definition."""

import json
from pathlib import Path

import pytest

import hostspeed
import run
import tracer
import workloads
from gaborcert import lattice

N_CYCLES = 2


def _stream(name, seed):
    n = N_CYCLES * len(workloads.WORKLOADS[name].slots)
    return list(workloads.items(name, seed, stop=n))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_items_other_seed_other_items(name):
    a = _stream(name, 11)
    assert a == _stream(name, 11)
    assert [workloads.item(name, 11, i) for i in range(len(a))] == a
    b = _stream(name, 12)
    differ = [x.argv != y.argv for x, y in zip(a, b)]
    if name == "random_windows":    # only the random-window step has a seed
        assert all(d for x, d in zip(a, differ) if x.kind == "random-window")
    else:
        assert all(differ)


@pytest.mark.parametrize("name", ["certify_critical", "certify_long_extent",
                                  "framebounds_sections"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_every_generated_item_is_irrational_class(name, seed):
    for it in _stream(name, seed):
        density = it.params["alpha"] * it.params["beta"]
        assert not lattice.classify_ratio(density).is_rational
        assert workloads.is_irrational_class(density)
        assert 0.0 < density < 1.0


def test_rational_grids_are_refused():
    assert not workloads.is_irrational_class(0.62 * 0.70)
    assert lattice.classify_ratio(0.62 * 0.70).is_rational


def test_benchmark_json_names_every_workload_and_metric():
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for w in bench["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        tracer.layer_metric_units()
    records = [{"latency_s": 0.1 * (i + 1), "ref_s": hostspeed.REFERENCE_S}
               for i in range(20)]
    e2e = run.end_to_end(records, [1.0, 2.0, 3.0], 80.0, 85.0, True)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {k: unit for k, (_, unit) in e2e.items()}


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.nearest_rank(values, 50.0) == 50
    assert run.nearest_rank(values, 85.0) == 85
    assert run.nearest_rank([3.0], 90.0) == 3.0


def test_host_speed_scaling():
    # a host at half speed doubles both the probe and the item's latency
    ref = hostspeed.REFERENCE_S
    records = [{"latency_s": 0.4, "ref_s": 2 * ref}] * 5
    assert run.latencies_s(records, True) == pytest.approx([0.2] * 5)
    assert run.latencies_s(records, False) == [0.4] * 5
    e2e = run.end_to_end(records, [1.0], 80.0, 85.0, True)
    assert e2e["items_per_s"][0] == pytest.approx(5.0)
    assert e2e["latency_p50_ms"][0] == pytest.approx(200.0)
    assert hostspeed.probe() > 0.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_min_items_leave_ten_beyond_the_tail(name):
    wl = workloads.WORKLOADS[name]
    n = workloads.min_items(wl)
    assert n % len(wl.slots) == 0
    assert workloads.items_beyond_tail(n, wl.tail_percentile) >= 10
    assert workloads.items_beyond_tail(n - len(wl.slots),
                                       wl.tail_percentile) < 10
    lat = list(range(n))
    assert sum(x > run.nearest_rank(lat, wl.tail_percentile) for x in lat) \
        == workloads.items_beyond_tail(n, wl.tail_percentile)
