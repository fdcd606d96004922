"""Tests of the benchmark harness: span arithmetic, the workloads' checks at
a tiny size, and failure counting.

    python -m pytest bench/tests -q
"""

import contextlib
import functools
import io
import json
import os
import shutil
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import run_bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_spans():
    # main [0, 10] -> solve [1, 7] -> rates [2, 3], rates [4, 6]; write [8, 9]
    spans = [
        ["main", 0.0, 10.0, -1],
        ["solve", 1.0, 7.0, 0],
        ["rates", 2.0, 3.0, 1],
        ["rates", 4.0, 6.0, 1],
        ["write", 8.0, 9.0, 0],
    ]
    stats = tracer.summarize(spans)
    assert stats["main"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert stats["solve"] == {"calls": 1, "s": 6.0, "self_s": 3.0}
    assert stats["rates"] == {"calls": 2, "s": 3.0, "self_s": 3.0}
    assert stats["write"]["self_s"] == 1.0


def test_self_time_of_recursive_spans():
    # F [0, 10] calls itself twice, [1, 4] and [5, 9]; the second calls H [6, 8]
    spans = [
        ["F", 0.0, 10.0, -1],
        ["F", 1.0, 4.0, 0],
        ["F", 5.0, 9.0, 0],
        ["H", 6.0, 8.0, 2],
    ]
    stats = tracer.summarize(spans)
    # one outermost call; busy time counts the nested calls once
    assert stats["F"]["calls"] == 1
    assert stats["F"]["s"] == 10.0
    # self time: 10 - 7 + 3 + (4 - 2)
    assert stats["F"]["self_s"] == 8.0
    assert stats["H"] == {"calls": 1, "s": 2.0, "self_s": 2.0}
    assert tracer.busy_time(spans, ("F", "H")) == 10.0
    assert tracer.busy_time(spans, ("H",)) == 2.0


def test_tracer_counts_outermost_survival_F_only():
    import numpy as np
    from elapsednet import models

    model = models.FiringRateModel(kind="smooth", p_inf=1.0, sigma=models.SigmaMap("identity"),
                                   p_star=0.5, s_star=13.0, theta=0.5)
    original = models.survival_F
    t = tracer.Tracer()
    t.install()
    try:
        models.survival_F(model, np.array([1.0, 2.0, 3.0]))
    finally:
        t.uninstall()
    assert models.survival_F is original
    stats = tracer.summarize(t.spans)
    assert stats["models.survival_F"]["calls"] == 1
    assert t.counters["models.survival_F.points"] == 3
    assert stats["models.cumulative_hazard"]["calls"] == 3
    assert not t.missing


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run_bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.LAYER_UNITS
    assert tuple(w["name"] for w in bench["workloads"]) == run_bench.WORKLOAD_NAMES
    assert set(workloads.WORKLOADS) == set(run_bench.WORKLOAD_NAMES)


@pytest.fixture
def scratch():
    directory = os.path.join(run_bench.TMP_ROOT, f"test-{os.getpid()}")
    os.makedirs(directory, exist_ok=True)
    yield directory
    shutil.rmtree(directory, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(run_bench.TMP_ROOT)


@pytest.mark.parametrize("name", run_bench.WORKLOAD_NAMES)
def test_tiny_run_passes_its_check_at_seed(name, scratch):
    spec = workloads.WORKLOADS[name].prepare(workloads.DEFAULT_SEED, "tiny", scratch)
    result = run_bench.run_sample(spec, os.path.join(scratch, "sample"), 0, trace=True)
    assert result["ok"], result["problems"]
    for key in ("wall_s", "setup_s", "solver_s", "ref_s"):
        assert result[key] > 0
    metrics = tracer.layer_metrics(result["trace"])
    assert set(metrics) == set(tracer.LAYER_UNITS) - {"trace.overhead_s"}
    assert not result["trace"]["missing"]


def test_tiny_run_at_another_seed_passes_its_check(scratch):
    spec = workloads.WORKLOADS["full-lagged"].prepare(7, "tiny", scratch)
    assert spec["source"][0] == "--config"
    result = run_bench.run_sample(spec, os.path.join(scratch, "sample"), 0, trace=False)
    assert result["ok"], result["problems"]


def test_injected_nan_is_counted_as_failed(monkeypatch):
    monkeypatch.setattr(run_bench, "run_sample",
                        functools.partial(run_bench.run_sample, inject_nan=True))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run_bench.main(["--workload", "full-lagged", "--seed", "0", "--seconds", "0",
                               "--trace", "0", "--size", "tiny"])
    assert code == 0
    lines = stdout.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    # the workload samples fail their check; the set-up-only children that
    # top up the set-up samples check nothing and pass
    assert result["attempted"] == run_bench.MIN_SETUP_SAMPLES
    assert result["failed"] == run_bench.MIN_SAMPLES
    assert any("non-finite values in run/N.csv" in line for line in lines)


def test_oracle_nan_is_caught(scratch):
    spec = workloads.WORKLOADS["oracle-ref"].prepare(workloads.DEFAULT_SEED, "tiny", scratch)
    result = run_bench.run_sample(spec, os.path.join(scratch, "sample"), 0, trace=False,
                                  inject_nan=True)
    assert not result["ok"]
    assert result["problems"] == ["non-finite values in oracle field"]
