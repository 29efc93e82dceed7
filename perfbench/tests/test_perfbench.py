"""Tests of the benchmark itself: probes, percentiles, metric names.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

import probes
import stats
import workloads
from repro.broker.core import BrokerCore
from repro.broker.registry import ProviderRegistry
from repro.dag import patterns
from repro.tvm.compiler import compile_source

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_install_wraps_and_restore_puts_originals_back(tmp_path):
    originals = {
        (probe.owner, probe.attr): vars(probe.owner)[probe.attr]
        for probe in probes.PROBES
    }
    recorder = probes.Recorder(str(tmp_path))
    installed = probes.install(recorder)
    try:
        for (owner, attr), original in originals.items():
            wrapped = vars(owner)[attr]
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
        ProviderRegistry().views()
        assert [span[0] for span in recorder.spans] == ["registry.views"]
    finally:
        probes.restore(installed)
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original
    assert not hasattr(BrokerCore.handle, "__wrapped__")
    ProviderRegistry().views()
    assert len(recorder.spans) == 1  # unwrapped again: nothing recorded


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(list(range(999)), 99) is None
    assert stats.tail_percentile(list(range(1000)), 99) is not None
    assert stats.tail_percentile(list(range(20)), 50) is not None
    assert stats.tail_percentile(list(range(19)), 50) is None
    assert stats.tail_percentile(list(range(101)), 90) == 90


def test_self_time_subtracts_children():
    second = 10**9  # spans carry perf_counter_ns times
    spans = [
        ("broker.handle", 0, 10 * second, 1, None, "t",
         {"type": "heartbeat", "backlog": 0, "waits": []}),
        ("registry.views", second, 4 * second, 2, 1, "t", None),
        ("scheduling.select", 5 * second, 6 * second, 3, 1, "t", 2),
    ]
    metrics = probes.layer_metrics(spans)
    assert metrics["broker.self_s"] == 6.0
    assert metrics["registry.self_s"] == 3.0
    assert metrics["broker.handle.heartbeat.busy_s"] == 10.0
    assert metrics["registry.views_per_handle"] == 1.0
    assert metrics["scheduling.placed_per_select"] == 2.0


def test_every_metric_is_declared_and_well_named():
    spec = _spec()
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
    phase = workloads.Phase(rounds=[workloads.Round(1.0, 1, 0.5, [1.0])])
    run = workloads.Run([phase], [0.1])
    assert set(run.end_to_end()) | {"rss_peak_mb"} == end_to_end
    produced = set(probes.layer_metrics([]))
    produced |= {"broker.executions_per_tasklet"}
    produced |= {f"overhead.{name}" for name in end_to_end}
    assert produced == per_layer
    assert {workload["name"] for workload in spec["workloads"]} == set(workloads.WORKLOADS)


def test_calibration_runs_the_unwrapped_executor(tmp_path):
    recorder = probes.Recorder(str(tmp_path))
    installed = probes.install(recorder)
    try:
        program = compile_source(patterns.DAG_KERNEL)
        workloads.Calibration(program, [[1, 2, 3], 10, 7]).sample()
    finally:
        probes.restore(installed)
    assert recorder.spans == []


def test_host_scale_applies_to_times_but_not_to_efficiency():
    phase = workloads.Phase(
        slots=2, rounds=[workloads.Round(2.0, 8, 2.0, [0.5, 1.5], scale=0.5)]
    )
    assert phase.end_to_end() == {
        "tasklets_per_s": 8.0,
        "makespan_s": 1.0,
        "latency_p50_ms": 500.0,
        "efficiency": 0.5,
    }
    assert 0 < workloads.host_scale() < 100


def test_run_figures_are_means_over_deployments():
    fast = workloads.Phase(rounds=[workloads.Round(1.0, 10, 0.5, [0.1])])
    slow = workloads.Phase(rounds=[workloads.Round(2.0, 10, 0.5, [0.3])])
    metrics = workloads.Run([fast, slow], [0.1, 0.2, 0.3]).end_to_end()
    assert metrics == pytest.approx({
        "tasklets_per_s": 7.5,
        "makespan_s": 1.5,
        "latency_p50_ms": 200.0,
        "efficiency": 0.375,
        "setup_s": 0.2,
    })


def test_stencils_get_fresh_ids_and_seeded_salts():
    rng = random.Random(3)
    first = workloads.stencil_spec(rng, 4)
    second = workloads.stencil_spec(rng, 4)
    again = workloads.stencil_spec(random.Random(3), 4)
    assert first.workflow_id != second.workflow_id
    assert first.to_dict() == again.to_dict()


@pytest.mark.parametrize("workload", ["fine-bag", "stencil-dag"])
def test_traced_run_reports_layers_from_provider_processes(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["provider.handle.calls"] > 0
    assert metrics["executor.execute.calls"] > 0
    assert metrics["broker.handle.calls"] > 0
    assert metrics["aio.flushes"] > 0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fine-bag",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert not out.stdout.strip()
