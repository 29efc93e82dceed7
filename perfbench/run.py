"""End-to-end Tasklet benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fine-bag --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout (the package is imported from
``src/``; nothing is built).  ``--trace 0`` measures the end-to-end
metrics with the program unwrapped.  ``--trace 1`` runs the workload
twice for half of ``--seconds`` each: first unwrapped, as a ``--trace 0``
run in a process of its own, then here with every layer wrapped (see
``probes.py``).  It reports per-layer metrics plus the tracing overhead
on each end-to-end metric; the spans go to
``.perfbench/trace-<workload>.jsonl.gz``.

Human-readable lines come first; the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(each ``{"value", "unit"}``).  Any wrong, failed or missing result makes
the exit code 1; so does a leak found by the clean-state check.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import random
import resource
import subprocess
import sys
import time

from stats import median, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")


def _load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def _units(spec: dict, key: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def _rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: float):
    """Run one workload; returns (run, end-to-end metrics)."""
    run = workload.measure(random.Random(seed), seconds)
    metrics = run.end_to_end()
    metrics["rss_peak_mb"] = _rss_peak_mb()
    return run, metrics


def untraced_in_child(name: str, seed: int, seconds: float) -> dict:
    """A ``--trace 0`` run in its own process; returns its result line.

    Its own process keeps its peak RSS apart from the traced run's.
    """
    from workloads import BenchmarkError

    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=150,
    )
    lines = child.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise BenchmarkError(f"untraced run exited {child.returncode} without a result")
    return json.loads(lines[-1])


def traced(workload, seed: int, seconds: float, name: str):
    """The ``--trace 1`` run: unwrapped, then wrapped, on the same inputs.

    Returns the traced run, the per-layer metrics and the untraced run's
    result.
    """
    import probes

    plain = untraced_in_child(name, seed, seconds)
    recorder = probes.Recorder(OUT_DIR)
    recorder.collect_children()  # drop spans a killed run left behind
    installed = probes.install(recorder)
    try:
        run, wrapped = measure(workload, seed, seconds)
    finally:
        probes.restore(installed)
    recorded = recorder.spans + recorder.collect_children()
    spans = [
        span
        for phase in run.phases
        for span in probes.in_window(recorded, phase.started, phase.finished)
    ]
    probes.write_trace(
        os.path.join(OUT_DIR, f"trace-{name}.jsonl.gz"),
        {"workload": name, "seed": seed},
        spans,
    )
    # Traced runs also check every DAG node's output, not only the sinks.
    values = probes.dag_values(spans)
    for phase in run.phases:
        for workflow_id, expected in phase.node_oracle.items():
            phase.wrong += sum(
                1
                for node, value in values.get(workflow_id, {}).items()
                if expected.get(node) != value
            )
    metrics = probes.layer_metrics(spans)
    finished = sum(phase.finished_tasklets for phase in run.phases)
    metrics["broker.executions_per_tasklet"] = (
        sum(phase.executions for phase in run.phases) / finished if finished else 0.0
    )
    for key, value in wrapped.items():
        metrics[f"overhead.{key}"] = value / plain["metrics"][key]["value"] - 1.0
    return run, metrics, plain


def _machine() -> dict:
    from workloads import provider_count

    return {
        "nproc": provider_count(),
        "python": platform.python_version(),
        "transport": "TCP over loopback (127.0.0.1)",
        "start_method": multiprocessing.get_start_method(),
    }


def _report(name, seed, loop, run, plain, metrics, units, machine) -> dict:
    """Print the human-readable lines; returns the result object.

    ``plain`` is the untraced run's result in a traced run, else None.
    """
    attempted = run.attempted
    bad = run.bad
    print(f"workload {name}  seed {seed}  loop: {loop}")
    print("machine " + "  ".join(f"{key}={value}" for key, value in machine.items()))
    if plain is not None:
        attempted += plain["attempted"]
        bad += plain["failed"]
        print(
            f"  untraced run (own process): attempted {plain['attempted']}  "
            f"failed {plain['failed']}"
        )
    latencies = [t for phase in run.phases for t in phase.latencies_s()]
    p99 = tail_percentile(latencies, 99)
    print(
        f"  {len(run.phases)} deployments  attempted {run.attempted}  "
        f"ok {sum(phase.ok for phase in run.phases)}  "
        f"wrong {sum(phase.wrong for phase in run.phases)}  "
        f"failed+missing {sum(phase.failed for phase in run.phases)}  "
        f"failed_frac {run.bad / max(1, run.attempted):.4f}  "
        f"latency samples {len(latencies)}  latency_p99_ms "
        + (f"{p99 * 1000.0:.3f}" if p99 is not None else "n/a (<10 beyond)")
    )
    scales = [r.scale for phase in run.phases for r in phase.rounds]
    print(
        f"  host speed scale over {len(scales)} rounds: median {median(scales):.3f}  "
        f"min {min(scales):.3f}  max {max(scales):.3f}"
    )
    for key, value in metrics.items():
        print(f"  {key:<42} {value:>14.6g} {units[key]}")
    return {
        "correct": bad == 0,
        "attempted": attempted,
        "failed": bad,
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no source tree at {ROOT}/src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS, BenchmarkError

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    spec = _load_spec()
    started = time.perf_counter()
    plain = None
    try:
        if args.trace:
            run, metrics, plain = traced(
                workload, args.seed, args.seconds / 2, args.workload
            )
            units = _units(spec, "per_layer")
        else:
            run, metrics = measure(workload, args.seed, args.seconds)
            units = _units(spec, "end_to_end")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(
            f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
            "BENCHMARK.json",
            file=sys.stderr,
        )
        return 1
    bad = [key for key, value in metrics.items() if not math.isfinite(value)]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1
    result = _report(
        args.workload, args.seed, workload.loop, run, plain, metrics, units, _machine()
    )
    print(f"run took {time.perf_counter() - started:.1f} s")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
