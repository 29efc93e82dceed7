"""Broker backlog-scaling benchmark: per-tasklet broker time versus batch size.

The broker must cost the same per message whatever the depth of its
backlog.  This sweep maps ``N`` trivial tasklets
(``func main(x: int) -> int { return x + 1; }``) onto two simulated
``server`` providers, so all but a few slots' worth of the batch waits in
the backlog, and records the time spent inside ``BrokerCore.handle`` and
``BrokerCore.tick`` per tasklet, plus the whole run's wall time per
tasklet.  The simulator makes the message sequence deterministic, so the
only thing that varies with ``N`` is the backlog depth each message
meets.

Results land in ``BENCH_broker.json`` at the repo root.  :func:`check`
is the CI perf guard: broker time per tasklet at every sweep point must
stay within ``RATIO_CEILING``x the ``N = 500`` point.  A broker that
rescans its backlog per message costs O(N) per tasklet here.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_broker_backlog.py``,
the CI broker-backlog-perf job) or under pytest
(``pytest benchmarks/bench_broker_backlog.py``).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

try:
    from repro.sim.runner import Simulation
except ImportError:  # running as a plain script without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.sim.runner import Simulation

from repro.sim.devices import make_pool
from repro.tvm.compiler import compile_source

#: Batch sizes to sweep; the first is the reference point.
SWEEP = (500, 2000, 8000)

#: Fresh simulations per point; the fastest is recorded (the
#: bench_micro_vm noise-rejection recipe).
REPEATS = 3

#: CI guard: broker time per tasklet at any point over the first point.
RATIO_CEILING = 2.0

PROGRAM = compile_source("func main(x: int) -> int { return x + 1; }")


def _timed(method, totals: dict, name: str):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return method(*args, **kwargs)
        finally:
            totals[name] += time.perf_counter() - start
            totals[name + "_calls"] += 1

    return wrapper


def run_once(count: int, seed: int = 1) -> dict:
    """One simulated batch of ``count`` tasklets; checks every result."""
    simulation = Simulation(seed=seed)
    for config in make_pool({"server": 2}, seed=seed):
        simulation.add_provider(config)
    consumer = simulation.add_consumer()
    broker = simulation.broker
    totals = {"handle": 0.0, "handle_calls": 0, "tick": 0.0, "tick_calls": 0}
    # The simulator looks both methods up on the instance per call.
    broker.handle = _timed(broker.handle, totals, "handle")
    broker.tick = _timed(broker.tick, totals, "tick")
    start = time.perf_counter()
    futures = consumer.library.map(PROGRAM, [[index] for index in range(count)])
    simulation.run(max_time=1e6)
    wall = time.perf_counter() - start
    values = [future.result(0) for future in futures]
    if values != list(range(1, count + 1)):
        raise AssertionError(f"wrong results at N={count}")
    return {
        "tasklets": count,
        "broker_us_per_tasklet": round(
            (totals["handle"] + totals["tick"]) / count * 1e6, 2
        ),
        "wall_us_per_tasklet": round(wall / count * 1e6, 2),
        "broker_messages": totals["handle_calls"],
    }


def measure() -> dict:
    """Sweep batch sizes; returns the BENCH_broker.json payload."""
    points = []
    for count in SWEEP:
        runs = [run_once(count) for _ in range(REPEATS)]
        points.append(min(runs, key=lambda run: run["broker_us_per_tasklet"]))
    reference = points[0]["broker_us_per_tasklet"]
    for point in points:
        point["ratio_vs_first"] = round(point["broker_us_per_tasklet"] / reference, 3)
    return {
        "benchmark": "broker_backlog",
        "workload": (
            "simulator map of N x+1 tasklets onto make_pool({'server': 2}), "
            "seed 1; broker time = BrokerCore.handle + tick"
        ),
        "machine": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "processor": platform.machine(),
        },
        "repeats": REPEATS,
        "points": points,
        "ratio_ceiling": RATIO_CEILING,
    }


def write_report(payload: dict) -> Path:
    path = Path(__file__).resolve().parents[1] / "BENCH_broker.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def check(payload: dict) -> None:
    """The perf guard: a flat curve, against the first sweep point."""
    worst = max(payload["points"], key=lambda point: point["ratio_vs_first"])
    assert worst["ratio_vs_first"] <= RATIO_CEILING, (
        f"broker backlog regression: {worst['broker_us_per_tasklet']} us/tasklet "
        f"at N={worst['tasklets']} is {worst['ratio_vs_first']}x the "
        f"N={payload['points'][0]['tasklets']} point; ceiling {RATIO_CEILING}x"
    )


def test_broker_backlog_scaling():
    """Pytest entry point: measure, record, and enforce the ceiling."""
    payload = measure()
    write_report(payload)
    check(payload)


def main() -> int:
    payload = measure()
    path = write_report(payload)
    print(f"{'N':>6} {'broker us/tl':>13} {'wall us/tl':>11} {'ratio':>6}")
    for point in payload["points"]:
        print(
            f"{point['tasklets']:>6} {point['broker_us_per_tasklet']:>13.1f} "
            f"{point['wall_us_per_tasklet']:>11.1f} {point['ratio_vs_first']:>5.2f}x"
        )
    print(f"-> {path}")
    try:
        check(payload)
    except AssertionError as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
