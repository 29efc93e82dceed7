"""The broker's cost per message does not grow with backlog depth.

Two guards: a deterministic one that counts placement attempts per
inbound message against a deep backlog, and a simulator-driven one that
compares per-tasklet wall time at two batch sizes.  The second is a
ratio, so it holds on any machine speed.
"""

import time
from collections import deque

from repro.broker.core import BrokerConfig, BrokerCore
from repro.broker.scheduling import QoCStrategy
from repro.common.clock import VirtualClock
from repro.common.ids import NodeId, TaskletId
from repro.core.qoc import QoC
from repro.core.tasklet import Tasklet
from repro.sim.devices import make_pool
from repro.sim.runner import Simulation
from repro.transport.message import (
    AssignExecution,
    ExecutionResult,
    Heartbeat,
    RegisterProvider,
    SubmitTasklet,
    body_of,
)
from repro.tvm.compiler import compile_source

from .invariants import assert_summaries_exact

PROGRAM = compile_source("func main(x: int) -> int { return x + 1; }")


class CountingStrategy:
    """Delegates to the default strategy, counting ``select`` calls."""

    name = "counting"

    def __init__(self):
        self.inner = QoCStrategy()
        self.calls = 0

    def select(self, views, n, qoc):
        self.calls += 1
        return self.inner.select(views, n, qoc)


def test_select_calls_per_message_bounded_by_free_slots():
    backlog = 1000
    clock = VirtualClock()
    strategy = CountingStrategy()
    broker = BrokerCore(
        clock=clock, strategy=strategy, config=BrokerConfig(execution_timeout=None)
    )
    assigns: deque[AssignExecution] = deque()

    def send(body, src):
        free_before = broker.registry.free_slots
        calls_before = strategy.calls
        out = broker.handle(body.envelope(NodeId(src), broker.node_id))
        placed = [
            body_of(envelope)
            for envelope in out
            if isinstance(body_of(envelope), AssignExecution)
        ]
        assigns.extend(placed)
        # A result frees one slot; nothing else this test sends does.
        freed = 1 if isinstance(body, ExecutionResult) else 0
        assert strategy.calls - calls_before <= free_before + freed + 1

    send(
        RegisterProvider(
            provider_id="p1", device_class="server", capacity=2, benchmark_score=1e6
        ),
        "p1",
    )
    capacity = broker.registry.free_slots
    for index in range(backlog + capacity):
        tasklet = Tasklet(
            tasklet_id=TaskletId(f"tl-{index}"),
            program=PROGRAM,
            entry="main",
            args=[index],
            qoc=QoC(),
        )
        send(SubmitTasklet(tasklet=tasklet.to_dict()), "c1")
    assert broker.queued_replicas == backlog
    assert_summaries_exact(broker)

    completed = 0
    while assigns:
        assign = assigns.popleft()
        send(
            ExecutionResult(
                execution_id=assign.execution_id,
                tasklet_id=assign.tasklet_id,
                provider_id="p1",
                status="success",
                value=assign.args[0] + 1,
                instructions=10,
                started_at=clock.now(),
                finished_at=clock.now(),
            ),
            "p1",
        )
        completed += 1
        if completed % 100 == 0:
            send(Heartbeat(provider_id="p1", free_slots=0), "p1")
    assert broker.stats.tasklets_completed == backlog + capacity
    assert broker.queued_replicas == 0
    assert_summaries_exact(broker)


def _seconds_per_tasklet(count: int) -> float:
    simulation = Simulation(seed=1)
    for config in make_pool({"server": 2}, seed=1):
        simulation.add_provider(config)
    consumer = simulation.add_consumer()
    start = time.perf_counter()
    futures = consumer.library.map(PROGRAM, [[index] for index in range(count)])
    simulation.run(max_time=1e6)
    elapsed = time.perf_counter() - start
    assert [future.result(0) for future in futures] == list(range(1, count + 1))
    return elapsed / count


def test_per_tasklet_time_flat_in_batch_size():
    # Best of a few runs each side rejects scheduler noise; a broker
    # whose per-message cost grows with the backlog is ~50x off here.
    small = min(_seconds_per_tasklet(500) for _ in range(3))
    large = min(_seconds_per_tasklet(8000) for _ in range(2))
    assert large <= 2.0 * small, (
        f"per-tasklet time {large * 1e3:.3f} ms at N=8000 vs "
        f"{small * 1e3:.3f} ms at N=500"
    )
