"""Protocol fuzzing: the broker survives any well-formed message sequence.

Hypothesis drives the broker with random-but-well-formed protocol
messages in arbitrary orders — registrations, duplicate results, results
for unknown executions, heartbeats from strangers, malformed tasklets,
cancels, unregisters.  After every step the broker's internal accounting
invariants must hold; it must never raise.
"""

from hypothesis import given, settings, strategies as st

from repro.broker.core import BrokerConfig, BrokerCore
from repro.common.clock import VirtualClock
from repro.common.ids import NodeId, TaskletId
from repro.core.qoc import QoC
from repro.core.tasklet import Tasklet
from repro.transport.message import (
    ExecutionRejected,
    ExecutionResult,
    Heartbeat,
    RegisterProvider,
    SubmitTasklet,
    Unregister,
)
from repro.tvm.compiler import compile_source

from .invariants import assert_summaries_exact

PROGRAM = compile_source("func main(x: int) -> int { return x; }")
PROVIDERS = ["p0", "p1", "p2"]
CONSUMERS = ["c0", "c1"]


def _actions():
    register = st.builds(
        lambda p, cap: ("register", RegisterProvider(
            provider_id=p, device_class="d", capacity=cap,
            benchmark_score=1e6,
        ), p),
        st.sampled_from(PROVIDERS),
        st.integers(min_value=1, max_value=3),
    )
    unregister = st.builds(
        lambda p: ("msg", Unregister(provider_id=p), p),
        st.sampled_from(PROVIDERS),
    )
    heartbeat = st.builds(
        lambda p, free: ("msg", Heartbeat(provider_id=p, free_slots=free), p),
        st.sampled_from(PROVIDERS + ["stranger"]),
        st.integers(min_value=0, max_value=3),
    )
    submit = st.builds(
        lambda c, n, r: ("submit", (c, n, r), c),
        st.sampled_from(CONSUMERS),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=3),
    )
    bad_submit = st.builds(
        lambda c: ("msg", SubmitTasklet(tasklet={"tasklet_id": "junk"}), c),
        st.sampled_from(CONSUMERS),
    )
    result = st.builds(
        lambda p, ex, ok, value: ("result", (p, ex, ok, value), p),
        st.sampled_from(PROVIDERS),
        st.integers(min_value=0, max_value=8),
        st.booleans(),
        st.integers(min_value=-3, max_value=3),
    )
    reject = st.builds(
        lambda p, ex: ("reject", (p, ex), p),
        st.sampled_from(PROVIDERS),
        st.integers(min_value=0, max_value=8),
    )
    tick = st.builds(lambda dt: ("tick", dt, ""), st.floats(min_value=0, max_value=5))
    return st.one_of(
        register, unregister, heartbeat, submit, bad_submit, result, reject, tick
    )


def _invariants(broker: BrokerCore) -> None:
    assert_summaries_exact(broker)
    for record in broker.registry._providers.values():
        assert record.outstanding >= 0
        assert record.capacity >= 1
    for state in broker._tasklets.values():
        assert not state.done  # done states are removed immediately
        assert state.issued <= state.budget
        assert state.pending_replicas >= 0
    # Every outstanding execution maps back to a live tasklet.
    for execution_id, key in broker._by_execution.items():
        assert key in broker._tasklets
        assert execution_id in broker._tasklets[key].outstanding
    assert broker.ledger.conservation_holds
    stats = broker.stats
    assert stats.tasklets_completed + stats.tasklets_failed <= stats.tasklets_submitted


@settings(max_examples=120, deadline=None)
@given(st.lists(_actions(), max_size=60))
def test_broker_survives_arbitrary_message_sequences(actions):
    clock = VirtualClock()
    broker = BrokerCore(clock=clock, config=BrokerConfig(execution_timeout=2.0))
    issued_executions: list[str] = []
    tasklet_counter = 0

    for kind, payload, src in actions:
        if kind == "tick":
            clock.advance(payload)
            outbound = broker.tick()
        elif kind == "submit":
            consumer, suffix, redundancy = payload
            tasklet_counter += 1
            tasklet = Tasklet(
                tasklet_id=TaskletId(f"tl-{suffix}-{tasklet_counter}"),
                program=PROGRAM,
                entry="main",
                args=[1],
                qoc=QoC(redundancy=redundancy, max_attempts=2),
            )
            outbound = broker.handle(
                SubmitTasklet(tasklet=tasklet.to_dict()).envelope(
                    NodeId(consumer), broker.node_id
                )
            )
        elif kind == "result":
            provider, index, ok, value = payload
            execution_id = (
                issued_executions[index % len(issued_executions)]
                if issued_executions
                else f"ex-unknown-{index}"
            )
            body = ExecutionResult(
                execution_id=execution_id,
                tasklet_id="tl-any",
                provider_id=provider,
                status="success" if ok else "vm_error",
                value=value,
                error=None if ok else "boom",
                instructions=10,
                started_at=clock.now(),
                finished_at=clock.now(),
            )
            outbound = broker.handle(body.envelope(NodeId(provider), broker.node_id))
        elif kind == "reject":
            provider, index = payload
            execution_id = (
                issued_executions[index % len(issued_executions)]
                if issued_executions
                else f"ex-unknown-{index}"
            )
            body = ExecutionRejected(
                execution_id=execution_id,
                tasklet_id="tl-any",
                provider_id=provider,
            )
            outbound = broker.handle(body.envelope(NodeId(provider), broker.node_id))
        else:  # register / msg
            outbound = broker.handle(payload.envelope(NodeId(src), broker.node_id))

        for envelope in outbound:
            if envelope.type == "assign_execution":
                issued_executions.append(envelope.payload["execution_id"])
        _invariants(broker)
