"""Shared assertion: the broker's O(1) summaries agree with its state.

``BrokerCore`` keeps a queued-replica counter, the backlog as a deque
plus a membership set, and ``ProviderRegistry`` keeps a free-slot total
and per-provider cached views.  Each summary replaces a recount, so each
must equal the recount it replaced after any message sequence.
"""

from repro.broker.core import BrokerCore


def assert_summaries_exact(broker: BrokerCore) -> None:
    states = list(broker._tasklets.values())
    assert broker.queued_replicas == sum(state.pending_replicas for state in states)

    registry = broker.registry
    views = registry.views()
    assert registry.free_slots == sum(view.free_slots for view in views)
    alive = sorted(registry.alive_providers(), key=lambda record: record.provider_id)
    assert [view.provider_id for view in views] == [r.provider_id for r in alive]
    for view, record in zip(views, alive):
        # A cached view must match one built from the record right now.
        assert view.free_slots == max(
            0, record.capacity + registry.pipeline_depth - record.outstanding
        )
        assert view.outstanding == record.outstanding
        assert view.effective_speed == record.effective_speed
        assert view.reliability == record.reliability

    assert len(broker._backlog) == len(broker._backlogged)
    assert set(broker._backlog) == broker._backlogged
    # Nothing queued is stranded outside the backlog.
    for state in states:
        if state.pending_replicas:
            assert state.key in broker._backlogged
