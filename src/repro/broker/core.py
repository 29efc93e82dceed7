"""The broker: sans-IO mediation between consumers and providers.

:class:`BrokerCore` is a pure state machine: every inbound
:class:`~repro.transport.message.Envelope` (and every timer ``tick``)
returns the list of outbound envelopes to deliver.  It performs no IO and
reads time only through the injected clock, so the identical broker runs
unchanged inside the discrete-event simulator and behind the real TCP
server.

Responsibilities:

* provider membership and heartbeat-based failure detection;
* admission of Tasklets and replica placement through a pluggable
  scheduling strategy;
* the QoC machinery: redundant execution with majority voting, re-issue
  of failed/lost/timed-out executions within the attempt budget, deadline
  enforcement, cost filtering (inside the strategy);
* replica queueing when the pool is saturated, drained as capacity frees;
* durability: admissions and terminal outcomes are journalled (when a
  :class:`~repro.broker.journal.WorkJournal` is attached), pending work is
  re-admitted after a restart, and identical resubmissions are answered
  from journalled completions or the result-memoization cache instead of
  being re-executed (Tasklets are deterministic and side-effect-free).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field

from ..common.clock import Clock
from ..common.errors import TaskletError, WorkflowSpecError
from ..common.ids import ExecutionId, IdGenerator, NodeId, TaskletId
from ..core.qoc import QoC
from ..core.results import ExecutionRecord, ExecutionStatus, VoteCollector
from ..core.tasklet import Tasklet
from ..dag.scheduler import DONE as NODE_DONE
from ..dag.scheduler import FAILED as NODE_FAILED
from ..dag.scheduler import RUNNING as NODE_RUNNING
from ..dag.scheduler import DagScheduler
from ..dag.spec import WorkflowSpec
from ..obs import events as ev
from ..obs.health import (
    GRADE_RANK,
    HealthMetrics,
    HealthModel,
    StragglerWatchdog,
    overall_status,
)
from ..obs.telemetry import (
    BrokerMetrics,
    FederationMetrics,
    Telemetry,
    WorkflowMetrics,
)
from ..obs.trace import TraceContext
from .accounting import CostLedger
from .federation import (
    FederationConfig,
    FederationCore,
    PEER_CAME_UP,
    PEER_EPOCH_CHANGED,
)
from .journal import (
    CompletionRecord,
    ResultCache,
    WorkJournal,
    memo_key_of,
    replay_journal,
)
from .registry import ProviderRegistry
from .scheduling import QoCStrategy, Strategy
from ..transport.message import (
    AssignExecution,
    BROKER_ADDRESS,
    CancelExecution,
    Envelope,
    ExecutionRejected,
    ExecutionResult,
    ForwardAck,
    ForwardComplete,
    ForwardTasklet,
    GossipDigest,
    Heartbeat,
    HeartbeatAck,
    MessageBody,
    PeerHello,
    REASON_UNKNOWN_PROVIDER,
    RegisterAck,
    RegisterProvider,
    SubmitAck,
    SubmitTasklet,
    SubmitWorkflow,
    TaskletComplete,
    Unregister,
    WorkflowAck,
    WorkflowComplete,
    WorkflowUpdate,
    body_of,
)


@dataclass
class BrokerConfig:
    """Tunable broker behaviour."""

    heartbeat_interval: float = 1.0
    heartbeat_tolerance: float = 3.0  # intervals of silence before "dead"
    execution_timeout: float | None = 30.0  # per-execution re-issue horizon
    max_queued_replicas: int = 100_000
    #: When False, scheduling trusts self-reported benchmark scores and
    #: never learns from observed execution rates (ablation A1).
    learn_speed: bool = True
    #: Executions kept in flight per provider beyond its slots; hides the
    #: result->assign network round trip for fine-grained Tasklets
    #: (ablation A5).  0 = assign only to genuinely free slots.
    pipeline_depth: int = 0
    #: Straggler watchdog: alert when an outstanding execution exceeds
    #: this multiple of its expected runtime (learned program profile /
    #: provider speed).  Advisory only; re-issue policy is unchanged.
    straggler_multiple: float = 4.0
    #: Floor on expected runtime, absorbing scheduling/transport jitter
    #: for very short programs.
    straggler_min_expected_s: float = 0.05
    #: Serve repeated identical submissions (same program fingerprint,
    #: entry, args, seed, fuel) from the result cache with zero
    #: executions issued.  Safe because Tasklets are deterministic and
    #: side-effect-free; disable to force every submission to execute.
    memoize_results: bool = True
    #: LRU capacity of the result-memoization cache (<= 0 disables it
    #: regardless of ``memoize_results``).
    result_cache_size: int = 4096
    #: Completed-tasklet records retained in memory for idempotent
    #: resubmit re-delivery (LRU by completion recency).
    completed_retention: int = 8192


@dataclass
class BrokerStats:
    """Counters the benchmark harness reads after a run."""

    tasklets_submitted: int = 0
    tasklets_completed: int = 0
    tasklets_failed: int = 0
    executions_issued: int = 0
    executions_succeeded: int = 0
    executions_failed: int = 0
    executions_timed_out: int = 0
    executions_lost: int = 0
    replicas_queued: int = 0
    providers_failed: int = 0
    #: Replicas dropped because the scheduling backlog was full (the
    #: owning tasklet is failed fast instead of stranded).
    replicas_overflowed: int = 0
    #: Pending tasklets re-admitted from the work journal at startup.
    tasklets_recovered: int = 0
    #: Journalled completions re-delivered on idempotent resubmit.
    completions_redelivered: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    #: Automatic in-place journal rewrites (threshold-triggered).
    journal_compactions: int = 0
    # -- federation ---------------------------------------------------------
    #: Submissions placed on a peer broker instead of the local pool.
    tasklets_forwarded: int = 0
    #: Forwards admitted from peer brokers (executed here on their behalf).
    forwards_received: int = 0
    #: Forwarded tasklets whose terminal outcome came back from a peer.
    forwards_completed: int = 0
    #: Forwarded tasklets taken back (peer died/restarted/rejected).
    forwards_reclaimed: int = 0
    #: Pending tasklets adopted from a dead peer's journal.
    tasklets_adopted: int = 0
    #: Completions adopted from a dead peer's journal.
    completions_adopted: int = 0
    # -- workflows ----------------------------------------------------------
    workflows_submitted: int = 0
    workflows_completed: int = 0
    workflows_failed: int = 0
    #: In-flight workflows resumed from the journal at startup.
    workflows_recovered: int = 0
    #: Workflow nodes that reached a terminal state (including memoized).
    workflow_nodes_completed: int = 0
    #: Workflow nodes short-circuited by the result cache or a journalled
    #: completion: zero executions issued.
    workflow_nodes_memoized: int = 0


@dataclass
class _Outstanding:
    execution_id: ExecutionId
    provider_id: NodeId
    issued_at: float
    #: Telemetry context of the ``broker.assign`` span (None when disabled).
    trace_ctx: TraceContext | None = None


@dataclass
class _TaskletState:
    """Broker-side lifecycle of one Tasklet.

    ``key`` is the broker-internal identity ``consumer_id/tasklet_id``:
    tasklet ids only need to be unique *per consumer*, never globally.
    """

    key: str
    tasklet_id: TaskletId
    consumer_id: NodeId
    qoc: QoC
    program: dict
    program_fingerprint: str
    entry: str
    args: list
    seed: int
    fuel: int
    submitted_at: float
    collector: VoteCollector
    outstanding: dict[ExecutionId, _Outstanding] = field(default_factory=dict)
    #: Providers whose execution of this tasklet already failed; re-issue
    #: avoids them while alternatives exist.
    failed_providers: set[NodeId] = field(default_factory=set)
    pending_replicas: int = 0  # replicas wanted but not yet placeable
    issued: int = 0  # total executions ever issued
    done: bool = False
    #: Computation identity for result memoization (None = not memoizable).
    memo_key: str | None = None
    #: Federation: broker this tasklet was forwarded *from* (we execute on
    #: its behalf and return a ForwardComplete there instead of talking to
    #: the consumer)...
    origin_broker: NodeId | None = None
    #: ...or the peer it was forwarded *to* (nothing runs locally until
    #: the forward completes or is reclaimed).
    forwarded_to: NodeId | None = None
    forwarded_at: float = 0.0
    forward_acked: bool = False
    forward_last_sent: float = 0.0
    #: The consumer resubmitted this forwarded-in tasklet directly (it
    #: failed over to this broker while the work was in flight), so the
    #: outcome must be delivered to the consumer as well as the origin.
    direct_consumer: bool = False
    #: Telemetry contexts: the ``broker.tasklet`` span and the consumer's
    #: root context it parents on (both None when telemetry is disabled).
    trace_ctx: TraceContext | None = None
    trace_parent: TraceContext | None = None
    #: Context of the in-flight ``broker.forward`` span; the peer broker
    #: parents its ``broker.tasklet`` on it, keeping forwarded executions
    #: inside the origin's trace.
    forward_trace_ctx: TraceContext | None = None

    @property
    def budget(self) -> int:
        return self.qoc.redundancy * self.qoc.max_attempts

    @property
    def budget_left(self) -> int:
        return max(0, self.budget - self.issued - self.pending_replicas)


@dataclass
class _WorkflowState:
    """Broker-side lifecycle of one DAG workflow.

    ``key`` is ``consumer_id/workflow_id``; node executions live in the
    ordinary ``_tasklets`` table under ``consumer_id/workflow_id:node_id``
    (the tasklet id embeds the graph), mapped back here via ``_wf_nodes``.
    """

    key: str
    workflow_id: str
    consumer_id: NodeId
    spec: WorkflowSpec
    scheduler: DagScheduler
    submitted_at: float
    #: Content hash of the spec — idempotent-resubmit identity.
    spec_fingerprint: str
    nodes_memoized: int = 0
    done: bool = False
    #: Telemetry contexts: the ``broker.workflow`` span and the consumer's
    #: root ``workflow`` context it parents on (None when disabled).
    trace_ctx: TraceContext | None = None
    trace_parent: TraceContext | None = None
    #: Per released node: the ``wf.node`` span context + release time,
    #: popped when the node reaches a terminal state.
    node_traces: dict[str, tuple[TraceContext, float]] = field(
        default_factory=dict
    )


class BrokerCore:
    """One broker node (see module docstring)."""

    def __init__(
        self,
        clock: Clock,
        strategy: Strategy | None = None,
        config: BrokerConfig | None = None,
        node_id: NodeId = BROKER_ADDRESS,
        id_generator: IdGenerator | None = None,
        telemetry: Telemetry | None = None,
        journal: WorkJournal | None = None,
        federation: FederationConfig | None = None,
    ):
        self.node_id = node_id
        self.clock = clock
        self.strategy = strategy or QoCStrategy()
        self.config = config or BrokerConfig()
        self.ids = id_generator or IdGenerator()
        self.telemetry = telemetry
        self._metrics = BrokerMetrics(telemetry.registry) if telemetry else None
        self._tracer = telemetry.tracer if telemetry else None
        self._events = telemetry.events if telemetry else None
        #: Cluster health model + straggler watchdog; only maintained when
        #: telemetry is enabled (the disabled hot path stays one check).
        self.health: HealthModel | None = (
            HealthModel(
                heartbeat_interval=self.config.heartbeat_interval,
                heartbeat_tolerance=self.config.heartbeat_tolerance,
                watchdog=StragglerWatchdog(
                    multiple=self.config.straggler_multiple,
                    min_expected_s=self.config.straggler_min_expected_s,
                ),
            )
            if telemetry
            else None
        )
        self._health_metrics = HealthMetrics(telemetry.registry) if telemetry else None
        self.registry = ProviderRegistry(
            heartbeat_interval=self.config.heartbeat_interval,
            heartbeat_tolerance=self.config.heartbeat_tolerance,
            learn_speed=self.config.learn_speed,
            pipeline_depth=self.config.pipeline_depth,
        )
        self.stats = BrokerStats()
        self.ledger = CostLedger()
        self._tasklets: dict[str, _TaskletState] = {}
        self._by_execution: dict[ExecutionId, str] = {}
        #: Tasklet keys with queued replicas, in FIFO order of first
        #: queueing, plus the same keys as a set for O(1) membership.
        self._backlog: deque[str] = deque()
        self._backlogged: set[str] = set()
        #: Σ ``pending_replicas`` over live tasklets, kept exact at every
        #: change (see :attr:`queued_replicas`).
        self._queued = 0
        #: Durability: journal (may be None), terminal outcomes by tasklet
        #: key (LRU-bounded, serves idempotent resubmits), and the result
        #: memoization cache by computation identity.
        self.journal = journal
        self._completed: "OrderedDict[str, CompletionRecord]" = OrderedDict()
        self.result_cache: ResultCache | None = (
            ResultCache(self.config.result_cache_size)
            if self.config.memoize_results and self.config.result_cache_size > 0
            else None
        )
        #: Federation peer table (None = standalone broker, zero overhead).
        self.federation: FederationCore | None = (
            FederationCore(str(node_id), federation)
            if federation is not None
            else None
        )
        self._fed_metrics = (
            FederationMetrics(telemetry.registry)
            if telemetry and self.federation is not None
            else None
        )
        #: DAG workflows: graph state by workflow key, node-key -> owning
        #: (workflow key, node id), and terminal outcomes (LRU) serving
        #: idempotent workflow resubmits.
        self._workflows: dict[str, _WorkflowState] = {}
        self._wf_nodes: dict[str, tuple[str, str]] = {}
        self._wf_completed: "OrderedDict[str, dict]" = OrderedDict()
        self._wf_metrics = (
            WorkflowMetrics(telemetry.registry) if telemetry else None
        )
        if journal is not None:
            self._recover(journal)

    # -- message dispatch ----------------------------------------------------

    def handle(self, envelope: Envelope) -> list[Envelope]:
        """Process one inbound envelope; returns outbound envelopes."""
        body = body_of(envelope)
        if isinstance(body, RegisterProvider):
            out = self._on_register(envelope.src, body)
        elif isinstance(body, Unregister):
            out = self._on_unregister(body)
        elif isinstance(body, Heartbeat):
            out = self._on_heartbeat(body)
        elif isinstance(body, SubmitTasklet):
            out = self._on_submit(envelope.src, body, envelope.trace)
        elif isinstance(body, SubmitWorkflow):
            out = self._on_submit_workflow(envelope.src, body, envelope.trace)
        elif isinstance(body, ExecutionResult):
            out = self._on_result(body)
        elif isinstance(body, ExecutionRejected):
            out = self._on_rejected(body)
        elif self.federation is not None and isinstance(body, PeerHello):
            out = self._on_peer_hello(body)
        elif self.federation is not None and isinstance(body, GossipDigest):
            out = self._on_gossip(body)
        elif self.federation is not None and isinstance(body, ForwardTasklet):
            out = self._on_forward(body, envelope.trace)
        elif self.federation is not None and isinstance(body, ForwardAck):
            out = self._on_forward_ack(body)
        elif self.federation is not None and isinstance(body, ForwardComplete):
            out = self._on_forward_complete(body)
        else:
            # Unknown-but-registered types addressed to us are ignored
            # rather than fatal: forward compatibility with newer peers.
            out = []
        # Any inbound message may have freed capacity (a result, a
        # registration); give queued replicas a chance immediately rather
        # than waiting for the next tick.
        out.extend(self._drain_backlog())
        return out

    def tick(self) -> list[Envelope]:
        """Periodic maintenance: failure detection, timeouts, backlog."""
        now = self.clock.now()
        out: list[Envelope] = []
        for provider_id in self.registry.detect_failures(now):
            self.stats.providers_failed += 1
            if self._metrics is not None:
                self._metrics.providers_failed.inc()
            if self._events is not None:
                self._events.record(
                    ev.NODE_DEAD, node=str(provider_id), ts=now
                )
            out.extend(self._fail_provider_executions(provider_id))
        out.extend(self._expire_executions(now))
        if self.federation is not None:
            out.extend(self._federation_tick(now))
        out.extend(self._drain_backlog())
        if self._metrics is not None:
            self._metrics.pending_tasklets.set(len(self._tasklets))
            self._metrics.backlog_replicas.set(self._queued)
            self._metrics.providers_alive.set(len(self.registry.alive_providers()))
        self._run_watchdog(now)
        return out

    # -- membership handlers ----------------------------------------------------

    def _on_register(self, src: NodeId, body: RegisterProvider) -> list[Envelope]:
        out: list[Envelope] = []
        was_known = NodeId(body.provider_id) in self.registry
        try:
            self.registry.register(
                provider_id=NodeId(body.provider_id),
                device_class=body.device_class,
                capacity=body.capacity,
                benchmark_score=body.benchmark_score,
                price=body.price,
                now=self.clock.now(),
                heartbeat_interval=body.heartbeat_interval,
            )
        except TaskletError as exc:
            ack = RegisterAck(accepted=False, reason=str(exc))
            out.append(self._send(ack, NodeId(body.provider_id)))
            return out
        out.append(self._send(RegisterAck(accepted=True), NodeId(body.provider_id)))
        now = self.clock.now()
        if self._events is not None:
            self._events.record(
                ev.NODE_FLAP if was_known else ev.NODE_JOIN,
                node=body.provider_id,
                ts=now,
                device_class=body.device_class,
                capacity=body.capacity,
                benchmark_score=body.benchmark_score,
            )
        if was_known and self.health is not None:
            if self.health.record_flap(body.provider_id, now):
                self._raise_alert(
                    ev.FLAPPING_ALERT,
                    node=body.provider_id,
                    ts=now,
                    flaps=self.health.flap_count(body.provider_id),
                    window_s=self.health.flap_window_s,
                )
        if was_known:
            # A provider we already know re-registering means it crashed
            # and came back: everything assigned to its previous
            # incarnation is lost.  Failing those executions now (instead
            # of waiting for the execution timeout) is what keeps fast
            # churn — "flapping" shorter than the heartbeat detection
            # window — recoverable.  The fresh registration above means
            # re-issue may legitimately pick this same provider again.
            out.extend(self._fail_provider_executions(NodeId(body.provider_id)))
        out.extend(self._drain_backlog())
        return out

    def _on_unregister(self, body: Unregister) -> list[Envelope]:
        provider_id = NodeId(body.provider_id)
        self.registry.unregister(provider_id)
        if self._events is not None:
            self._events.record(
                ev.NODE_LEAVE, node=body.provider_id, ts=self.clock.now()
            )
        return self._fail_provider_executions(provider_id)

    def _on_heartbeat(self, body: Heartbeat) -> list[Envelope]:
        now = self.clock.now()
        provider_id = NodeId(body.provider_id)
        if self._metrics is not None:
            record = self.registry.get(provider_id)
            if record is not None and record.last_heartbeat > 0:
                self._metrics.heartbeat_gap.observe(now - record.last_heartbeat)
        known = self.registry.heartbeat(provider_id, now)
        if not known:
            # A provider we do not know (e.g. we restarted): ask it to
            # re-register by rejecting the heartbeat.
            return [
                self._send(
                    RegisterAck(accepted=False, reason=REASON_UNKNOWN_PROVIDER),
                    provider_id,
                )
            ]
        out: list[Envelope] = []
        if body.sent_at:
            # Timestamped heartbeats ask for an echo (RTT telemetry).
            out.append(
                self._send(
                    HeartbeatAck(
                        provider_id=body.provider_id, echo_sent_at=body.sent_at
                    ),
                    provider_id,
                )
            )
        out.extend(self._drain_backlog())
        return out

    # -- submission -----------------------------------------------------------

    def _on_submit(
        self,
        src: NodeId,
        body: SubmitTasklet,
        trace: dict[str, str] | None = None,
    ) -> list[Envelope]:
        self.stats.tasklets_submitted += 1
        if self._metrics is not None:
            self._metrics.tasklets_submitted.inc()
        try:
            tasklet = Tasklet.from_dict(body.tasklet)
        except (TaskletError, KeyError, ValueError) as exc:
            ack = SubmitAck(
                tasklet_id=str(body.tasklet.get("tasklet_id", "?")),
                accepted=False,
                reason=f"malformed tasklet: {exc}",
            )
            return [self._send(ack, src)]
        if tasklet.qoc.local_only:
            ack = SubmitAck(
                tasklet_id=tasklet.tasklet_id,
                accepted=False,
                reason="local_only tasklets must be executed by the consumer library",
            )
            return [self._send(ack, src)]
        key = f"{src}/{tasklet.tasklet_id}"
        completed = self._completed.get(key)
        if completed is not None:
            # Idempotent resubmit of an already-completed tasklet (the
            # consumer reconnected, or the broker restarted between the
            # result and the consumer seeing it): re-deliver the
            # journalled outcome, execute nothing.
            return self._redeliver(completed, src)
        existing = self._tasklets.get(key)
        if existing is not None:
            fingerprint = body.tasklet.get("program_fingerprint", "")
            if (
                existing.program_fingerprint == fingerprint
                and existing.entry == tasklet.entry
                and existing.args == tasklet.args
                and existing.seed == tasklet.seed
                and existing.fuel == tasklet.fuel
            ):
                # Idempotent resubmit of in-flight work (e.g. after a
                # consumer reconnect): re-ack, keep the running attempt,
                # and it will complete to the resubmitting consumer.
                if existing.origin_broker is not None:
                    # The work arrived here via a peer forward, but the
                    # consumer is now talking to this broker directly
                    # (failover after the origin died): deliver the
                    # outcome to both — the origin gets its
                    # ForwardComplete for bookkeeping if it is alive.
                    existing.direct_consumer = True
                ack = SubmitAck(tasklet_id=tasklet.tasklet_id, accepted=True)
                return [self._send(ack, src)]
            ack = SubmitAck(
                tasklet_id=tasklet.tasklet_id,
                accepted=False,
                reason="duplicate tasklet id",
            )
            return [self._send(ack, src)]

        now = self.clock.now()
        memo = memo_key_of(
            body.tasklet.get("program_fingerprint", ""),
            tasklet.entry,
            tasklet.args,
            tasklet.seed,
            tasklet.fuel,
        )
        if self.result_cache is not None and memo is not None:
            hit = self.result_cache.get(memo)
            if hit is not None:
                return self._complete_from_cache(key, tasklet, src, hit, memo, now)
            self.stats.memo_misses += 1
            if self._metrics is not None:
                self._metrics.memo_cache.labels(result="miss").inc()

        state = self._build_state(src, tasklet, body.tasklet, now)
        state.memo_key = memo
        if self._tracer is not None:
            parent = TraceContext.from_dict(trace)
            state.trace_parent = parent
            state.trace_ctx = (
                self._tracer.child(parent) if parent else self._tracer.start_trace()
            )
        self._tasklets[key] = state
        if self.journal is not None:
            self.journal.record_admitted(key, str(src), body.tasklet, ts=now)
            if self._metrics is not None:
                self._metrics.journal_records.labels(kind="admitted").inc()
        out = [self._send(SubmitAck(tasklet_id=tasklet.tasklet_id, accepted=True), src)]
        peer = self._forward_target()
        if peer is not None:
            # The admission is journalled (ours to survive) but placement
            # goes to the peer: no local provider has a free slot and the
            # gossip view says this peer does.
            out.append(self._forward(state, peer, now))
        else:
            out.extend(self._issue(state, tasklet.qoc.redundancy))
        return out

    def _forward_target(self) -> str | None:
        """Peer to forward a fresh admission to, or ``None`` (keep local)."""
        if (
            self.federation is None
            or not self.federation.config.forward_when_saturated
        ):
            return None
        if self.registry.free_slots:
            return None  # local capacity exists; no reason to forward
        return self.federation.choose_peer()

    def _build_state(
        self, src: NodeId, tasklet: Tasklet, tasklet_dict: dict, now: float
    ) -> _TaskletState:
        return _TaskletState(
            key=f"{src}/{tasklet.tasklet_id}",
            tasklet_id=tasklet.tasklet_id,
            consumer_id=src,
            qoc=tasklet.qoc,
            program=tasklet_dict["program"],
            program_fingerprint=tasklet_dict.get("program_fingerprint", ""),
            entry=tasklet.entry,
            args=tasklet.args,
            seed=tasklet.seed,
            fuel=tasklet.fuel,
            submitted_at=now,
            collector=VoteCollector(tasklet.qoc.redundancy),
        )

    def _complete_from_cache(
        self,
        key: str,
        tasklet: Tasklet,
        src: NodeId,
        hit: CompletionRecord,
        memo: str,
        now: float,
    ) -> list[Envelope]:
        """Serve a submission from the result cache: zero executions."""
        self.stats.memo_hits += 1
        self.stats.tasklets_completed += 1
        if self._metrics is not None:
            self._metrics.memo_cache.labels(result="hit").inc()
            self._metrics.tasklets_completed.labels(outcome="memoized").inc()
        if self._events is not None:
            self._events.record(
                ev.MEMO_HIT,
                node=str(src),
                ts=now,
                tasklet_id=str(tasklet.tasklet_id),
                memo_key=memo,
            )
        completion = CompletionRecord(
            key=key,
            tasklet_id=str(tasklet.tasklet_id),
            consumer_id=str(src),
            ok=True,
            value=hit.value,
            attempts=0,
            cost=0.0,
            memo_key=memo,
            completed_at=now,
        )
        self._remember_completion(completion)
        return [
            self._send(SubmitAck(tasklet_id=tasklet.tasklet_id, accepted=True), src),
            self._send(
                TaskletComplete(
                    tasklet_id=tasklet.tasklet_id,
                    ok=True,
                    value=hit.value,
                    attempts=0,
                    cost=0.0,
                    executions=[],
                ),
                src,
            ),
        ]

    def _redeliver(
        self, completion: CompletionRecord, src: NodeId
    ) -> list[Envelope]:
        """Answer a resubmit of completed work from the journalled outcome."""
        self.stats.completions_redelivered += 1
        if self._metrics is not None:
            self._metrics.completions_redelivered.inc()
        if self._events is not None:
            self._events.record(
                ev.RESULT_REDELIVERED,
                node=str(src),
                ts=self.clock.now(),
                tasklet_id=completion.tasklet_id,
                ok=completion.ok,
            )
        return [
            self._send(
                SubmitAck(tasklet_id=completion.tasklet_id, accepted=True), src
            ),
            self._send(
                TaskletComplete(
                    tasklet_id=completion.tasklet_id,
                    ok=completion.ok,
                    value=completion.value,
                    error=completion.error,
                    attempts=completion.attempts,
                    cost=completion.cost,
                    executions=[],
                ),
                src,
            ),
        ]

    def _remember_completion(
        self, completion: CompletionRecord, journal_write: bool = True
    ) -> None:
        """Index (and optionally journal) one terminal outcome."""
        self._completed[completion.key] = completion
        self._completed.move_to_end(completion.key)
        while len(self._completed) > max(1, self.config.completed_retention):
            self._completed.popitem(last=False)
        if (
            completion.ok
            and completion.memo_key
            and self.result_cache is not None
        ):
            self.result_cache.put(completion.memo_key, completion)
        if journal_write and self.journal is not None:
            self.journal.record_complete(completion)
            if self._metrics is not None:
                self._metrics.journal_records.labels(kind="complete").inc()
            self._maybe_compact_journal()

    def _maybe_compact_journal(self) -> None:
        """Auto-compact the journal when its thresholds are crossed.

        Called after completion writes (the moment ``admitted`` records
        become droppable) and never while holding the journal lock —
        ``compact`` takes it itself.
        """
        if self.journal is None:
            return
        stats = self.journal.maybe_compact()
        if stats is None:
            return
        self.stats.journal_compactions += 1
        if self._metrics is not None:
            self._metrics.journal_compactions.inc()
        if self._events is not None:
            self._events.record(
                ev.JOURNAL_COMPACTED,
                node=str(self.node_id),
                ts=self.clock.now(),
                **stats,
            )

    # -- crash recovery ---------------------------------------------------------

    def _recover(self, journal: WorkJournal) -> None:
        """Replay the journal: re-index completions, re-admit pending work.

        Runs during construction, before any provider can register, so
        re-issuing pending tasklets only queues replicas in the backlog;
        they are placed as providers (re)join.  The SubmitAcks that
        re-admission would imply are not re-sent — the consumer already
        got them from the previous incarnation, and the resubmit path
        answers anyone who asks again.
        """
        snapshot = journal.replay()
        for completion in snapshot.completions.values():
            self._remember_completion(completion, journal_write=False)
        recovered = 0
        for entry in snapshot.pending:
            state = self._admit_from_journal(entry)
            if state is None:
                continue
            recovered += 1
            # Envelopes are discarded: the registry is empty at this
            # point, so every replica lands in the backlog.
            self._issue(state, state.qoc.redundancy)
        self.stats.tasklets_recovered = recovered
        for record in snapshot.workflow_completions.values():
            key = str(record.get("key", ""))
            outcome = record.get("outcome")
            if key and isinstance(outcome, dict):
                self._wf_completed[key] = outcome
                self._wf_completed.move_to_end(key)
        while len(self._wf_completed) > max(1, self.config.completed_retention):
            self._wf_completed.popitem(last=False)
        wf_recovered = 0
        for entry in snapshot.workflows:
            if self._resume_workflow_from_journal(entry):
                wf_recovered += 1
        self.stats.workflows_recovered = wf_recovered
        if self._metrics is not None and recovered:
            self._metrics.tasklets_recovered.inc(recovered)
        if self._events is not None:
            self._events.record(
                ev.JOURNAL_RECOVERED,
                node=str(self.node_id),
                ts=self.clock.now(),
                pending=recovered,
                completions=len(snapshot.completions),
                workflows=wf_recovered,
                malformed=snapshot.malformed,
            )

    def _admit_from_journal(self, entry: dict) -> _TaskletState | None:
        if entry.get("origin"):
            # Work a federation peer forwarded to this broker: the origin
            # still holds the durable admission and reclaims it when this
            # broker is lost, so re-admitting here would double-execute.
            return None
        try:
            tasklet = Tasklet.from_dict(entry["tasklet"])
        except (TaskletError, KeyError, TypeError, ValueError):
            return None
        if tasklet.qoc.local_only:
            return None
        consumer_id = NodeId(str(entry.get("consumer_id", "")))
        key = f"{consumer_id}/{tasklet.tasklet_id}"
        if key in self._tasklets or key in self._completed:
            return None
        state = self._build_state(
            consumer_id, tasklet, entry["tasklet"], self.clock.now()
        )
        state.memo_key = memo_key_of(
            state.program_fingerprint,
            state.entry,
            state.args,
            state.seed,
            state.fuel,
        )
        self._tasklets[key] = state
        return state

    # -- workflows ----------------------------------------------------------------

    @staticmethod
    def _node_key(wf: _WorkflowState, node_id: str) -> str:
        return f"{wf.consumer_id}/{wf.workflow_id}:{node_id}"

    def _on_submit_workflow(
        self,
        src: NodeId,
        body: SubmitWorkflow,
        trace: dict[str, str] | None = None,
    ) -> list[Envelope]:
        self.stats.workflows_submitted += 1
        if self._wf_metrics is not None:
            self._wf_metrics.submitted.inc()
        workflow_id = "?"
        if isinstance(body.workflow, dict):
            workflow_id = str(body.workflow.get("workflow_id", "?"))
        try:
            spec = WorkflowSpec.from_dict(body.workflow)
            spec.validate()
        except (WorkflowSpecError, TaskletError, TypeError) as exc:
            return [
                self._send(
                    WorkflowAck(
                        workflow_id=workflow_id,
                        accepted=False,
                        reason=f"invalid workflow: {exc}",
                    ),
                    src,
                )
            ]
        key = f"{src}/{spec.workflow_id}"
        fingerprint = spec.fingerprint()
        outcome = self._wf_completed.get(key)
        # Outcomes journalled before fingerprints were stored carry none
        # and are redelivered unchecked.
        if outcome is not None and outcome.get("spec_fingerprint") in (
            None,
            fingerprint,
        ):
            # Idempotent resubmit of a finished workflow (consumer
            # reconnected, or the broker restarted between the terminal
            # message and the consumer seeing it): redeliver the stored
            # outcome, run nothing.
            return self._redeliver_workflow(outcome, src)
        existing = self._workflows.get(key)
        if existing is not None and existing.spec_fingerprint == fingerprint:
            # Same graph resubmitted while in flight: re-ack and let the
            # running instance complete to this consumer.
            return [
                self._send(
                    WorkflowAck(workflow_id=spec.workflow_id, accepted=True),
                    src,
                )
            ]
        if existing is not None or outcome is not None:
            # The id is taken by a different graph, running or finished.
            return [
                self._send(
                    WorkflowAck(
                        workflow_id=spec.workflow_id,
                        accepted=False,
                        reason="duplicate workflow id",
                    ),
                    src,
                )
            ]
        now = self.clock.now()
        wf = _WorkflowState(
            key=key,
            workflow_id=spec.workflow_id,
            consumer_id=src,
            spec=spec,
            scheduler=DagScheduler(spec),
            submitted_at=now,
            spec_fingerprint=fingerprint,
        )
        if self._tracer is not None:
            parent = TraceContext.from_dict(trace)
            wf.trace_parent = parent
            wf.trace_ctx = (
                self._tracer.child(parent) if parent else self._tracer.start_trace()
            )
        self._workflows[key] = wf
        if self._wf_metrics is not None:
            self._wf_metrics.active.set(len(self._workflows))
        if self.journal is not None:
            self.journal.record_workflow_admitted(
                key, str(src), spec.to_dict(), ts=now
            )
            if self._metrics is not None:
                self._metrics.journal_records.labels(kind="wf_admitted").inc()
        if self._events is not None:
            self._events.record(
                ev.WORKFLOW_ADMITTED,
                node=str(src),
                ts=now,
                workflow_id=spec.workflow_id,
                nodes=len(spec.nodes),
            )
        out = [
            self._send(
                WorkflowAck(workflow_id=spec.workflow_id, accepted=True), src
            )
        ]
        out.extend(self._release_nodes(wf, wf.scheduler.start()))
        return out

    def _redeliver_workflow(self, outcome: dict, src: NodeId) -> list[Envelope]:
        """Answer a resubmit of a finished workflow from the stored outcome."""
        self.stats.completions_redelivered += 1
        if self._metrics is not None:
            self._metrics.completions_redelivered.inc()
        if self._events is not None:
            self._events.record(
                ev.RESULT_REDELIVERED,
                node=str(src),
                ts=self.clock.now(),
                workflow_id=str(outcome.get("workflow_id", "")),
                ok=bool(outcome.get("ok")),
            )
        return [
            self._send(
                WorkflowAck(
                    workflow_id=str(outcome.get("workflow_id", "")),
                    accepted=True,
                ),
                src,
            ),
            self._send(self._workflow_complete_message(outcome), src),
        ]

    @staticmethod
    def _workflow_complete_message(outcome: dict) -> WorkflowComplete:
        return WorkflowComplete(
            workflow_id=str(outcome.get("workflow_id", "")),
            ok=bool(outcome.get("ok")),
            outputs=dict(outcome.get("outputs") or {}),
            error=outcome.get("error"),
            failed_node=str(outcome.get("failed_node", "")),
            dependents=list(outcome.get("dependents") or []),
            nodes_total=int(outcome.get("nodes_total", 0)),
            nodes_memoized=int(outcome.get("nodes_memoized", 0)),
        )

    def _release_nodes(
        self, wf: _WorkflowState, node_ids: list[str]
    ) -> list[Envelope]:
        """Issue READY nodes; short-circuit ones whose result is known.

        A worklist rather than plain iteration: a node served from the
        result cache (or a journalled completion, during recovery)
        completes instantly and may release its successors in the same
        call.  Ends by finishing the workflow if the cascade drained it.
        """
        out: list[Envelope] = []
        worklist = list(node_ids)
        while worklist and not wf.done:
            node_id = worklist.pop(0)
            node = wf.spec.node(node_id)
            node_key = self._node_key(wf, node_id)
            now = self.clock.now()
            prior = self._completed.get(node_key)
            if prior is not None and not prior.ok:
                # A journalled failure for this exact node (recovery, or
                # a re-run of a failed graph whose outcome was evicted):
                # the workflow fails the same way it did before.
                self._record_node_span(wf, node_id, status="failed", now=now)
                dependents = wf.scheduler.fail(node_id)
                out.extend(
                    self._finish_workflow(
                        wf,
                        ok=False,
                        error=prior.error
                        or f"node {node_id!r} failed previously",
                        failed_node=node_id,
                        dependents=dependents,
                    )
                )
                break
            if prior is not None:
                # Journalled success — recovery replay, zero executions.
                out.extend(
                    self._short_circuit_node(wf, node_id, prior.value, now)
                )
                worklist.extend(wf.scheduler.complete(node_id, prior.value))
                continue
            try:
                args = wf.scheduler.args_of(node_id)
                tasklet_dict = {
                    "tasklet_id": f"{wf.workflow_id}:{node_id}",
                    "program": wf.spec.programs[node.program_fingerprint],
                    "program_fingerprint": node.program_fingerprint,
                    "entry": node.entry,
                    "args": args,
                    "qoc": {"max_attempts": node.max_attempts},
                    "seed": node.seed,
                    "fuel": node.fuel,
                }
                tasklet = Tasklet.from_dict(tasklet_dict)
            except (TaskletError, KeyError, TypeError, ValueError) as exc:
                dependents = wf.scheduler.fail(node_id)
                out.extend(
                    self._finish_workflow(
                        wf,
                        ok=False,
                        error=f"node {node_id!r} could not be released: {exc}",
                        failed_node=node_id,
                        dependents=dependents,
                    )
                )
                break
            memo = memo_key_of(
                node.program_fingerprint,
                node.entry,
                args,
                node.seed,
                node.fuel,
            )
            if self.result_cache is not None and memo is not None:
                hit = self.result_cache.get(memo)
                if hit is not None:
                    # Same computation seen before (any submitter):
                    # the node completes with zero executions.
                    self.stats.memo_hits += 1
                    if self._metrics is not None:
                        self._metrics.memo_cache.labels(result="hit").inc()
                    self._remember_completion(
                        CompletionRecord(
                            key=node_key,
                            tasklet_id=f"{wf.workflow_id}:{node_id}",
                            consumer_id=str(wf.consumer_id),
                            ok=True,
                            value=hit.value,
                            attempts=0,
                            cost=0.0,
                            memo_key=memo,
                            completed_at=now,
                        )
                    )
                    out.extend(
                        self._short_circuit_node(wf, node_id, hit.value, now)
                    )
                    worklist.extend(wf.scheduler.complete(node_id, hit.value))
                    continue
                self.stats.memo_misses += 1
                if self._metrics is not None:
                    self._metrics.memo_cache.labels(result="miss").inc()
            state = self._build_state(
                wf.consumer_id, tasklet, tasklet_dict, now
            )
            state.memo_key = memo
            if self._tracer is not None and wf.trace_ctx is not None:
                # One ``wf.node`` span per released node, parented on the
                # ``broker.workflow`` span; the node's ``broker.tasklet``
                # span parents on it, so the whole graph shares the
                # consumer's trace id.
                node_ctx = self._tracer.child(wf.trace_ctx)
                wf.node_traces[node_id] = (node_ctx, now)
                state.trace_parent = node_ctx
                state.trace_ctx = self._tracer.child(node_ctx)
            self._tasklets[node_key] = state
            self._wf_nodes[node_key] = (wf.key, node_id)
            wf.scheduler.mark_running(node_id)
            if self.journal is not None:
                self.journal.record_admitted(
                    node_key,
                    str(wf.consumer_id),
                    tasklet_dict,
                    ts=now,
                    workflow=wf.key,
                )
                if self._metrics is not None:
                    self._metrics.journal_records.labels(kind="admitted").inc()
            if self._events is not None:
                self._events.record(
                    ev.WORKFLOW_NODE_RELEASED,
                    node=str(wf.consumer_id),
                    ts=now,
                    workflow_id=wf.workflow_id,
                    node_id=node_id,
                )
            out.append(
                self._send(
                    WorkflowUpdate(
                        workflow_id=wf.workflow_id,
                        node_id=node_id,
                        state=NODE_RUNNING,
                    ),
                    wf.consumer_id,
                )
            )
            peer = self._forward_target()
            if peer is not None:
                # No local slot but a gossiped peer has one: workflow
                # nodes saturate-forward exactly like fresh admissions;
                # the ForwardComplete routes back through ``_wf_nodes``.
                out.append(self._forward(state, peer, now))
            else:
                out.extend(self._issue(state, tasklet.qoc.redundancy))
        if not wf.done and wf.scheduler.finished:
            out.extend(self._finish_workflow(wf, ok=not wf.scheduler.failed))
        return out

    def _short_circuit_node(
        self, wf: _WorkflowState, node_id: str, value, now: float
    ) -> list[Envelope]:
        """Bookkeeping for a node completed without executing anything."""
        self._record_node_span(wf, node_id, status="memoized", now=now)
        wf.nodes_memoized += 1
        self.stats.workflow_nodes_memoized += 1
        self.stats.workflow_nodes_completed += 1
        if self._wf_metrics is not None:
            self._wf_metrics.nodes.labels(outcome="memoized").inc()
        if self._events is not None:
            self._events.record(
                ev.MEMO_HIT,
                node=str(wf.consumer_id),
                ts=now,
                workflow_id=wf.workflow_id,
                node_id=node_id,
            )
        return [
            self._send(
                WorkflowUpdate(
                    workflow_id=wf.workflow_id,
                    node_id=node_id,
                    state=NODE_DONE,
                    attempts=0,
                ),
                wf.consumer_id,
            )
        ]

    def _record_node_span(
        self,
        wf: _WorkflowState,
        node_id: str,
        status: str,
        now: float,
        attempts: int = 0,
    ) -> None:
        """Record the ``wf.node`` span for one node reaching a terminal
        state.  ``deps`` ride as an attribute so critical-path analysis
        can walk the graph from spans alone."""
        if self._tracer is None or wf.trace_ctx is None:
            return
        entry = wf.node_traces.pop(node_id, None)
        if entry is not None:
            ctx, ready_at = entry
        else:
            # Never released (short-circuited straight from the cache or
            # journal): a zero-length span keeps the graph complete.
            ctx, ready_at = self._tracer.child(wf.trace_ctx), now
        try:
            deps = list(wf.spec.node(node_id).deps())
        except (KeyError, WorkflowSpecError):
            deps = []
        self._tracer.record(
            name="wf.node",
            context=ctx,
            node=str(self.node_id),
            start=ready_at,
            end=now,
            parent_id=wf.trace_ctx.span_id,
            status=status,
            attrs={
                "workflow_id": wf.workflow_id,
                "node_id": node_id,
                "deps": deps,
                "attempts": attempts,
            },
        )

    def _on_node_terminal(
        self,
        wf_key: str,
        node_id: str,
        ok: bool,
        value,
        error: str | None,
        attempts: int,
    ) -> list[Envelope]:
        """A workflow node's tasklet reached a terminal outcome."""
        wf = self._workflows.get(wf_key)
        if wf is None or wf.done:
            return []
        self._record_node_span(
            wf,
            node_id,
            status="ok" if ok else "failed",
            now=self.clock.now(),
            attempts=attempts,
        )
        self.stats.workflow_nodes_completed += 1
        if self._wf_metrics is not None:
            self._wf_metrics.nodes.labels(
                outcome="ok" if ok else "failed"
            ).inc()
        if ok:
            out = [
                self._send(
                    WorkflowUpdate(
                        workflow_id=wf.workflow_id,
                        node_id=node_id,
                        state=NODE_DONE,
                        attempts=attempts,
                    ),
                    wf.consumer_id,
                )
            ]
            released = wf.scheduler.complete(node_id, value)
            out.extend(self._release_nodes(wf, released))
            return out
        dependents = wf.scheduler.fail(node_id)
        out = [
            self._send(
                WorkflowUpdate(
                    workflow_id=wf.workflow_id,
                    node_id=node_id,
                    state=NODE_FAILED,
                    attempts=attempts,
                    error=error,
                ),
                wf.consumer_id,
            )
        ]
        out.extend(
            self._finish_workflow(
                wf,
                ok=False,
                error=error or f"node {node_id!r} failed",
                failed_node=node_id,
                dependents=dependents,
            )
        )
        return out

    def _finish_workflow(
        self,
        wf: _WorkflowState,
        ok: bool,
        error: str | None = None,
        failed_node: str = "",
        dependents: list[str] | None = None,
    ) -> list[Envelope]:
        """Terminate one workflow: cancel stragglers, journal, notify."""
        if wf.done:
            return []
        wf.done = True
        out: list[Envelope] = []
        # Cancel sibling nodes still running (their results are useless
        # once the graph has failed).  ``_complete`` routes each back
        # through ``_on_node_terminal``, which the ``done`` flag above
        # turns into a no-op.
        for node_key, (owner_key, _node_id) in list(self._wf_nodes.items()):
            if owner_key != wf.key:
                continue
            state = self._tasklets.get(node_key)
            if state is not None and not state.done:
                out.extend(
                    self._complete(
                        state,
                        ok=False,
                        error=(
                            f"workflow {wf.workflow_id!r} cancelled: "
                            f"{error or 'failed'}"
                        ),
                    )
                )
            else:
                self._wf_nodes.pop(node_key, None)
        now = self.clock.now()
        outcome = {
            "workflow_id": wf.workflow_id,
            "consumer_id": str(wf.consumer_id),
            "ok": ok,
            "outputs": wf.scheduler.outputs() if ok else {},
            "error": error,
            "failed_node": failed_node,
            "dependents": list(dependents or []),
            "nodes_total": len(wf.spec.nodes),
            "nodes_memoized": wf.nodes_memoized,
            # Lets a resubmit of this id with a different graph be told
            # apart from an idempotent one, across restarts too.
            "spec_fingerprint": wf.spec_fingerprint,
        }
        self._wf_completed[wf.key] = outcome
        self._wf_completed.move_to_end(wf.key)
        while len(self._wf_completed) > max(1, self.config.completed_retention):
            self._wf_completed.popitem(last=False)
        if self.journal is not None:
            self.journal.record_workflow_complete(wf.key, outcome, ts=now)
            if self._metrics is not None:
                self._metrics.journal_records.labels(kind="wf_complete").inc()
            self._maybe_compact_journal()
        if ok:
            self.stats.workflows_completed += 1
        else:
            self.stats.workflows_failed += 1
        if self._wf_metrics is not None:
            self._wf_metrics.completed.labels(
                outcome="ok" if ok else "failed"
            ).inc()
        if self._events is not None:
            if ok:
                self._events.record(
                    ev.WORKFLOW_COMPLETE,
                    node=str(wf.consumer_id),
                    ts=now,
                    workflow_id=wf.workflow_id,
                    nodes=len(wf.spec.nodes),
                    memoized=wf.nodes_memoized,
                    elapsed_s=round(now - wf.submitted_at, 6),
                )
            else:
                self._raise_alert(
                    ev.WORKFLOW_FAILED,
                    node=str(wf.consumer_id),
                    ts=now,
                    workflow_id=wf.workflow_id,
                    failed_node=failed_node,
                    dependents=len(outcome["dependents"]),
                    error=error or "",
                )
        if self._tracer is not None and wf.trace_ctx is not None:
            # Dependents that never got released can never run: they get
            # zero-length ``failed`` spans so every node of the DAG shows
            # up in the trace.  Nodes still open after that were running
            # when the graph died — cancelled, not failed (their
            # ``_on_node_terminal`` is gated on ``wf.done``).
            for node_id in outcome["dependents"]:
                if node_id not in wf.node_traces:
                    self._record_node_span(wf, node_id, status="failed", now=now)
            for node_id in list(wf.node_traces):
                self._record_node_span(wf, node_id, status="cancelled", now=now)
            self._tracer.record(
                name="broker.workflow",
                context=wf.trace_ctx,
                node=str(self.node_id),
                start=wf.submitted_at,
                end=now,
                parent_id=(
                    wf.trace_parent.span_id if wf.trace_parent else None
                ),
                status="ok" if ok else "failed",
                attrs={
                    "workflow_id": wf.workflow_id,
                    "nodes_total": len(wf.spec.nodes),
                    "nodes_memoized": wf.nodes_memoized,
                },
            )
        out.append(
            self._send(self._workflow_complete_message(outcome), wf.consumer_id)
        )
        del self._workflows[wf.key]
        if self._wf_metrics is not None:
            self._wf_metrics.active.set(len(self._workflows))
        return out

    def _resume_workflow_from_journal(self, entry: dict) -> bool:
        """Rebuild one in-flight workflow during crash recovery.

        The graph is reconstructed from the ``wf_admitted`` spec; node
        completions already replayed into ``_completed`` short-circuit
        through ``_release_nodes`` (zero re-execution), and the still-
        missing frontier re-issues into the backlog.  Envelopes are
        discarded — the consumer re-learns the outcome by resubmitting.
        """
        try:
            spec = WorkflowSpec.from_dict(entry["workflow"])
            spec.validate()
        except (
            WorkflowSpecError,
            TaskletError,
            KeyError,
            TypeError,
            ValueError,
        ):
            return False
        consumer_id = NodeId(str(entry.get("consumer_id", "")))
        key = f"{consumer_id}/{spec.workflow_id}"
        if key in self._workflows or key in self._wf_completed:
            return False
        wf = _WorkflowState(
            key=key,
            workflow_id=spec.workflow_id,
            consumer_id=consumer_id,
            spec=spec,
            scheduler=DagScheduler(spec),
            submitted_at=self.clock.now(),
            spec_fingerprint=spec.fingerprint(),
        )
        if self._tracer is not None:
            # The consumer's root context died with the previous
            # incarnation; the recovered run gets a fresh trace id.
            wf.trace_ctx = self._tracer.start_trace()
        self._workflows[key] = wf
        self._release_nodes(wf, wf.scheduler.start())
        if self._events is not None:
            self._events.record(
                ev.WORKFLOW_RECOVERED,
                node=str(consumer_id),
                ts=self.clock.now(),
                workflow_id=spec.workflow_id,
                nodes=len(spec.nodes),
                done=wf.scheduler.counts()[NODE_DONE],
            )
        return True

    @property
    def pending_workflows(self) -> int:
        """Workflows admitted but not yet terminal (for tests/monitoring)."""
        return len(self._workflows)

    @property
    def queued_replicas(self) -> int:
        """Replicas waiting in the backlog: Σ ``pending_replicas``, O(1)."""
        return self._queued

    # -- execution lifecycle ------------------------------------------------------

    def _issue(
        self, state: _TaskletState, count: int, requeue: bool = False
    ) -> list[Envelope]:
        """Place up to ``count`` replicas; queue what cannot be placed.

        ``requeue`` marks replicas that were already counted in
        ``stats.replicas_queued`` once (backlog drains), so the counter
        reflects distinct queueing decisions, not drain retries.
        """
        if state.done or count <= 0:
            return []
        running = {
            outstanding.provider_id for outstanding in state.outstanding.values()
        }
        # No free slot anywhere: skip the snapshot.  Strategies return []
        # for an empty pool without touching their RNG or cursor, so this
        # changes no placement decision.
        all_views = (
            self.registry.views(require_free_slot=True)
            if self.registry.free_slots
            else []
        )
        views = [
            view
            for view in all_views
            if view.provider_id not in running
            and view.provider_id not in state.failed_providers
        ]
        if not views:
            # Every candidate already failed this tasklet once; retrying
            # them beats giving up (transient faults are common).
            views = [
                view for view in all_views if view.provider_id not in running
            ]
        chosen = self.strategy.select(views, count, state.qoc) if views else []
        out: list[Envelope] = []
        now = self.clock.now()
        placed = 0
        for provider_id in chosen:
            record = self.registry.get(provider_id)
            if record is None or not record.alive:
                # Chosen, but the provider died between the registry
                # snapshot and placement (or a strategy returned a stale
                # id).  Not counting it as placed routes the replica into
                # ``missing`` below, so it queues in the backlog instead
                # of silently vanishing from the attempt budget.
                continue
            execution_id = self.ids.next_execution()
            record.outstanding += 1
            assign_ctx = None
            if self._tracer is not None and state.trace_ctx is not None:
                assign_ctx = self._tracer.child(state.trace_ctx)
            state.outstanding[execution_id] = _Outstanding(
                execution_id=execution_id,
                provider_id=provider_id,
                issued_at=now,
                trace_ctx=assign_ctx,
            )
            state.issued += 1
            self.stats.executions_issued += 1
            self._by_execution[execution_id] = state.key
            if self.health is not None:
                self.health.watchdog.on_issue(
                    execution_id=str(execution_id),
                    provider_id=str(provider_id),
                    tasklet_id=str(state.tasklet_id),
                    fingerprint=state.program_fingerprint,
                    speed_ips=record.effective_speed,
                    now=now,
                )
            if self._events is not None:
                self._events.record(
                    ev.PLACEMENT,
                    node=str(provider_id),
                    ts=now,
                    execution_id=str(execution_id),
                    tasklet_id=str(state.tasklet_id),
                )
            envelope = self._send(
                AssignExecution(
                    execution_id=execution_id,
                    tasklet_id=state.tasklet_id,
                    consumer_id=state.consumer_id,
                    program=state.program,
                    program_fingerprint=state.program_fingerprint,
                    entry=state.entry,
                    args=state.args,
                    seed=state.seed,
                    fuel=state.fuel,
                ),
                provider_id,
            )
            if assign_ctx is not None:
                envelope.trace = assign_ctx.to_dict()
            out.append(envelope)
            placed += 1
        if placed and self._metrics is not None:
            self._metrics.executions_issued.inc(placed)
            self._metrics.placements.labels(
                strategy=getattr(self.strategy, "name", "unknown")
            ).inc(placed)
        missing = count - placed
        if missing > 0:
            allowed = max(0, self.config.max_queued_replicas - self._queued)
            to_queue = min(missing, allowed)
            overflow = missing - to_queue
            if to_queue > 0:
                state.pending_replicas += to_queue
                self._queued += to_queue
                if not requeue:
                    self.stats.replicas_queued += to_queue
                    if self._metrics is not None:
                        self._metrics.replicas_queued.inc(to_queue)
                if state.key not in self._backlogged:
                    self._backlogged.add(state.key)
                    self._backlog.append(state.key)
            if overflow > 0:
                # The backlog is full.  Dropping the replicas silently
                # would strand the tasklet (nothing outstanding, nothing
                # pending, no TaskletComplete — the consumer waits
                # forever), so account for the drop and, if nothing else
                # is carrying this tasklet, fail it now.
                self.stats.replicas_overflowed += overflow
                if self._metrics is not None:
                    self._metrics.replicas_overflowed.inc(overflow)
                if self._events is not None:
                    self._raise_alert(
                        ev.BACKLOG_OVERFLOW,
                        node=str(state.consumer_id),
                        ts=now,
                        tasklet_id=str(state.tasklet_id),
                        dropped=overflow,
                        max_queued_replicas=self.config.max_queued_replicas,
                    )
                if not state.outstanding and state.pending_replicas == 0:
                    out.extend(
                        self._complete(
                            state,
                            ok=False,
                            error=(
                                f"scheduling backlog full: {overflow} replica(s) "
                                "dropped (max_queued_replicas="
                                f"{self.config.max_queued_replicas})"
                            ),
                        )
                    )
        return out

    def _drain_backlog(self) -> list[Envelope]:
        """Try to place queued replicas (FIFO across Tasklets).

        Stops as soon as no provider has a free slot: the keys not yet
        visited could not be placed anyway, so a drain costs O(free
        slots + 1) placement attempts, not O(backlog), plus one per
        visited tasklet that no free slot can serve (DESIGN.md §6).
        Keys that stay queued keep their place at the head, in order.
        """
        backlog = self._backlog
        if not backlog or not self.registry.free_slots:
            return []
        out: list[Envelope] = []
        still_waiting: list[str] = []
        while backlog and self.registry.free_slots:
            # The key stays in ``_backlogged`` while it is retried, so
            # ``_issue`` does not append it a second time.
            key = backlog.popleft()
            state = self._tasklets.get(key)
            if state is not None and not state.done and state.pending_replicas:
                wanted = state.pending_replicas
                state.pending_replicas = 0
                self._queued -= wanted
                out.extend(self._issue(state, wanted, requeue=True))
                if state.pending_replicas > 0:
                    still_waiting.append(key)
                    continue
            self._backlogged.discard(key)
        backlog.extendleft(reversed(still_waiting))
        return out

    def _on_result(self, body: ExecutionResult) -> list[Envelope]:
        execution_id = ExecutionId(body.execution_id)
        key = self._by_execution.pop(execution_id, None)
        if key is None:
            return []  # late result for an already-decided tasklet
        state = self._tasklets.get(key)
        if state is None:
            return []
        outstanding = state.outstanding.pop(execution_id, None)
        record = ExecutionRecord(
            execution_id=execution_id,
            tasklet_id=state.tasklet_id,
            provider_id=NodeId(body.provider_id),
            status=ExecutionStatus(body.status),
            value=body.value,
            error=body.error,
            instructions=body.instructions,
            started_at=body.started_at,
            finished_at=body.finished_at,
        )
        if self._metrics is not None:
            self._metrics.execution_results.labels(status=record.status.value).inc()
        if self.health is not None:
            self.health.watchdog.on_result(
                str(execution_id), record.ok, record.instructions
            )
        if self._events is not None and not record.ok:
            self._events.record(
                ev.EXECUTION_FAULT,
                node=body.provider_id,
                ts=self.clock.now(),
                execution_id=str(execution_id),
                tasklet_id=str(state.tasklet_id),
                status=record.status.value,
                error=record.error or "",
            )
        self._end_assign_span(
            state, outstanding, "ok" if record.ok else record.status.value
        )
        provider = self.registry.get(NodeId(body.provider_id))
        if provider is not None and outstanding is not None:
            provider.record_result(
                record.ok,
                record.instructions,
                record.duration,
                learn_speed=self.registry.learn_speed,
            )
        if record.ok:
            self.stats.executions_succeeded += 1
            if provider is not None:
                self.ledger.charge(
                    consumer_id=state.consumer_id,
                    provider_id=NodeId(body.provider_id),
                    tasklet_key=state.key,
                    instructions=record.instructions,
                    price=provider.price,
                )
        else:
            self.stats.executions_failed += 1
        return self._fold_record(state, record)

    def _on_rejected(self, body: ExecutionRejected) -> list[Envelope]:
        result = ExecutionResult(
            execution_id=body.execution_id,
            tasklet_id=body.tasklet_id,
            provider_id=body.provider_id,
            status=ExecutionStatus.REJECTED.value,
            error=body.reason or "rejected by provider",
        )
        return self._on_result(result)

    def _fold_record(
        self, state: _TaskletState, record: ExecutionRecord
    ) -> list[Envelope]:
        """Update the vote and drive the tasklet toward completion."""
        if state.done:
            return []
        if not record.ok:
            state.failed_providers.add(record.provider_id)
        state.collector.add(record)
        winner = state.collector.winner()
        if winner is not None:
            return self._complete(state, ok=True, value=winner[0].value)

        out: list[Envelope] = []
        if not record.ok and state.budget_left > 0:
            if self._metrics is not None:
                self._metrics.executions_reissued.inc()
            if self._events is not None:
                self._events.record(
                    ev.REISSUE,
                    node=str(record.provider_id),
                    ts=self.clock.now(),
                    tasklet_id=str(state.tasklet_id),
                    after=record.status.value,
                )
            out.extend(self._issue(state, 1))

        if not state.outstanding and state.pending_replicas == 0:
            if state.budget_left > 0:
                # Successful-but-undecided vote (e.g. r=3 with one success
                # and two losses): spend remaining budget on more replicas.
                needed = max(
                    1, state.collector.required - self._best_group_size(state)
                )
                if self._metrics is not None:
                    self._metrics.executions_reissued.inc(needed)
                if self._events is not None:
                    self._events.record(
                        ev.REISSUE,
                        node="",
                        ts=self.clock.now(),
                        tasklet_id=str(state.tasklet_id),
                        after="undecided_vote",
                        count=needed,
                    )
                out.extend(self._issue(state, needed))
            if not state.outstanding and state.pending_replicas == 0:
                out.extend(self._complete_failed(state))
        return out

    @staticmethod
    def _best_group_size(state: _TaskletState) -> int:
        groups = state.collector.successes.values()
        return max((len(group) for group in groups), default=0)

    def _complete_failed(self, state: _TaskletState) -> list[Envelope]:
        if state.collector.disagreement():
            error = (
                "replicas disagreed and no majority formed "
                f"({len(state.collector.successes)} distinct values)"
            )
        elif state.collector.successes:
            error = (
                f"insufficient agreeing replicas: needed "
                f"{state.collector.required}, got {self._best_group_size(state)}"
            )
        else:
            failures = state.collector.failures
            last_error = failures[-1].error if failures else "no executions possible"
            error = f"all {len(failures)} executions failed; last: {last_error}"
        return self._complete(state, ok=False, error=error)

    def _complete(
        self,
        state: _TaskletState,
        ok: bool,
        value=None,
        error: str | None = None,
        attempts: int | None = None,
        cost: float | None = None,
        executions: list[dict] | None = None,
        executed_by: str | None = None,
    ) -> list[Envelope]:
        """Finish one tasklet.  The override parameters carry the outcome
        of a *forwarded* execution back from a peer broker (attempts,
        cost, and execution records happened there, not here); all default
        to this broker's own bookkeeping."""
        if state.done:
            # Completion is single-shot: a caller further up the stack
            # (e.g. _fold_record re-checking after a failed _issue)
            # already finished this tasklet.
            return []
        state.done = True
        if ok:
            self.stats.tasklets_completed += 1
        else:
            self.stats.tasklets_failed += 1
        if self._metrics is not None:
            self._metrics.tasklets_completed.labels(
                outcome="ok" if ok else "failed"
            ).inc()
        if self._events is not None:
            now = self.clock.now()
            elapsed = now - state.submitted_at
            if not ok:
                self._raise_alert(
                    ev.TASKLET_FAILED,
                    node=str(state.consumer_id),
                    ts=now,
                    tasklet_id=str(state.tasklet_id),
                    error=error or "",
                    attempts=state.issued,
                )
            elif state.qoc.deadline_s is not None and elapsed > state.qoc.deadline_s:
                self._raise_alert(
                    ev.SLO_BREACH,
                    node=str(state.consumer_id),
                    ts=now,
                    tasklet_id=str(state.tasklet_id),
                    deadline_s=state.qoc.deadline_s,
                    elapsed_s=round(elapsed, 6),
                )
        if self._tracer is not None and state.trace_ctx is not None:
            self._tracer.record(
                name="broker.tasklet",
                context=state.trace_ctx,
                node=str(self.node_id),
                start=state.submitted_at,
                end=self.clock.now(),
                parent_id=(
                    state.trace_parent.span_id if state.trace_parent else None
                ),
                status="ok" if ok else "failed",
                attrs={"tasklet_id": str(state.tasklet_id), "attempts": state.issued},
            )
        out: list[Envelope] = []
        if state.forward_trace_ctx is not None:
            # Completion raced an in-flight forward (e.g. workflow
            # cancellation): close its span so the tree stays connected.
            self._end_forward_span(
                state, "cancelled", str(state.forwarded_to or "")
            )
        # Cancel replicas still in flight and release registry bookkeeping.
        for outstanding in state.outstanding.values():
            # The replica's result is no longer needed; close its span so
            # a late ``provider.execute`` still has a parent in the tree.
            self._end_assign_span(state, outstanding, "cancelled")
            if self.health is not None:
                self.health.watchdog.on_lost(str(outstanding.execution_id))
            self._by_execution.pop(outstanding.execution_id, None)
            provider = self.registry.get(outstanding.provider_id)
            if provider is not None:
                provider.release_slot()
            out.append(
                self._send(
                    CancelExecution(execution_id=outstanding.execution_id),
                    outstanding.provider_id,
                )
            )
        state.outstanding.clear()
        self._queued -= state.pending_replicas
        state.pending_replicas = 0
        local_cost = self.ledger.pop_cost_of(state.key)
        if cost is None:
            cost = local_cost
        if attempts is None:
            attempts = state.issued
        if executions is None:
            executions = [
                record.to_dict() for record in state.collector.all_records
            ]
        if executed_by is None:
            executed_by = str(self.node_id) if state.issued > 0 else ""
        self._remember_completion(
            CompletionRecord(
                key=state.key,
                tasklet_id=str(state.tasklet_id),
                consumer_id=str(state.consumer_id),
                ok=ok,
                value=value,
                error=error,
                attempts=attempts,
                cost=cost,
                memo_key=state.memo_key,
                completed_at=self.clock.now(),
                executed_by=executed_by,
            )
        )
        wf_ref = self._wf_nodes.pop(state.key, None)
        if wf_ref is not None:
            # A workflow node: the outcome feeds the graph, not a
            # consumer future.  Successor release / workflow failure is
            # handled by the DAG layer; no TaskletComplete is sent.
            del self._tasklets[state.key]
            owner_key, node_id = wf_ref
            out.extend(
                self._on_node_terminal(
                    owner_key, node_id, ok, value, error, attempts
                )
            )
            return out
        if state.origin_broker is not None:
            # Forwarded work: the consumer belongs to the origin broker,
            # so the outcome flows back there instead.
            complete = self._send(
                ForwardComplete(
                    tasklet_id=str(state.tasklet_id),
                    consumer_id=str(state.consumer_id),
                    broker_id=str(self.node_id),
                    ok=ok,
                    value=value,
                    error=error,
                    attempts=attempts,
                    cost=cost,
                    executions=executions,
                    executed_by=executed_by,
                ),
                state.origin_broker,
            )
            if state.direct_consumer:
                out.append(
                    self._send(
                        TaskletComplete(
                            tasklet_id=state.tasklet_id,
                            ok=ok,
                            value=value,
                            error=error,
                            attempts=attempts,
                            cost=cost,
                            executions=executions,
                        ),
                        state.consumer_id,
                    )
                )
        else:
            complete = self._send(
                TaskletComplete(
                    tasklet_id=state.tasklet_id,
                    ok=ok,
                    value=value,
                    error=error,
                    attempts=attempts,
                    cost=cost,
                    executions=executions,
                ),
                state.consumer_id,
            )
        if state.trace_ctx is not None:
            complete.trace = state.trace_ctx.to_dict()
        out.append(complete)
        del self._tasklets[state.key]
        return out

    # -- federation -------------------------------------------------------------

    def _wire_tasklet(self, state: _TaskletState) -> dict:
        """Reassemble the wire-form Tasklet dict from admitted state."""
        return {
            "tasklet_id": str(state.tasklet_id),
            "program": state.program,
            "program_fingerprint": state.program_fingerprint,
            "entry": state.entry,
            "args": list(state.args),
            "qoc": state.qoc.to_dict(),
            "seed": state.seed,
            "fuel": state.fuel,
        }

    def _forward(
        self, state: _TaskletState, peer_id: str, now: float
    ) -> Envelope:
        """Hand a fresh admission to a peer broker with free capacity."""
        state.forwarded_to = NodeId(peer_id)
        state.forwarded_at = now
        state.forward_acked = False
        if self._tracer is not None and state.trace_ctx is not None:
            # The peer parents its ``broker.tasklet`` on this context, so
            # the forwarded execution stays inside the origin's trace.
            state.forward_trace_ctx = self._tracer.child(state.trace_ctx)
        self.stats.tasklets_forwarded += 1
        if self._fed_metrics is not None:
            self._fed_metrics.forwards.labels(direction="out").inc()
        if self._events is not None:
            self._events.record(
                ev.TASKLET_FORWARDED,
                node=str(peer_id),
                ts=now,
                tasklet_id=str(state.tasklet_id),
                consumer_id=str(state.consumer_id),
            )
        return self._forward_envelope(state, now)

    def _forward_envelope(self, state: _TaskletState, now: float) -> Envelope:
        """(Re-)send one forward; idempotent on the receiving peer."""
        state.forward_last_sent = now
        envelope = self._send(
            ForwardTasklet(
                origin_broker=str(self.node_id),
                consumer_id=str(state.consumer_id),
                tasklet=self._wire_tasklet(state),
            ),
            state.forwarded_to,
        )
        if state.forward_trace_ctx is not None:
            envelope.trace = state.forward_trace_ctx.to_dict()
        return envelope

    def _forward_complete_of(self, completion: CompletionRecord) -> ForwardComplete:
        """Terminal outcome of forwarded work, rebuilt from the record
        (serves duplicate forwards idempotently)."""
        return ForwardComplete(
            tasklet_id=completion.tasklet_id,
            consumer_id=completion.consumer_id,
            broker_id=str(self.node_id),
            ok=completion.ok,
            value=completion.value,
            error=completion.error,
            attempts=completion.attempts,
            cost=completion.cost,
            executions=[],
            executed_by=completion.executed_by,
        )

    def _on_forward(
        self, body: ForwardTasklet, trace: dict[str, str] | None = None
    ) -> list[Envelope]:
        """Admit (or idempotently re-answer) work forwarded by a peer."""
        origin = NodeId(body.origin_broker)
        now = self.clock.now()
        try:
            tasklet = Tasklet.from_dict(body.tasklet)
        except (TaskletError, KeyError, TypeError, ValueError) as exc:
            ack = ForwardAck(
                tasklet_id=str(body.tasklet.get("tasklet_id", "?")),
                consumer_id=body.consumer_id,
                accepted=False,
                broker_id=str(self.node_id),
                reason=f"malformed tasklet: {exc}",
            )
            return [self._send(ack, origin)]
        key = f"{body.consumer_id}/{tasklet.tasklet_id}"
        accept = ForwardAck(
            tasklet_id=str(tasklet.tasklet_id),
            consumer_id=body.consumer_id,
            accepted=True,
            broker_id=str(self.node_id),
        )
        completed = self._completed.get(key)
        if completed is not None:
            # Duplicate of already-finished work (the origin re-sent an
            # unacked forward): re-deliver the journalled outcome.
            return [
                self._send(accept, origin),
                self._send(self._forward_complete_of(completed), origin),
            ]
        if key in self._tasklets:
            return [self._send(accept, origin)]  # still running; just re-ack
        if body.hops > self.federation.config.max_hops:
            return [
                self._send(
                    ForwardAck(
                        tasklet_id=str(tasklet.tasklet_id),
                        consumer_id=body.consumer_id,
                        accepted=False,
                        broker_id=str(self.node_id),
                        reason=f"too many hops ({body.hops})",
                    ),
                    origin,
                )
            ]
        if not self.registry.free_slots:
            # The gossip view the origin routed on is stale; rejecting
            # (rather than queueing) sends the work back to a broker that
            # holds the durable admission.
            return [
                self._send(
                    ForwardAck(
                        tasklet_id=str(tasklet.tasklet_id),
                        consumer_id=body.consumer_id,
                        accepted=False,
                        broker_id=str(self.node_id),
                        reason="no free capacity",
                    ),
                    origin,
                )
            ]
        memo = memo_key_of(
            body.tasklet.get("program_fingerprint", ""),
            tasklet.entry,
            tasklet.args,
            tasklet.seed,
            tasklet.fuel,
        )
        if self.result_cache is not None and memo is not None:
            hit = self.result_cache.get(memo)
            if hit is not None:
                self.stats.memo_hits += 1
                if self._metrics is not None:
                    self._metrics.memo_cache.labels(result="hit").inc()
                completion = CompletionRecord(
                    key=key,
                    tasklet_id=str(tasklet.tasklet_id),
                    consumer_id=body.consumer_id,
                    ok=True,
                    value=hit.value,
                    attempts=0,
                    cost=0.0,
                    memo_key=memo,
                    completed_at=now,
                )
                self._remember_completion(completion)
                return [
                    self._send(accept, origin),
                    self._send(self._forward_complete_of(completion), origin),
                ]
        state = self._build_state(
            NodeId(body.consumer_id), tasklet, body.tasklet, now
        )
        state.memo_key = memo
        state.origin_broker = origin
        if self._tracer is not None:
            # Parent on the origin broker's ``broker.forward`` span so the
            # remote execution lands in the same trace tree.
            parent = TraceContext.from_dict(trace)
            state.trace_parent = parent
            state.trace_ctx = (
                self._tracer.child(parent) if parent else self._tracer.start_trace()
            )
        self._tasklets[key] = state
        self.stats.forwards_received += 1
        if self._fed_metrics is not None:
            self._fed_metrics.forwards.labels(direction="in").inc()
        if self.journal is not None:
            # Origin-tagged: the origin holds the durable admission, so a
            # restart of *this* broker never re-admits it (see
            # _admit_from_journal); the record exists for the cross-journal
            # exactly-once audit.
            self.journal.record_admitted(
                key, body.consumer_id, body.tasklet, ts=now,
                origin=body.origin_broker,
            )
            if self._metrics is not None:
                self._metrics.journal_records.labels(kind="admitted").inc()
        out = [self._send(accept, origin)]
        out.extend(self._issue(state, tasklet.qoc.redundancy))
        return out

    def _on_forward_ack(self, body: ForwardAck) -> list[Envelope]:
        key = f"{body.consumer_id}/{body.tasklet_id}"
        state = self._tasklets.get(key)
        if state is None or state.done or state.forwarded_to is None:
            return []
        if body.broker_id and body.broker_id != str(state.forwarded_to):
            return []  # ack from a peer this tasklet was reclaimed from
        if body.accepted:
            state.forward_acked = True
            return []
        return self._reclaim_forward(
            state, reason=body.reason or "rejected by peer"
        )

    def _on_forward_complete(self, body: ForwardComplete) -> list[Envelope]:
        key = f"{body.consumer_id}/{body.tasklet_id}"
        state = self._tasklets.get(key)
        if state is None or state.done:
            return []  # duplicate outcome; the first one already won
        self.stats.forwards_completed += 1
        if self._fed_metrics is not None:
            self._fed_metrics.forward_results.labels(
                outcome="ok" if body.ok else "failed"
            ).inc()
        self._end_forward_span(
            state, "ok" if body.ok else "failed", body.broker_id
        )
        # _complete cancels any local replicas issued by a racing reclaim,
        # so a peer outcome arriving late still resolves exactly once.
        return self._complete(
            state,
            ok=body.ok,
            value=body.value,
            error=body.error,
            attempts=body.attempts,
            cost=body.cost,
            executions=list(body.executions),
            executed_by=body.executed_by,
        )

    def _reclaim_forward(
        self, state: _TaskletState, reason: str
    ) -> list[Envelope]:
        """Take forwarded work back and run it locally.

        Only called when the forward is *known* dead — peer declared
        dead, peer restarted under a new epoch, or explicit rejection —
        never on a blind timeout, which is what preserves exactly-once.
        """
        if state.done or state.forwarded_to is None:
            return []
        peer_id = str(state.forwarded_to)
        self._end_forward_span(state, "reclaimed", peer_id)
        state.forwarded_to = None
        state.forwarded_at = 0.0
        state.forward_acked = False
        state.forward_last_sent = 0.0
        self.stats.forwards_reclaimed += 1
        if self._events is not None:
            self._events.record(
                ev.FORWARD_RECLAIMED,
                node=peer_id,
                ts=self.clock.now(),
                tasklet_id=str(state.tasklet_id),
                reason=reason,
            )
        return self._issue(state, state.qoc.redundancy)

    def _reclaim_forwards_to(self, peer_id: str, reason: str) -> list[Envelope]:
        out: list[Envelope] = []
        for state in list(self._tasklets.values()):
            if state.forwarded_to is not None and str(state.forwarded_to) == peer_id:
                out.extend(self._reclaim_forward(state, reason))
        return out

    def _observe_peer(
        self, broker_id: str, epoch: str, now: float
    ) -> list[Envelope]:
        """Fold a peer sighting into the table; react to transitions."""
        out: list[Envelope] = []
        for transition in self.federation.observe(broker_id, epoch, now):
            if transition == PEER_CAME_UP and self._events is not None:
                self._events.record(
                    ev.PEER_UP, node=broker_id, ts=now, epoch=epoch
                )
            elif transition == PEER_EPOCH_CHANGED:
                # The previous incarnation's in-memory state — including
                # everything we forwarded to it — is gone.
                out.extend(
                    self._reclaim_forwards_to(
                        broker_id, reason="peer restarted (epoch changed)"
                    )
                )
        return out

    def _on_peer_hello(self, body: PeerHello) -> list[Envelope]:
        out = self._observe_peer(body.broker_id, body.epoch, self.clock.now())
        if body.reply_expected:
            out.append(
                self._send(
                    PeerHello(
                        broker_id=str(self.node_id),
                        epoch=self.federation.epoch,
                    ),
                    NodeId(body.broker_id),
                )
            )
        return out

    def _on_gossip(self, body: GossipDigest) -> list[Envelope]:
        now = self.clock.now()
        out = self._observe_peer(body.broker_id, body.epoch, now)
        self.federation.update_load(
            body.broker_id,
            providers_total=body.providers_total,
            providers_alive=body.providers_alive,
            free_slots=body.free_slots,
            pending_tasklets=body.pending_tasklets,
            backlog_replicas=body.backlog_replicas,
            grades=body.grades,
        )
        if self._fed_metrics is not None:
            self._fed_metrics.gossip.labels(direction="in").inc()
        return out

    def _federation_tick(self, now: float) -> list[Envelope]:
        """Gossip, peer failure detection, and unacked-forward re-sends."""
        out: list[Envelope] = []
        dead, gossip_due = self.federation.tick(now)
        for peer_id in dead:
            self._raise_alert(ev.PEER_DOWN, node=peer_id, ts=now)
            out.extend(self._on_peer_dead(peer_id, now))
        if gossip_due and self.federation.peers:
            digest = self._build_digest(now)
            for peer_id in self.federation.peer_ids():
                out.append(self._send(digest, NodeId(peer_id)))
                if self._fed_metrics is not None:
                    self._fed_metrics.gossip.labels(direction="out").inc()
        resend_after = self.federation.config.forward_resend_interval
        for state in list(self._tasklets.values()):
            if state.done or state.forwarded_to is None or state.forward_acked:
                continue
            if now - state.forward_last_sent < resend_after:
                continue
            peer = self.federation.peers.get(str(state.forwarded_to))
            if peer is not None and peer.alive:
                # Safe to repeat: the peer admits forwards idempotently.
                out.append(self._forward_envelope(state, now))
        if self._fed_metrics is not None:
            self._fed_metrics.peers_alive.set(len(self.federation.alive_peers()))
        return out

    def _on_peer_dead(self, peer_id: str, now: float) -> list[Envelope]:
        out = self._reclaim_forwards_to(peer_id, reason="peer broker dead")
        journal_path = self.federation.config.peer_journals.get(peer_id)
        if (
            journal_path
            and self.federation.successor_of(peer_id) == str(self.node_id)
        ):
            out.extend(self._adopt_journal(peer_id, journal_path, now))
        return out

    def _adopt_journal(
        self, peer_id: str, path: str, now: float
    ) -> list[Envelope]:
        """Adopt a dead peer's journal (this broker is its successor).

        Completions become re-deliverable here (consumers failing over
        get journalled outcomes instead of re-executions); pending
        admissions are re-admitted and executed.  Origin-tagged entries
        are skipped by ``_admit_from_journal`` — their origin broker
        reclaims them itself.
        """
        try:
            snapshot = replay_journal(path)
        except OSError:
            return []
        out: list[Envelope] = []
        adopted_completions = 0
        adopted_pending = 0
        for completion in snapshot.completions.values():
            if completion.key in self._completed or completion.key in self._tasklets:
                continue
            self._remember_completion(completion)
            adopted_completions += 1
        for entry in snapshot.pending:
            state = self._admit_from_journal(entry)
            if state is None:
                continue
            if self.journal is not None:
                self.journal.record_admitted(
                    state.key,
                    str(state.consumer_id),
                    entry["tasklet"],
                    ts=now,
                )
            adopted_pending += 1
            out.extend(self._issue(state, state.qoc.redundancy))
        self.stats.completions_adopted += adopted_completions
        self.stats.tasklets_adopted += adopted_pending
        if self._fed_metrics is not None:
            if adopted_completions:
                self._fed_metrics.handoff.labels(kind="complete").inc(
                    adopted_completions
                )
            if adopted_pending:
                self._fed_metrics.handoff.labels(kind="pending").inc(
                    adopted_pending
                )
        if self._events is not None:
            self._events.record(
                ev.JOURNAL_HANDOFF,
                node=peer_id,
                ts=now,
                successor=str(self.node_id),
                pending=adopted_pending,
                completions=adopted_completions,
                malformed=snapshot.malformed,
            )
        return out

    def _build_digest(self, now: float) -> GossipDigest:
        records = self.registry.records()
        grades: dict[str, int] = {}
        if self.health is not None:
            for card in self.health.scorecards(records, now):
                grades[card.grade] = grades.get(card.grade, 0) + 1
        return GossipDigest(
            broker_id=str(self.node_id),
            epoch=self.federation.epoch,
            sent_at=now,
            providers_total=len(records),
            providers_alive=sum(1 for record in records if record.alive),
            free_slots=self.registry.free_slots,
            pending_tasklets=len(self._tasklets),
            backlog_replicas=self._queued,
            grades=grades,
        )

    # -- failure handling ---------------------------------------------------------

    def _fail_provider_executions(self, provider_id: NodeId) -> list[Envelope]:
        """Convert every outstanding execution on a dead provider into a
        PROVIDER_LOST record and let the vote logic re-issue."""
        out: list[Envelope] = []
        now = self.clock.now()
        provider = self.registry.get(provider_id)
        for state in list(self._tasklets.values()):
            lost = [
                outstanding
                for outstanding in state.outstanding.values()
                if outstanding.provider_id == provider_id
            ]
            for outstanding in lost:
                state.outstanding.pop(outstanding.execution_id, None)
                self._by_execution.pop(outstanding.execution_id, None)
                if self.health is not None:
                    self.health.watchdog.on_lost(str(outstanding.execution_id))
                self.stats.executions_lost += 1
                self.stats.executions_failed += 1
                if provider is not None:
                    # Same accounting path as results and timeouts: frees
                    # the slot (no phantom ``outstanding`` load if the
                    # provider re-registers later) and grades the loss
                    # into ``reliability``.
                    provider.record_result(ok=False, instructions=0, duration=0.0)
                record = ExecutionRecord(
                    execution_id=outstanding.execution_id,
                    tasklet_id=state.tasklet_id,
                    provider_id=provider_id,
                    status=ExecutionStatus.PROVIDER_LOST,
                    error="provider failed or left",
                    started_at=outstanding.issued_at,
                    finished_at=now,
                )
                if self._metrics is not None:
                    self._metrics.execution_results.labels(
                        status=record.status.value
                    ).inc()
                self._end_assign_span(state, outstanding, record.status.value)
                out.extend(self._fold_record(state, record))
        return out

    def _expire_executions(self, now: float) -> list[Envelope]:
        """Re-issue executions that outlived their timeout/deadline."""
        out: list[Envelope] = []
        for state in list(self._tasklets.values()):
            horizon = self.config.execution_timeout
            if state.qoc.deadline_s is not None:
                horizon = (
                    state.qoc.deadline_s
                    if horizon is None
                    else min(horizon, state.qoc.deadline_s)
                )
            if horizon is None:
                continue
            expired = [
                outstanding
                for outstanding in state.outstanding.values()
                if now - outstanding.issued_at > horizon
            ]
            for outstanding in expired:
                state.outstanding.pop(outstanding.execution_id, None)
                self._by_execution.pop(outstanding.execution_id, None)
                if self.health is not None:
                    self.health.watchdog.on_lost(str(outstanding.execution_id))
                self.stats.executions_timed_out += 1
                self.stats.executions_failed += 1
                provider = self.registry.get(outstanding.provider_id)
                if provider is not None:
                    # Unified accounting (see _fail_provider_executions).
                    provider.record_result(ok=False, instructions=0, duration=0.0)
                out.append(
                    self._send(
                        CancelExecution(execution_id=outstanding.execution_id),
                        outstanding.provider_id,
                    )
                )
                record = ExecutionRecord(
                    execution_id=outstanding.execution_id,
                    tasklet_id=state.tasklet_id,
                    provider_id=outstanding.provider_id,
                    status=ExecutionStatus.TIMEOUT,
                    error=f"no result within {horizon}s",
                    started_at=outstanding.issued_at,
                    finished_at=now,
                )
                if self._metrics is not None:
                    self._metrics.execution_results.labels(
                        status=record.status.value
                    ).inc()
                self._end_assign_span(state, outstanding, record.status.value)
                out.extend(self._fold_record(state, record))
        return out

    # -- health & alerts ---------------------------------------------------------

    def _run_watchdog(self, now: float) -> None:
        """Straggler detection + health gauges, once per tick."""
        if self.health is None:
            return
        for alert in self.health.watchdog.check(now):
            self._raise_alert(
                ev.STRAGGLER_ALERT,
                node=alert.provider_id,
                ts=now,
                execution_id=alert.execution_id,
                tasklet_id=alert.tasklet_id,
                expected_s=round(alert.expected_s, 6),
                elapsed_s=round(alert.elapsed_s, 6),
                multiple=alert.multiple,
            )
        metrics = self._health_metrics
        if metrics is None:
            return
        metrics.stragglers_active.set(len(self.health.watchdog.active_stragglers()))
        counts = {grade: 0 for grade in ("healthy", "degraded", "unhealthy")}
        for card in self.health.scorecards(self.registry.records(), now):
            metrics.provider_grade.labels(provider=card.provider_id).set(
                GRADE_RANK[card.grade]
            )
            counts[card.grade] = counts.get(card.grade, 0) + 1
        for grade, count in counts.items():
            metrics.providers_by_grade.labels(grade=grade).set(count)

    def _raise_alert(
        self, kind: str, node: str = "", ts: float | None = None, **attrs
    ) -> None:
        """Record an operator alert: flight-recorder event + counter."""
        if self._events is not None:
            self._events.record(kind, node=node, ts=ts, **attrs)
        if self._health_metrics is not None:
            self._health_metrics.alerts.labels(kind=kind).inc()

    def health_snapshot(self) -> dict:
        """The ``/healthz`` document: pool status plus provider scorecards.

        Works with telemetry disabled too (basic liveness only), so the
        ObsServer health callback never depends on construction order.
        """
        now = self.clock.now()
        records = list(self.registry.records())
        doc: dict = {
            "role": "broker",
            "node": str(self.node_id),
            "providers_total": len(records),
            "providers_alive": sum(1 for record in records if record.alive),
            "pending_tasklets": len(self._tasklets),
            "pending_workflows": len(self._workflows),
        }
        if self._workflows:
            doc["workflows"] = [
                {
                    "workflow_id": wf.workflow_id,
                    "consumer": str(wf.consumer_id),
                    "nodes": len(wf.spec.nodes),
                    "states": wf.scheduler.counts(),
                    "age_s": round(max(0.0, now - wf.submitted_at), 6),
                }
                for wf in list(self._workflows.values())[:16]
            ]
        if self.federation is not None:
            doc["federation"] = {
                "epoch": self.federation.epoch,
                "peers": [
                    peer.to_dict(now)
                    for peer in self.federation.peers.values()
                ],
                "forwarded_pending": sum(
                    1
                    for state in self._tasklets.values()
                    if state.forwarded_to is not None
                ),
            }
        if self.health is None:
            doc["status"] = "ok" if doc["providers_alive"] else "unhealthy"
            return doc
        cards = self.health.scorecards(records, now)
        doc["status"] = overall_status(cards)
        doc["providers"] = [card.to_dict() for card in cards]
        doc["stragglers"] = [
            {
                "execution_id": watch.execution_id,
                "provider_id": watch.provider_id,
                "tasklet_id": watch.tasklet_id,
                "elapsed_s": round(max(0.0, now - watch.issued_at), 6),
                "expected_s": (
                    round(watch.expected_s, 6)
                    if watch.expected_s is not None
                    else None
                ),
            }
            for watch in self.health.watchdog.active_stragglers()
        ]
        return doc

    # -- helpers ----------------------------------------------------------------

    def _end_assign_span(
        self,
        state: _TaskletState,
        outstanding: _Outstanding | None,
        status: str,
    ) -> None:
        """Close the ``broker.assign`` span for a terminal execution."""
        if (
            self._tracer is None
            or outstanding is None
            or outstanding.trace_ctx is None
        ):
            return
        self._tracer.record(
            name="broker.assign",
            context=outstanding.trace_ctx,
            node=str(self.node_id),
            start=outstanding.issued_at,
            end=self.clock.now(),
            parent_id=state.trace_ctx.span_id if state.trace_ctx else None,
            status=status,
            attrs={
                "execution_id": str(outstanding.execution_id),
                "provider_id": str(outstanding.provider_id),
            },
        )

    def _end_forward_span(
        self, state: _TaskletState, status: str, peer_id: str
    ) -> None:
        """Close the ``broker.forward`` span for a resolved forward."""
        ctx = state.forward_trace_ctx
        if self._tracer is None or ctx is None:
            return
        state.forward_trace_ctx = None
        self._tracer.record(
            name="broker.forward",
            context=ctx,
            node=str(self.node_id),
            start=state.forwarded_at or state.submitted_at,
            end=self.clock.now(),
            parent_id=state.trace_ctx.span_id if state.trace_ctx else None,
            status=status,
            attrs={"tasklet_id": str(state.tasklet_id), "peer": peer_id},
        )

    def _send(self, body: MessageBody, dst: NodeId) -> Envelope:
        return body.envelope(src=self.node_id, dst=dst)

    @property
    def pending_tasklets(self) -> int:
        """Tasklets admitted but not yet completed (for tests/monitoring)."""
        return len(self._tasklets)
