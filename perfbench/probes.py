"""Outside-in tracing: spans recorded around calls into each layer.

Nothing in ``src/`` knows about the benchmark.  :func:`install` replaces
public entry points of each layer with timing wrappers (and a handful of
lifecycle hooks), :func:`restore` puts the original callables back, so an
untraced run executes exactly the unwrapped program.

A span is ``(name, start, end, span_id, parent_id, trace_id, extra)``:
``perf_counter_ns`` times (one monotonic clock for every process on the
host), the enclosing wrapped call on the same thread as parent, the
tasklet or workflow id as trace id, and a small dict of counts.  Spans
stay in memory; forked provider processes write theirs to a file when
their provider stops, and the benchmark merges and writes everything at
the end of the run.

Layers are named after modules; :data:`LAYERS` lists them.  Provider
message handling is ``TcpProvider._on_broker_message``: the TCP provider
has no ``ProviderCore``.  ``Strategy.select`` is wrapped on
``QoCStrategy``, the strategy the TCP broker uses by default (it
delegates to the other strategies, which would otherwise be counted
twice).
"""

from __future__ import annotations

import gzip
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.broker.core import BrokerCore
from repro.broker.registry import ProviderRegistry
from repro.broker.scheduling import QoCStrategy
from repro.consumer.core import ConsumerCore
from repro.dag.scheduler import DagScheduler
from repro.provider.executor import TaskletExecutor
from repro.transport import aio, tcp
from repro.transport.codec import EnvelopeDecoder

from stats import median, tail_percentile

Span = tuple
SPAN_FIELDS = ("name", "start", "end", "span_id", "parent_id", "trace_id", "extra")

LAYERS = (
    "consumer",
    "codec",
    "broker",
    "registry",
    "scheduling",
    "provider",
    "executor",
    "dag",
)


class Recorder:
    """In-memory span sink for one process (a forked child resets it)."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        #: Broker-side first sighting of each plain submit, for queue wait.
        self.submit_seen: dict[tuple[str, str], int] = {}

    def reset(self) -> None:
        self.spans = []
        self.submit_seen = {}
        self._local = threading.local()
        self._pid = os.getpid()

    def call(
        self,
        name: str,
        original: Callable,
        args: tuple,
        kwargs: dict,
        enter: Callable | None,
        leave: Callable | None,
    ) -> Any:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent_id, parent_trace = stack[-1] if stack else (None, None)
        trace, state = enter(self, args) if enter else (None, None)
        trace = trace or parent_trace
        span_id = (self._pid << 32) + next(self._ids)
        stack.append((span_id, trace))
        result = None
        start = time.perf_counter_ns()
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            extra = leave(self, args, result, state, end) if leave else None
            self.spans.append((name, start, end, span_id, parent_id, trace, extra))

    def dump_child(self) -> None:
        """Write this (forked provider) process's spans for the parent."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(self.spans, handle)

    def collect_children(self) -> list[Span]:
        """Spans dumped by provider processes since the last collection."""
        spans: list[Span] = []
        if not os.path.isdir(self.out_dir):
            return spans
        for entry in sorted(os.listdir(self.out_dir)):
            if entry.startswith("spans-"):
                path = os.path.join(self.out_dir, entry)
                with open(path) as handle:
                    spans.extend(tuple(span) for span in json.load(handle))
                os.remove(path)
        return spans


# -- per-probe hooks ---------------------------------------------------------
#
# ``enter(recorder, args) -> (trace_id, state)`` runs before the call,
# ``leave(recorder, args, result, state, end) -> extra`` after it.


def _envelope_trace(envelope) -> str | None:
    payload = envelope.payload
    if "tasklet_id" in payload:
        return str(payload["tasklet_id"])
    if "workflow_id" in payload:
        return str(payload["workflow_id"])
    if envelope.type == "submit_tasklet":
        return str(payload["tasklet"]["tasklet_id"])
    if envelope.type == "submit_workflow":
        return str(payload["workflow"]["workflow_id"])
    return None


def _queue_waits(recorder: Recorder, outbound, end: int) -> list[int]:
    waits = []
    for envelope in outbound:
        if envelope.type == "assign_execution":
            key = (
                str(envelope.payload["consumer_id"]),
                str(envelope.payload["tasklet_id"]),
            )
            seen = recorder.submit_seen.pop(key, None)
            if seen is not None:
                waits.append(end - seen)
    return waits


def _broker_handle_enter(recorder, args):
    envelope = args[1]
    if envelope.type == "submit_tasklet":
        key = (str(envelope.src), str(envelope.payload["tasklet"]["tasklet_id"]))
        recorder.submit_seen[key] = time.perf_counter_ns()
    return _envelope_trace(envelope), None


def _broker_handle_leave(recorder, args, outbound, state, end):
    return {
        "type": args[1].type,
        "backlog": args[0].pending_tasklets,
        "waits": _queue_waits(recorder, outbound or [], end),
    }


def _broker_tick_leave(recorder, args, outbound, state, end):
    return {"waits": _queue_waits(recorder, outbound or [], end)}


def _consumer_submit_enter(recorder, args):
    return str(args[1].tasklet_id), None


def _consumer_workflow_enter(recorder, args):
    return str(args[1].workflow_id), None


def _envelope_enter(recorder, args):
    return _envelope_trace(args[1]), None


def _provider_message_enter(recorder, args):
    tasklet_id = getattr(args[1], "tasklet_id", None)
    return (str(tasklet_id) if tasklet_id else None), None


def _encode_leave(side):
    def leave(recorder, args, data, state, end):
        return {"side": side, "envelopes": len(args[0]), "bytes": len(data or b"")}

    return leave


def _decode_leave(recorder, args, frames, state, end):
    return {"envelopes": len(frames or [])}


def _select_leave(recorder, args, chosen, state, end):
    return len(chosen or [])  # a bare count: this span is the most frequent


def _execute_enter(recorder, args):
    return str(args[1].tasklet_id), args[0].cache_hits


def _execute_leave(recorder, args, outcome, hits_before, end):
    return {
        "hit": args[0].cache_hits - hits_before,
        "instructions": outcome.instructions if outcome is not None else 0,
    }


def _dag_complete_enter(recorder, args):
    return str(args[0].spec.workflow_id), None


def _dag_complete_leave(recorder, args, released, state, end):
    return {"node": args[1], "value": args[2]}


@dataclass(frozen=True)
class Probe:
    owner: Any  # class or module holding the callable
    attr: str
    name: str
    enter: Callable | None = None
    leave: Callable | None = None


PROBES = (
    Probe(ConsumerCore, "submit", "consumer.submit", _consumer_submit_enter),
    Probe(ConsumerCore, "submit_workflow", "consumer.submit", _consumer_workflow_enter),
    Probe(ConsumerCore, "handle", "consumer.handle", _envelope_enter),
    # Looked up as module globals by the client connections (tcp) and the
    # broker's asyncio connections (aio): wrapped where they are used.
    Probe(tcp, "encode_batch", "codec.encode", leave=_encode_leave("client")),
    Probe(aio, "encode_batch", "codec.encode", leave=_encode_leave("broker")),
    Probe(EnvelopeDecoder, "feed", "codec.decode", leave=_decode_leave),
    Probe(BrokerCore, "handle", "broker.handle", _broker_handle_enter, _broker_handle_leave),
    Probe(BrokerCore, "tick", "broker.tick", leave=_broker_tick_leave),
    Probe(ProviderRegistry, "views", "registry.views"),
    Probe(QoCStrategy, "select", "scheduling.select", leave=_select_leave),
    Probe(tcp.TcpProvider, "_on_broker_message", "provider.handle", _provider_message_enter),
    Probe(TaskletExecutor, "execute", "executor.execute", _execute_enter, _execute_leave),
    Probe(DagScheduler, "complete", "dag.complete", _dag_complete_enter, _dag_complete_leave),
)


def _wrap(recorder: Recorder, probe: Probe, original: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        return recorder.call(probe.name, original, args, kwargs, probe.enter, probe.leave)

    wrapper.__wrapped__ = original
    return wrapper


def _lifecycle(original: Callable, after: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        after()
        return result

    wrapper.__wrapped__ = original
    return wrapper


Installed = list[tuple[Any, str, Callable]]  # (owner, attribute, original)


def install(recorder: Recorder) -> Installed:
    """Wrap every probe; returns what :func:`restore` needs to undo it.

    Must run before provider processes fork so that they inherit the
    wrappers.  In a provider process, ``TcpProvider.start`` clears the
    inherited parent spans and ``TcpProvider.stop`` writes the child's.
    """
    installed: Installed = []
    for probe in PROBES:
        original = vars(probe.owner)[probe.attr]
        installed.append((probe.owner, probe.attr, original))
        setattr(probe.owner, probe.attr, _wrap(recorder, probe, original))
    for attr, after in (("start", recorder.reset), ("stop", recorder.dump_child)):
        original = vars(tcp.TcpProvider)[attr]
        installed.append((tcp.TcpProvider, attr, original))
        setattr(tcp.TcpProvider, attr, _lifecycle(original, after))
    return installed


def restore(installed: Installed) -> None:
    for owner, attr, original in reversed(installed):
        setattr(owner, attr, original)


# -- analysis ------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts, busy and self time from one timed phase's spans.

    A ratio with a zero denominator, and a tail percentile with fewer
    than ten samples beyond it, read 0.
    """
    child_time: dict[int, float] = {}
    for name, start, end, _id, parent, _trace, _extra in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start) / 1e9
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_time = {layer: 0.0 for layer in LAYERS}
    sums: dict[str, float] = {}
    waits: list[int] = []
    backlog: list[int] = []

    def add(key: str, value: float) -> None:
        sums[key] = sums.get(key, 0.0) + value

    for name, start, end, span_id, _parent, _trace, extra in spans:
        duration = (end - start) / 1e9
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + duration
        self_time[name.split(".")[0]] += duration - child_time.get(span_id, 0.0)
        if not extra:
            continue
        if name == "scheduling.select":
            add("scheduling.placed", extra)
            continue
        if name == "broker.handle":
            add(f"broker.handle.{extra['type']}.busy_s", duration)
            backlog.append(extra["backlog"])
        if "waits" in extra:
            waits.extend(extra["waits"])
        if name == "codec.encode":
            add("codec.encode.envelopes", extra["envelopes"])
            add("codec.encode.bytes", extra["bytes"])
            if extra["side"] == "broker":
                add("aio.flushes", 1)
                add("aio.envelopes", extra["envelopes"])
        elif name == "codec.decode":
            add("codec.decode.envelopes", extra["envelopes"])
        elif name == "executor.execute":
            add("executor.hits", extra["hit"])
            add("tvm.instructions", extra["instructions"])

    handles = calls.get("broker.handle", 0)
    wait_ms = [wait / 1e6 for wait in waits]
    metrics = {
        "consumer.submit.calls": calls.get("consumer.submit", 0),
        "consumer.submit.busy_s": busy.get("consumer.submit", 0.0),
        "consumer.handle.calls": calls.get("consumer.handle", 0),
        "consumer.handle.busy_s": busy.get("consumer.handle", 0.0),
        "codec.encode.envelopes": sums.get("codec.encode.envelopes", 0),
        "codec.encode.bytes": sums.get("codec.encode.bytes", 0),
        "codec.encode.busy_s": busy.get("codec.encode", 0.0),
        "codec.decode.envelopes": sums.get("codec.decode.envelopes", 0),
        "codec.decode.busy_s": busy.get("codec.decode", 0.0),
        "aio.flushes": sums.get("aio.flushes", 0),
        "aio.envelopes_per_flush": _ratio(
            sums.get("aio.envelopes", 0), sums.get("aio.flushes", 0)
        ),
        "broker.handle.calls": handles,
        "broker.handle.busy_s": busy.get("broker.handle", 0.0),
        "broker.handle.us_per_msg": _ratio(
            busy.get("broker.handle", 0.0) * 1e6, handles
        ),
    }
    for kind in ("submit_tasklet", "execution_result", "heartbeat", "submit_workflow"):
        key = f"broker.handle.{kind}.busy_s"
        metrics[key] = sums.get(key, 0.0)
    metrics.update(
        {
            "broker.tick.busy_s": busy.get("broker.tick", 0.0),
            "broker.backlog.mean": _ratio(sum(backlog), len(backlog)),
            "broker.queue_wait_ms.p50": median(wait_ms) if wait_ms else 0.0,
            "broker.queue_wait_ms.p99": tail_percentile(wait_ms, 99) or 0.0,
            "registry.views.calls": calls.get("registry.views", 0),
            "registry.views.busy_s": busy.get("registry.views", 0.0),
            "registry.views_per_handle": _ratio(
                calls.get("registry.views", 0), handles
            ),
            "scheduling.select.calls": calls.get("scheduling.select", 0),
            "scheduling.select.busy_s": busy.get("scheduling.select", 0.0),
            "scheduling.placed_per_select": _ratio(
                sums.get("scheduling.placed", 0), calls.get("scheduling.select", 0)
            ),
            "provider.handle.calls": calls.get("provider.handle", 0),
            "provider.handle.busy_s": busy.get("provider.handle", 0.0),
            "executor.execute.calls": calls.get("executor.execute", 0),
            "executor.execute.busy_s": busy.get("executor.execute", 0.0),
            "executor.cache_hit_ratio": _ratio(
                sums.get("executor.hits", 0), calls.get("executor.execute", 0)
            ),
            "tvm.instructions": sums.get("tvm.instructions", 0),
            "tvm.instr_per_s": _ratio(
                sums.get("tvm.instructions", 0), busy.get("executor.execute", 0.0)
            ),
            "dag.complete.calls": calls.get("dag.complete", 0),
            "dag.complete.busy_s": busy.get("dag.complete", 0.0),
        }
    )
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_time[layer]
    return metrics


def dag_values(spans: list[Span]) -> dict[str, dict[str, Any]]:
    """Workflow id -> node id -> output, as ``DagScheduler.complete`` saw it."""
    values: dict[str, dict[str, Any]] = {}
    for name, _start, _end, _id, _parent, trace, extra in spans:
        if name == "dag.complete" and extra:
            values.setdefault(trace, {})[extra["node"]] = extra["value"]
    return values


def in_window(spans: list[Span], start: float, end: float) -> list[Span]:
    """Spans inside ``[start, end]``, given in ``perf_counter`` seconds."""
    low, high = start * 1e9, end * 1e9
    return [span for span in spans if low <= span[1] and span[2] <= high]


def write_trace(path: str, header: dict, spans: list[Span]) -> None:
    """Gzipped JSON lines: ``header``, then one span array per line."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as handle:
        handle.write(json.dumps({**header, "span": SPAN_FIELDS}) + "\n")
        handle.writelines(json.dumps(span) + "\n" for span in spans)
