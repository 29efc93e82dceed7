"""The benchmark workloads and the deployment they run on.

Each workload runs the broker and the consumer in this process and one
single-slot provider process per CPU (``spawn_provider_processes``,
forked) over loopback; the load comes from one ``TcpConsumer``.

``Workload.measure(rng, seconds)`` sets the deployment up several times
(each set-up timed), splits the timed work evenly over ``PHASES`` of those
deployments, checks every result against an oracle and tears each one
down with a leak check.  Inputs come only from ``rng``, which the caller
seeds.

Each timed phase is a sequence of *rounds*, each a workload-specific
unit of work.  A phase's figures are medians over its rounds (and over
tasklets, for latency), so a stretch of it on a stalled host moves them
only once it covers half the phase.  The run's figures are the means of
its phases' figures.  How the kernel places the broker's busy thread and
the provider processes stays fixed for a deployment's life and can move
fine-bag's rate by a fifth; several deployments per run average that out.

Wall times are reported at a nominal host speed.  Around every round
(and every set-up) the benchmark times a fixed program on a small stack
machine of its own, in thread CPU time, and scales the round's wall
times by ``NOMINAL_CHUNK_S`` over that time.  The reference shares no
code with the program under test but runs the same kind of dispatch
loop as the TVM, so it slows down with the host the way the TVM does.
A shared host's CPU speed can shift by about half for seconds or minutes at
a time; the scale takes that out, while a change to the program still
moves the figures in full.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import queue
import random
import socket
import time
from dataclasses import dataclass, field
from statistics import fmean
from typing import Any, Callable

from repro.common.errors import TaskletError
from repro.core.kernels import PRIME_COUNT, python_prime_count
from repro.dag import patterns
from repro.provider.executor import TaskletExecutor
from repro.transport.message import AssignExecution
from repro.transport.tcp import TcpBroker, TcpConsumer, spawn_provider_processes
from repro.tvm.compiler import compile_source

from stats import median

TRIVIAL = "func main(x: int) -> int { return x + 1; }"

#: fine-bag: tasklets kept outstanding by the closed loop.  Deep relative
#: to the slot count on purpose: it keeps a broker backlog standing, so a
#: per-message cost that grows with backlog depth shows.
FINE_WINDOW = 64
#: fine-bag: results per block; a block's wall time is one round.
FINE_BLOCK = 256
#: coarse-bag: ``PRIME_COUNT`` limit bands; a bag takes one limit from each
#: band (plus up to ``COARSE_SPREAD``), so every bag holds the same mix of
#: roughly 50-150 ms tasklets while the seed picks the values and order.
COARSE_BANDS = (1500, 2000, 2500, 3000)
COARSE_SPREAD = 200
#: stencil-dag: stages per workflow and busywork per node (small, so the
#: run is bound by per-message latency along the critical path).
STENCIL_DEPTH = 16
STENCIL_WORK = 200
#: Host-speed reference: loop iterations of the reference program in one
#: chunk, chunks per sample (the median counts), and the thread CPU
#: seconds one chunk takes at the nominal speed every wall time is scaled to.
SPEED_LOOP = 1000
SPEED_CHUNKS = 5
NOMINAL_CHUNK_S = 0.002

#: Set-ups per run, and how many of them carry a share of the timed work
#: (every ``SETUPS // PHASES``-th); the median of all set-ups is ``setup_s``.
SETUPS = 24
PHASES = 4
#: Seconds any single result may take before it counts as missing.
RESULT_TIMEOUT = 60.0
REGISTER_TIMEOUT = 20.0
#: Warm-up batches tried before a provider that never gets one is an error.
WARMUP_BATCHES = 20
#: Fixed self-benchmark score, so providers skip the self-benchmark: every
#: provider is the same host, and the benchmark run would only add noise.
PROVIDER_SCORE = 1e7


class BenchmarkError(RuntimeError):
    """The deployment misbehaved (leak, hang); the run is invalid."""


PUSH, LOAD, STORE, ADD, MUL, MOD, LT, JUMP_IF_FALSE, JUMP, HALT = range(10)
#: ``total = 0; i = 0; while i < n { total += i * i % 7; i += 1 }`` with
#: ``total``, ``i`` and ``n`` in slots 0, 1 and 2.
SPEED_CODE = (
    (PUSH, 0), (STORE, 0), (PUSH, 0), (STORE, 1),
    (LOAD, 1), (LOAD, 2), (LT, None), (JUMP_IF_FALSE, 21),
    (LOAD, 0), (LOAD, 1), (LOAD, 1), (MUL, None), (PUSH, 7), (MOD, None),
    (ADD, None), (STORE, 0),
    (LOAD, 1), (PUSH, 1), (ADD, None), (STORE, 1), (JUMP, 4),
    (HALT, None),
)


def _speed_chunk() -> int:
    """Run ``SPEED_CODE`` for ``SPEED_LOOP`` iterations."""
    slots = [0, 0, SPEED_LOOP]
    stack: list = []
    ip = 0
    while True:
        op, arg = SPEED_CODE[ip]
        ip += 1
        if op == LOAD:
            stack.append(slots[arg])
        elif op == PUSH:
            stack.append(arg)
        elif op == STORE:
            slots[arg] = stack.pop()
        elif op == ADD:
            right = stack.pop()
            stack.append(stack.pop() + right)
        elif op == MUL:
            right = stack.pop()
            stack.append(stack.pop() * right)
        elif op == MOD:
            right = stack.pop()
            stack.append(stack.pop() % right)
        elif op == LT:
            right = stack.pop()
            stack.append(stack.pop() < right)
        elif op == JUMP_IF_FALSE:
            if not stack.pop():
                ip = arg
        elif op == JUMP:
            ip = arg
        else:
            return slots[0]


def host_scale() -> float:
    """``NOMINAL_CHUNK_S`` over the current time of one reference chunk.

    Thread CPU time, so neither other threads of this process (the
    broker's, holding the GIL) nor other processes count against it.
    Multiplying a wall time by it gives that time at the nominal speed.
    """
    times = []
    for _ in range(SPEED_CHUNKS):
        started = time.thread_time()
        _speed_chunk()
        times.append(time.thread_time() - started)
    return NOMINAL_CHUNK_S / median(times)


@dataclass
class Round:
    """One unit of a workload's timed phase."""

    seconds: float = 0.0  # first submit to last result
    correct: int = 0  # results that passed the oracle
    busy_s: float = 0.0  # useful provider time, for ``efficiency``
    #: Submit-to-result times of the round's correct results.
    latencies_s: list[float] = field(default_factory=list)
    #: Host-speed scale around the round (see ``host_scale``).
    scale: float = 1.0


@dataclass
class Phase:
    """What one timed phase measured."""

    attempted: int = 0
    ok: int = 0
    wrong: int = 0
    failed: int = 0  # failed or missing
    #: perf_counter bounds of this timed phase.
    started: float = 0.0
    finished: float = 0.0
    #: Slots the rounds' provider time is spread over.
    slots: int = 1
    rounds: list[Round] = field(default_factory=list)
    #: Broker executions issued and tasklets (or DAG nodes) finished.
    executions: int = 0
    finished_tasklets: int = 0
    #: Workflow id -> node id -> expected output (stencil-dag only).
    node_oracle: dict[str, dict[str, int]] = field(default_factory=dict)

    def check(self, good: bool, ok: bool = True) -> bool:
        """Count one result: ``ok`` is the middleware's verdict, ``good``
        the oracle's.  True when the result is correct."""
        if not ok:
            self.failed += 1
        elif good:
            self.ok += 1
        else:
            self.wrong += 1
        return ok and good

    def latencies_s(self) -> list[float]:
        """Every correct result's latency, at the nominal host speed."""
        return [t * r.scale for r in self.rounds for t in r.latencies_s]

    def end_to_end(self) -> dict[str, float]:
        """Medians over rounds; times at the nominal host speed.

        ``efficiency`` divides two times taken at the same speed, so it
        needs no scale.
        """
        rounds = self.rounds
        return {
            "tasklets_per_s": median(r.correct / (r.seconds * r.scale) for r in rounds),
            "makespan_s": median(r.seconds * r.scale for r in rounds),
            "latency_p50_ms": median(self.latencies_s()) * 1000.0,
            "efficiency": median(r.busy_s / (self.slots * r.seconds) for r in rounds),
        }


@dataclass
class Run:
    """One run: a timed phase per deployment and every set-up time."""

    phases: list[Phase] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(phase.attempted for phase in self.phases)

    @property
    def bad(self) -> int:
        """Wrong, failed and missing results."""
        return sum(phase.failed + phase.wrong for phase in self.phases)

    def end_to_end(self) -> dict[str, float]:
        """Each phase's figures averaged over phases; median set-up time."""
        figures = [phase.end_to_end() for phase in self.phases]
        metrics = {key: fmean(f[key] for f in figures) for key in figures[0]}
        metrics["setup_s"] = median(self.setups)
        return metrics


# -- TCP deployment -------------------------------------------------------------


class TcpDeployment:
    """Broker + consumer here, ``providers`` single-slot provider processes."""

    def __init__(self, providers: int):
        self.providers = providers
        self.broker: TcpBroker | None = None
        self.processes: list = []
        self.consumer: TcpConsumer | None = None

    @property
    def library(self):
        return self.consumer.library

    def start(self, warmup: tuple[str, list[Any], Any]) -> None:
        """Bring everything up and run one warm-up tasklet per provider."""
        self.broker = TcpBroker().start()
        host, port = self.broker.address
        self.processes = spawn_provider_processes(
            host, port, count=self.providers, benchmark_score=PROVIDER_SCORE
        )
        deadline = time.perf_counter() + REGISTER_TIMEOUT
        while len(self.broker.core.registry) < self.providers:
            if time.perf_counter() > deadline:
                raise BenchmarkError("providers did not register in time")
            time.sleep(0.002)
        self.consumer = TcpConsumer(host, port).start()
        source, args, expected = warmup
        program = self.library.compile(source)
        # One slot per provider: a batch of ``providers`` tasklets usually
        # reaches every provider once, filling its program cache.  A short
        # warm-up can finish before the next one is placed, so repeat the
        # batch until every provider has run one.
        seen = set()
        for _ in range(WARMUP_BATCHES):
            futures = [
                self.library.submit(program, args=args)
                for _ in range(self.providers)
            ]
            for future in futures:
                result = future.wait(RESULT_TIMEOUT)
                if not result.ok or result.value != expected:
                    raise BenchmarkError(f"warm-up tasklet failed: {result.error}")
                seen.add(result.executions[-1].provider_id)
            if len(seen) == self.providers:
                return
        raise BenchmarkError(f"warm-up reached {len(seen)} of {self.providers} providers")

    def stop(self) -> None:
        """Tear down; raises BenchmarkError if anything outlived the run."""
        leaks = []
        if self.broker is not None:
            core = self.broker.core
            if core.pending_tasklets or core.pending_workflows:
                leaks.append(
                    f"broker still holds {core.pending_tasklets} tasklets "
                    f"and {core.pending_workflows} workflows"
                )
        if self.consumer is not None:
            self.consumer.stop()
        for process in self.processes:
            process.stop()
        if self.broker is not None:
            address = self.broker.address
            self.broker.stop()
            if not _port_free(address):
                leaks.append(f"port {address[1]} still bound")
        alive = multiprocessing.active_children()
        if alive:
            leaks.append(f"{len(alive)} provider processes still running")
        if leaks:
            raise BenchmarkError("; ".join(leaks))


def _port_free(address: tuple[str, int]) -> bool:
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        probe.bind(address)
        probe.listen(1)
        return True
    except OSError:
        return False
    finally:
        probe.close()


def provider_count() -> int:
    """One single-slot provider per CPU this process may run on (nproc)."""
    return len(os.sched_getaffinity(0))


# -- workloads ----------------------------------------------------------------------


def _fine_bag(deployment: TcpDeployment, rng: random.Random, seconds: float) -> Phase:
    """Closed loop: keep FINE_WINDOW trivial tasklets outstanding.

    The host-speed reference is sampled at each block boundary while the
    window stays full, so the sample's few milliseconds fall inside the
    block.
    """
    library = deployment.library
    program = library.compile(TRIVIAL)
    done: queue.SimpleQueue = queue.SimpleQueue()
    phase = Phase(slots=deployment.providers)

    def submit() -> None:
        x = rng.randrange(-(10**9), 10**9)
        future = library.submit(program, args=[x])
        future.add_done_callback(lambda result, x=x: done.put((x, result)))
        phase.attempted += 1

    scale = host_scale()
    phase.started = time.perf_counter()
    deadline = phase.started + seconds
    for _ in range(FINE_WINDOW):
        submit()
    outstanding = FINE_WINDOW
    received = 0
    block = Round()
    block_started = phase.finished = phase.started
    while outstanding:
        try:
            x, result = done.get(timeout=RESULT_TIMEOUT)
        except queue.Empty:
            phase.failed += outstanding
            break
        outstanding -= 1
        received += 1
        phase.finished = time.perf_counter()
        if phase.check(result.value == x + 1, result.ok):
            block.latencies_s.append(result.latency)
            block.correct += 1
        block.busy_s += result.provider_seconds
        if phase.finished < deadline:
            submit()
            outstanding += 1
        if received % FINE_BLOCK == 0:
            block.seconds = phase.finished - block_started
            before, scale = scale, host_scale()
            block.scale = (before + scale) / 2
            phase.rounds.append(block)
            block = Round()
            block_started = phase.finished
    if not phase.rounds:  # a phase shorter than one block is one round
        block.seconds = phase.finished - phase.started
        block.scale = (scale + host_scale()) / 2
        phase.rounds.append(block)
    return phase


def _coarse_bag(deployment: TcpDeployment, rng: random.Random, seconds: float) -> Phase:
    """Bags of len(COARSE_BANDS) prime counts via ``map``, one bag at a time."""
    library = deployment.library
    program = library.compile(PRIME_COUNT)
    oracle: dict[int, int] = {}
    phase = Phase(slots=deployment.providers)
    scale = host_scale()
    phase.started = phase.finished = time.perf_counter()
    while phase.finished - phase.started < seconds:
        limits = [band + rng.randrange(COARSE_SPREAD) for band in COARSE_BANDS]
        rng.shuffle(limits)
        submitted = time.perf_counter()
        futures = library.map(program, [[limit] for limit in limits])
        phase.attempted += len(futures)
        bag = Round()
        for limit, future in zip(limits, futures):
            try:
                result = future.wait(RESULT_TIMEOUT)
            except TaskletError:  # TimeoutExpired: the result is missing
                phase.failed += 1
                continue
            if limit not in oracle:
                oracle[limit] = python_prime_count(limit)
            if phase.check(result.value == oracle[limit], result.ok):
                bag.latencies_s.append(result.latency)
                bag.correct += 1
            bag.busy_s += result.provider_seconds
        phase.finished = time.perf_counter()
        bag.seconds = phase.finished - submitted
        before, scale = scale, host_scale()
        bag.scale = (before + scale) / 2
        phase.rounds.append(bag)
    return phase


def stencil_spec(rng: random.Random, width: int):
    """A stencil with a fresh workflow id and a seeded salt.

    ``patterns.stencil`` names every workflow of one shape alike; a real
    client gives each submission its own id.  The id is drawn from the
    seeded ``rng`` so that it is unique across all deployments of a run.
    """
    spec = patterns.stencil(
        width, STENCIL_DEPTH, work=STENCIL_WORK, salt=rng.randrange(1, 10**6)
    )
    suffix = f"{rng.getrandbits(64):016x}"
    return dataclasses.replace(spec, workflow_id=f"{spec.workflow_id}-{suffix}")


#: Looked up before any probe is installed: reference executions run the
#: unwrapped executor even in a traced run.
_EXECUTE = TaskletExecutor.execute


class Calibration:
    """Times one assignment on an in-process TVM, outside the middleware.

    Sampled between rounds of a timed phase (and left out of their wall
    time), so the reference sees the same host speed as the run.
    """

    def __init__(self, program, args: list[Any]):
        self._executor = TaskletExecutor()
        self._request = AssignExecution(
            execution_id="calibrate",
            tasklet_id="calibrate",
            consumer_id="calibrate",
            program=program.to_dict(),
            program_fingerprint=program.fingerprint(),
            entry="main",
            args=args,
            seed=0,
            fuel=10**9,
        )
        _EXECUTE(self._executor, self._request)  # fills the program cache
        self.seconds: list[float] = []

    def sample(self) -> None:
        started = time.perf_counter()
        _EXECUTE(self._executor, self._request)
        self.seconds.append(time.perf_counter() - started)


def _stencil_dag(deployment: TcpDeployment, rng: random.Random, seconds: float) -> Phase:
    """Stencils of width 2 x slots, one workflow in flight at a time."""
    width = 2 * deployment.providers
    # Workflow results carry no per-node provider time, so efficiency
    # counts useful work the Task Bench way: nodes done times the time one
    # interior node takes alone.
    alone = Calibration(
        compile_source(patterns.DAG_KERNEL), [[1, 2, 3], STENCIL_WORK, 7]
    )
    phase = Phase(slots=deployment.providers)
    scale = host_scale()
    phase.started = phase.finished = time.perf_counter()
    while phase.finished - phase.started < seconds:
        spec = stencil_spec(rng, width)
        expected = patterns.reference_values(spec)
        phase.node_oracle[spec.workflow_id] = expected
        nodes = len(spec.nodes)
        phase.attempted += nodes
        submitted = time.perf_counter()
        handle = deployment.library.submit_workflow(spec)
        try:
            outputs = handle.result(RESULT_TIMEOUT)
        except TaskletError:  # WorkflowFailed, TimeoutExpired
            phase.failed += nodes
            phase.finished = time.perf_counter()
            continue
        phase.finished = time.perf_counter()
        # Sink values fold in every upstream output, so a wrong node
        # anywhere shows in the sinks; the node states show that every
        # node completed.
        sinks_good = outputs == {sink: expected[sink] for sink in spec.sinks()}
        correct = sum(
            phase.check(sinks_good and handle.node_states.get(node.node_id) == "done")
            for node in spec.nodes
        )
        before, scale = scale, host_scale()
        # ``busy_s`` counts nodes until the calibration is complete.
        workflow = Round(phase.finished - submitted, correct, nodes)
        workflow.latencies_s.append(workflow.seconds)
        workflow.scale = (before + scale) / 2
        phase.rounds.append(workflow)
        alone.sample()
    per_node = median(alone.seconds)
    for workflow in phase.rounds:
        workflow.busy_s *= per_node
    return phase


def _on_tcp(
    drive: Callable[[TcpDeployment, random.Random, float], Phase],
    warmup: tuple[str, list[Any], Any],
) -> Callable[[random.Random, float], Run]:
    def measure(rng: random.Random, seconds: float) -> Run:
        """Times at the nominal host speed; ``seconds`` of timed work."""
        run = Run()
        every = SETUPS // PHASES
        for attempt in range(SETUPS):
            deployment = TcpDeployment(provider_count())
            scale = host_scale()
            began = time.perf_counter()
            try:
                deployment.start(warmup)
                run.setups.append(
                    (time.perf_counter() - began) * (scale + host_scale()) / 2
                )
                if attempt % every != every - 1:
                    continue
                stats = deployment.broker.core.stats
                issued = stats.executions_issued
                ended = stats.tasklets_completed + stats.tasklets_failed
                phase = drive(deployment, rng, seconds / PHASES)
                phase.executions = stats.executions_issued - issued
                phase.finished_tasklets = (
                    stats.tasklets_completed + stats.tasklets_failed - ended
                )
                run.phases.append(phase)
            finally:
                deployment.stop()
        return run

    return measure


@dataclass(frozen=True)
class Workload:
    name: str
    #: Load generator shape, recorded in the output.
    loop: str
    measure: Callable[[random.Random, float], Run]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "fine-bag",
            f"closed loop, {FINE_WINDOW} tasklets outstanding",
            _on_tcp(_fine_bag, (TRIVIAL, [1], 2)),
        ),
        Workload(
            "coarse-bag",
            f"closed loop, one bag of {len(COARSE_BANDS)} outstanding (map, wait all)",
            _on_tcp(_coarse_bag, (PRIME_COUNT, [10], 4)),
        ),
        Workload(
            "stencil-dag",
            f"closed loop, one workflow of depth {STENCIL_DEPTH} outstanding",
            _on_tcp(_stencil_dag, (patterns.DAG_KERNEL, [[1], 0, 1], 32)),
        ),
    )
}
