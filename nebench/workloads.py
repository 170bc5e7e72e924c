"""One round of each workload, from a pristine image and a fresh engine.

A round replays the workload's annotations in the seed's order, so every
round of a run does identical work: rounds neither drift with run length
(the ACG and the stability tracker start over) nor differ in outputs,
which :mod:`nebench.bench` checks by fingerprint.

* ``ingest`` (``ingest-1x``/``ingest-8x``): closed loop, one client, on
  ``sqlite-memory``.  Each step inserts one annotation, reads its pending
  tasks, and an oracle expert resolves each one: VERIFY when the tuple
  is one of the annotation's missing ideal links, REJECT otherwise.
* ``service`` (``service-mixed``): open loop on ``sqlite-file`` (WAL).
  A writer client submits annotations to ``AnnotationService`` at a
  fixed rate, a reader client sends two reads between sends, and a
  collector takes the acks.  Once every ack is in, the service stops and
  the oracle expert works the pending backlog, as in ``ingest``.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import itertools
import math
import os
import queue
import shutil
import sqlite3
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import repro.core.nebula as nebula_module
from repro import (
    AnnotationRequest,
    AnnotationService,
    MetricsRegistry,
    NebulaError,
    ServiceConfig,
    WorkloadAnnotation,
    get_backend,
    set_metrics,
)
from repro.annotations.engine import AnnotationManager
from repro.core.acg import UNREACHABLE, AnnotationsConnectivityGraph
from repro.core.nebula import Nebula
from repro.core.shared_execution import SharedExecutor
from repro.core.verification import Decision, VerificationQueue
from repro.meta.sampling import ColumnSample
from repro.search.engine import KeywordSearchEngine
from repro.versioning.log import CommitLog

from speed import Speedometer
from tracer import LayerTracer
from world import DELTA, World, open_engine

#: Offered write rate of ``service-mixed``: about half of the 55-70 ann/s
#: at which the writer and the read mix saturate a 2-core machine (an
#: ``as_of`` ``annotations_for`` read alone costs ~20 ms there).  At 40
#: ann/s some runs of one seed already saw p90 latency double.
OFFERED_RATE = 25.0
READS_PER_WRITE = 2
#: Reader threads sharing the read schedule.  One: with four, write
#: latency depended on how the readers' turns at the GIL fell, and five
#: seeds spread insert_p50 0.18 and insert_p90 0.22 (IQR/median) against
#: 0.08 and 0.12 with one.  A slow read now delays the reads behind it,
#: which shows in ``bench.generator_late_p99_ms``.
READER_CLIENTS = 1
#: An ack later than this (from its due time) does not count as served.
LATENCY_LIMIT_S = 0.2
#: Large enough that load shedding (which switches batches to the
#: spreading search and so changes outputs) never engages at this rate.
QUEUE_CAPACITY = 1024
ACK_TIMEOUT_S = 60.0


@dataclass
class RoundResult:
    setup_s: float
    #: Wall seconds of the measured phase (reference slices excluded).
    elapsed_s: float
    #: Annotations served: fully curated (ingest) or acked within the
    #: latency limit (service).
    served: int
    attempted: int = 0
    failed: int = 0
    annotations: int = 0
    insert_ms: List[float] = field(default_factory=list)
    #: Missing ideal links found (true attachments at round end) / total.
    found: int = 0
    missing: int = 0
    #: Tasks left for the expert (the paper's manual effort).
    pending: int = 0
    spreading: int = 0
    fingerprint: str = ""
    #: Failed correctness checks (an empty list means the round is correct).
    problems: List[str] = field(default_factory=list)
    #: Per-layer values observed without patching the program.
    layers: Dict[str, float] = field(default_factory=dict)
    #: Mean reference-kernel slice time during the round (ms): the
    #: machine's speed the round's timings are scaled by (0 when the
    #: round did no work).
    slice_ms: float = 0.0
    #: The measured phase ran on a schedule (open loop), so its length,
    #: unlike its latencies, does not depend on the machine's speed.
    paced: bool = False


class _Oracle:
    """The expert, plus the round's bookkeeping of outcomes."""

    def __init__(self, result: RoundResult) -> None:
        self.result = result
        self._digest = hashlib.sha256()

    def curate(self, nebula: Nebula, annotation: WorkloadAnnotation, report) -> None:
        """Read and resolve the report's pending tasks; record recall and
        outputs."""
        result = self.result
        focal = annotation.focal(DELTA)
        missing = set(annotation.missing(focal))
        accepted = {t.ref for t in report.tasks if t.decision is Decision.AUTO_ACCEPTED}
        decisions = {t.task_id: t.decision for t in report.tasks}
        pending = nebula.pending_tasks(report.annotation_id)
        result.attempted += 1
        if sorted(t.task_id for t in pending) != sorted(
            t.task_id for t in report.tasks if t.decision is Decision.PENDING
        ):
            result.problems.append(
                f"{annotation.label}: pending tasks differ from the triage report"
            )
        for task in pending:
            result.attempted += 1
            try:
                if task.ref in missing:
                    resolved = nebula.verify_attachment(task.task_id)
                else:
                    resolved = nebula.reject_attachment(task.task_id)
                nebula.connection.commit()
            except NebulaError:
                result.failed += 1
                continue
            decisions[task.task_id] = resolved.decision
            if resolved.decision is Decision.VERIFIED:
                accepted.add(task.ref)
        result.annotations += 1
        result.pending += len(pending)
        result.found += len(accepted & missing)
        result.missing += len(missing)
        result.spreading += report.mode == "spreading"
        candidates = [(c.ref.table, c.ref.rowid, repr(c.confidence)) for c in report.candidates]
        self._digest.update(
            repr((annotation.label, candidates, sorted(
                (t.ref.table, t.ref.rowid, decisions[t.task_id].value) for t in report.tasks
            ))).encode()
        )

    def finish(self, nebula: Nebula, include_head: bool) -> None:
        """Round-end checks and the output fingerprint."""
        problems = self.result.problems
        if not nebula.commit_log.verify_head():
            problems.append("commit log head diverges from the head tables")
        if nebula.pending_tasks():
            problems.append("tasks left pending after the expert pass")
        self._digest.update(f"acg_edges={nebula.acg.edge_count}".encode())
        if include_head:
            # Service batches are timing-dependent, and so is the number
            # of commits they make; only the ingest loop pins the head.
            self._digest.update(f"head={nebula.head_commit()}".encode())
        self.result.fingerprint = self._digest.hexdigest()


# ----------------------------------------------------------------------
# Tracing hooks
# ----------------------------------------------------------------------


def instrument(tracer: LayerTracer, nebula: Nebula) -> None:
    """Wrap each layer's public entry point (undone by ``unwrap_all``)."""
    tracer.wrap(ColumnSample, "match_score", "meta.match_score")
    tracer.wrap(
        nebula_module, "generate_queries", "core.generate_queries",
        lambda args, result: tracer.count("core.queries", len(result.queries)),
    )
    tracer.wrap(KeywordSearchEngine, "search", "search.search")
    tracer.wrap(
        nebula_module, "identify_related_tuples", "core.identify",
        lambda args, result: tracer.count("core.candidates", len(result.tuples)),
    )
    tracer.wrap(VerificationQueue, "triage", "core.triage")
    tracer.wrap(VerificationQueue, "verify", "core.verify")
    tracer.wrap(VerificationQueue, "reject", "core.reject")
    tracer.wrap(
        AnnotationsConnectivityGraph, "shortest_hops", "core.acg.shortest_hops",
        lambda args, result: tracer.count("core.acg.reachable", result != UNREACHABLE),
    )
    tracer.wrap(CommitLog, "begin", "versioning.commit")
    tracer.wrap(AnnotationManager, "add_annotation", "annotations.add_annotation")
    tracer.wrap(AnnotationManager, "bulk_add_annotations", "annotations.add_annotation")

    def shared_stats(args, result) -> None:
        stats = args[0].last_stats
        tracer.count("perf.shared.total", stats.total_sql)
        tracer.count("perf.shared.saved", stats.saved_statements)

    tracer.wrap(SharedExecutor, "execute_groups", "perf.shared.execute_groups", shared_stats)
    tracer.wrap(Nebula, "insert_annotations", "core.insert_annotations")
    nebula.connection.set_trace_callback(lambda sql: tracer.count("search.sql_statements"))


def uninstrument(tracer: LayerTracer, nebula: Nebula) -> None:
    tracer.unwrap_all()
    nebula.connection.set_trace_callback(None)


# ----------------------------------------------------------------------
# ingest-1x / ingest-8x
# ----------------------------------------------------------------------


def ingest_round(
    world: World,
    order: Sequence[WorkloadAnnotation],
    tracer: Optional[LayerTracer],
    speed: Speedometer,
    config: Mapping[str, object],
) -> RoundResult:
    backend = get_backend("sqlite-memory")
    nebula = None
    try:
        with contextlib.closing(
            sqlite3.connect(f"{world.image.as_uri()}?mode=ro&immutable=1", uri=True)
        ) as source:
            source.backup(backend.primary)
        metrics = MetricsRegistry()
        set_metrics(metrics)
        _collect()
        started = time.perf_counter()
        nebula = open_engine(backend, metrics, **config)
        result = RoundResult(setup_s=time.perf_counter() - started, elapsed_s=0.0, served=0)
        oracle = _Oracle(result)
        speed.reset()
        if tracer is not None:
            instrument(tracer, nebula)
        started = time.perf_counter()
        slices_s = 0.0
        try:
            for annotation in order:
                result.attempted += 1
                begun = time.perf_counter()
                try:
                    report = nebula.insert_annotation(
                        annotation.text, attach_to=annotation.focal(DELTA)
                    )
                    nebula.connection.commit()
                except NebulaError:
                    result.failed += 1
                    continue
                result.insert_ms.append((time.perf_counter() - begun) * 1e3)
                oracle.curate(nebula, annotation, report)
                result.served += 1
                slices_s += speed.tick()
            result.elapsed_s = time.perf_counter() - started - slices_s
        finally:
            if tracer is not None:
                uninstrument(tracer, nebula)
        oracle.finish(nebula, include_head=True)
        result.slice_ms = speed.slice_ms()
        cache = nebula.analysis_cache.snapshot()
        result.layers.update(_common_layers(nebula, cache))
        return result
    finally:
        if nebula is not None:
            nebula.close()
        backend.close()


def _collect() -> None:
    """Start a set-up from a collected heap, as in a fresh process: the
    previous round's garbage would otherwise be collected inside it."""
    gc.collect()


def _common_layers(nebula: Nebula, cache: Dict[str, int]) -> Dict[str, float]:
    lookups = cache["hits"] + cache["misses"]
    return {
        "perf.analysis_cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "resilience.dead_letters": float(nebula.dead_letters.count()),
    }


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------


def _read(service: AnnotationService, kind: int, annotation: WorkloadAnnotation,
          as_of: Optional[int]):
    if kind == 0:
        ref = annotation.focal(DELTA)[0]
        return service.annotations_for(ref.table, ref.rowid, as_of=as_of)
    if kind == 1:
        return service.find_annotations(annotation.references[0].keyword, as_of=as_of)
    return service.pending_verifications(limit=20, as_of=as_of)


def service_round(
    world: World,
    order: Sequence[WorkloadAnnotation],
    tracer: Optional[LayerTracer],
    speed: Speedometer,
    config: Mapping[str, object],
) -> RoundResult:
    workdir = world.directory / "rounds"
    workdir.mkdir(exist_ok=True)
    path = workdir / f"service-{os.getpid()}.db"
    _remove_database(path)
    shutil.copyfile(world.image, path)
    metrics = MetricsRegistry()
    set_metrics(metrics)
    _collect()
    started = time.perf_counter()
    backend = get_backend("sqlite-file", path=str(path))
    nebula = service = None
    try:
        nebula = open_engine(backend, metrics, **config)
        service = AnnotationService(
            nebula, ServiceConfig(queue_capacity=QUEUE_CAPACITY)
        ).start()
        result = RoundResult(
            setup_s=time.perf_counter() - started, elapsed_s=0.0, served=0, paced=True
        )
        oracle = _Oracle(result)
        speed.reset()
        pin = service.head_commit()
        count_before = service.annotation_count()
        checks = [(kind, a) for a in order[:3] for kind in range(3)]
        pinned_before = [_read(service, kind, a, pin) for kind, a in checks]
        if tracer is not None:
            instrument(tracer, nebula)
        try:
            reports, open_loop = _open_loop(service, order, pin, result)
        finally:
            if tracer is not None:
                uninstrument(tracer, nebula)
        acked = len(reports)
        if service.annotation_count() - count_before != acked:
            result.problems.append("an acknowledged annotation is not readable")
        if [_read(service, kind, a, pin) for kind, a in checks] != pinned_before:
            result.problems.append(f"as_of={pin} reads changed during the round")
        stats = service.stats()
        if not service.stop():
            result.problems.append("service did not shut down cleanly")
        if tracer is not None:
            instrument(tracer, nebula)
        try:
            for index, annotation in enumerate(order):
                if index in reports:
                    oracle.curate(nebula, annotation, reports[index])
                    speed.tick()
        finally:
            if tracer is not None:
                uninstrument(tracer, nebula)
        oracle.finish(nebula, include_head=False)
        result.slice_ms = speed.slice_ms()
        result.layers.update(_common_layers(nebula, nebula.analysis_cache.snapshot()))
        result.layers.update(open_loop)
        result.layers.update(
            {
                "service.queue_wait_p50_ms": stats.queue_wait_seconds.get("p50", 0.0) * 1e3,
                "service.flush_p50_ms": stats.flush_seconds.get("p50", 0.0) * 1e3,
                "service.batch_size": stats.ingested / stats.batches if stats.batches else 0.0,
                "storage.reader_fallbacks": metrics.counter(
                    "nebula_service_reader_fallbacks_total"
                ).value,
            }
        )
        return result
    finally:
        if service is not None and service.running:
            service.stop()
        if nebula is not None:
            nebula.close()
        backend.close()
        _remove_database(path)


def _open_loop(
    service: AnnotationService,
    order: Sequence[WorkloadAnnotation],
    pin: Optional[int],
    result: RoundResult,
) -> Tuple[Dict[int, object], Dict[str, float]]:
    """Independent clients on one schedule.

    A writer client sends one annotation every ``1/OFFERED_RATE`` s, the
    reader clients send ``READS_PER_WRITE`` reads in between, and a
    collector takes the acks.  No request waits for an earlier one to
    finish: each is sent when due unless every reader is still busy.  Every request is
    timed from the moment it was due, so a stall also counts against the
    requests queued behind it.
    """
    period = 1.0 / OFFERED_RATE
    slots = 1 + READS_PER_WRITE
    acks: "queue.Queue" = queue.Queue()
    reports: Dict[int, object] = {}
    # Each client's tallies are written by its own thread only and read
    # after the joins; next() on a shared counter hands out the reads.
    writer = _Client()
    readers = [_Client() for _ in range(READER_CLIENTS)]
    lost_acks: List[int] = []
    next_read = itertools.count()

    def collect() -> None:
        # The writer completes tickets in submission order, so waiting
        # on them in order observes each ack as it happens.
        while True:
            item = acks.get()
            if item is None:
                return
            index, due, ticket = item
            try:
                report = ticket.result(timeout=ACK_TIMEOUT_S)
            except (NebulaError, TimeoutError):
                lost_acks.append(index)
                continue
            result.insert_ms.append((time.perf_counter() - due) * 1e3)
            reports[index] = report

    def read(client: _Client) -> None:
        total = len(order) * READS_PER_WRITE
        while (count := next(next_read)) < total:
            index, slot = divmod(count, READS_PER_WRITE)
            client.wait_until(origin + (index + (slot + 1) / slots) * period)
            # Half the reads at head, half pinned to the round-start
            # commit, rotating across the three read endpoints.
            as_of = pin if count % 2 else None
            try:
                _read(service, count % 3, order[index], as_of)
            except NebulaError:
                client.failed += 1
                continue
            latency = (time.perf_counter() - client.due) * 1e3
            (client.pinned_ms if as_of is not None else client.head_ms).append(latency)

    origin = time.perf_counter() + 0.01
    threads = [_Thread(collect, "nebench-acks")] + [
        _Thread(functools.partial(read, client), f"nebench-reader-{i}")
        for i, client in enumerate(readers)
    ]
    try:
        for index, annotation in enumerate(order):
            writer.wait_until(origin + index * period)
            request = AnnotationRequest.build(annotation.text, annotation.focal(DELTA))
            try:
                acks.put((index, writer.due, service.submit(request)))
            except NebulaError:
                writer.failed += 1
    finally:
        acks.put(None)
        for thread in threads:
            thread.join()
    # Every ack is in once the collector is joined.
    result.elapsed_s = time.perf_counter() - origin
    head_ms = [ms for c in readers for ms in c.head_ms]
    pinned_ms = [ms for c in readers for ms in c.pinned_ms]
    for client in [writer, *readers]:
        result.attempted += client.attempted
        result.failed += client.failed
    result.failed += len(lost_acks)
    result.served = sum(ms <= LATENCY_LIMIT_S * 1e3 for ms in result.insert_ms)
    late_ms = [x * 1e3 for c in [writer, *readers] for x in c.late]
    return reports, {
        "bench.generator_late_p99_ms": percentile(late_ms, 99),
        "service.head_read_ms": statistics.median(head_ms) if head_ms else 0.0,
        "versioning.asof_read_ms": statistics.median(pinned_ms) if pinned_ms else 0.0,
    }


class _Client:
    """One open-loop client's schedule and tallies."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.due = 0.0
        self.late: List[float] = []
        self.head_ms: List[float] = []
        self.pinned_ms: List[float] = []

    def wait_until(self, due: float) -> None:
        """Sleep until ``due``; the request is attempted from then."""
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        self.due = due
        self.attempted += 1
        self.late.append(max(0.0, time.perf_counter() - due))


class _Thread(threading.Thread):
    """A started thread whose exception is re-raised by ``join``."""

    def __init__(self, target, name: str) -> None:
        super().__init__(name=name)
        self._work = target
        self._error: Optional[BaseException] = None
        self.start()

    def run(self) -> None:
        try:
            self._work()
        except BaseException as error:  # re-raised in the joining thread
            self._error = error

    def join(self, timeout: Optional[float] = None) -> None:
        super().join(timeout)
        if self._error is not None:
            raise self._error


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(len(ordered) * pct / 100)) - 1])


def _remove_database(path: Path) -> None:
    for candidate in (path, Path(f"{path}-wal"), Path(f"{path}-shm")):
        candidate.unlink(missing_ok=True)
