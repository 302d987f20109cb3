"""Executor backends: how a campaign's variants are mapped to outcomes.

:class:`~repro.campaign.runner.CampaignRunner` is policy (ordering, caching,
fallback); an :class:`ExecutorBackend` is mechanism.  A backend maps a pure
worker function over variants and yields the results **in input order** —
nothing about grids, stores or summaries leaks into it, so alternative
execution substrates (a cluster scheduler, a batch queue) only have to
implement :meth:`ExecutorBackend.map`.

Backends must yield results as they become available (lazily) rather than
collecting them first: the runner's fallback logic keeps every outcome that
was produced before a mid-campaign pool failure.  Backends whose ``map``
additionally accepts an ``on_complete(index, result)`` keyword invoke it the
moment each item finishes, **in completion order** — the runner uses it to
persist flights that completed but cannot be yielded yet because an earlier
item is still running, so a killed campaign loses nothing that finished.
"""

from __future__ import annotations

import functools
import logging
import os
import shutil
import subprocess
import sys
import tempfile
import time
import uuid
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Iterator, Protocol, Sequence, runtime_checkable,
)

from ..obs import default_registry, emit
from .workqueue import AUTH_TOKEN_ENV, FileWorkQueue, resolve_auth_token

if TYPE_CHECKING:
    from .transport import HttpWorkQueue

logger = logging.getLogger(__name__)

__all__ = [
    "ExecutorBackend",
    "SerialBackend",
    "BatchBackend",
    "ProcessPoolBackend",
    "DistributedBackend",
    "ServiceBackend",
    "drain_in_order",
    "get_backend",
    "reap_workers",
    "spawn_worker",
]

#: Completion-order callback: ``on_complete(input_index, result)``.
CompletionCallback = Callable[[int, Any], None]


def spawn_worker(
    worker_args: list[str],
    transport: str = "file",
    auth_token: str | None = None,
    lease_timeout: float = 30.0,
    poll_interval: float = 0.05,
) -> subprocess.Popen:
    """Spawn one ``python -m repro.campaign.worker`` process.

    Shared by the single-campaign :class:`DistributedBackend` and the
    persistent :class:`~repro.campaign.service.CampaignService` fleet, so
    the careful parts are written once: whatever is importable here is made
    importable in the worker (task payloads reference functions by module
    path), and the shared secret travels via the environment — never argv,
    which is world-readable in process listings.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(entry for entry in sys.path if entry)
    if auth_token is not None:
        env[AUTH_TOKEN_ENV] = auth_token
    default_registry().counter(
        "repro_worker_spawns_total",
        "Worker processes spawned by distributed coordinators.",
    ).inc()
    emit("worker-spawn", "campaign.backends", transport=transport)
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.campaign.worker",
            *worker_args,
            "--lease-timeout",
            str(lease_timeout),
            "--poll",
            str(poll_interval),
        ],
        env=env,
    )


def reap_workers(processes: Sequence[subprocess.Popen], grace: float) -> None:
    """Wait for spawned workers to exit, escalating on stragglers.

    All of ``processes`` share one ``grace``-second deadline to exit on
    their own (after the stop sentinel); a worker still running then is
    terminated, and killed if it ignores that for another 2 s.
    """
    deadline = time.time() + grace
    for proc in processes:
        try:
            proc.wait(timeout=max(0.0, deadline - time.time()))
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def drain_in_order(
    total: int,
    collect: Callable[[set[int]], dict[int, Any]],
    on_complete: CompletionCallback | None,
    poll_interval: float,
    tick: Callable[[int], None] | None = None,
    source: str = "worker",
) -> Iterator[Any]:
    """Poll ``collect`` until all ``total`` results are in; yield them in
    input order.

    The coordinator loop every queue-backed backend shares.
    ``collect(seen)`` returns the ``{index: (status, value)}`` results not
    in ``seen``.  ``on_complete`` fires for each result the moment it is
    collected (completion order); a non-``"ok"`` status raises
    ``RuntimeError("<source> failed on item N: ...")``.  ``tick(done)``
    is the caller's own per-poll work (housekeeping, liveness or
    cancellation checks) and may raise to abort.  It runs *after* each
    collect, so a result that arrived before the abort has already been
    handed on, and it never runs once the last result is in.
    """
    seen: set[int] = set()
    ready: dict[int, Any] = {}
    next_index = 0
    while True:
        fresh = collect(seen)
        for index in sorted(fresh):
            status, value = fresh[index]
            seen.add(index)
            if status != "ok":
                raise RuntimeError(f"{source} failed on item {index}:\n{value}")
            ready[index] = value
            if on_complete is not None:
                on_complete(index, value)
        while next_index in ready:
            yield ready.pop(next_index)
            next_index += 1
        if next_index >= total:
            return
        if tick is not None:
            tick(len(seen))
        time.sleep(poll_interval)


@runtime_checkable
class ExecutorBackend(Protocol):
    """Maps a worker function over items, yielding results in input order."""

    #: Short identifier used in reports and CLI specs.
    name: str

    def map(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> Iterator[Any]:  # pragma: no cover - protocol signature
        ...


@dataclass(frozen=True)
class SerialBackend:
    """In-process, one-at-a-time execution (also the fallback substrate)."""

    name = "serial"

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> Iterator[Any]:
        for item in items:
            yield fn(item)


@dataclass(frozen=True)
class BatchBackend:
    """Vectorised in-process execution over the structure-of-arrays core.

    Instead of flying one :class:`~repro.sim.flight.FlightSimulation` per
    variant, the whole campaign is handed to :func:`repro.sim.batch.run_batch`,
    which steps every scenario in lockstep with array operations and amortises
    one event-trace compile across all scenarios that share a timing class
    (see :mod:`repro.sim.batch`).

    The backend only understands the campaign runner's own worker function —
    it inspects ``fn`` for :func:`~repro.campaign.runner._execute_variant`
    (bare or wrapped in a ``record_arrays`` partial) and requires every item
    to carry a ``.scenario``.  Anything else (custom workers in tests,
    ad-hoc map calls) is executed serially, so selecting ``--backend batch``
    is always safe even for workloads the batch core cannot express.

    Error handling is coarser than the scalar path's per-variant capture: a
    failure anywhere in the batch propagates out of :meth:`map` as a backend
    failure, and the runner's fallback finishes the campaign serially —
    restoring per-variant tracebacks at scalar speed.
    """

    name = "batch"

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        on_complete: CompletionCallback | None = None,
    ) -> Iterator[Any]:
        record_arrays = self._runner_worker_mode(fn)
        if record_arrays is None or not all(
            hasattr(item, "scenario") for item in items
        ):
            for index, item in enumerate(items):
                result = fn(item)
                if on_complete is not None:
                    on_complete(index, result)
                yield result
            return
        yield from self._map_batched(items, record_arrays, on_complete)

    @staticmethod
    def _runner_worker_mode(fn: Callable[[Any], Any]) -> bool | None:
        """``record_arrays`` flag if ``fn`` is the runner's worker, else None."""
        from .runner import _execute_variant

        target: Any = fn
        record_arrays = False
        if isinstance(target, functools.partial):
            record_arrays = bool(target.keywords.get("record_arrays", False))
            target = target.func
        return record_arrays if target is _execute_variant else None

    @staticmethod
    def _map_batched(
        items: Sequence[Any],
        record_arrays: bool,
        on_complete: CompletionCallback | None,
    ) -> Iterator[Any]:
        from ..sim.batch import run_batch
        from .results import VariantOutcome
        from .runner import _summarise, trajectory_arrays

        start = time.perf_counter()
        results = run_batch([item.scenario for item in items])
        # Lockstep flights have no individual wall time; report each
        # variant's fair share so campaign totals still add up.
        share = (time.perf_counter() - start) / max(1, len(items))
        for index, (variant, result) in enumerate(zip(items, results)):
            outcome = VariantOutcome(
                name=variant.name,
                axes=variant.axes,
                seed=variant.scenario.seed,
                summary=_summarise(variant, result),
                error=None,
                wall_time=share,
            )
            raw: Any = outcome
            if record_arrays:
                raw = (outcome, trajectory_arrays(result))
            if on_complete is not None:
                on_complete(index, raw)
            yield raw


@dataclass(frozen=True)
class ProcessPoolBackend:
    """``concurrent.futures.ProcessPoolExecutor`` fan-out.

    Attributes
    ----------
    max_workers:
        Pool size; ``None`` uses the CPU count.  The effective size is
        additionally capped at the number of items.
    """

    max_workers: int | None = None

    name = "process-pool"

    def __post_init__(self) -> None:
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        on_complete: CompletionCallback | None = None,
    ) -> Iterator[Any]:
        items = list(items)
        if not items:
            return
        workers = min(self.max_workers or os.cpu_count() or 1, len(items))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            if on_complete is None:
                yield from pool.map(fn, items)
                return
            futures = [pool.submit(fn, item) for item in items]
            index_of = {future: index for index, future in enumerate(futures)}
            pending = set(futures)
            next_index = 0
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                # Report completions immediately (completion order) so the
                # caller can persist them; an interrupt between completions
                # then loses nothing that already ran.
                for future in sorted(done, key=index_of.__getitem__):
                    on_complete(index_of[future], future.result())
                while next_index < len(futures) and futures[next_index].done():
                    yield futures[next_index].result()
                    next_index += 1
            while next_index < len(futures):
                yield futures[next_index].result()
                next_index += 1


@dataclass(frozen=True)
class DistributedBackend:
    """Work-queue executor: a coordinator plus N worker *processes*.

    The coordinator serialises every item into a work queue, spawns
    ``workers`` local worker processes (``python -m repro.campaign.worker``),
    and polls for results (:func:`drain_in_order`).  Two transports
    implement the queue:

    * ``transport="file"`` — a shared
      :class:`~repro.campaign.workqueue.FileWorkQueue` directory; additional
      workers may attach from anywhere that shares it (other shells,
      containers, machines on a network filesystem) — pass ``queue_dir`` and
      ``workers=0`` to bring your own fleet.
    * ``transport="http"`` — a coordinator-hosted
      :class:`~repro.campaign.transport.HttpWorkQueue` HTTP/JSON server
      (one POST per queue operation, see :mod:`repro.campaign.transport`);
      workers attach with ``--connect-http URL`` from any host that can
      reach it, directly or through any reverse proxy or load balancer
      that can forward a POST — no shared filesystem required.

    Authentication: the HTTP transport accepts a shared-secret
    ``auth_token`` (explicit, or from ``$REPRO_CAMPAIGN_AUTH_TOKEN``);
    workers must present it on every request or are rejected with a
    distinct error.  The coordinator hands the token to spawned workers
    through the environment — never the command line — and the token is
    excluded from the backend's ``repr``, logs and results.  The file
    transport has no authentication layer; configuring a token there is
    rejected loudly rather than silently ignored.

    Fault tolerance: workers heartbeat their lease every quarter of
    ``lease_timeout``; a worker that dies mid-task stops heartbeating, the
    coordinator re-queues the task, and another worker picks it up.  Results
    arrive out of order and are yielded in input order; ``on_complete`` fires
    the moment each item finishes so the runner can persist it immediately.

    Autoscaling: with ``max_workers`` set, the coordinator watches the queue
    backlog and grows the local fleet from ``workers`` up to ``max_workers``
    processes while tasks are pending, then issues *retire credits* so idle
    workers exit once the backlog drains.  Scale decisions are appended to
    :attr:`scale_events` (surfaced on
    :attr:`~repro.campaign.results.CampaignResult.scale_events`) and logged
    on the ``repro.campaign`` logger.

    Attributes
    ----------
    workers:
        Local worker processes to spawn up front (``0`` = start none; then
        either autoscaling spawns them on backlog, or an external fleet
        attaches via ``queue_dir``/``port``).
    queue_dir:
        File transport only: shared queue directory; ``None`` creates (and
        removes) a temporary one, which confines the campaign to local
        spawned workers.
    lease_timeout:
        Seconds without a heartbeat before a claimed task is re-issued.
        Must exceed the slowest single flight's heartbeat gap (the heartbeat
        runs on a thread, so only a hard worker death stops it).
    poll_interval:
        Coordinator/worker polling period [s].
    transport:
        ``"file"`` or ``"http"``.
    host / port:
        HTTP transport only: server bind address.  ``port=0`` picks an
        ephemeral port (fine for spawned workers, who are told the real
        port; an external fleet needs a fixed one).
    auth_token:
        HTTP transport only: shared secret workers must present on
        every request; ``None`` falls back to ``$REPRO_CAMPAIGN_AUTH_TOKEN``
        (unset = authentication disabled).  Rejected with the file
        transport, which has no authentication layer.
    max_workers:
        Autoscale ceiling for locally spawned workers; ``None`` disables
        autoscaling (the fleet stays at ``workers``).
    """

    workers: int = 2
    queue_dir: str | None = None
    lease_timeout: float = 30.0
    poll_interval: float = 0.05
    transport: str = "file"
    host: str = "127.0.0.1"
    port: int = 0
    #: Shared secret for the HTTP transport; repr=False keeps it out of
    #: dataclass reprs (and thereby logs, warnings and failure reports).
    auth_token: str | None = field(default=None, repr=False)
    max_workers: int | None = None
    #: Scale decisions of the most recent ``map`` call, in order: dicts with
    #: ``event`` ("scale-up" / "scale-down"), ``workers`` (alive after),
    #: ``backlog`` and ``elapsed`` [s] since the campaign started.
    scale_events: list = field(default_factory=list, compare=False, repr=False)
    #: Queue telemetry of the most recent ``map`` call: the transport's
    #: counter snapshot (claims, completions, lease re-issues, ...) plus
    #: ``pending_peak``.  Surfaced as ``CampaignResult.telemetry["queue"]``.
    queue_stats: dict = field(default_factory=dict, compare=False, repr=False)

    name = "distributed"

    _TRANSPORTS = ("file", "http")

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.transport not in self._TRANSPORTS:
            raise ValueError(
                f"transport must be one of {self._TRANSPORTS}, "
                f"got {self.transport!r}"
            )
        if self.transport == "http" and self.queue_dir is not None:
            raise ValueError(
                "queue_dir applies to the file transport only; the http "
                "transport shares nothing but the coordinator's address"
            )
        if self.transport == "file":
            if self.port != 0:
                raise ValueError("port applies to the http transport only")
            if self.auth_token is not None:
                # Matches the orphan-backend_options policy: an option that
                # cannot take effect is a loud error, never silently
                # dropped — a token the operator believes protects the
                # campaign must not be discarded by a transport that has
                # no authentication layer.
                raise ValueError(
                    "auth_token applies to the http transport only; the "
                    "file transport has no authentication — remove the "
                    "token or switch transport"
                )
        if self.auth_token is not None and not self.auth_token:
            raise ValueError("auth_token must be a non-empty string")
        if self.max_workers is not None:
            if self.max_workers < 1:
                raise ValueError("max_workers must be at least 1")
            if self.max_workers < self.workers:
                raise ValueError("max_workers must be >= workers")
            # Autoscaling sizes a fleet the coordinator can *count* — its
            # own spawns.  With an attachment point for external workers
            # the arithmetic breaks: retire credits derived from the local
            # surplus would be consumed by (and permanently dismiss)
            # external workers the coordinator cannot respawn.
            if self.queue_dir is not None:
                raise ValueError(
                    "autoscaling (max_workers) manages coordinator-spawned "
                    "workers and cannot be combined with an external-fleet "
                    "queue_dir (retire credits would dismiss external "
                    "workers)"
                )
            if self.port != 0:
                raise ValueError(
                    "autoscaling (max_workers) manages coordinator-spawned "
                    "workers and cannot be combined with a fixed port "
                    "(externally attached workers would consume its retire "
                    "credits)"
                )
        elif self.workers == 0:
            # Nothing would ever execute: no initial fleet, no autoscaler.
            if self.transport == "file" and self.queue_dir is None:
                raise ValueError(
                    "workers=0 requires an explicit queue_dir for external "
                    "workers to attach to (or max_workers for autoscaling)"
                )
            if self.transport == "http" and self.port == 0:
                raise ValueError(
                    "workers=0 on the http transport requires a fixed port "
                    "for external workers to connect to (or max_workers "
                    "for autoscaling)"
                )
        if self.lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        on_complete: CompletionCallback | None = None,
    ) -> Iterator[Any]:
        items = list(items)
        if not items:
            return
        del self.scale_events[:]  # events describe the current map call only
        self.queue_stats.clear()
        # A per-run id namespaces this campaign's tasks and results: a
        # worker of a previous killed run finishing late (on a reused
        # directory or port) answers under the old id and is ignored by
        # collect().
        run_id = f"r{uuid.uuid4().hex[:12]}"
        queue, worker_args, teardown = self._open_queue(run_id)
        processes: list[subprocess.Popen] = []
        try:
            for index, item in enumerate(items):
                queue.enqueue(index, (fn, item))
            processes = [
                self._spawn_worker(worker_args) for _ in range(self.workers)
            ]
            yield from self._drain(
                queue, len(items), processes, on_complete, worker_args
            )
        finally:
            queue.request_stop()
            # Reap *before* the teardown closes an HTTP server: spawned
            # workers poll the stop sentinel over the wire and exit cleanly
            # while it still answers.
            reap_workers(processes, max(1.0, 4 * self.poll_interval))
            self.queue_stats.update(queue.stats_snapshot())
            teardown()

    def _open_queue(
        self, run_id: str
    ) -> tuple[FileWorkQueue | HttpWorkQueue, list[str], Callable[[], None]]:
        """This campaign's queue, the worker CLI arguments that attach to
        it, and the teardown that releases it after the workers are reaped."""
        if self.transport == "http":
            from .transport import HttpWorkQueue

            server = HttpWorkQueue(
                self.host,
                self.port,
                run_id=run_id,
                auth_token=resolve_auth_token(self.auth_token),
            )

            def close_server() -> None:
                if self.port != 0:
                    # A fixed port means an external fleet may be attached,
                    # and the server is the only place it can observe the
                    # stop sentinel (unlike a stop *file*, which persists).
                    # Linger so idle workers poll it and exit now, not via
                    # the much longer orphan timeout.  External workers
                    # choose their own --poll, so the window is generous;
                    # one polling slower than ~2 s still has the orphan
                    # timeout as backstop.
                    time.sleep(max(2.0, 4 * self.poll_interval))
                server.close()

            # Workers must *connect* to the address the server *bound*; a
            # wildcard bind is reachable locally via loopback (server.url).
            return server, ["--connect-http", server.url], close_server
        if resolve_auth_token(self.auth_token) is not None:
            # An explicit token was already rejected in __post_init__, so
            # this is the environment variable.  A globally exported secret
            # must not hard-fail unrelated file campaigns, but the operator
            # still deserves to know it protects nothing here.
            warnings.warn(
                "REPRO_CAMPAIGN_AUTH_TOKEN is set, but the file transport "
                "has no authentication — the campaign runs unauthenticated "
                "(use transport=\"http\" for auth)",
                RuntimeWarning,
                stacklevel=3,
            )
        owns_dir = self.queue_dir is None
        root = (
            Path(tempfile.mkdtemp(prefix="repro-campaign-queue-"))
            if owns_dir
            else Path(self.queue_dir)
        )
        queue = FileWorkQueue(root, run_id=run_id)
        # A queue directory hosts one campaign at a time: purge stale
        # tasks/results/stop from a previous run of an explicit queue_dir
        # before enqueueing, or old result files would be collected as this
        # campaign's outcomes.
        queue.reset()

        def remove_dir() -> None:
            if owns_dir:
                shutil.rmtree(root, ignore_errors=True)

        return queue, [str(root)], remove_dir

    # ------------------------------------------------------------------ internal --

    def _spawn_worker(self, worker_args: list[str]) -> subprocess.Popen:
        token = None
        if self.transport == "http":
            token = resolve_auth_token(self.auth_token)
        return spawn_worker(
            worker_args,
            transport=self.transport,
            auth_token=token,
            lease_timeout=self.lease_timeout,
            poll_interval=self.poll_interval,
        )

    def _record_scale(
        self, event: str, workers: int, backlog: int, elapsed: float
    ) -> None:
        entry = {
            "event": event,
            "workers": workers,
            "backlog": backlog,
            "elapsed": round(elapsed, 3),
        }
        self.scale_events.append(entry)
        default_registry().gauge(
            "repro_workers_alive",
            "Live coordinator-spawned workers after the last scale event.",
        ).set(workers)
        emit(event, "campaign.backends",
             workers=workers, backlog=backlog, elapsed=entry["elapsed"])
        logger.info(
            "distributed autoscaler %s: %d worker(s), backlog %d (t=%.1fs)",
            event, workers, backlog, elapsed,
        )

    def _autoscale(
        self,
        queue: FileWorkQueue | HttpWorkQueue,
        processes: list[subprocess.Popen],
        outstanding: int,
        worker_args: list[str],
        elapsed: float,
        alive_now: int,
        alive_reported: int | None,
    ) -> int:
        """One autoscaler tick; returns the live worker count after it.

        Scale up: while tasks are pending and the fleet is below
        ``max_workers``, spawn one worker per pending task.  Scale down:
        grant exactly as many retire credits as there are workers beyond
        the number of not-yet-finished items — only *idle* workers consume
        a credit, so a worker mid-flight is never dismissed.  A shrink
        (retired *or* crashed workers) is recorded against the count the
        previous tick reported.
        """
        alive = alive_now
        backlog = queue.pending_count()
        ceiling = self.max_workers or 0
        if backlog > 0 and alive < ceiling:
            for _ in range(min(backlog, ceiling - alive)):
                processes.append(self._spawn_worker(worker_args))
                alive += 1
            self._record_scale("scale-up", alive, backlog, elapsed)
        if alive_reported is not None and alive < alive_reported:
            self._record_scale("scale-down", alive, backlog, elapsed)
        queue.set_retire_credits(max(0, alive - outstanding))
        return alive

    def _drain(
        self,
        queue: FileWorkQueue | HttpWorkQueue,
        total: int,
        processes: list[subprocess.Popen],
        on_complete: CompletionCallback | None,
        worker_args: list[str],
    ) -> Iterator[Any]:
        start = time.monotonic()
        # Everything is enqueued before the first drain tick, so the depth
        # here is the true high-water mark; housekeeping re-samples anyway
        # in case an external fleet re-queues work.
        self.queue_stats["pending_peak"] = queue.pending_count()
        # Housekeeping (coordinator heartbeat, lease-expiry scan) has
        # lease-timeout granularity; doing it every poll tick would hammer
        # a network filesystem with metadata traffic for nothing.  Only
        # result collection runs at the fast poll.  The autoscaler runs on
        # its own, faster cadence — it is a handful of cheap probes and
        # scale-up latency is user-visible.
        housekeeping_period = self.lease_timeout / 4.0
        autoscale_period = max(self.poll_interval, min(housekeeping_period, 0.5))
        last_housekeeping = float("-inf")
        last_autoscale = float("-inf")
        alive: int | None = None
        # Crash-loop guard for the autoscaler: respawn waves that start from
        # an all-dead fleet must make progress, or we are re-spawning
        # workers into the same fatal condition forever.
        dead_waves = 0
        done_at_last_wave = -1

        def tick(done: int) -> None:
            nonlocal last_housekeeping, last_autoscale, alive
            nonlocal dead_waves, done_at_last_wave
            now = time.monotonic()
            if now - last_housekeeping >= housekeeping_period:
                last_housekeeping = now
                # Heartbeat for the workers' orphan detection: a coordinator
                # killed without cleanup stops touching this, and idle
                # workers exit on their own instead of polling forever.
                queue.touch_coordinator()
                queue.reclaim_expired(self.lease_timeout)
                self.queue_stats["pending_peak"] = max(
                    self.queue_stats["pending_peak"], queue.pending_count()
                )
            if self.max_workers is not None and now - last_autoscale >= autoscale_period:
                last_autoscale = now
                # Aliveness is sampled *before* the tick: a wave is "the
                # fleet was entirely dead and we spawned into that", which
                # must be visible in the same tick the death is noticed.
                alive_now = sum(
                    1 for proc in processes if proc.poll() is None
                )
                new_alive = self._autoscale(
                    queue, processes, total - done, worker_args,
                    now - start, alive_now, alive,
                )
                was_dead = alive_now == 0
                alive = new_alive
                if was_dead and alive > 0:
                    if done == done_at_last_wave:
                        dead_waves += 1
                    else:
                        dead_waves = 1
                        done_at_last_wave = done
                    if dead_waves > 3:
                        emit(
                            "crash-loop", "campaign.backends",
                            waves=dead_waves,
                            outstanding=total - done,
                            total=total,
                        )
                        raise RuntimeError(
                            "distributed autoscaler respawned an all-dead "
                            f"fleet {dead_waves} times without progress "
                            f"({total - done} of {total} items "
                            "outstanding)"
                        )
            if (
                self.max_workers is None
                and processes
                and all(proc.poll() is not None for proc in processes)
            ):
                # Every worker this coordinator spawned is gone.  External
                # workers could still drain the queue, but with spawned
                # workers dead the far likelier outcome is a hang — fail
                # loudly and let the runner fall back to serial.  (With
                # autoscaling the fleet is respawned instead, guarded by
                # the crash-loop counter above.)
                raise RuntimeError(
                    f"all {len(processes)} distributed workers exited with "
                    f"{total - done} of {total} items outstanding"
                )

        return drain_in_order(
            total, queue.collect, on_complete, self.poll_interval, tick,
            source="distributed worker",
        )


@dataclass(frozen=True)
class ServiceBackend:
    """Client-mode executor: rent a remote campaign service's worker fleet.

    Where :class:`DistributedBackend` *owns* a coordinator (starts a queue
    server, spawns workers, tears both down), this backend owns nothing: it
    submits the campaign's tasks to a persistent
    :class:`~repro.campaign.service.CampaignService` daemon as one hosted
    *run* (``POST /runs`` with pickled task payloads), polls that run's
    results, and deletes the run when done.  The
    :class:`~repro.campaign.runner.CampaignRunner` — and with it store
    caching, ordering and fallback policy — stays entirely client-side;
    only execution is remote.  Select it with
    ``--backend service --connect-http URL``.

    The task function must be importable on the daemon's workers (the usual
    work-queue constraint), and the daemon must speak the same protocol
    version — a mismatch fails fast at submit time with a clear message,
    as does a daemon that is actually a plain single-campaign coordinator.

    Attributes
    ----------
    url:
        Service base URL (``http[s]://host:port[/prefix]``).
    auth_token:
        Shared secret (``None`` falls back to
        ``$REPRO_CAMPAIGN_AUTH_TOKEN``); excluded from ``repr`` and logs.
    poll_interval:
        Result polling period [s].
    timeout:
        Per-request HTTP timeout [s].
    label:
        Optional run label shown in the daemon's ``GET /runs`` registry.
    """

    url: str = ""
    auth_token: str | None = field(default=None, repr=False)
    poll_interval: float = 0.2
    timeout: float = 10.0
    label: str | None = None

    name = "service"

    def __post_init__(self) -> None:
        if not self.url:
            raise ValueError(
                "ServiceBackend needs the service base URL (--connect-http "
                "URL, or backend_options = {url = \"http://...\"})"
            )
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if self.auth_token is not None and not self.auth_token:
            raise ValueError("auth_token must be a non-empty string")

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        on_complete: CompletionCallback | None = None,
    ) -> Iterator[Any]:
        from .client import ServiceClient

        items = list(items)
        if not items:
            return
        client = ServiceClient(
            self.url,
            auth_token=resolve_auth_token(self.auth_token),
            timeout=self.timeout,
        )
        run_id = client.submit_tasks(
            [(fn, item) for item in items],
            label=self.label or "service-backend",
        )
        total = len(items)
        state = "running"

        def collect(seen: set[int]) -> dict[int, Any]:
            nonlocal state
            state, results = client.task_results(run_id)
            return {
                index: result
                for index, result in results.items()
                if index not in seen
            }

        def tick(done: int) -> None:
            if state in ("cancelled", "failed"):
                raise RuntimeError(
                    f"service run {run_id} ended as {state} with "
                    f"{total - done} of {total} items outstanding"
                )

        try:
            yield from drain_in_order(
                total, collect, on_complete, self.poll_interval, tick,
                source="service worker",
            )
        finally:
            # Free the daemon-side queue state whether we finished, failed
            # over to serial, or were interrupted; the registry record
            # survives for post-mortem status queries.
            client.cancel(run_id, missing_ok=True)


#: Registry of backend factories selectable by name (CLI / spec files).
_BACKENDS: dict[str, Callable[..., ExecutorBackend]] = {
    "serial": SerialBackend,
    "batch": BatchBackend,
    "process-pool": ProcessPoolBackend,
    "distributed": DistributedBackend,
    "service": ServiceBackend,
}


def get_backend(name: str, **options: Any) -> ExecutorBackend:
    """Instantiate a backend by registry name.

    ``options`` are passed to the backend constructor (e.g.
    ``get_backend("process-pool", max_workers=4)`` or
    ``get_backend("distributed", workers=2)``).
    """
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown executor backend {name!r} (available: {sorted(_BACKENDS)})"
        ) from None
    return factory(**options)
