"""Directory-backed work queue with heartbeat leases.

The substrate under :class:`~repro.campaign.backends.DistributedBackend`: a
coordinator enqueues pickled work items into a shared directory, worker
processes (``python -m repro.campaign.worker``) claim them by atomic rename,
heartbeat while executing, and publish pickled results the same way.  All
coordination happens through the filesystem, so "distributed" means anything
that shares the directory — local subprocesses, containers with a bind
mount, or machines on a network filesystem.

Layout under the queue root (``<run>`` is the campaign's run id — results
from another run, e.g. an in-flight worker of a killed previous campaign
finishing late on a reused directory, are ignored)::

    tasks/<index>.<run>.task              pending work (pickled payload)
    claimed/<index>.<run>.<worker>.task   leased work; mtime is the heartbeat
    results/<index>.<run>.result          completed work (pickled result)
    retire/<token>.retire                 one credit = one idle worker may exit
    stop                                  sentinel: workers exit when idle
    coordinator                           coordinator heartbeat (orphan guard)

Claiming renames the task file into ``claimed/`` — the rename is atomic, so
exactly one claimer wins.  A worker that dies mid-task stops refreshing the
lease's mtime; :meth:`FileWorkQueue.reclaim_expired` renames the stale lease
back into ``tasks/`` and another worker picks it up.  A re-leased task may
end up completed twice (the presumed-dead worker finishes after all); both
results are valid renderings of a pure function, and the atomic result
rename makes the last write win cleanly.

The claim/complete/heartbeat/stop semantics are transport-independent:
:class:`WorkQueue` is the worker half both this directory transport and the
HTTP transport (:mod:`repro.campaign.transport`) implement, and
``python -m repro.campaign.worker`` is written against it.  The coordinator
side has no protocol: :class:`~repro.campaign.backends.DistributedBackend`
drives the two concrete queues, :class:`FileWorkQueue` and
:class:`~repro.campaign.transport.HttpWorkQueue`.  Lease handles are opaque
to the worker: a :class:`~pathlib.Path` here, a token over HTTP.
"""

from __future__ import annotations

import logging
import os
import pickle
import tempfile
import time
import uuid
from pathlib import Path
from typing import Any, Iterable, Protocol, Sequence, runtime_checkable

from ..obs import MetricsRegistry

logger = logging.getLogger(__name__)

__all__ = [
    "AUTH_TOKEN_ENV",
    "AUTH_TOKEN_PREVIOUS_ENV",
    "PROTOCOL_VERSION",
    "FileWorkQueue",
    "WorkItem",
    "WorkQueue",
    "WorkQueueAuthError",
    "WorkQueueProtocolError",
    "resolve_auth_token",
    "resolve_auth_tokens",
]

#: Environment variable the HTTP transport reads the shared-secret
#: auth token from when none is passed explicitly.  The environment is the
#: preferred channel for worker processes: unlike a ``--auth-token``
#: argument, it never shows up in process listings.
AUTH_TOKEN_ENV = "REPRO_CAMPAIGN_AUTH_TOKEN"

#: Environment variable a *coordinator* reads additional still-valid tokens
#: from (comma-separated) — the rotation window: a daemon restarted with the
#: new secret as :data:`AUTH_TOKEN_ENV` and the old one here accepts workers
#: that have not been re-keyed yet.  Workers only ever present one token.
AUTH_TOKEN_PREVIOUS_ENV = "REPRO_CAMPAIGN_AUTH_TOKEN_PREVIOUS"

#: Version of the wire protocol the HTTP transport speaks.  Served in
#: every ``ping`` response so clients and workers can fail fast with a clear
#: message on a daemon/client mismatch instead of hitting decoding errors
#: mid-campaign.  Bump whenever a wire message or response changes shape.
#:
#: * 2 — multi-run claims (``claim`` answers carry the claimed task's run
#:   id, which may differ per claim on a service-mode coordinator) and
#:   structured ``ping`` bodies.  Version 1 servers answered ``ping`` with
#:   a bare ``{"ok": true}``; the *absence* of a version is how they are
#:   detected.
PROTOCOL_VERSION = 2


class WorkQueueAuthError(RuntimeError):
    """An HTTP coordinator rejected this worker's shared-secret token.

    Deliberately *not* an :class:`OSError`: transient unreachability makes
    the transport clients degrade (claim -> ``None``) so workers survive
    coordinator restarts, but an authentication rejection is a
    configuration error that polling will never fix — the worker must
    surface it and exit instead of retry-looping.
    """


class WorkQueueProtocolError(RuntimeError):
    """The coordinator speaks a different wire-protocol version.

    Raised by the HTTP clients' startup check (see
    ``HttpWorkQueueClient.check_protocol``) so a version-skewed worker or
    service client exits with one clear message instead of degrading into
    decoding errors or silent idle polling mid-campaign.  Like
    :class:`WorkQueueAuthError`, retrying can never fix it.
    """


def resolve_auth_token(explicit: str | None = None) -> str | None:
    """Auth token to use: the explicit one, else :data:`AUTH_TOKEN_ENV`.

    Returns ``None`` when neither is set (authentication disabled).  An
    empty environment value counts as unset, so ``REPRO_CAMPAIGN_AUTH_TOKEN=""``
    cannot silently configure an empty shared secret.
    """
    if explicit is not None:
        return explicit
    return os.environ.get(AUTH_TOKEN_ENV) or None


def resolve_auth_tokens(
    explicit: str | Sequence[str] | None = None,
    previous: str | Sequence[str] | None = None,
) -> tuple[str, ...] | None:
    """Coordinator-side accepted-token set: primary first, then previous.

    ``explicit`` falls back to :data:`AUTH_TOKEN_ENV` and ``previous`` to
    the comma-separated :data:`AUTH_TOKEN_PREVIOUS_ENV` — the rotation
    window that lets a daemon accept not-yet-re-keyed workers.  Previous
    tokens without a primary are a configuration error (there would be no
    current secret to rotate *to*); no tokens at all returns ``None``
    (authentication disabled).
    """
    def _listed(
        value: str | Sequence[str] | None, env: str, split: bool
    ) -> list[str]:
        if value is None:
            value = os.environ.get(env) or ""
        if isinstance(value, str):
            if split:
                return [part.strip() for part in value.split(",") if part.strip()]
            return [value] if value else []
        return [token for token in value]

    # Only the *previous* set is documented as comma-separated: it is a
    # list by nature (one entry per not-yet-finished rotation), while the
    # primary is one opaque secret that may legally contain a comma.
    primary = _listed(explicit, AUTH_TOKEN_ENV, split=False)
    older = _listed(previous, AUTH_TOKEN_PREVIOUS_ENV, split=True)
    if not primary:
        if older:
            raise ValueError(
                "previous auth tokens need a primary token (set "
                f"${AUTH_TOKEN_ENV} or pass one explicitly)"
            )
        return None
    tokens: list[str] = []
    for token in (*primary, *older):
        if not token:
            raise ValueError("auth tokens must be non-empty strings")
        if token not in tokens:
            tokens.append(token)
    return tuple(tokens)

#: ``(index, payload, lease)`` of one claimed task.  The lease handle is
#: transport-specific and opaque to the worker loop: it is only ever passed
#: back to :meth:`WorkQueue.heartbeat` / :meth:`WorkQueue.complete`.
WorkItem = tuple[int, Any, Any]


@runtime_checkable
class WorkQueue(Protocol):
    """Worker half of a campaign work queue: what
    :func:`~repro.campaign.worker.run_worker` drives.

    Workers claim tasks, heartbeat their lease while executing, publish
    results, and exit on the stop sentinel, a retire credit or an orphaned
    coordinator.  Implementations: :class:`FileWorkQueue` (shared
    directory) and :class:`~repro.campaign.transport.HttpWorkQueueClient`
    (HTTP/JSON, one POST per operation); the coordinator-side
    :class:`~repro.campaign.transport.HttpWorkQueue` serves the same calls
    in-process.  The coordinator operations (enqueue, lease reclaim,
    collect, stop, retire credits) live on the two concrete queue classes.

    Contract highlights every implementation must preserve:

    * exactly one claimer wins a task; claims hand out the lowest pending
      index first;
    * a lease whose heartbeat is older than ``lease_timeout`` may be
      re-issued; the original claimer completing late publishes a duplicate
      — equally valid — result;
    * results are answered under the claimed task's run id, so a
      coordinator only collects its own run's results;
    * :meth:`try_retire` consumes one of the coordinator's retire credits:
      one credit allows exactly one *idle* worker to exit.
    """

    def claim(self, worker_id: str) -> WorkItem | None: ...

    def heartbeat(self, lease: Any) -> None: ...

    def complete(self, index: int, result: Any, lease: Any | None = None) -> None: ...

    def stop_requested(self) -> bool: ...

    def coordinator_age(self) -> float | None: ...

    def try_retire(self) -> bool: ...

#: Run id used when none is given (manually driven queues).
_DEFAULT_RUN = "run0"


def validate_run_id(run_id: str) -> None:
    """Run ids embed in queue file names ('.'-separated fields) and wire
    messages; both transports enforce the same character rule so a run id
    valid on one cannot corrupt namespacing on the other."""
    if "." in run_id or os.sep in run_id:
        raise ValueError(
            f"run id {run_id!r} must not contain '.' or path separators"
        )


class FileWorkQueue:
    """One work-queue directory, usable from coordinator and workers alike.

    ``run_id`` namespaces task and result files: a coordinator's
    :meth:`collect` only accepts results of its own run, so a worker of a
    previous (killed) campaign finishing late on a reused directory cannot
    smuggle its outcome into the next one.  Workers claim tasks of *any*
    run and answer under the task's run id, so they never need to know it.
    """

    def __init__(self, root: str | Path, run_id: str | None = None) -> None:
        if run_id is not None:
            validate_run_id(run_id)
        self.root = Path(root)
        self.run_id = run_id or _DEFAULT_RUN
        self.tasks_dir = self.root / "tasks"
        self.claimed_dir = self.root / "claimed"
        self.results_dir = self.root / "results"
        self.retire_dir = self.root / "retire"
        self._stop_path = self.root / "stop"
        for directory in (
            self.tasks_dir, self.claimed_dir, self.results_dir, self.retire_dir
        ):
            directory.mkdir(parents=True, exist_ok=True)
        # Per-instance counters of what *this process* did to the queue —
        # unlike the HTTP transport (where every operation flows through
        # the coordinator's server), a directory queue is driven from many
        # processes, so a coordinator's instance counts enqueues/re-issues
        # and a worker's instance counts claims/completions.
        self.metrics = MetricsRegistry()
        self._enqueued = self.metrics.counter(
            "repro_queue_enqueued_total", "Tasks enqueued by this process.")
        self._claims = self.metrics.counter(
            "repro_queue_claims_total", "Tasks claimed by this process.")
        self._completions = self.metrics.counter(
            "repro_queue_completions_total", "Results published by this process.")
        self._heartbeats = self.metrics.counter(
            "repro_queue_heartbeats_total", "Lease heartbeats by this process.")
        self._reissues = self.metrics.counter(
            "repro_queue_lease_reissues_total",
            "Stale leases re-queued by this process.")

    # -- coordinator side --------------------------------------------------------

    def enqueue(self, index: int, payload: Any) -> Path:
        """Publish one pickled work item as ``tasks/<index>.<run>.task``."""
        path = self.tasks_dir / f"{index:08d}.{self.run_id}.task"
        self._write_atomic(path, pickle.dumps(payload))
        self._enqueued.inc()
        return path

    def reset(self) -> None:
        """Purge tasks, leases, results and the stop sentinel.

        A queue directory hosts **one campaign at a time**: a coordinator
        reusing an explicit directory must reset it first, or stale result
        files from the previous campaign would be collected as this run's
        outcomes and the leftover stop sentinel would send fresh workers
        straight home.
        """
        for directory in (
            self.tasks_dir, self.claimed_dir, self.results_dir, self.retire_dir
        ):
            for path in self._entries(directory):
                try:
                    path.unlink()
                except OSError:
                    pass
        try:
            self._stop_path.unlink()
        except OSError:
            pass

    def set_retire_credits(self, count: int) -> None:
        """Make exactly ``count`` retire credits available to idle workers.

        Setting (rather than adding) is idempotent: the autoscaler re-derives
        the surplus every tick, so credits left over from workers that died
        instead of retiring are withdrawn rather than stockpiled — a later
        scale-up cannot be instantly killed off by stale credits.
        """
        tokens = self._entries(self.retire_dir)
        for token in tokens[max(0, count):]:
            try:
                token.unlink()
            except OSError:
                pass  # consumed by a retiring worker; that's one fewer needed
        for _ in range(count - len(tokens)):
            (self.retire_dir / f"{uuid.uuid4().hex}.retire").touch()

    def reclaim_expired(self, lease_timeout: float) -> list[int]:
        """Re-queue claimed tasks whose heartbeat is older than the lease.

        Returns the re-queued indices.  The rename back into ``tasks/`` is
        atomic, so a worker that is merely slow (not dead) keeps running and
        simply publishes a duplicate — equally valid — result.
        """
        reclaimed: list[int] = []
        now = time.time()
        for lease in self._entries(self.claimed_dir):
            try:
                age = now - lease.stat().st_mtime
            except OSError:
                continue  # completed (or reclaimed) under our feet
            if age <= lease_timeout:
                continue
            index, run = self._index_and_run_of(lease)
            try:
                os.rename(lease, self.tasks_dir / f"{index:08d}.{run}.task")
            except OSError:
                continue
            reclaimed.append(index)
            self._reissues.inc()
            logger.warning(
                "lease on task %d expired after %.1fs; re-queued", index, age
            )
        return reclaimed

    def collect(self, seen: Iterable[int] = ()) -> dict[int, Any]:
        """Unpickle this run's result files not in ``seen``; corrupt files
        are skipped (a torn read of a result being renamed is transient,
        not fatal), other runs' results are ignored."""
        known = set(seen)
        collected: dict[int, Any] = {}
        for path in self._entries(self.results_dir):
            index, run = self._index_and_run_of(path)
            if run != self.run_id or index in known:
                continue
            try:
                collected[index] = pickle.loads(path.read_bytes())
            except (OSError, pickle.UnpicklingError, EOFError):
                continue
        return collected

    def pending_count(self) -> int:
        """Tasks not yet claimed (cheap health probe for coordinators)."""
        return sum(1 for _ in self._entries(self.tasks_dir))

    def request_stop(self) -> None:
        """Raise the stop sentinel: workers finish their current task and exit."""
        self._stop_path.touch()

    def touch_coordinator(self) -> None:
        """Coordinator heartbeat: proof to workers that someone still reads
        results.  A coordinator killed without cleanup stops touching this,
        and idle workers eventually exit instead of polling forever."""
        (self.root / "coordinator").touch()

    def coordinator_age(self) -> float | None:
        """Seconds since the coordinator heartbeat; ``None`` when a
        coordinator never announced itself (manually driven queues)."""
        try:
            return time.time() - (self.root / "coordinator").stat().st_mtime
        except OSError:
            return None

    # -- worker side -------------------------------------------------------------

    def claim(self, worker_id: str) -> WorkItem | None:
        """Lease the lowest-index pending task, or ``None`` when none pend.

        The claim is an atomic rename into ``claimed/``; losing a race for
        one task simply moves on to the next.
        """
        if os.sep in worker_id or "." in worker_id:
            raise ValueError(f"worker id {worker_id!r} must not contain '.' or path separators")
        for task in sorted(self._entries(self.tasks_dir)):
            index, run = self._index_and_run_of(task)
            lease = self.claimed_dir / f"{index:08d}.{run}.{worker_id}.task"
            try:
                os.rename(task, lease)
            except OSError:
                continue  # another claimer won this task
            try:
                payload = pickle.loads(lease.read_bytes())
            except Exception as exc:
                # Enqueue writes are atomic, so an unreadable payload is a
                # poison pill, not a race — including unpickling errors that
                # surface as ImportError/AttributeError when the payload's
                # function is not importable here.  Ship it back as a failed
                # result rather than crash-looping every worker over it.
                self.complete(index, ("error", f"unreadable task payload: {exc!r}"), lease)
                continue
            self._claims.inc()
            logger.debug("claimed task %d for worker %s", index, worker_id)
            return index, payload, lease

    def heartbeat(self, lease_path: Path) -> None:
        """Refresh the lease so the coordinator knows the worker is alive."""
        try:
            os.utime(lease_path)
        except OSError:
            pass  # lease was reclaimed; the result will still be accepted
        self._heartbeats.inc()

    def complete(self, index: int, result: Any, lease_path: Path | None = None) -> None:
        """Publish the pickled result and release the lease.

        The result answers under the *task's* run id (from the lease name)
        so workers serve any coordinator; without a lease (coordinator-side
        injection) this queue's own run id is used.
        """
        run = self._index_and_run_of(lease_path)[1] if lease_path else self.run_id
        self._write_atomic(
            self.results_dir / f"{index:08d}.{run}.result", pickle.dumps(result)
        )
        if lease_path is not None:
            try:
                lease_path.unlink()
            except OSError:
                pass  # reclaimed while we ran; nothing left to release
        self._completions.inc()

    def stop_requested(self) -> bool:
        return self._stop_path.exists()

    def stats_snapshot(self) -> dict[str, Any]:
        """Flat counter snapshot plus current queue depth (JSON-ready).

        Counts reflect this *instance's* operations (see ``__init__``); the
        depth fields are live directory observations and therefore global.
        """
        return {
            "enqueued": int(self._enqueued.value()),
            "claims": int(self._claims.value()),
            "completions": int(self._completions.value()),
            "heartbeats": int(self._heartbeats.value()),
            "lease_reissues": int(self._reissues.value()),
            "pending": self.pending_count(),
            "claimed": sum(1 for _ in self._entries(self.claimed_dir)),
        }

    def try_retire(self) -> bool:
        """Consume one retire credit, if any: unlink is atomic, so each
        credit dismisses exactly one idle worker even when several race."""
        for token in self._entries(self.retire_dir):
            try:
                token.unlink()
            except OSError:
                continue  # another worker took this credit
            return True
        return False

    # -- internal ----------------------------------------------------------------

    @staticmethod
    def _entries(directory: Path) -> list[Path]:
        try:
            return [path for path in directory.iterdir() if not path.name.endswith(".tmp")]
        except FileNotFoundError:
            return []

    @staticmethod
    def _index_and_run_of(path: Path) -> tuple[int, str]:
        tokens = path.name.split(".")
        return int(tokens[0]), tokens[1]

    @staticmethod
    def _write_atomic(path: Path, blob: bytes) -> None:
        with tempfile.NamedTemporaryFile(
            dir=path.parent, suffix=".tmp", delete=False
        ) as handle:
            handle.write(blob)
            temp_name = handle.name
        os.replace(temp_name, path)
