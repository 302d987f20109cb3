"""Persistent multi-tenant campaign service: ``python -m repro.campaign.service``.

Every earlier execution substrate dies with its campaign: the distributed
coordinator (:class:`~repro.campaign.backends.DistributedBackend`) starts a
queue server, runs one campaign, and tears everything down.  This module
promotes that coordinator to a **long-lived daemon**: one
:class:`~repro.campaign.transport.HttpWorkQueue` (which reports ``service``
mode once the daemon is attached to it) hosts a registry of concurrent
*runs* over the run-id-namespaced queue state, one attached worker fleet
serves whichever runs have pending tasks, and "users" are HTTP clients that
*submit* work instead of owning coordinator processes::

    POST   <base>/runs              submit a run -> {"ok": true, "run": id}
    GET    <base>/runs              registry listing
    GET    <base>/runs/<id>/status  one run's lifecycle + queue state
    GET    <base>/runs/<id>/results one run's results
    DELETE <base>/runs/<id>         cancel the run, drop its queue state
    POST   <base>/rotate-token      install a new auth secret (old one kept)

Two kinds of run share the registry:

* **Spec runs** — ``POST /runs`` with ``{"spec": {...}}``, a JSON campaign
  spec in the exact dialect of the spec *files* (:mod:`repro.campaign.spec`).
  The daemon builds the grid/search and a
  :class:`~repro.campaign.runner.CampaignRunner` whose backend enqueues
  every variant into the shared queue under the run's id; results are the
  campaign's JSON report.  The daemon's own store (``--store``) caches
  cells across tenants — two users submitting the same grid share flights.
* **Task runs** — ``POST /runs`` with ``{"tasks": [<b64 pickle>, ...]}``,
  raw ``(fn, item)`` task payloads.  This is the wire form of
  :class:`~repro.campaign.backends.ServiceBackend` (``--backend service
  --connect-http URL``): a *client-side* :class:`CampaignRunner` keeps its
  own store/policy and only rents the daemon's fleet for execution.

Lifecycle separation is the point of the queue underneath
(:class:`~repro.campaign.transport.HttpWorkQueue`): cancelling or
draining one run never raises the transport stop sentinel, so the fleet
keeps serving sibling runs; only daemon shutdown stops workers.

The trust model is the work queue's: task payloads and results are pickled,
so expose the port only to clients you would also hand a pickle file to,
and prefer ``$REPRO_CAMPAIGN_AUTH_TOKEN`` (plus
``$REPRO_CAMPAIGN_AUTH_TOKEN_PREVIOUS`` during rotation) over ``--auth-token``.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import signal
import sys
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..obs import EventLog, configure_json_logging, emit, set_event_log
from .backends import drain_in_order, reap_workers, spawn_worker
from .transport import HttpWorkQueue
from .workqueue import resolve_auth_tokens, validate_run_id

logger = logging.getLogger(__name__)

__all__ = ["CampaignService", "RunCancelled", "main"]


class RunCancelled(BaseException):
    """A hosted run was cancelled while executing.

    Deliberately **not** an :class:`Exception`: the campaign runner treats
    any ``Exception`` out of a backend as a backend failure and finishes
    the campaign *serially in-process* — which, inside the daemon, would
    fly a cancelled tenant's whole grid on the daemon thread.  Cancellation
    must unwind, not fall back.
    """


class _HostedRun:
    """Registry record of one submitted run (spec- or task-kind)."""

    __slots__ = (
        "run_id", "kind", "label", "state", "submitted", "finished",
        "total", "error", "result_json", "thread",
    )

    def __init__(self, run_id: str, kind: str, label: str, total: int) -> None:
        self.run_id = run_id
        self.kind = kind
        self.label = label
        self.state = "running"
        self.submitted = time.time()
        self.finished: float | None = None
        self.total = total
        self.error: str | None = None
        self.result_json: dict[str, Any] | None = None
        self.thread: threading.Thread | None = None

    def describe(self) -> dict[str, Any]:
        entry = {
            "run": self.run_id,
            "kind": self.kind,
            "label": self.label,
            "state": self.state,
            "total": self.total,
            "submitted_s_ago": round(max(0.0, time.time() - self.submitted), 3),
        }
        if self.error is not None:
            entry["error"] = self.error
        return entry


class _HostedQueueBackend:
    """Executor backend of a daemon-hosted spec run.

    Looks like :class:`~repro.campaign.backends.DistributedBackend` to the
    runner, but owns nothing: tasks go into the *shared* service queue under
    this run's id, the attached fleet (shared with every other run) executes
    them, and the drain loop only watches this run's results.  Cancellation
    (``DELETE /runs/<id>``) raises :class:`RunCancelled` out of ``map`` so
    the runner unwinds instead of falling back to serial.
    """

    name = "service-hosted"

    def __init__(
        self, queue: HttpWorkQueue, run_id: str, poll_interval: float
    ) -> None:
        self._queue = queue
        self._run_id = run_id
        self._poll_interval = poll_interval

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        on_complete: Callable[[int, Any], None] | None = None,
    ) -> Iterator[Any]:
        items = list(items)
        if not items:
            return
        for index, item in enumerate(items):
            try:
                self._queue.enqueue_in(self._run_id, index, (fn, item))
            except ValueError:
                # Cancelled before its tasks were all enqueued: unwind like
                # a cancel mid-drain, never as a backend failure.
                if self._queue.run_cancelled(self._run_id):
                    raise RunCancelled(self._run_id) from None
                raise

        def tick(done: int) -> None:
            if self._queue.run_cancelled(self._run_id):
                raise RunCancelled(self._run_id)

        yield from drain_in_order(
            len(items),
            functools.partial(self._queue.collect_run, self._run_id),
            on_complete,
            self._poll_interval,
            tick,
        )


class CampaignService:
    """The daemon: one shared queue server, a run registry, a worker fleet.

    Constructing the service binds and starts the HTTP server (``port=0``
    picks an ephemeral port, published via :attr:`url`), spawns ``workers``
    local worker processes attached over HTTP, and starts the housekeeping
    thread (lease reclaim + task-run completion).  Use as a context manager
    or call :meth:`close`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        store_dir: str | Path | None = None,
        auth_tokens: Sequence[str] | None = None,
        lease_timeout: float = 30.0,
        poll_interval: float = 0.05,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if lease_timeout <= 0 or poll_interval <= 0:
            raise ValueError("lease_timeout and poll_interval must be positive")
        self.lease_timeout = lease_timeout
        self.poll_interval = poll_interval
        self.queue = HttpWorkQueue(host, port, auth_token=auth_tokens)
        self._store = None
        if store_dir is not None:
            from ..store import CampaignStore

            self._store = CampaignStore(Path(store_dir))
        self._lock = threading.Lock()
        self._runs: dict[str, _HostedRun] = {}
        self._closing = threading.Event()
        # Route /runs requests on the queue's HTTP server to this service.
        self.queue._server.service = self
        self._processes = [self._spawn_worker() for _ in range(workers)]
        self._housekeeper = threading.Thread(
            target=self._housekeeping, name="service-housekeeping", daemon=True
        )
        self._housekeeper.start()

    # -- lifecycle ---------------------------------------------------------------

    @property
    def url(self) -> str:
        return self.queue.url

    @property
    def address(self) -> tuple[str, int]:
        return self.queue.address

    def close(self) -> None:
        """Shut the daemon down: raise the transport stop sentinel (the one
        event that sends the fleet home), reap workers, stop serving."""
        self._closing.set()
        self.queue.request_stop()
        reap_workers(self._processes, max(2.0, 8 * self.poll_interval))
        self._housekeeper.join(timeout=5.0)
        self.queue.close()

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def serve_forever(self) -> None:
        """Block until :meth:`close` is called (signal handlers call it)."""
        while not self._closing.wait(0.5):
            pass

    # -- service API (called from HTTP handler threads) --------------------------

    def submit(self, request: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        """``POST /runs``: start a spec run or a task run."""
        spec = request.get("spec")
        tasks = request.get("tasks")
        if (spec is None) == (tasks is None):
            return 400, {
                "ok": False,
                "error": "submit exactly one of 'spec' (JSON campaign spec) "
                         "or 'tasks' (base64-pickled task payloads)",
            }
        run_id = request.get("run")
        if run_id is None:
            run_id = f"svc{uuid.uuid4().hex[:12]}"
        try:
            validate_run_id(str(run_id))
        except ValueError as exc:
            return 400, {"ok": False, "error": str(exc)}
        label = str(request.get("label") or "")
        if spec is not None:
            return self._submit_spec(str(run_id), spec, label)
        return self._submit_tasks(str(run_id), tasks, label)

    def list_runs(self) -> tuple[int, dict[str, Any]]:
        """``GET /runs``: the registry, newest submission last."""
        with self._lock:
            records = sorted(
                self._runs.values(), key=lambda record: record.submitted
            )
            entries = [record.describe() for record in records]
        return 200, {"ok": True, "mode": "service", "runs": entries}

    def run_status(self, run_id: str) -> tuple[int, dict[str, Any]]:
        """``GET /runs/<id>/status``: lifecycle plus live queue state."""
        with self._lock:
            record = self._runs.get(run_id)
            if record is None:
                return 404, {"ok": False, "error": f"unknown run {run_id!r}"}
            entry = record.describe()
        queue_state = self.queue.status()["runs"].get(run_id)
        if queue_state is not None:
            entry["queue"] = queue_state
        return 200, {"ok": True, **entry}

    def run_results(self, run_id: str) -> tuple[int, dict[str, Any]]:
        """``GET /runs/<id>/results``.

        Task runs answer with the raw base64-pickled result blobs keyed by
        task index (the submitting client decodes them — same trust model
        as the queue itself).  Spec runs answer with the campaign's JSON
        report once the run is done.
        """
        with self._lock:
            record = self._runs.get(run_id)
            if record is None:
                return 404, {"ok": False, "error": f"unknown run {run_id!r}"}
            state = record.state
            entry: dict[str, Any] = {
                "ok": True, "run": run_id, "kind": record.kind,
                "state": state, "total": record.total,
            }
            if record.error is not None:
                entry["error"] = record.error
            result_json = record.result_json
        if record.kind == "tasks":
            from .transport import _encode

            results = self.queue.collect_run(run_id)
            entry["done"] = len(results)
            entry["results"] = {
                str(index): _encode(value) for index, value in results.items()
            }
            if state == "running" and len(results) >= record.total:
                # Task runs have no driving thread; finalize on observation
                # (the housekeeper does the same for unwatched runs).
                entry["state"] = self._finish_task_run(record)
        else:
            entry["result"] = result_json
        return 200, entry

    def cancel(self, run_id: str) -> tuple[int, dict[str, Any]]:
        """``DELETE /runs/<id>``: cancel if running, drop queue state.

        The registry record stays (state ``cancelled``/its final state) so
        late status queries explain what happened instead of 404ing.
        """
        with self._lock:
            record = self._runs.get(run_id)
            if record is None:
                return 404, {"ok": False, "error": f"unknown run {run_id!r}"}
            was_running = record.state == "running"
            if was_running:
                record.state = "cancelled"
                record.finished = time.time()
        self.queue.cancel_run(run_id)
        emit("run-cancel", "campaign.service", run=run_id)
        return 200, {"ok": True, "run": run_id, "cancelled": was_running}

    def rotate_token(
        self, request: Mapping[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        """``POST /rotate-token``: install a new primary auth secret.

        Requires auth to be enabled (the request itself must carry a
        currently-valid token; the transport checked that before routing
        here).  The previous primary stays accepted so the attached fleet
        keeps serving while workers re-configure.
        """
        new_token = request.get("new_token")
        if not isinstance(new_token, str) or not new_token:
            return 400, {"ok": False,
                         "error": "rotate-token needs a non-empty 'new_token'"}
        try:
            self.queue.rotate_auth_token(
                new_token, keep_previous=int(request.get("keep_previous", 1))
            )
        except ValueError as exc:
            return 400, {"ok": False, "error": str(exc)}
        emit("token-rotate", "campaign.service")
        return 200, {"ok": True}

    # -- internal ----------------------------------------------------------------

    def _submit_tasks(
        self, run_id: str, tasks: Any, label: str
    ) -> tuple[int, dict[str, Any]]:
        from .transport import _decode

        if not isinstance(tasks, list) or not tasks:
            return 400, {"ok": False,
                         "error": "'tasks' must be a non-empty list"}
        try:
            payloads = [_decode(blob) for blob in tasks]
        except Exception as exc:
            return 400, {"ok": False,
                         "error": f"undecodable task payload: {exc!r}"}
        record = _HostedRun(run_id, "tasks", label, len(payloads))
        try:
            with self._lock:
                if run_id in self._runs:
                    return 409, {"ok": False,
                                 "error": f"run {run_id!r} already exists"}
                self.queue.add_run(run_id)
                self._runs[run_id] = record
        except ValueError as exc:
            return 409, {"ok": False, "error": str(exc)}
        for index, payload in enumerate(payloads):
            self.queue.enqueue_in(run_id, index, payload)
        emit("run-submit", "campaign.service",
             run=run_id, kind="tasks", total=len(payloads))
        logger.info("run %s submitted: %d task(s)", run_id, len(payloads))
        return 200, {"ok": True, "run": run_id, "total": len(payloads)}

    def _submit_spec(
        self, run_id: str, spec: Any, label: str
    ) -> tuple[int, dict[str, Any]]:
        from .runner import CampaignRunner
        from .spec import build_grid, build_search

        if not isinstance(spec, Mapping):
            return 400, {"ok": False, "error": "'spec' must be a JSON object"}
        if ("axes" in spec) == ("adaptive" in spec):
            return 400, {
                "ok": False,
                "error": "spec must contain exactly one of 'axes' (grid "
                         "sweep) or 'adaptive' (boundary search)",
            }
        section = dict(spec.get("runner") or {})
        try:
            work = build_search(spec) if "adaptive" in spec else build_grid(spec)
            total = len(work) if "axes" in spec else 0
        except (ValueError, KeyError, TypeError) as exc:
            return 400, {"ok": False, "error": str(exc)}
        # The daemon's fleet is the execution substrate for hosted runs:
        # the spec's backend/mode/max_workers describe a substrate the
        # submitting client does not own here, so they are ignored.  Store
        # policy is the daemon's too (shared cells across tenants).
        runner = CampaignRunner(
            backend=_HostedQueueBackend(self.queue, run_id, self.poll_interval),
            store=self._store,
            record_arrays=bool(section.get("record_arrays"))
            and self._store is not None,
            telemetry=bool(section.get("telemetry", True)),
        )
        record = _HostedRun(run_id, "spec", label, total)
        try:
            with self._lock:
                if run_id in self._runs:
                    return 409, {"ok": False,
                                 "error": f"run {run_id!r} already exists"}
                self.queue.add_run(run_id)
                self._runs[run_id] = record
        except ValueError as exc:
            return 409, {"ok": False, "error": str(exc)}
        record.thread = threading.Thread(
            target=self._run_spec,
            args=(record, runner, work, "adaptive" in spec),
            name=f"service-run-{run_id}",
            daemon=True,
        )
        record.thread.start()
        emit("run-submit", "campaign.service",
             run=run_id, kind="spec", total=total)
        logger.info("run %s submitted: spec campaign (%d variant(s))",
                    run_id, total)
        return 200, {"ok": True, "run": run_id, "total": total}

    def _run_spec(
        self, record: _HostedRun, runner: Any, work: Any, adaptive: bool
    ) -> None:
        try:
            if adaptive:
                result = work.run(runner)
            else:
                result = runner.run(work)
            payload = json.loads(result.to_json())
        except RunCancelled:
            with self._lock:
                record.state = "cancelled"
                record.finished = time.time()
            return
        except Exception as exc:
            with self._lock:
                record.state = "failed"
                record.error = repr(exc)
                record.finished = time.time()
            logger.warning("run %s failed: %r", record.run_id, exc)
            return
        with self._lock:
            # A cancel that raced the final variants wins: the tenant asked
            # for the run to end, so it ends as cancelled.
            if record.state == "running":
                record.state = "done"
                record.result_json = payload
                record.finished = time.time()
        emit("run-done", "campaign.service", run=record.run_id)
        logger.info("run %s done", record.run_id)

    def _spawn_worker(self) -> Any:
        # The daemon's fleet attaches over its own HTTP endpoint — the same
        # path an external fleet uses, so local and remote workers are
        # indistinguishable to the queue.  spawn_worker handles PYTHONPATH
        # and passes the token via the environment (never argv).
        token = self.queue._auth_tokens[0] if self.queue._auth_tokens else None
        return spawn_worker(
            ["--connect-http", self.queue.url],
            transport="http",
            auth_token=token,
            lease_timeout=self.lease_timeout,
            poll_interval=self.poll_interval,
        )

    def _housekeeping(self) -> None:
        period = self.lease_timeout / 4.0
        while not self._closing.wait(min(period, 1.0)):
            self.queue.reclaim_expired(self.lease_timeout)
            # Task runs have no driving thread; completion is observed here
            # (and on demand in run_results — this just keeps GET /runs
            # honest without a results poll).
            with self._lock:
                records = [
                    record for record in self._runs.values()
                    if record.kind == "tasks" and record.state == "running"
                ]
            for record in records:
                if len(self.queue.collect_run(record.run_id)) >= record.total:
                    self._finish_task_run(record)

    def _finish_task_run(self, record: _HostedRun) -> str:
        """Mark a fully-collected task run done; returns the final state."""
        with self._lock:
            if record.state == "running":
                record.state = "done"
                record.finished = time.time()
                emit("run-done", "campaign.service", run=record.run_id)
            return record.state


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign.service",
        description="Run the persistent multi-tenant campaign service: an "
        "HTTP coordinator daemon hosting many concurrent runs, served by "
        "one attached worker fleet.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8765,
                        help="bind port (default: 8765; 0 picks one)")
    parser.add_argument("--workers", type=int, default=2,
                        help="local worker processes to spawn (default: 2; "
                        "0 = bring your own fleet via the worker CLI)")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="result-store directory shared by hosted spec "
                        "runs (cells cached across tenants)")
    parser.add_argument("--auth-token", default=None, metavar="TOKEN",
                        help="shared-secret token clients and workers must "
                        "present (default: $REPRO_CAMPAIGN_AUTH_TOKEN; "
                        "prefer the environment — argv is visible in "
                        "process listings)")
    parser.add_argument("--previous-auth-token", default=None, metavar="TOKEN",
                        help="additionally accepted old token(s), comma-"
                        "separated, for rotation without fleet restart "
                        "(default: $REPRO_CAMPAIGN_AUTH_TOKEN_PREVIOUS)")
    parser.add_argument("--lease-timeout", type=float, default=30.0,
                        help="seconds without a heartbeat before a claimed "
                        "task is re-issued (default: 30)")
    parser.add_argument("--poll", type=float, default=0.05,
                        dest="poll_interval",
                        help="hosted-run result polling interval [s] "
                        "(default: 0.05)")
    parser.add_argument("--metrics-jsonl", metavar="PATH", default=None,
                        help="append structured JSONL event records (run "
                        "submissions/completions, worker spawns) to PATH")
    parser.add_argument("--log-json", action="store_true",
                        help="emit log records as JSON lines on stderr")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    if args.log_json:
        configure_json_logging()
    event_log = None
    if args.metrics_jsonl is not None:
        event_log = EventLog(args.metrics_jsonl, run_id="service")
        set_event_log(event_log)
    try:
        tokens = resolve_auth_tokens(args.auth_token, args.previous_auth_token)
    except ValueError as exc:
        print(f"service: {exc}", file=sys.stderr)
        return 2
    try:
        service = CampaignService(
            host=args.host,
            port=args.port,
            workers=args.workers,
            store_dir=args.store,
            auth_tokens=tokens,
            lease_timeout=args.lease_timeout,
            poll_interval=args.poll_interval,
        )
    except (OSError, ValueError) as exc:
        print(f"service: {exc}", file=sys.stderr)
        return 2
    host, port = service.address
    print(f"campaign service listening on http://{host}:{port} "
          f"(auth {'on' if tokens else 'off'}, "
          f"{len(service._processes)} local worker(s))", flush=True)
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: service._closing.set())
    try:
        service.serve_forever()
    finally:
        service.close()
        if event_log is not None:
            set_event_log(None)
            event_log.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
