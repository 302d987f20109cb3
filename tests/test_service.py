"""Tests for the persistent multi-tenant campaign service.

Four layers, bottom up:

* the multi-run queue state (run-id-namespaced pending/results, round-robin
  claims, cancellation and lease reclaim scoped to the owning run),
* token rotation and the structured ping / protocol fail-fast handshake,
* the worker's reconnect backoff,
* the daemon end-to-end: two concurrent campaigns on ONE daemon served by
  one shared fleet, results never crossing runs, cancellation leaving the
  sibling untouched, and the daemon accepting new submissions afterwards.

End-to-end tests run the worker loop in threads against the daemon's HTTP
endpoint (``CampaignService(workers=0)``) so no subprocess spawn/interpreter
start is paid per test; the subprocess fleet path is covered once.
"""

from __future__ import annotations

import json
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.campaign import (
    PROTOCOL_VERSION,
    CampaignRunner,
    HttpWorkQueue,
    HttpWorkQueueClient,
    ScenarioGrid,
    ServiceBackend,
    WorkQueueAuthError,
    WorkQueueProtocolError,
)
from repro.campaign.client import (
    ServiceClient,
    ServiceError,
    ServiceUnreachableError,
)
from repro.campaign.service import (
    CampaignService,
    RunCancelled,
    _HostedQueueBackend,
)
from repro.campaign.worker import _idle_delay, run_worker
from repro.campaign.workqueue import (
    AUTH_TOKEN_ENV,
    AUTH_TOKEN_PREVIOUS_ENV,
    resolve_auth_tokens,
)
from repro.sim import FlightScenario
from repro.store import CampaignStore


def _double(value):
    return 2 * value


def _nap(seconds):
    time.sleep(seconds)
    return seconds


def _tiny_spec(name: str, seeds: int = 2) -> dict:
    """A JSON campaign spec small enough to fly in well under a second."""
    return {
        "scenario": {"name": name, "duration": 0.4, "record_hz": 20.0},
        "axes": {"seed": list(range(seeds))},
    }


def _tiny_grid(name: str, seeds: int = 2) -> ScenarioGrid:
    return ScenarioGrid(
        FlightScenario(name=name, duration=0.4, record_hz=20.0),
        axes={"seed": list(range(seeds))},
    )


@pytest.fixture
def queue():
    # A single-campaign coordinator's own run; the run-less queue of the
    # daemon is covered by TestServiceEndToEnd.
    server = HttpWorkQueue(run_id="rown")
    yield server
    server.close()


def _worker_thread(url: str, max_tasks: int, done: list, token=None):
    thread = threading.Thread(
        target=lambda: done.append(run_worker(
            connect_http=url, poll_interval=0.01, max_tasks=max_tasks,
            lease_timeout=5.0, auth_token=token,
        )),
        daemon=True,
    )
    thread.start()
    return thread


# ---------------------------------------------------------------------------
# Multi-run queue state
# ---------------------------------------------------------------------------


class TestMultiRunQueueState:
    def test_runs_are_namespaced(self, queue):
        queue.add_run("a")
        queue.add_run("b")
        queue.enqueue_in("a", 0, "task-a")
        queue.enqueue_in("b", 0, "task-b")
        queue.enqueue(0, "task-default")
        assert queue.pending_count_in("a") == 1
        assert queue.pending_count_in("b") == 1
        # The classic single-run surface only sees the coordinator's own run.
        assert queue.pending_count() == 1
        assert sorted(queue.status()["runs"]) == ["a", "b", "rown"]

    def test_duplicate_run_id_is_rejected(self, queue):
        queue.add_run("a")
        with pytest.raises(ValueError, match="already"):
            queue.add_run("a")

    def test_claims_round_robin_across_runs(self, queue):
        # Two runs with two tasks each: a fleet draining the queue must
        # alternate between tenants, not finish one before starting the
        # other (lowest index first within each run).
        queue.add_run("a")
        queue.add_run("b")
        for index in range(2):
            queue.enqueue_in("a", index, f"a{index}")
            queue.enqueue_in("b", index, f"b{index}")
        order = [queue._claim_blob("w")[0] for _ in range(4)]
        assert order == ["a", "b", "a", "b"]

    def test_results_land_in_the_owning_run(self, queue):
        queue.add_run("a")
        queue.add_run("b")
        queue.enqueue_in("a", 0, (_double, 1))
        queue.enqueue_in("b", 0, (_double, 100))
        client = HttpWorkQueueClient(queue.url, timeout=5.0)
        for _ in range(2):
            index, payload, lease = client.claim("w")
            fn, item = payload
            client.complete(index, ("ok", fn(item)), lease)
        assert queue.collect_run("a") == {0: ("ok", 2)}
        assert queue.collect_run("b") == {0: ("ok", 200)}

    def test_cancel_clears_pending_and_keeps_results(self, queue):
        queue.add_run("a")
        queue.enqueue_in("a", 0, "t0")
        queue.enqueue_in("a", 1, "t1")
        run = queue._runs["a"]
        run.results[0] = ("ok", "done-before-cancel")
        assert queue.cancel_run("a") is True
        assert queue.run_cancelled("a")
        assert queue.pending_count_in("a") == 0
        assert queue.collect_run("a") == {0: ("ok", "done-before-cancel")}
        # Cancelling again (or an unknown run) is a polite no-op.
        assert queue.cancel_run("a") is True
        assert queue.cancel_run("nope") is False
        assert queue.run_cancelled("nope")  # unknown counts as cancelled

    def test_enqueue_into_cancelled_or_unknown_run_fails(self, queue):
        queue.add_run("a")
        queue.cancel_run("a")
        with pytest.raises(ValueError, match="cancelled"):
            queue.enqueue_in("a", 0, "task")
        with pytest.raises(KeyError):
            queue.enqueue_in("never-added", 0, "task")

    def test_cancelled_runs_leases_are_dropped_not_reissued(self, queue):
        queue.add_run("a")
        queue.add_run("b")
        queue.enqueue_in("a", 0, "task-a")
        queue.enqueue_in("b", 0, "task-b")
        assert queue._claim_blob("w") is not None  # leases a's task
        assert queue._claim_blob("w") is not None  # leases b's task
        queue.cancel_run("a")
        # Both leases are expired; only the surviving run's task returns.
        reissued = queue.reclaim_expired(lease_timeout=0.0)
        assert queue.pending_count_in("b") == 1
        assert queue.pending_count_in("a") == 0
        assert reissued == [0]  # b's task only; a's lease vanished with it

    def test_stop_is_transport_level_not_per_run(self, queue):
        # Cancelling every hosted run must not send the fleet home.
        queue.add_run("a")
        queue.cancel_run("a")
        assert queue.stop_requested() is False

    def test_status_reports_per_run_state(self, queue):
        queue.add_run("a")
        queue.enqueue_in("a", 0, "task")
        status = queue.status()
        assert status["runs"]["a"]["pending"] == 1
        assert status["runs"][queue.run_id]["pending"] == 0
        # Top-level keys stay (CI and dashboards scrape them) as totals.
        assert status["pending"] == 1
        assert status["mode"] == "campaign"
        assert status["protocol"] == PROTOCOL_VERSION

    def test_per_run_metrics_labels(self, queue):
        queue.add_run("a")
        queue.enqueue_in("a", 0, "task")
        queue.enqueue(0, "task")
        text = queue.metrics_text()
        assert 'repro_run_pending{run="a"} 1' in text
        # The unlabeled counter is the cross-run total, same name as ever.
        assert "repro_queue_enqueued_total 2" in text
        assert f'repro_run_enqueued_total{{run="a"}} 1' in text


# ---------------------------------------------------------------------------
# Token rotation + protocol handshake
# ---------------------------------------------------------------------------


class TestTokenRotation:
    def test_old_and_new_tokens_accepted_after_rotation(self):
        server = HttpWorkQueue(auth_token="old-secret")
        try:
            server.rotate_auth_token("new-secret")
            for token in ("old-secret", "new-secret"):
                client = HttpWorkQueueClient(
                    server.url, timeout=5.0, auth_token=token)
                assert client.stop_requested() is False
            # One more rotation retires the original.
            server.rotate_auth_token("newer-secret")
            stale = HttpWorkQueueClient(
                server.url, timeout=5.0, auth_token="old-secret")
            with pytest.raises(WorkQueueAuthError):
                stale.stop_requested()
        finally:
            server.close()

    def test_rotation_requires_auth_enabled(self, queue):
        with pytest.raises(ValueError, match="auth"):
            queue.rotate_auth_token("secret")

    def test_rotation_never_drops_below_one_token(self):
        server = HttpWorkQueue(auth_token="a")
        try:
            server.rotate_auth_token("b", keep_previous=0)
            good = HttpWorkQueueClient(server.url, timeout=5.0, auth_token="b")
            assert good.stop_requested() is False
            old = HttpWorkQueueClient(server.url, timeout=5.0, auth_token="a")
            with pytest.raises(WorkQueueAuthError):
                old.stop_requested()
        finally:
            server.close()

    def test_previous_token_accepted_from_construction(self):
        # The daemon restart path: new primary via AUTH_TOKEN, old fleet
        # still presenting the previous one via AUTH_TOKEN_PREVIOUS.
        server = HttpWorkQueue(auth_token=("new", "old"))
        try:
            for token in ("new", "old"):
                client = HttpWorkQueueClient(
                    server.url, timeout=5.0, auth_token=token)
                assert client.stop_requested() is False
        finally:
            server.close()

    def test_resolve_auth_tokens(self, monkeypatch):
        monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
        monkeypatch.delenv(AUTH_TOKEN_PREVIOUS_ENV, raising=False)
        assert resolve_auth_tokens(None, None) is None
        assert resolve_auth_tokens("a", None) == ("a",)
        assert resolve_auth_tokens("a", "b,c") == ("a", "b", "c")
        monkeypatch.setenv(AUTH_TOKEN_ENV, "envtok")
        monkeypatch.setenv(AUTH_TOKEN_PREVIOUS_ENV, "p1, p2")
        assert resolve_auth_tokens(None, None) == ("envtok", "p1", "p2")
        # Previous tokens without a primary would silently disable auth on
        # the primary path; that has to be a loud configuration error.
        monkeypatch.setenv(AUTH_TOKEN_ENV, "")
        with pytest.raises(ValueError):
            resolve_auth_tokens(None, None)


class TestProtocolHandshake:
    def test_ping_carries_protocol_and_mode(self, queue):
        client = HttpWorkQueueClient(queue.url, timeout=5.0)
        body = client.ping()
        assert body["protocol"] == PROTOCOL_VERSION
        assert body["mode"] == "campaign"
        assert client.check_protocol() == body

    def test_version_skew_fails_fast_with_clear_message(self, queue):
        # A version-1 coordinator is recognised by the *absence* of the
        # protocol field in its bare {"ok": true} ping body.
        queue.ping_info = lambda: {"ok": True}
        client = HttpWorkQueueClient(queue.url, timeout=5.0)
        with pytest.raises(WorkQueueProtocolError, match="no version field"):
            client.check_protocol()
        with pytest.raises(WorkQueueProtocolError):
            run_worker(connect_http=queue.url, poll_interval=0.01)

    def test_unreachable_coordinator_is_not_a_protocol_error(self):
        server = HttpWorkQueue()
        url = server.url
        server.close()
        client = HttpWorkQueueClient(url, timeout=0.5)
        assert client.check_protocol() is None


class TestWorkerBackoff:
    def test_reachable_queue_polls_at_the_configured_interval(self):
        class Healthy:
            consecutive_failures = 0

        assert _idle_delay(Healthy(), 0.05, 10.0) == 0.05

    def test_unreachable_queue_backs_off_exponentially_with_jitter(self):
        class Failing:
            consecutive_failures = 3

        delays = {_idle_delay(Failing(), 0.05, 10.0) for _ in range(64)}
        # 0.05 * 2**3 = 0.4, jittered into [0.2, 0.4].
        assert all(0.2 <= delay <= 0.4 for delay in delays)
        assert len(delays) > 1  # jitter actually varies

    def test_backoff_is_capped_below_the_orphan_timeout(self):
        class Dead:
            consecutive_failures = 1000

        for _ in range(32):
            # Cap is min(5, orphan_timeout/8) so a worker always probes the
            # coordinator several times before declaring it orphaned.
            assert _idle_delay(Dead(), 0.05, 8.0) <= 1.0

    def test_file_queues_never_back_off(self):
        class FileLike:  # no consecutive_failures attribute
            pass

        assert _idle_delay(FileLike(), 0.05, 10.0) == 0.05


# ---------------------------------------------------------------------------
# The daemon end-to-end
# ---------------------------------------------------------------------------


@pytest.fixture
def service():
    daemon = CampaignService(workers=0, poll_interval=0.02, lease_timeout=5.0)
    yield daemon
    daemon.close()


class TestServiceEndToEnd:
    def test_two_concurrent_campaigns_share_one_fleet(self, service):
        """The acceptance core: one daemon, two tenants, one fleet.

        Both campaigns are submitted before any worker runs, then a shared
        two-thread fleet drains the queue.  Each run's report must match a
        serial run of the same grid exactly, proving results never crossed.
        """
        client = ServiceClient(service.url)
        run_a = client.submit_spec(_tiny_spec("tenant-a"), label="a")
        run_b = client.submit_spec(_tiny_spec("tenant-b"), label="b")
        done: list = []
        threads = [
            _worker_thread(service.url, max_tasks=2, done=done)
            for _ in range(2)
        ]
        status_a = client.wait(run_a, timeout=60.0, poll_interval=0.05)
        status_b = client.wait(run_b, timeout=60.0, poll_interval=0.05)
        for thread in threads:
            thread.join(timeout=10.0)
        assert status_a["state"] == "done"
        assert status_b["state"] == "done"
        assert sum(done) == 4  # 2 variants per campaign, shared fleet

        for run_id, name in ((run_a, "tenant-a"), (run_b, "tenant-b")):
            document = client.results(run_id)
            serial = CampaignRunner(mode="serial").run(_tiny_grid(name))
            expected = json.loads(serial.to_json())
            assert document["result"]["rows"] == expected["rows"]
            assert document["result"]["cells"] == expected["cells"]
            assert document["result"]["failures"] == 0

        registry = client.list_runs()
        assert [entry["run"] for entry in registry] == [run_a, run_b]
        assert all(entry["state"] == "done" for entry in registry)

    def test_cancelling_one_run_leaves_the_sibling_alone(self, service):
        client = ServiceClient(service.url)
        slow = client.submit_tasks(
            [(_nap, 30.0) for _ in range(2)], label="slow")
        quick = client.submit_tasks([(_double, index) for index in range(3)],
                                    label="quick")
        assert client.cancel(slow) is True
        done: list = []
        thread = _worker_thread(service.url, max_tasks=3, done=done)
        thread.join(timeout=30.0)
        assert not thread.is_alive()

        state, results = client.task_results(quick)
        assert state == "done"
        assert results == {0: ("ok", 0), 1: ("ok", 2), 2: ("ok", 4)}
        assert client.status(slow)["state"] == "cancelled"
        # Cancelled-run status survives (post-mortem), results stay empty.
        assert client.results(slow).get("results") == {}
        assert client.cancel(slow) is False  # already cancelled: not running

    def test_daemon_accepts_new_runs_after_completion(self, service):
        client = ServiceClient(service.url)
        for round_number in range(2):
            run_id = client.submit_tasks(
                [(_double, round_number)], label=f"round-{round_number}")
            done: list = []
            thread = _worker_thread(service.url, max_tasks=1, done=done)
            thread.join(timeout=30.0)
            state, results = client.task_results(run_id)
            assert state == "done"
            assert results == {0: ("ok", 2 * round_number)}
        assert len(client.list_runs()) == 2

    def test_service_backend_runs_a_local_campaign_on_the_fleet(self, service):
        done: list = []
        threads = [
            _worker_thread(service.url, max_tasks=1, done=done)
            for _ in range(2)
        ]
        backend = ServiceBackend(url=service.url, poll_interval=0.02)
        result = CampaignRunner(backend=backend).run(_tiny_grid("svc-backend"))
        for thread in threads:
            thread.join(timeout=10.0)
        serial = CampaignRunner(mode="serial").run(_tiny_grid("svc-backend"))
        assert result.fallback_reason is None
        assert result.summaries() == serial.summaries()
        # The backend's hosted run was cleaned up from the daemon queue.
        assert list(ServiceClient(service.url).list_runs())[0]["state"] in (
            "done", "cancelled")

    def test_daemon_hosts_only_submitted_runs(self, service):
        from repro.campaign.transport import _encode

        def scrape():
            with urllib.request.urlopen(
                    f"{service.url}/status", timeout=5.0) as reply:
                runs = set(json.loads(reply.read())["runs"])
            with urllib.request.urlopen(
                    f"{service.url}/metrics", timeout=5.0) as reply:
                text = reply.read().decode("utf-8")
            return runs, set(re.findall(r'repro_run_\w+\{run="([^"]*)"\}', text))

        assert scrape() == (set(), set())
        client = ServiceClient(service.url)
        # "run0" is an ordinary tenant run id: the daemon hosts no default
        # run under that name that a submission could collide with.
        client._request("POST", "/runs", {
            "tasks": [_encode((_double, 1))], "run": "run0"})
        other = client.submit_tasks([(_double, 2)])
        expected = {"run0", other}
        assert scrape() == (expected, expected)
        assert {entry["run"] for entry in client.list_runs()} == expected

    def test_cancelling_a_hosted_spec_run_flies_nothing(self, tmp_path):
        # No fleet: the spec run's tasks stay pending until the cancel.  A
        # cancel must unwind the daemon thread, not fall back to flying the
        # grid serially there (which would write its cells to the store).
        store_dir = tmp_path / "store"
        with CampaignService(workers=0, store_dir=store_dir, poll_interval=0.02,
                             lease_timeout=5.0) as daemon:
            client = ServiceClient(daemon.url)
            run_id = client.submit_spec(_tiny_spec("cancel-me"))
            deadline = time.time() + 30.0
            while (client.status(run_id).get("queue", {})
                   .get("enqueued_total", 0) < 2):
                assert time.time() < deadline, "tasks never enqueued"
                time.sleep(0.02)
            assert client.cancel(run_id) is True
            thread = daemon._runs[run_id].thread
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            assert client.status(run_id)["state"] == "cancelled"
            assert client.results(run_id)["result"] is None
        assert len(CampaignStore(store_dir)) == 0

    def test_service_backend_falls_back_when_its_run_is_cancelled(
            self, service):
        cancelled: list = []

        def cancel_once_submitted():
            client = ServiceClient(service.url)
            deadline = time.time() + 30.0
            while time.time() < deadline:
                runs = client.list_runs()
                if runs:
                    cancelled.append(client.cancel(runs[0]["run"]))
                    return
                time.sleep(0.01)

        thread = threading.Thread(target=cancel_once_submitted, daemon=True)
        thread.start()
        backend = ServiceBackend(url=service.url, poll_interval=0.02)
        with pytest.warns(RuntimeWarning, match="finishing the remaining"):
            result = CampaignRunner(backend=backend).run(
                _tiny_grid("svc-cancelled"))
        thread.join(timeout=10.0)
        assert cancelled == [True]
        assert re.search(r"service run \S+ ended as cancelled with 2 of 2 "
                         "items outstanding", result.fallback_reason)
        serial = CampaignRunner(mode="serial").run(_tiny_grid("svc-cancelled"))
        assert result.summaries() == serial.summaries()

    def test_spec_validation_errors_are_client_errors(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError, match="exactly one of"):
            client.submit_spec({"scenario": {"duration": 0.4}})
        with pytest.raises(ServiceError, match="exactly one of"):
            client._request("POST", "/runs", {})
        with pytest.raises(ServiceError, match="unknown run"):
            client.status("never-submitted")
        with pytest.raises(ServiceError, match="unknown run"):
            client.cancel("never-submitted")
        assert client.cancel("never-submitted", missing_ok=True) is False

    def test_duplicate_run_id_is_conflict(self, service):
        from repro.campaign.transport import _encode

        client = ServiceClient(service.url)
        client.submit_tasks([(_nap, 30.0)], label="first")
        run_id = client.list_runs()[0]["run"]
        with pytest.raises(ServiceError, match="already"):
            client._request(
                "POST", "/runs",
                {"tasks": [_encode((_double, 1))], "run": run_id,
                 "label": "second"})

    def test_subprocess_fleet_end_to_end(self, tmp_path):
        """Once, with real worker subprocesses — the production shape."""
        with CampaignService(workers=2, poll_interval=0.02,
                             lease_timeout=10.0) as daemon:
            client = ServiceClient(daemon.url)
            run_id = client.submit_spec(_tiny_spec("subprocess-fleet"))
            status = client.wait(run_id, timeout=120.0, poll_interval=0.1)
            assert status["state"] == "done"
            document = client.results(run_id)
            serial = CampaignRunner(mode="serial").run(
                _tiny_grid("subprocess-fleet"))
            assert document["result"]["rows"] == json.loads(
                serial.to_json())["rows"]


class TestServiceAuth:
    TOKEN = "service-secret"

    @pytest.fixture
    def auth_service(self):
        daemon = CampaignService(
            workers=0, poll_interval=0.02, lease_timeout=5.0,
            auth_tokens=(self.TOKEN,),
        )
        yield daemon
        daemon.close()

    def test_submission_requires_the_token(self, auth_service):
        anonymous = ServiceClient(auth_service.url)
        with pytest.raises(WorkQueueAuthError):
            anonymous.submit_tasks([(_double, 1)])
        trusted = ServiceClient(auth_service.url, auth_token=self.TOKEN)
        run_id = trusted.submit_tasks([(_double, 1)])
        # Observability endpoints stay open (parity with /status, /metrics)
        # but results carry pickled payloads and need the token.
        assert anonymous.status(run_id)["state"] == "running"
        assert anonymous.list_runs()[0]["run"] == run_id
        with pytest.raises(WorkQueueAuthError):
            anonymous.results(run_id)
        with pytest.raises(WorkQueueAuthError):
            anonymous.cancel(run_id)
        assert trusted.cancel(run_id) is True

    def test_rotation_over_http_without_fleet_restart(self, auth_service):
        client = ServiceClient(auth_service.url, auth_token=self.TOKEN)
        run_id = client.submit_tasks([(_double, 21)], label="pre-rotation")
        client.rotate_token("fresh-secret")
        # The old token (the "fleet") keeps working through the rotation...
        done: list = []
        thread = _worker_thread(
            auth_service.url, max_tasks=1, done=done, token=self.TOKEN)
        thread.join(timeout=30.0)
        state, results = client.task_results(run_id)
        assert state == "done" and results == {0: ("ok", 42)}
        # ...and the new token is live for new clients.
        fresh = ServiceClient(auth_service.url, auth_token="fresh-secret")
        fresh.submit_tasks([(_double, 1)], label="post-rotation")
        with pytest.raises(ServiceError, match="new_token"):
            fresh._request("POST", "/rotate-token", {"new_token": ""})

    def test_tokens_never_appear_in_service_output(self, auth_service):
        client = ServiceClient(auth_service.url, auth_token=self.TOKEN)
        run_id = client.submit_tasks([(_double, 1)])
        surfaces = [
            json.dumps(client.list_runs()),
            json.dumps(client.status(run_id)),
            json.dumps(client.ping()),
            auth_service.queue.metrics_text(),
            json.dumps(auth_service.queue.status()),
        ]
        for surface in surfaces:
            assert self.TOKEN not in surface


class TestServiceClientSurface:
    def test_check_service_rejects_plain_coordinators(self, queue):
        # A single-campaign coordinator answers /ping but hosts no /runs
        # API; submitting to it must fail with a pointer, not a 404 puzzle.
        client = ServiceClient(queue.url)
        with pytest.raises(ServiceError, match="not a campaign service"):
            client.check_service()

    def test_unreachable_service_raises_not_degrades(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=0.3)
        with pytest.raises(ServiceUnreachableError):
            client.list_runs()

    def test_service_ping_advertises_service_mode(self, service):
        info = ServiceClient(service.url).check_service()
        assert info["service"] is True
        assert info["mode"] == "service"
        assert info["protocol"] == PROTOCOL_VERSION

    def test_get_runs_is_plain_http(self, service):
        # No client library needed: the registry is one curl away.
        with urllib.request.urlopen(f"{service.url}/runs", timeout=5.0) as reply:
            body = json.loads(reply.read())
        assert body == {"ok": True, "mode": "service", "runs": []}

    def test_unknown_service_path_is_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"{service.url}/runs/x/unknown", timeout=5.0)
        assert excinfo.value.code == 404

    def test_run_cancelled_bypasses_serial_fallback(self):
        # RunCancelled must NOT be an Exception: the campaign runner's
        # backend-failure fallback would otherwise fly a cancelled tenant's
        # grid serially on the daemon thread.
        assert not issubclass(RunCancelled, Exception)
        assert issubclass(RunCancelled, BaseException)

    def test_run_cancelled_before_enqueue_unwinds(self, queue):
        # The cancel can land while the runner is still consulting the
        # store, before map() enqueues anything: that too is a RunCancelled,
        # not a backend failure the runner would answer by flying serially.
        queue.add_run("late")
        queue.cancel_run("late")
        backend = _HostedQueueBackend(queue, "late", poll_interval=0.01)
        with pytest.raises(RunCancelled):
            list(backend.map(_double, [1, 2]))
