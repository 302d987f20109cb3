"""Tests for the distributed file-queue backend and trajectory persistence.

Three layers are covered without real flights wherever possible (per the
``ThresholdBackend`` pattern of ``tests/test_adaptive.py``):

* :class:`~repro.campaign.workqueue.FileWorkQueue` primitives and the worker
  loop — claims are exclusive, abandoned leases are re-issued, failures ship
  back as data;
* :class:`~repro.campaign.DistributedBackend` — out-of-order completion
  yields in input order, dead workers surface loudly, crashed workers lose
  nothing (end-to-end with real subprocesses over a cheap picklable fn);
* the runner's completion-order persistence and ``record_arrays`` policy —
  killed-coordinator resume from the store, corrupt ``.npz`` backfill, and
  the CLI/spec override matrix.

The expensive acceptance run (12 real flights, distributed == serial) lives
in ``benchmarks/test_distributed_backend.py``.
"""

import functools
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import (
    CampaignRunner,
    DistributedBackend,
    FileWorkQueue,
    ScenarioGrid,
)
from repro.campaign.backends import drain_in_order
from repro.campaign.results import SUMMARY_FIELDS, VariantOutcome
from repro.campaign.spec import build_runner, build_scenario
from repro.campaign.worker import run_worker
from repro.sim import FlightScenario
from repro.store import CampaignStore, cache_key


def tiny_scenario(**kwargs) -> FlightScenario:
    defaults = dict(name="tiny", duration=0.5, record_hz=20.0)
    defaults.update(kwargs)
    return FlightScenario(**defaults)


def tiny_grid(seeds=(1, 2, 3)) -> ScenarioGrid:
    return ScenarioGrid(tiny_scenario(), axes={"seed": list(seeds)})


def fake_summary(name: str, crashed: bool = False) -> dict:
    summary = {key: None for key in SUMMARY_FIELDS}
    summary.update({
        "scenario": name,
        "crashed": crashed,
        "switched_to_safety": crashed,
        "max_deviation": 3.0 if crashed else 0.4,
        "recovered": not crashed,
    })
    return summary


def fake_outcome(variant) -> VariantOutcome:
    return VariantOutcome(
        name=variant.name,
        axes=variant.axes,
        seed=variant.scenario.seed,
        summary=fake_summary(variant.name),
        error=None,
        wall_time=0.001,
    )


def fake_arrays(samples: int = 4) -> dict:
    return {
        "time": np.linspace(0.0, 1.0, samples),
        "position": np.zeros((samples, 3)),
        "setpoint": np.zeros((samples, 3)),
        "velocity": np.zeros((samples, 3)),
        "attitude": np.zeros((samples, 3)),
        "active_source": np.array(["complex"] * samples),
        "crashed": np.zeros(samples, dtype=bool),
    }


# -- picklable worker functions (module-level so queue workers can import them) --


def _double(item):
    return item * 2


def _triple(item):
    return item * 3


def _boom(item):
    raise RuntimeError(f"boom on {item!r}")


def _exit_hard(item):
    os._exit(3)  # simulates a worker killed mid-task (no heartbeat survives)


def _crash_worker_once(item, marker_dir):
    """Kill the whole worker process on the first attempt at item 'a'."""
    marker = Path(marker_dir) / f"{item}.attempted"
    if item == "a" and not marker.exists():
        marker.touch()
        os._exit(17)
    return item * 2


class TestFileWorkQueue:
    def test_enqueue_claim_complete_roundtrip(self, tmp_path):
        queue = FileWorkQueue(tmp_path)
        for index, payload in enumerate(["x", "y"]):
            queue.enqueue(index, payload)
        assert queue.pending_count() == 2

        index, payload, lease = queue.claim("w1")
        assert (index, payload) == (0, "x")  # lowest index first
        assert lease.exists()
        queue.complete(index, ("ok", "done"), lease)
        assert not lease.exists()
        assert queue.collect() == {0: ("ok", "done")}
        assert queue.collect(seen={0}) == {}
        assert queue.pending_count() == 1

    def test_claims_are_exclusive(self, tmp_path):
        queue = FileWorkQueue(tmp_path)
        queue.enqueue(0, "only")
        assert queue.claim("w1") is not None
        assert queue.claim("w2") is None

    def test_abandoned_lease_is_reissued(self, tmp_path):
        queue = FileWorkQueue(tmp_path)
        queue.enqueue(0, "task")
        queue.claim("dead-worker")
        assert queue.claim("w2") is None  # still leased
        time.sleep(0.05)
        assert queue.reclaim_expired(lease_timeout=0.01) == [0]
        index, payload, _ = queue.claim("w2")
        assert (index, payload) == (0, "task")

    def test_heartbeat_keeps_the_lease(self, tmp_path):
        queue = FileWorkQueue(tmp_path)
        queue.enqueue(0, "task")
        _, _, lease = queue.claim("w1")
        time.sleep(0.2)
        queue.heartbeat(lease)
        assert queue.reclaim_expired(lease_timeout=0.15) == []

    def test_worker_id_must_be_lease_name_safe(self, tmp_path):
        queue = FileWorkQueue(tmp_path)
        with pytest.raises(ValueError, match="worker id"):
            queue.claim("host.with.dots")

    def test_run_worker_drains_queue_in_process(self, tmp_path):
        queue = FileWorkQueue(tmp_path)
        for index, item in enumerate([1, 2, 3]):
            queue.enqueue(index, (_double, item))
        assert run_worker(tmp_path, worker_id="t", poll_interval=0.01,
                          max_tasks=3) == 3
        results = queue.collect()
        assert results == {0: ("ok", 2), 1: ("ok", 4), 2: ("ok", 6)}

    def test_stop_prevents_draining_an_aborted_campaign(self, tmp_path):
        # Stop is checked before claiming: leftover tasks of an aborted
        # campaign must not be flown by the fleet.
        queue = FileWorkQueue(tmp_path)
        queue.enqueue(0, (_double, 1))
        queue.enqueue(1, (_double, 2))
        queue.request_stop()
        assert run_worker(tmp_path, worker_id="t", poll_interval=0.01) == 0
        assert queue.pending_count() == 2

    def test_idle_worker_exits_when_coordinator_is_stale(self, tmp_path):
        # A coordinator killed without cleanup never raises the stop
        # sentinel; the worker must notice the stale heartbeat and exit
        # rather than poll the abandoned queue forever.
        queue = FileWorkQueue(tmp_path)
        queue.touch_coordinator()
        time.sleep(0.05)
        completed = run_worker(
            tmp_path, worker_id="t", poll_interval=0.01, orphan_timeout=0.01
        )
        assert completed == 0

    def test_idle_worker_waits_on_manually_driven_queues(self, tmp_path):
        # No coordinator heartbeat at all (queue driven by hand): the
        # orphan guard must not apply — only stop ends the worker.
        queue = FileWorkQueue(tmp_path)
        queue.request_stop()
        assert run_worker(
            tmp_path, worker_id="t", poll_interval=0.01, orphan_timeout=0.01
        ) == 0

    def test_worker_ships_exceptions_as_data(self, tmp_path):
        queue = FileWorkQueue(tmp_path)
        queue.enqueue(0, (_boom, "it"))
        run_worker(tmp_path, worker_id="t", poll_interval=0.01, max_tasks=1)
        status, text = queue.collect()[0]
        assert status == "error"
        assert "RuntimeError" in text and "boom on 'it'" in text

    def test_unimportable_payload_is_a_poison_pill_not_a_crash(self, tmp_path):
        # A payload whose function cannot be resolved on the worker
        # (PYTHONPATH mismatch) raises ModuleNotFoundError from
        # pickle.loads; claiming must publish the failure, not die on it.
        queue = FileWorkQueue(tmp_path)
        (queue.tasks_dir / "00000000.run0.task").write_bytes(
            b"cdefinitely_missing_module\nboom\n."  # GLOBAL opcode pickle
        )
        assert queue.claim("t") is None  # poisoned, not raised
        status, text = queue.collect()[0]
        assert status == "error"
        assert "unreadable task payload" in text

    def test_results_of_other_runs_are_ignored(self, tmp_path):
        # A worker of a killed previous campaign finishing late answers
        # under the old run id; the new coordinator must not collect it.
        stale = FileWorkQueue(tmp_path, run_id="old")
        stale.complete(0, ("ok", "stale"))
        fresh = FileWorkQueue(tmp_path, run_id="new")
        assert fresh.collect() == {}
        fresh.enqueue(0, (_double, 5))
        index, payload, lease = fresh.claim("w")
        fresh.complete(index, ("ok", 10), lease)
        assert fresh.collect() == {0: ("ok", 10)}

    def test_reset_purges_stale_state_between_campaigns(self, tmp_path):
        queue = FileWorkQueue(tmp_path)
        queue.enqueue(0, "stale-task")
        queue.complete(1, ("ok", "stale-result"))
        queue.request_stop()
        queue.reset()
        assert queue.pending_count() == 0
        assert queue.collect() == {}
        assert not queue.stop_requested()


class TestDistributedBackend:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            DistributedBackend(workers=-1)
        with pytest.raises(ValueError, match="queue_dir"):
            DistributedBackend(workers=0)
        with pytest.raises(ValueError, match="lease_timeout"):
            DistributedBackend(lease_timeout=0.0)
        with pytest.raises(ValueError, match="poll_interval"):
            DistributedBackend(poll_interval=0.0)
        DistributedBackend(workers=0, queue_dir=str(tmp_path))  # external fleet

    def test_explicit_auth_token_rejected_on_file_transport(self):
        with pytest.raises(ValueError, match="auth_token applies"):
            DistributedBackend(auth_token="pointless")

    def test_env_auth_token_on_file_transport_warns(self, monkeypatch):
        # A globally exported secret must not hard-fail unrelated file
        # campaigns, but silently protecting nothing is not OK either.
        monkeypatch.setenv("REPRO_CAMPAIGN_AUTH_TOKEN", "exported")
        backend = DistributedBackend(workers=1, lease_timeout=60.0,
                                     poll_interval=0.02)
        with pytest.warns(RuntimeWarning, match="no authentication"):
            assert list(backend.map(_double, [3])) == [6]

    def test_empty_items(self):
        assert list(DistributedBackend(workers=1).map(_double, [])) == []

    def test_out_of_order_completion_yields_input_order(self, tmp_path):
        """An external worker completes 2, 0, 1; the coordinator reports each
        completion immediately but yields strictly in input order."""
        backend = DistributedBackend(
            workers=0, queue_dir=str(tmp_path), poll_interval=0.01,
            lease_timeout=60.0,
        )
        completions = []

        def on_complete(index, result):
            completions.append((index, result))
            (tmp_path / f"consumed-{index}").touch()  # gate for the worker

        def eccentric_worker():
            queue = FileWorkQueue(tmp_path)
            claimed = {}
            deadline = time.time() + 10.0
            while len(claimed) < 3 and time.time() < deadline:
                item = queue.claim("ext")
                if item is None:
                    time.sleep(0.01)
                    continue
                claimed[item[0]] = item
            for index in (2, 0, 1):
                task_index, payload, lease = claimed[index]
                fn, item = payload
                queue.complete(task_index, ("ok", fn(item)), lease)
                while not (tmp_path / f"consumed-{index}").exists():
                    if time.time() > deadline:
                        return
                    time.sleep(0.01)

        thread = threading.Thread(target=eccentric_worker, daemon=True)
        thread.start()
        results = list(backend.map(_double, [10, 20, 30], on_complete=on_complete))
        thread.join(timeout=10.0)
        assert results == [20, 40, 60]
        # on_complete fired in completion order, not input order.
        assert completions == [(2, 60), (0, 20), (1, 40)]

    def test_crashed_worker_releases_lease_and_task_is_reflown(self, tmp_path):
        # Worker 1 claims item 'a' and dies mid-task (os._exit: heartbeat
        # thread dies with it).  The lease expires, the coordinator re-queues
        # the task and the surviving worker completes it.
        fn = functools.partial(_crash_worker_once, marker_dir=str(tmp_path))
        backend = DistributedBackend(
            workers=2, lease_timeout=1.0, poll_interval=0.05
        )
        results = list(backend.map(fn, ["a", "b", "c"]))
        assert results == ["aa", "bb", "cc"]
        assert (tmp_path / "a.attempted").exists()

    def test_reused_queue_dir_does_not_serve_stale_results(self, tmp_path):
        # The documented external-fleet workflow reuses one shared
        # directory; a second campaign must not collect the first one's
        # result files as its own outcomes.
        backend = DistributedBackend(workers=1, queue_dir=str(tmp_path),
                                     lease_timeout=60.0, poll_interval=0.02)
        first = list(backend.map(_double, [1, 2, 3]))
        assert first == [2, 4, 6]
        second = list(backend.map(_triple, [1, 2, 3]))
        assert second == [3, 6, 9]

    def test_remote_failure_raises_with_traceback(self):
        backend = DistributedBackend(workers=1, lease_timeout=60.0)
        with pytest.raises(RuntimeError, match="distributed worker failed"):
            list(backend.map(_boom, [1]))

    def test_all_workers_dead_fails_loudly(self):
        backend = DistributedBackend(workers=1, lease_timeout=60.0,
                                     poll_interval=0.05)
        with pytest.raises(RuntimeError, match="workers exited"):
            list(backend.map(_exit_hard, [1, 2]))


class TestDrainInOrder:
    """The coordinator loop shared by the distributed, hosted-run and
    service backends, driven by a scripted ``collect``."""

    @staticmethod
    def scripted(*batches):
        """A ``collect`` that turns up one batch of results per poll."""
        remaining = list(batches)

        def collect(seen):
            batch = remaining.pop(0) if remaining else {}
            return {index: result for index, result in batch.items()
                    if index not in seen}

        return collect

    def test_yields_in_input_order_reports_in_completion_order(self):
        events = []
        collect = self.scripted(
            {2: ("ok", "c")}, {0: ("ok", "a")}, {}, {1: ("ok", "b")})
        drained = drain_in_order(
            3, collect, lambda index, value: events.append(("done", index)),
            0.0)
        for value in drained:
            events.append(("yield", value))
        assert events == [
            ("done", 2), ("done", 0), ("yield", "a"),
            ("done", 1), ("yield", "b"), ("yield", "c"),
        ]

    @pytest.mark.parametrize("source", [
        "distributed worker", "worker", "service worker",
    ])
    def test_failure_keeps_the_callers_prefix(self, source):
        collect = self.scripted({0: ("ok", 1), 1: ("error", "Traceback: boom")})
        with pytest.raises(RuntimeError) as excinfo:
            list(drain_in_order(2, collect, None, 0.0, source=source))
        assert str(excinfo.value) == f"{source} failed on item 1:\nTraceback: boom"

    def test_tick_runs_after_collect_so_an_abort_drops_no_result(self):
        events = []

        def fleet_died(done):
            events.append(("tick", done))
            raise RuntimeError("all workers exited")

        collect = self.scripted({0: ("ok", "a"), 2: ("ok", "c")})
        drained = drain_in_order(
            3, collect, lambda index, value: events.append(("done", index)),
            0.0, fleet_died)
        yielded = []
        with pytest.raises(RuntimeError, match="all workers exited"):
            for value in drained:
                yielded.append(value)
        assert yielded == ["a"]
        assert events == [("done", 0), ("done", 2), ("tick", 2)]

    def test_tick_that_would_abort_after_the_last_result_never_runs(self):
        # The last worker exits right after delivering the final result:
        # the result is yielded, not lost to the dead-fleet check.
        def fleet_died(done):
            raise RuntimeError("all workers exited")

        collect = self.scripted({1: ("ok", "b"), 0: ("ok", "a")})
        assert list(drain_in_order(2, collect, None, 0.0, fleet_died)) == [
            "a", "b"]


# -- fake backends for runner-level behaviour (no subprocesses, no flights) ----


@dataclass(frozen=True)
class OutOfOrderBackend:
    """Fabricates outcomes, reports completions in reverse input order, then
    yields in input order — the contract the runner must tolerate."""

    flown: list = field(default_factory=list, compare=False)

    name = "out-of-order-fake"

    def map(self, fn, items, on_complete=None):
        outcomes = [fake_outcome(variant) for variant in items]
        for index in reversed(range(len(items))):
            self.flown.append(items[index].name)
            if on_complete is not None:
                on_complete(index, outcomes[index])
        yield from outcomes


@dataclass(frozen=True)
class DyingCoordinatorBackend:
    """Completes (and reports) every item, then dies before yielding any —
    the coordinator-killed-after-the-flights-finished scenario."""

    name = "dying-coordinator-fake"

    def map(self, fn, items, on_complete=None):
        for index, variant in enumerate(items):
            if on_complete is not None:
                on_complete(index, fake_outcome(variant))
        raise RuntimeError("coordinator died")
        yield  # pragma: no cover - generator marker


@dataclass(frozen=True)
class ArraysBackend:
    """Fabricates ``(outcome, arrays)`` results like a record_arrays worker."""

    flown: list = field(default_factory=list, compare=False)

    name = "arrays-fake"

    def map(self, fn, items):
        for variant in items:
            self.flown.append(variant.name)
            yield fake_outcome(variant), fake_arrays()


class TestRunnerCompletionOrderPersistence:
    def test_out_of_order_completions_persist_and_merge_in_input_order(
        self, tmp_path
    ):
        store = CampaignStore(tmp_path)
        result = CampaignRunner(backend=OutOfOrderBackend(), store=store).run(
            tiny_grid()
        )
        assert [outcome.name for outcome in result] == [
            "tiny/seed=1", "tiny/seed=2", "tiny/seed=3",
        ]
        assert len(store) == 3
        assert store.stats.writes == 3  # persisted once each, at completion

    def test_killed_coordinator_resumes_from_store_without_reflying(
        self, tmp_path
    ):
        # All flights completed and were persisted, but the coordinator died
        # before yielding: the serial fallback must serve every variant from
        # the store instead of re-flying it.
        store = CampaignStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="finishing the remaining"):
            result = CampaignRunner(
                backend=DyingCoordinatorBackend(), store=store
            ).run(tiny_grid())
        assert result.fallback_reason == "RuntimeError('coordinator died')"
        assert len(result) == 3
        assert all(outcome.cached for outcome in result)
        assert result.cache_hits == 3
        # A fresh uninterrupted run is fully warm.
        rerun = CampaignRunner(mode="serial", store=CampaignStore(tmp_path)).run(
            tiny_grid()
        )
        assert (rerun.cache_hits, rerun.cache_misses) == (3, 0)


class TestRecordArrays:
    def test_arrays_persist_and_serve_on_warm_hits(self, tmp_path):
        store = CampaignStore(tmp_path)
        runner = CampaignRunner(
            backend=ArraysBackend(), store=store, record_arrays=True
        )
        cold = runner.run(tiny_grid(seeds=(1, 2)))
        assert cold.cache_misses == 2
        for variant in tiny_grid(seeds=(1, 2)).variants():
            arrays = store.get_arrays(variant)
            assert arrays is not None
            assert set(arrays) == set(fake_arrays())

        warm_backend = ArraysBackend()
        warm = CampaignRunner(
            backend=warm_backend, store=CampaignStore(tmp_path),
            record_arrays=True,
        ).run(tiny_grid(seeds=(1, 2)))
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        assert warm_backend.flown == []  # arrays served, nothing re-flown

    def test_corrupt_npz_is_reflown_and_backfilled(self, tmp_path):
        store = CampaignStore(tmp_path)
        CampaignRunner(
            backend=ArraysBackend(), store=store, record_arrays=True
        ).run(tiny_grid(seeds=(1, 2)))
        victim_variant = tiny_grid(seeds=(1, 2)).variants()[0]
        archive = store.path_for(store.key_for(victim_variant)).with_suffix(".npz")
        archive.write_bytes(b"garbage")

        warm_backend = ArraysBackend()
        fresh_store = CampaignStore(tmp_path)
        warm = CampaignRunner(
            backend=warm_backend, store=fresh_store, record_arrays=True
        ).run(tiny_grid(seeds=(1, 2)))
        # The poisoned cell is re-flown (its summary alone is not enough),
        # the intact one is served with its arrays.
        assert (warm.cache_hits, warm.cache_misses) == (1, 1)
        assert warm_backend.flown == [victim_variant.name]
        assert fresh_store.stats.corrupt == 1
        assert fresh_store.get_arrays(victim_variant) is not None

    def test_hit_without_arrays_is_backfilled(self, tmp_path):
        # Cells flown before record_arrays was switched on have no .npz;
        # asking for arrays re-flies them once, then serves warm.
        @dataclass(frozen=True)
        class PlainBackend:
            name = "plain-fake"

            def map(self, fn, items):
                for variant in items:
                    yield fake_outcome(variant)

        store = CampaignStore(tmp_path)
        CampaignRunner(backend=PlainBackend(), store=store).run(
            tiny_grid(seeds=(1,))
        )
        backfill = CampaignRunner(
            backend=ArraysBackend(), store=CampaignStore(tmp_path),
            record_arrays=True,
        ).run(tiny_grid(seeds=(1,)))
        assert (backfill.cache_hits, backfill.cache_misses) == (0, 1)
        assert CampaignStore(tmp_path).get_arrays(
            tiny_grid(seeds=(1,)).variants()[0]
        ) is not None

    def test_serial_fallback_also_backfills_missing_arrays(self, tmp_path):
        # The fallback path must honour the same record_arrays policy as the
        # pre-dispatch lookup: a summary-only cell is re-flown (here: a real
        # tiny flight), not served without its arrays.
        @dataclass(frozen=True)
        class PlainBackend:
            name = "plain-fake"

            def map(self, fn, items):
                for variant in items:
                    yield fake_outcome(variant)

        @dataclass(frozen=True)
        class BrokenBackend:
            name = "broken-fake"

            def map(self, fn, items):
                raise OSError("pool gone")
                yield  # pragma: no cover - generator marker

        store = CampaignStore(tmp_path)
        CampaignRunner(backend=PlainBackend(), store=store).run(
            tiny_grid(seeds=(1,))
        )
        with pytest.warns(RuntimeWarning, match="finishing the remaining"):
            result = CampaignRunner(
                backend=BrokenBackend(), store=CampaignStore(tmp_path),
                record_arrays=True,
            ).run(tiny_grid(seeds=(1,)))
        outcome = result.outcomes[0]
        assert not outcome.cached  # re-flown, not served array-less
        assert outcome.error is None
        assert CampaignStore(tmp_path).get_arrays(
            tiny_grid(seeds=(1,)).variants()[0]
        ) is not None

    def test_record_arrays_requires_store(self):
        with pytest.raises(ValueError, match="record_arrays requires a store"):
            CampaignRunner(record_arrays=True)

    def test_stored_arrays_export_as_telemetry_rows(self, tmp_path):
        from repro.analysis.export import trajectory_to_rows, write_trajectory_csv

        store = CampaignStore(tmp_path)
        CampaignRunner(
            backend=ArraysBackend(), store=store, record_arrays=True
        ).run(tiny_grid(seeds=(1,)))
        arrays = store.get_arrays(tiny_grid(seeds=(1,)).variants()[0])
        rows = trajectory_to_rows(arrays)
        assert len(rows) == 4
        assert set(rows[0]) == {
            "time", "x", "y", "z", "x_setpoint", "y_setpoint", "z_setpoint",
            "vx", "vy", "vz", "roll", "pitch", "yaw", "active_source",
            "crashed",
        }
        path = tmp_path / "trajectory.csv"
        assert write_trajectory_csv(arrays, path) == 4
        assert path.read_text().startswith("time,")


@dataclass(frozen=True)
class AutoscalingFakeBackend:
    """Fabricates outcomes and one scale event, like an autoscaled
    ``DistributedBackend`` would."""

    scale_events: list = field(default_factory=list, compare=False)

    name = "autoscale-fake"

    def map(self, fn, items):
        self.scale_events.append({
            "event": "scale-up", "workers": 2, "backlog": len(items),
            "elapsed": 0.0,
        })
        for variant in items:
            yield fake_outcome(variant)


class TestScaleEventSurface:
    def test_runner_surfaces_backend_scale_events(self):
        result = CampaignRunner(backend=AutoscalingFakeBackend()).run(tiny_grid())
        assert result.scale_events == (
            {"event": "scale-up", "workers": 2, "backlog": 3, "elapsed": 0.0},
        )
        assert result.to_dict()["scale_events"] == [
            {"event": "scale-up", "workers": 2, "backlog": 3, "elapsed": 0.0},
        ]

    def test_fixed_backends_record_no_events(self):
        result = CampaignRunner(backend=OutOfOrderBackend()).run(tiny_grid())
        assert result.scale_events == ()
        assert result.to_dict()["scale_events"] == []


class TestSpecOverrideMatrix:
    """CLI overrides vs the ``[runner]`` table, exhaustively."""

    def test_salt_without_store_is_a_clear_error(self):
        with pytest.raises(ValueError, match="'salt' requires a 'store'"):
            build_runner({"runner": {"salt": "gen-9"}})

    def test_salt_with_store_partitions(self, tmp_path):
        runner = build_runner(
            {"runner": {"store": str(tmp_path), "salt": "gen-9"}}
        )
        assert runner.store is not None
        assert runner.store.salt == "gen-9"

    def test_cli_store_dir_keeps_spec_salt(self, tmp_path):
        runner = build_runner(
            {"runner": {"store": str(tmp_path / "spec"), "salt": "gen-9"}},
            store_dir=tmp_path / "cli",
        )
        assert runner.store.root == tmp_path / "cli"
        assert runner.store.salt == "gen-9"

    def test_cli_policy_override_warns_about_dropped_backend(self):
        spec = {"runner": {"backend": "distributed",
                           "backend_options": {"workers": 2}}}
        with pytest.warns(RuntimeWarning, match="discards the spec's explicit"):
            runner = build_runner(spec, mode="serial")
        assert runner.backend is None and runner.mode == "serial"
        with pytest.warns(RuntimeWarning, match="discards the spec's explicit"):
            runner = build_runner(spec, max_workers=2)
        assert runner.backend is None and runner.max_workers == 2

    def test_cli_backend_override_keeps_matching_spec_options(self):
        spec = {"runner": {"backend": "distributed",
                           "backend_options": {"workers": 7}}}
        runner = build_runner(spec, backend="distributed")
        assert isinstance(runner.backend, DistributedBackend)
        assert runner.backend.workers == 7

    def test_cli_backend_override_drops_foreign_spec_options_with_warning(self):
        from repro.campaign import SerialBackend

        spec = {"runner": {"backend": "distributed",
                           "backend_options": {"workers": 7}}}
        with pytest.warns(RuntimeWarning, match="discards the spec's backend_options"):
            runner = build_runner(spec, backend="serial")
        assert isinstance(runner.backend, SerialBackend)

    def test_orphan_backend_options_still_rejected_with_cli_backend(self):
        # backend_options without a spec backend name stays a loud error
        # even when the backend comes from the command line — silently
        # dropping the options (e.g. a shared queue_dir) would run the
        # campaign somewhere else entirely.
        spec = {"runner": {"backend_options": {"workers": 7}}}
        with pytest.raises(ValueError, match="requires a 'backend' name"):
            build_runner(spec, backend="distributed")

    def test_cli_backend_override_conflicts_with_policy_flags(self):
        with pytest.raises(ValueError, match="cannot be combined"):
            build_runner({}, backend="serial", max_workers=2)
        with pytest.raises(ValueError, match="cannot be combined"):
            build_runner({}, backend="serial", mode="serial")

    def test_record_arrays_spec_and_override(self, tmp_path):
        spec = {"runner": {"store": str(tmp_path), "record_arrays": True}}
        assert build_runner(spec).record_arrays is True
        plain = {"runner": {"store": str(tmp_path)}}
        assert build_runner(plain).record_arrays is False
        assert build_runner(plain, record_arrays=True).record_arrays is True

    def test_record_arrays_without_store_is_a_clear_error(self):
        with pytest.raises(ValueError, match="'record_arrays' requires"):
            build_runner({"runner": {"record_arrays": True}})

    def test_spec_backend_options_select_transport(self):
        spec = {"runner": {"backend": "distributed",
                           "backend_options": {"transport": "http",
                                               "workers": 2}}}
        runner = build_runner(spec)
        assert isinstance(runner.backend, DistributedBackend)
        assert runner.backend.transport == "http"
        assert runner.backend.workers == 2

    def test_spec_transport_defaults_to_file(self):
        runner = build_runner({"runner": {"backend": "distributed"}})
        assert runner.backend.transport == "file"

    def test_spec_invalid_transport_is_a_clear_error(self):
        spec = {"runner": {"backend": "distributed",
                           "backend_options": {"transport": "telepathy"}}}
        with pytest.raises(ValueError, match="transport"):
            build_runner(spec)

    def test_spec_socket_transport_rejects_queue_dir(self, tmp_path):
        # There is no socket transport: the spec fails on the transport
        # itself, naming the valid ones, before queue_dir is considered.
        spec = {"runner": {"backend": "distributed",
                           "backend_options": {"transport": "socket",
                                               "queue_dir": str(tmp_path)}}}
        with pytest.raises(ValueError, match="http"):
            build_runner(spec)

    def test_spec_autoscale_options(self):
        spec = {"runner": {"backend": "distributed",
                           "backend_options": {"workers": 0,
                                               "max_workers": 4}}}
        runner = build_runner(spec)
        assert runner.backend.workers == 0
        assert runner.backend.max_workers == 4

    def test_cli_backend_override_keeps_matching_transport_options(self):
        spec = {"runner": {"backend": "distributed",
                           "backend_options": {"transport": "http"}}}
        runner = build_runner(spec, backend="distributed")
        assert runner.backend.transport == "http"

    def test_seed_coercion_is_constructor_path_consistent(self):
        # "seed": 3.0 used to reach the FlightScenario constructor as a
        # float (different cache key than 3); both paths must coerce.
        direct = build_scenario({"seed": 3.0})
        assert direct.seed == 3 and isinstance(direct.seed, int)
        assert cache_key(direct) == cache_key(build_scenario({"seed": 3}))
        figured = build_scenario({"figure": "figure5", "seed": 3.0})
        assert figured.seed == 3 and isinstance(figured.seed, int)

    def test_non_integral_seed_rejected(self):
        with pytest.raises(ValueError, match="not integral"):
            build_scenario({"seed": 3.5})


class TestCliDistributedEndToEnd:
    """The acceptance path: a spec with backend='distributed' and 2 workers
    runs a real (tiny) grid through ``python -m repro.campaign``, caches it,
    and serves trajectory arrays warm."""

    def spec(self, tmp_path):
        import json

        spec = {
            "scenario": {"name": "dist-tiny", "duration": 0.4, "record_hz": 20.0},
            "axes": {"seed": [1, 2]},
            "runner": {
                "backend": "distributed",
                "backend_options": {"workers": 2, "lease_timeout": 120.0},
                "store": str(tmp_path / "cells"),
                "record_arrays": True,
            },
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_cold_then_warm_with_arrays(self, tmp_path, capsys):
        from repro.campaign.__main__ import main

        spec = self.spec(tmp_path)
        assert main([str(spec)]) == 0
        capsys.readouterr()
        assert main([str(spec), "--format", "text"]) == 0
        assert "2 from cache" in capsys.readouterr().out

        store = CampaignStore(tmp_path / "cells")
        grid = ScenarioGrid(
            build_scenario({"name": "dist-tiny", "duration": 0.4,
                            "record_hz": 20.0}),
            axes={"seed": [1, 2]},
        )
        for variant in grid.variants():
            arrays = store.get_arrays(variant)
            assert arrays is not None
            assert len(arrays["time"]) > 0

    def test_backend_cli_flag_overrides_spec(self, tmp_path, capsys):
        from repro.campaign.__main__ import main

        spec = self.spec(tmp_path)
        # Forcing the serial backend must still complete (and not spawn
        # workers); the spec's distributed options are dropped.
        assert main([str(spec), "--backend", "serial"]) == 0
