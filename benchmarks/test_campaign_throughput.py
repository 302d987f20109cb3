"""Campaign throughput benchmark: the ISSUE's 3-axis acceptance sweep.

Runs the 2 MemGuard budgets x 2 attack starts x 3 seeds = 12-flight grid
through the :class:`~repro.campaign.CampaignRunner` twice — serial and
process-pool — and checks that

* both runs complete with no failed variants,
* serial and parallel summaries are *identical* (execution strategy must not
  leak into results),
* on machines with at least four cores the pool is >= 1.5x faster than
  serial (informational on smaller machines, where the pool cannot win), and
* the observability instrumentation costs nothing measurable: flown
  again flight by flight, interleaved with :func:`repro.obs.set_enabled`
  on and off, the instrumented flights' medians must be within 2% of the
  bare ones.

The instrumented serial run additionally writes
``benchmarks/results/metrics_sample.jsonl`` — a sample of the structured
event log (campaign/variant events plus a closing metrics snapshot) that CI
uploads next to the ``BENCH_*.json`` records.
"""

from __future__ import annotations

import os
import statistics

import pytest

from repro import obs
from repro.analysis.report import format_table
from repro.campaign import CampaignRunner, ScenarioGrid
from repro.sim import FlightScenario

#: Per-flight duration [s]; short enough to keep the benchmark affordable,
#: long enough that each flight sees the attack start and settle.
FLIGHT_DURATION = 3.0

SPEEDUP_CORES = 4
SPEEDUP_TARGET = 1.5

#: Ceiling on the instrumentation's serial wall-time cost [%].
OVERHEAD_LIMIT_PCT = 2.0

#: Flights per variant and arm in the interleaved overhead measurement
#: (even: the arms alternate in blocks of two).
OVERHEAD_REPEATS = 4


def acceptance_grid() -> ScenarioGrid:
    """The ISSUE's 3-axis sweep: 2 budgets x 2 attack starts x 3 seeds."""
    return ScenarioGrid(
        FlightScenario.figure5(duration=FLIGHT_DURATION).with_name("campaign-bench"),
        axes={
            "memguard_budget": [1500, 3000],
            "attack_start": [1.0, 2.0],
            "seed": [101, 102, 103],
        },
    )


def fly_interleaved(grid, log):
    """Fly every variant of ``grid`` :data:`OVERHEAD_REPEATS` times bare
    and as often instrumented, as one-variant campaigns; return
    ``(instrumented, bare)`` result lists in variant order.

    Host load on a shared machine swings a whole campaign's wall time by
    10% and more, far beyond the 2% being gated, and its phases can last
    longer than a campaign.  Flying the arms back to back per flight, in
    bare-instrumented-instrumented-bare blocks mirrored on every other
    flight, lets such a phase hit both arms alike; taking each flight's
    median over the repeats sheds the bursts that hit a single flight.
    Each one-variant campaign carries the full per-campaign
    instrumentation (events, spans, counters, the event log), so the
    instrumented arm is charged for more of it than one 12-flight
    campaign would be.
    """
    instrumented, bare = [], []
    for index, variant in enumerate(grid.variants()):
        order = (False, True, True, False) * (OVERHEAD_REPEATS // 2)
        if index % 2:
            order = tuple(not enabled for enabled in order)
        for enabled in order:
            obs.set_enabled(enabled)
            previous = obs.set_event_log(log if enabled else None)
            try:
                result = CampaignRunner(mode="serial", telemetry=enabled).run(
                    [variant]
                )
            finally:
                obs.set_event_log(previous)
                obs.set_enabled(True)
            (instrumented if enabled else bare).append(result)
    return instrumented, bare


def arm_wall_time(results) -> float:
    """Wall time of one pass over the grid, each flight at the median of
    its :data:`OVERHEAD_REPEATS` repeats."""
    walls = [result.wall_time for result in results]
    return sum(
        statistics.median(walls[start:start + OVERHEAD_REPEATS])
        for start in range(0, len(walls), OVERHEAD_REPEATS)
    )


@pytest.fixture(scope="module")
def campaign_runs(results_dir, tmp_path_factory):
    """Fly the acceptance grid flight by flight with observability on and
    off, then serially (with a JSONL event-log sample) and on the pool.

    Returns ``(serial, parallel, instrumented, bare)``; the last two are
    lists of one-variant results, :data:`OVERHEAD_REPEATS` per variant."""
    grid = acceptance_grid()
    assert len(grid) == 12
    # The first flights of a fresh process run with cold allocator/page
    # caches and an unscaled CPU clock, measurably slower than identical
    # flights minutes later.  One untimed flight takes the worst of it;
    # the interleaved flights then warm the process for the serial run.
    CampaignRunner(mode="serial", telemetry=False).run(grid.variants()[:1])
    overhead_log = tmp_path_factory.mktemp("obs-overhead") / "events.jsonl"
    with obs.EventLog(overhead_log, run_id="bench-overhead") as log:
        instrumented, bare = fly_interleaved(grid, log)
    sample_path = results_dir / "metrics_sample.jsonl"
    sample_path.unlink(missing_ok=True)
    with obs.EventLog(sample_path, run_id="bench") as log:
        previous = obs.set_event_log(log)
        try:
            serial = CampaignRunner(mode="serial").run(grid)
            obs.emit(
                "metrics-snapshot", "benchmarks",
                metrics=obs.default_registry().snapshot(),
            )
        finally:
            obs.set_event_log(previous)
    parallel = CampaignRunner(mode="parallel").run(grid)
    return serial, parallel, instrumented, bare


def test_serial_and_parallel_campaigns_agree(campaign_runs, report):
    serial, parallel, instrumented, bare = campaign_runs
    assert len(serial) == len(parallel) == 12
    assert serial.failures() == ()
    assert parallel.failures() == ()
    # Execution strategy must not change results — and neither may the
    # observability switch.
    assert serial.summaries() == parallel.summaries()
    repeated = [row for row in serial.summaries() for _ in range(OVERHEAD_REPEATS)]
    assert [result.summaries()[0] for result in instrumented] == repeated
    assert [result.summaries()[0] for result in bare] == repeated

    cores = os.cpu_count() or 1
    speedup = serial.wall_time / parallel.wall_time if parallel.wall_time else 0.0
    instrumented_wall = arm_wall_time(instrumented)
    bare_wall = arm_wall_time(bare)
    overhead_pct = (
        (instrumented_wall - bare_wall) / bare_wall * 100.0 if bare_wall else 0.0
    )
    rows = [
        ["serial", f"{serial.wall_time:.1f} s", f"{serial.wall_time / 12:.2f} s"],
        ["serial, interleaved, obs on", f"{instrumented_wall:.1f} s",
         f"{instrumented_wall / 12:.2f} s"],
        ["serial, interleaved, obs off", f"{bare_wall:.1f} s",
         f"{bare_wall / 12:.2f} s"],
        ["process pool", f"{parallel.wall_time:.1f} s", f"{parallel.wall_time / 12:.2f} s"],
    ]
    text = format_table(
        ["Mode", "Campaign wall time", "Per flight"],
        rows,
        title=(
            f"Campaign throughput: 12 x {FLIGHT_DURATION:.0f} s flights on "
            f"{cores} core(s), speedup {speedup:.2f}x, "
            f"instrumentation overhead {overhead_pct:+.2f}%"
        ),
    )
    report("campaign_throughput", text + "\n\n" + serial.to_text(), data={
        "flights": len(serial),
        "flight_duration_s": FLIGHT_DURATION,
        "serial_wall_s": round(serial.wall_time, 3),
        "serial_obs_interleaved_wall_s": round(instrumented_wall, 3),
        "serial_no_obs_wall_s": round(bare_wall, 3),
        "parallel_wall_s": round(parallel.wall_time, 3),
        "speedup": round(speedup, 3),
        "obs_overhead_pct": round(overhead_pct, 3),
    })


def test_metrics_sample_written(campaign_runs, results_dir):
    """The serial run leaves a well-formed JSONL event-log sample behind."""
    import json

    sample_path = results_dir / "metrics_sample.jsonl"
    assert sample_path.exists()
    records = [
        json.loads(line)
        for line in sample_path.read_text().splitlines() if line
    ]
    assert records, "event-log sample is empty"
    for record in records:
        assert record["schema"] == 1
        assert record["run"] == "bench"
        assert record["component"]
        assert record["event"]
    events = [record["event"] for record in records]
    assert "campaign-start" in events
    assert "campaign-end" in events
    assert events[-1] == "metrics-snapshot"
    assert "repro_campaign_variants_total" in records[-1]["metrics"]


def test_observability_overhead(campaign_runs):
    """Instrumented flights within OVERHEAD_LIMIT_PCT of the bare ones."""
    _serial, _parallel, instrumented, bare = campaign_runs
    instrumented_wall = arm_wall_time(instrumented)
    bare_wall = arm_wall_time(bare)
    assert bare_wall > 0
    overhead_pct = (instrumented_wall - bare_wall) / bare_wall * 100.0
    if os.environ.get("CI"):
        # Same reasoning as the speedup gate: shared runners jitter more
        # than the margin being measured.  Report, don't block.
        if overhead_pct > OVERHEAD_LIMIT_PCT:
            pytest.skip(
                f"informational on CI: measured {overhead_pct:+.2f}% "
                f"(limit {OVERHEAD_LIMIT_PCT}%)"
            )
        return
    assert overhead_pct <= OVERHEAD_LIMIT_PCT, (
        f"observability instrumentation costs {overhead_pct:+.2f}% serial "
        f"wall time (limit {OVERHEAD_LIMIT_PCT}%)"
    )


def test_parallel_speedup(campaign_runs):
    cores = os.cpu_count() or 1
    serial, parallel, _instrumented, _bare = campaign_runs
    speedup = serial.wall_time / parallel.wall_time if parallel.wall_time else 0.0
    if cores < SPEEDUP_CORES:
        pytest.skip(
            f"speedup target needs >= {SPEEDUP_CORES} cores, "
            f"machine has {cores} (measured {speedup:.2f}x)"
        )
    if os.environ.get("CI"):
        # Shared CI runners are too noisy for a hard wall-clock gate: a
        # contended VM measuring 1.4x would block unrelated PRs.  Report
        # instead of asserting there; dedicated machines still enforce it.
        if speedup < SPEEDUP_TARGET:
            pytest.skip(
                f"informational on CI: measured {speedup:.2f}x on {cores} cores "
                f"(target {SPEEDUP_TARGET}x)"
            )
        return
    assert speedup >= SPEEDUP_TARGET, (
        f"parallel campaign only {speedup:.2f}x faster than serial "
        f"on {cores} cores (target {SPEEDUP_TARGET}x)"
    )
