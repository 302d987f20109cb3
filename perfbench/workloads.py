"""The benchmark's three workloads.

Each workload is a closed loop with one client: the next op is sent only
after the previous one has completed.  Inputs are generated from the run's
``--seed``; the seed picks flight seeds (and, in ``service_store``, which
cells are stored in advance) but never changes a workload's shape.

A workload object exposes:

* ``setup()`` -- build the state ops run against;
* ``make_op(k)`` / ``twin(inputs, k)`` -- inputs of op ``k`` and of its
  traced copy;
* ``run_op(inputs)`` -- the timed call into the program;
* ``check_op`` / ``check_round`` / ``final_checks`` -- output checks; each
  returns ``{op index: [error, ...]}`` (or a list for one op);
* ``cells(output)`` and ``layer_counts(output, wall)`` -- per-op accounting;
* ``probe()`` -- cumulative program-side counters, diffed around traced ops;
* ``cleanup()``.
"""

from __future__ import annotations

import json
import shutil
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.campaign import (
    CampaignRunner,
    GridVariant,
    ScenarioGrid,
    ServiceBackend,
    get_backend,
    trajectory_arrays,
)
from repro.campaign.service import CampaignService
from repro.obs import default_registry
from repro.sim import FlightScenario, run_scenario
from repro.sim.batch import clear_trace_cache, timing_fingerprint
from repro.store import CampaignStore

from proc import children

#: ``repro_span_seconds`` phases diffed around traced ops.
SPAN_PHASES = (
    "batch.trace", "batch.compile", "batch.replay",
    "campaign.lookup", "campaign.execute",
)
#: Work-queue counters scraped from the service's ``GET /metrics``.
QUEUE_COUNTERS = {
    "queue.claims": "repro_queue_claims_total",
    "queue.heartbeats": "repro_queue_heartbeats_total",
    "queue.lease_reissues": "repro_queue_lease_reissues_total",
}


def derived_seed(seed: int, *path: int) -> int:
    """A flight seed drawn from ``--seed`` and a position ``path``."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def span_totals() -> dict[str, float]:
    """Cumulative seconds per instrumented phase in this process."""
    histogram = default_registry().snapshot().get("repro_span_seconds") or {}
    return {
        f"{phase}_s": float(
            (histogram.get(f'{{phase="{phase}"}}') or {}).get("total_s", 0.0)
        )
        for phase in SPAN_PHASES
    }


def same_summary(a: dict[str, Any] | None, b: dict[str, Any] | None) -> bool:
    """Bit-identical summaries (floats compared through their repr)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def campaign_counts(result: Any) -> dict[str, float]:
    """Per-op campaign and store counts of one :class:`CampaignResult`."""
    outcomes = result.outcomes
    store = (result.telemetry or {}).get("store") or {}
    lookups = store.get("hits", 0) + store.get("misses", 0)
    return {
        "campaign.flown": sum(1 for o in outcomes if o.ok and not o.cached),
        "campaign.cached": sum(1 for o in outcomes if o.cached),
        "campaign.failed": sum(1 for o in outcomes if not o.ok),
        "store.hit_ratio": store.get("hits", 0) / lookups if lookups else 0.0,
    }


@dataclass
class Shape:
    """The generated shape of a workload, recorded with every result."""

    flights_per_op: int
    flight_s: float
    timing_classes: int
    width: int
    planned_hit_ratio: float
    notes: dict[str, Any] = field(default_factory=dict)


class Workload:
    name = ""
    #: The timed loop ends only after whole rounds of this many ops.
    round_ops = 1
    #: Whether each set-up ends with an untimed warm-up op.
    warm_up = True

    def __init__(self, seed: int, root: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.root = root
        self.smoke = smoke

    def setup(self) -> None:
        pass

    def twin(self, inputs: Any, k: int) -> Any:
        return inputs

    def check_round(self, records: Sequence[Any]) -> dict[int, list[str]]:
        return {}

    def final_checks(self, records: Sequence[Any]) -> dict[int, list[str]]:
        return {}

    def layer_counts(self, output: Any, wall: float) -> dict[str, float]:
        return {}

    def probe(self) -> dict[str, float]:
        return span_totals()

    def workers(self) -> list[int]:
        return []

    def cleanup(self) -> None:
        """Release everything the run created (called once, at the end)."""


# -- scalar_figs -----------------------------------------------------------------


FAMILIES = ("baseline", "figure4", "figure5", "figure6", "figure7")
SCALAR_FLIGHT_S = 5.0
SCALAR_ATTACK_S = 2.5


def family_scenario(family: str, seed: int) -> FlightScenario:
    if family == "baseline":
        scenario = FlightScenario.baseline(duration=SCALAR_FLIGHT_S)
    elif family == "figure6":
        scenario = FlightScenario.figure6(kill_time=SCALAR_ATTACK_S,
                                          duration=SCALAR_FLIGHT_S)
    else:
        scenario = getattr(FlightScenario, family)(attack_start=SCALAR_ATTACK_S,
                                                  duration=SCALAR_FLIGHT_S)
    return scenario.with_seed(seed)


def same_flight(a: Any, b: Any) -> bool:
    """Two :class:`FlightResult`s with bit-identical recordings and verdicts."""
    left, right = trajectory_arrays(a), trajectory_arrays(b)
    return (
        left.keys() == right.keys()
        and all(np.array_equal(left[key], right[key]) for key in left)
        and repr(a.metrics) == repr(b.metrics)
        and a.violations == b.violations
    )


class ScalarFigs(Workload):
    name = "scalar_figs"

    def __init__(self, seed: int, root: Path, smoke: bool = False) -> None:
        super().__init__(seed, root, smoke)
        self.round_ops = 1 if smoke else len(FAMILIES)
        self.shape = Shape(1, SCALAR_FLIGHT_S, 1, 1, 0.0,
                           {"families": list(FAMILIES), "attack_s": SCALAR_ATTACK_S})

    def make_op(self, k: int) -> tuple[str, FlightScenario]:
        family = FAMILIES[k % len(FAMILIES)]
        return family, family_scenario(family, derived_seed(self.seed, 0, k))

    def run_op(self, inputs: tuple[str, FlightScenario]) -> Any:
        return run_scenario(inputs[1])

    def cells(self, output: Any) -> int:
        return 1

    def check_op(self, inputs: tuple[str, FlightScenario], result: Any) -> list[str]:
        family = inputs[0]
        errors = []
        # figure4 has no crash verdict: the paper's drone crashes, a 5 s
        # flight need not.  Its verdict is checked per round (check_round).
        if result.crashed and family != "figure4":
            errors.append(f"{family}: crashed")
        switched = result.switch_time is not None or result.metrics.switched_to_safety
        if family in ("figure6", "figure7"):
            if result.switch_time is None or result.switch_time <= SCALAR_ATTACK_S:
                errors.append(f"{family}: no switch after the attack "
                              f"(switch_time={result.switch_time})")
        elif switched:
            errors.append(f"{family}: unexpected switch at {result.switch_time}")
        return errors

    def check_round(self, records: Sequence[Any]) -> dict[int, list[str]]:
        by_family = {record.inputs[0]: record for record in records}
        if "figure4" not in by_family or "figure5" not in by_family:
            return {}
        fig4, fig5 = by_family["figure4"], by_family["figure5"]
        if fig4.output.metrics.max_deviation > fig5.output.metrics.max_deviation:
            return {}
        return {fig4.k: [
            f"figure4 deviation {fig4.output.metrics.max_deviation:.3f} m not "
            f"above figure5's {fig5.output.metrics.max_deviation:.3f} m"
        ]}

    def final_checks(self, records: Sequence[Any]) -> dict[int, list[str]]:
        # One flight per run is flown again; the repeat must be bit-identical.
        record = records[self.seed % len(records)]
        if same_flight(record.output, run_scenario(record.inputs[1])):
            return {}
        return {record.k: ["repeat flight is not bit-identical"]}


# -- batch_grid -----------------------------------------------------------------


BATCH_FLIGHT_S = 3.0
BATCH_BUDGETS = (2000, 3000)
BATCH_ATTACKS = (1.0, 2.0)


class BatchGrid(Workload):
    name = "batch_grid"

    def __init__(self, seed: int, root: Path, smoke: bool = False) -> None:
        super().__init__(seed, root, smoke)
        replicas = 1 if smoke else 6
        seeds = [derived_seed(seed, 1, r) for r in range(replicas)]
        self.grid = ScenarioGrid(
            FlightScenario.figure5(duration=BATCH_FLIGHT_S),
            axes={
                "memguard_budget": list(BATCH_BUDGETS),
                "attack_start": list(BATCH_ATTACKS),
                "seed": seeds,
            },
        )
        classes = len(BATCH_BUDGETS) * len(BATCH_ATTACKS)
        self.shape = Shape(classes * replicas, BATCH_FLIGHT_S, classes, replicas, 0.0,
                           {"memguard_budgets": list(BATCH_BUDGETS),
                            "attack_s": list(BATCH_ATTACKS)})
        self.runner = CampaignRunner(backend=get_backend("batch"))
        self._reference: list[Any] | None = None

    def make_op(self, k: int) -> ScenarioGrid:
        return self.grid

    def run_op(self, grid: ScenarioGrid) -> Any:
        # Every ``--backend batch`` invocation starts with a cold trace cache.
        clear_trace_cache()
        return self.runner.run(grid)

    def cells(self, result: Any) -> int:
        return len(result.outcomes)

    def check_op(self, grid: ScenarioGrid, result: Any) -> list[str]:
        errors = [f"{o.name}: {o.error.splitlines()[-1]}" for o in result.outcomes
                  if not o.ok]
        if len(result.outcomes) != self.shape.flights_per_op:
            errors.append(f"{len(result.outcomes)} outcomes, expected "
                          f"{self.shape.flights_per_op}")
        if result.fallback_reason:
            errors.append(f"batch backend fell back: {result.fallback_reason}")
        summaries = [o.summary for o in result.outcomes]
        if self._reference is None:
            self._reference = summaries
        elif not all(map(same_summary, summaries, self._reference)):
            errors.append("summaries differ from an earlier op on the same grid")
        return errors

    def final_checks(self, records: Sequence[Any]) -> dict[int, list[str]]:
        # One lane per timing class against the scalar reference simulator.
        # A campaign summary carries the first violation, not a count, so
        # the violation verdict compared is (rule, time) of the first one.
        record = records[0]
        outcomes = {o.name: o for o in record.output.outcomes}
        firsts: dict[str, GridVariant] = {}
        for variant in self.grid.variants():
            firsts.setdefault(timing_fingerprint(variant.scenario), variant)
        errors = []
        for variant in firsts.values():
            summary = outcomes[variant.name].summary or {}
            scalar = run_scenario(variant.scenario)
            first = scalar.violations[0] if scalar.violations else None
            want = (scalar.crashed, scalar.switch_time,
                    first.rule if first else None, first.time if first else None)
            seen = tuple(summary.get(key) for key in (
                "crashed", "switch_time", "first_violation_rule", "first_violation_time"))
            if seen != want:
                errors.append(f"{variant.name}: batch verdict {seen} != scalar {want}")
        return {record.k: errors} if errors else {}

    def layer_counts(self, result: Any, wall: float) -> dict[str, float]:
        return campaign_counts(result)


# -- service_store ---------------------------------------------------------------


SERVICE_FLIGHT_S = 3.0
SERVICE_ATTACKS = (2.2, 2.4)
SERVICE_WORKERS = 2


class ServiceStore(Workload):
    name = "service_store"
    #: Pre-seeding the store flies cells through the whole op path (runner,
    #: service backend, fleet, store writes with arrays): it is the warm-up.
    warm_up = False

    def __init__(self, seed: int, root: Path, smoke: bool = False) -> None:
        super().__init__(seed, root, smoke)
        self.per_attack = 2 if smoke else 6
        cells = len(SERVICE_ATTACKS) * self.per_attack
        # The seed picks which half of the cells is stored in advance.
        order = np.random.default_rng(derived_seed(seed, 2)).permutation(cells)
        self.stored_positions = frozenset(int(i) for i in order[: cells // 2])
        self.shape = Shape(cells, SERVICE_FLIGHT_S, len(SERVICE_ATTACKS),
                           self.per_attack, 0.5,
                           {"workers": SERVICE_WORKERS, "attack_s": list(SERVICE_ATTACKS),
                            "stored_cells": cells // 2, "new_cells": cells - cells // 2})
        self.base = FlightScenario.figure7(duration=SERVICE_FLIGHT_S)
        self.service: CampaignService | None = None
        self.workdir = root / ".perfbench" / f"service-{seed}"

    def _variant(self, attack: float, seed: int) -> GridVariant:
        scenario = self.base.with_attack_start(attack).with_seed(seed)
        return GridVariant(name=f"fig7/attack_start={attack}/seed={seed}",
                           axes=(("attack_start", attack), ("seed", seed)),
                           scenario=scenario)

    def _cells(self, stream: int, k: int) -> list[GridVariant]:
        variants = []
        for position in range(self.shape.flights_per_op):
            attack = SERVICE_ATTACKS[position // self.per_attack]
            if position in self.stored_positions:
                seed = derived_seed(self.seed, 3, position)
            else:
                seed = derived_seed(self.seed, stream, k, position)
            variants.append(self._variant(attack, seed))
        return variants

    def stored(self) -> list[GridVariant]:
        """The cells every op reads from the store (seeds fixed per run)."""
        return [v for i, v in enumerate(self._cells(5, 0)) if i in self.stored_positions]

    def setup(self) -> None:
        self.service = CampaignService(workers=SERVICE_WORKERS)
        self.runner = CampaignRunner(
            backend=ServiceBackend(self.service.url),
            store=CampaignStore(self.workdir / "store"),
            record_arrays=True,
        )
        preseed = self.runner.run(self.stored())
        bad = [o.name for o in preseed.outcomes if not o.ok or o.cached]
        if bad:
            raise RuntimeError(f"store pre-seeding failed for {bad}")

    def make_op(self, k: int) -> list[GridVariant]:
        return self._cells(5, k)

    def twin(self, inputs: Any, k: int) -> list[GridVariant]:
        # Stored cells stay; the new cells need seeds no op has written yet.
        return self._cells(6, k)

    def run_op(self, variants: list[GridVariant]) -> Any:
        return self.runner.run(variants)

    def cells(self, result: Any) -> int:
        return len(result.outcomes)

    def check_op(self, variants: list[GridVariant], result: Any) -> list[str]:
        errors = [f"{o.name}: {o.error.splitlines()[-1]}" for o in result.outcomes
                  if not o.ok]
        if result.fallback_reason:
            errors.append(f"service backend fell back: {result.fallback_reason}")
        store = (result.telemetry or {}).get("store") or {}
        hits = len(self.stored_positions)
        writes = self.shape.flights_per_op - hits
        if (result.cache_hits, store.get("hits"), store.get("writes")) != (hits, hits, writes):
            errors.append(f"store counts hits={result.cache_hits}/{store.get('hits')} "
                          f"writes={store.get('writes')}, expected {hits} hits and "
                          f"{writes} writes")
        return errors

    def final_checks(self, records: Sequence[Any]) -> dict[int, list[str]]:
        # Per op, one flown cell against a serial in-process re-flight.
        serial = CampaignRunner(mode="serial", telemetry=False)
        failures: dict[int, list[str]] = {}
        for record in records:
            flown = [(v, o) for v, o in zip(record.inputs, record.output.outcomes)
                     if not o.cached]
            if not flown:
                failures[record.k] = ["no flown cell to re-fly"]
                continue
            variant, outcome = flown[record.k % len(flown)]
            again = serial.run([variant]).outcomes[0]
            if not same_summary(outcome.summary, again.summary):
                failures[record.k] = [f"{variant.name}: service summary differs "
                                      "from a serial re-flight"]
        return failures

    def layer_counts(self, result: Any, wall: float) -> dict[str, float]:
        counts = campaign_counts(result)
        busy = sum(o.wall_time for o in result.outcomes if not o.cached)
        counts["service.fleet_busy_frac"] = busy / (wall * SERVICE_WORKERS)
        return counts

    def probe(self) -> dict[str, float]:
        totals = span_totals()
        with urllib.request.urlopen(f"{self.service.url}/metrics", timeout=10) as reply:
            text = reply.read().decode()
        values = {}
        for line in text.splitlines():
            name, _, value = line.partition(" ")
            values[name] = value
        for metric, series in QUEUE_COUNTERS.items():
            totals[metric] = float(values.get(series, 0.0))
        return totals

    def workers(self) -> list[int]:
        return children()

    def cleanup(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (ScalarFigs, BatchGrid, ServiceStore)}
