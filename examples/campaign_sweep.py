#!/usr/bin/env python3
"""Scenario-campaign sweep: the Figure 5 experiment as a parameter grid.

Instead of flying the paper's single hand-picked memory-DoS experiment, this
example sweeps MemGuard budgets x attack start times x seeds with the
``repro.campaign`` engine, fans the flights out over a process pool, and
reports the crash rate and deviation statistics per grid cell.

Usage::

    python examples/campaign_sweep.py [--duration SECONDS] [--seeds N]
        [--budgets B1,B2,...] [--attack-starts T1,T2,...] [--serial]
        [--backend serial|process-pool|distributed|service] [--workers N]
        [--transport file|http] [--port PORT] [--auth-token TOKEN]
        [--connect-http URL] [--max-workers N] [--store DIR]
        [--record-arrays] [--csv PATH] [--json PATH]

With ``--backend service --connect-http http://host:port`` the flights run
on an already-running campaign-service daemon's worker fleet instead of
locally spawned processes (start one with ``python -m
repro.campaign.service``).
"""

from __future__ import annotations

import argparse

from repro import CampaignRunner, FlightScenario, ScenarioGrid


def _floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=12.0)
    parser.add_argument("--seeds", type=int, default=3,
                        help="number of replicate seeds per grid cell")
    parser.add_argument("--budgets", type=_ints, default=[1000, 3000],
                        help="comma-separated MemGuard budgets [accesses/period]")
    parser.add_argument("--attack-starts", type=_floats, default=[2.0, 4.0],
                        help="comma-separated attack start times [s]")
    policy = parser.add_mutually_exclusive_group()
    policy.add_argument("--serial", action="store_true",
                        help="force serial execution (default: process pool)")
    policy.add_argument("--backend",
                        choices=("serial", "process-pool", "distributed",
                                 "service"),
                        default=None,
                        help="explicit executor backend (distributed spawns "
                             "local worker processes over a file work-queue; "
                             "service submits to a running campaign-service "
                             "daemon, see --connect-http)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes for --backend distributed "
                             "(default: 2)")
    parser.add_argument("--transport", choices=("file", "http"),
                        default="file",
                        help="work-queue transport for --backend distributed: "
                             "a shared directory or the coordinator's HTTP "
                             "server (default: file)")
    parser.add_argument("--port", type=int, default=None,
                        help="fixed coordinator port for the http transport "
                             "(lets an external probe scrape GET /metrics "
                             "and GET /status mid-campaign)")
    parser.add_argument("--auth-token", default=None,
                        help="shared-secret token for the http transport or "
                             "the service backend (default: "
                             "$REPRO_CAMPAIGN_AUTH_TOKEN)")
    parser.add_argument("--connect-http", default=None, metavar="URL",
                        help="campaign-service base URL for --backend "
                             "service (e.g. http://127.0.0.1:8765)")
    parser.add_argument("--max-workers", type=int, default=None,
                        help="autoscale ceiling for --backend distributed: "
                             "grow the fleet up to this many workers on "
                             "backlog, retire idle ones (default: off)")
    parser.add_argument("--store", type=str, default=None,
                        help="cache flights in this result-store directory "
                             "(re-runs fly only changed cells)")
    parser.add_argument("--record-arrays", action="store_true",
                        help="persist trajectory arrays alongside cached "
                             "cells (requires --store)")
    parser.add_argument("--csv", type=str, default=None,
                        help="write per-variant summaries to this CSV file")
    parser.add_argument("--json", type=str, default=None,
                        help="write the full campaign summary to this JSON file")
    args = parser.parse_args()
    if args.record_arrays and not args.store:
        parser.error("--record-arrays requires --store")
    if args.auth_token and args.backend not in ("distributed", "service"):
        parser.error("--auth-token requires --backend distributed or service")
    if args.port is not None and (args.backend != "distributed"
                                  or args.transport == "file"):
        parser.error("--port requires --backend distributed with the "
                     "http transport")
    if (args.connect_http is None) != (args.backend != "service"):
        parser.error("--backend service and --connect-http URL go together")

    base = FlightScenario.figure5(duration=args.duration)
    grid = ScenarioGrid(base, axes={
        "memguard_budget": args.budgets,
        "attack_start": args.attack_starts,
        "seed": list(range(args.seeds)),
    })
    backend = None
    if args.backend is not None:
        from repro.campaign import get_backend

        options = {}
        if args.backend == "distributed":
            options = {"workers": args.workers, "transport": args.transport,
                       "max_workers": args.max_workers,
                       "auth_token": args.auth_token}
            if args.port is not None:
                options["port"] = args.port
        elif args.backend == "service":
            import os

            options = {"url": args.connect_http,
                       "auth_token": args.auth_token
                       or os.environ.get("REPRO_CAMPAIGN_AUTH_TOKEN")
                       or None,
                       "label": "campaign-sweep-example"}
        backend = get_backend(args.backend, **options)
    mode = "serial" if args.serial else "auto"
    label = args.backend or f"{mode} mode"
    print(f"Expanding {base.name}: "
          f"{len(args.budgets)} budgets x {len(args.attack_starts)} attack starts "
          f"x {args.seeds} seeds = {len(grid)} flights ({label})")

    store = None
    if args.store:
        from repro import CampaignStore

        store = CampaignStore(args.store)
    result = CampaignRunner(mode=mode, backend=backend, store=store,
                            record_arrays=args.record_arrays).run(grid)
    if store is not None:
        print(f"Result store {args.store}: {result.cache_hits} cached, "
              f"{result.cache_misses} flown")
    for event in result.scale_events:
        print(f"Autoscaler {event['event']}: {event['workers']} worker(s), "
              f"backlog {event['backlog']} (t={event['elapsed']:.1f}s)")

    print()
    print(result.to_text())
    print()
    print(f"Campaign wall time: {result.wall_time:.1f} s "
          f"({result.wall_time / len(result):.1f} s per flight)")

    telemetry = result.telemetry or {}
    spans = telemetry.get("spans") or {}
    if spans:
        print("Phase timings:")
        for phase, stats in spans.items():
            print(f"  {phase}: {stats['count']}x, "
                  f"total {stats['total_s']:.2f} s, "
                  f"mean {stats['mean_s']:.3f} s")
    store_stats = telemetry.get("store")
    if store_stats is not None:
        print(f"Store: {store_stats['hits']} hits, "
              f"{store_stats['misses']} misses, "
              f"{store_stats['writes']} writes, "
              f"{store_stats['corrupt']} corrupt")
    queue = telemetry.get("queue")
    if queue:
        print(f"Queue: {queue['enqueued']} enqueued, "
              f"peak depth {queue.get('pending_peak', 0)}, "
              f"{queue['lease_reissues']} lease re-issue(s), "
              f"{queue.get('auth_denials', 0)} auth denial(s)")

    for outcome in result.failures():
        print(f"FAILED: {outcome.name}\n{outcome.error}")

    if args.csv:
        rows = result.to_csv(args.csv)
        print(f"Wrote {rows} rows to {args.csv}")
    if args.json:
        result.to_json(args.json)
        print(f"Wrote campaign JSON to {args.json}")


if __name__ == "__main__":
    main()
