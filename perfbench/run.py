"""Repository benchmark: host cost of the paper's flights and campaigns.

Run one workload from the repository root::

    python3 perfbench/run.py --workload scalar_figs --seed 1 --seconds 25
    python3 perfbench/run.py --workload batch_grid --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --all --seed 1 --seconds 25

``--trace 0`` reports the end-to-end metrics, measured with no wrapper
installed.  ``--trace 1`` flies every op twice -- plain, then under the
layer wrappers of ``tracer.py`` -- and reports the per-layer metrics plus
the tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it are a
human-readable table and a ``context`` record (machine, versions, shape).
See ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Warm-up op indices never collide with timed ones.
WARMUP_K = 1_000_000
#: A round is cut short once this many times ``--seconds`` have passed.
ROUND_CUTOFF = 3.0
#: Allowed gap between an op's summed self times and its traced wall time.
SELF_SUM_TOLERANCE = 0.02

#: Metric names and units, from the benchmark definition.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]


@dataclass
class OpRecord:
    k: int
    inputs: Any
    output: Any
    wall: float
    cpu: float
    cells: int
    traced: bool
    errors: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


def import_program() -> None:
    """Make the checkout's ``src/`` importable; fail if it is missing."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def git_sha() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def context(args: argparse.Namespace, workload: Any, load: list[float]) -> dict[str, Any]:
    import numpy

    return {
        "workload": workload.name,
        "why": next(w["why"] for w in SPEC["workloads"] if w["name"] == workload.name),
        "shape": asdict(workload.shape),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "loadavg_start": load,
    }


class Bench:
    """One run of one workload: set-ups, the timed loop, checks, report."""

    def __init__(self, args: argparse.Namespace) -> None:
        from proc import CpuMeter
        from tracer import Tracer
        from workloads import WORKLOADS

        self.args = args
        self.workload = WORKLOADS[args.workload](args.seed, ROOT, smoke=args.smoke)
        self.tracer = Tracer() if args.trace else None
        self.meter = CpuMeter()
        self.records: list[OpRecord] = []
        self.setup_errors: list[str] = []

    # -- phases -------------------------------------------------------------------

    def set_up(self) -> float:
        """The workload's set-up and one untimed warm-up op (in
        ``service_store`` the store pre-seeding campaign is that op)."""
        start = time.perf_counter()
        self.workload.setup()
        if self.workload.warm_up:
            inputs = self.workload.make_op(WARMUP_K)
            output = self.workload.run_op(inputs)
        seconds = time.perf_counter() - start
        if self.workload.warm_up:
            self.setup_errors += self.workload.check_op(inputs, output)
        return seconds

    def run_op(self, k: int, inputs: Any, traced: bool) -> OpRecord:
        output, errors = None, []
        cpu0 = self.meter.read()
        if traced:
            before = self.workload.probe()
            self.tracer.install()
        start = time.perf_counter()
        try:
            if traced:
                with self.tracer.op_span(k):
                    output = self.workload.run_op(inputs)
            else:
                output = self.workload.run_op(inputs)
        except Exception:
            errors.append(traceback.format_exc().strip().splitlines()[-1])
        finally:
            wall = time.perf_counter() - start
            if traced:
                self.tracer.restore()
        cpu = self.meter.read() - cpu0
        record = OpRecord(k, inputs, output, wall, cpu,
                          self.workload.cells(output) if output is not None else 0,
                          traced, errors)
        if output is not None:
            record.errors += self.workload.check_op(inputs, output)
            if traced:
                after = self.workload.probe()
                record.layers = {key: after[key] - before[key] for key in after}
                record.layers.update(self.workload.layer_counts(output, wall))
        return record

    def timed_phase(self) -> None:
        """Closed loop over whole rounds of ops.  After each round the loop
        stops at whichever round boundary lies nearer to ``--seconds``, so
        every run measures the same mix of ops for about that long."""
        workload, seconds = self.workload, self.args.seconds
        self.meter.workers = tuple(workload.workers())
        begin = time.perf_counter()
        k = 0
        while True:
            round_start = time.perf_counter()
            plain_round = []
            for _ in range(workload.round_ops):
                inputs = workload.make_op(k)
                record = self.run_op(k, inputs, traced=False)
                self.records.append(record)
                plain_round.append(record)
                if self.tracer is not None:
                    self.records.append(self.run_op(k, workload.twin(inputs, k), traced=True))
                k += 1
                if time.perf_counter() - begin >= ROUND_CUTOFF * seconds:
                    break
            else:
                self.attach(workload.check_round(
                    [r for r in plain_round if r.output is not None]))
            now = time.perf_counter()
            if now - begin + (now - round_start) / 2 >= seconds:
                return

    def attach(self, failures: dict[int, list[str]]) -> None:
        for record in self.records:
            if not record.traced and record.k in failures:
                record.errors += failures[record.k]

    def trace_layers(self) -> dict[str, float]:
        """Per-layer metrics: means over the traced ops.  A traced op whose
        self times do not add up to its wall time is marked failed."""
        from tracer import batch_shape

        per_op = self.tracer.per_op()
        rows = []
        for record in (r for r in self.records if r.traced and r.output is not None):
            row = dict(per_op.get(record.k, {}))
            for key, value in self.tracer.counts.get(record.k, {}).items():
                row[key] = row.get(key, 0.0) + value
            row.update(record.layers)
            row["batch.classes"], row["batch.lanes"] = batch_shape(
                self.tracer.batches.get(record.k, ()))
            if row.get("service.client.calls"):
                row["service.wait_s"] = record.wall - row["service.client.self_s"]
            self_sum = sum(v for key, v in row.items() if key.endswith(".self_s"))
            gap = abs(self_sum - record.wall) / record.wall
            if gap > SELF_SUM_TOLERANCE:
                record.errors.append(
                    f"self times sum to {self_sum:.6f} s, traced wall {record.wall:.6f} s")
            rows.append(row)
        layers = {name: statistics.fmean(row.get(name, 0.0) for row in rows) if rows else 0.0
                  for name in PER_LAYER}
        pairs = {r.k: r for r in self.records if not r.traced}
        traced = [r for r in self.records if r.traced and r.k in pairs]
        plain_s = sum(pairs[r.k].wall / max(pairs[r.k].cells, 1) for r in traced)
        traced_s = sum(r.wall / max(r.cells, 1) for r in traced)
        layers["trace.overhead_frac"] = traced_s / plain_s - 1.0 if plain_s else 0.0
        return layers

    def end_to_end(self, setup_s: float, peak_mb: float) -> dict[str, float]:
        plain = [r for r in self.records if not r.traced and r.output is not None]
        if not plain:
            raise RuntimeError("no timed op completed; see CHECK FAILED above")
        walls = [r.wall for r in plain]
        cells = sum(r.cells for r in plain)
        return {
            "cells_per_s": cells / sum(walls),
            "op_s.p50": statistics.median(walls),
            "cpu_per_cell_s": sum(r.cpu for r in plain) / cells,
            "setup_s": setup_s,
            "peak_rss_mb": peak_mb,
        }

    def run(self, import_s: float) -> dict[str, Any]:
        from proc import peak_rss_mb
        from tracer import attribute_state, same_state

        original = attribute_state(self.tracer.targets) if self.tracer else None
        workload = self.workload
        try:
            setup_s = import_s + self.set_up()
            self.timed_phase()
            done = [r for r in self.records if not r.traced and r.output is not None]
            if done:
                self.attach(workload.final_checks(done))
            peak_mb = sum(peak_rss_mb(pid) for pid in workload.workers())
        finally:
            workload.cleanup()
        peak_mb += peak_rss_mb()
        errors = list(self.setup_errors)
        if self.tracer is not None:
            layers = self.trace_layers()
            if not same_state(original, attribute_state(self.tracer.targets)):
                errors.append("a wrapped attribute was not restored")
        failed = [r for r in self.records if r.errors or r.output is None]
        for record in failed:
            errors += [f"op {record.k}{' traced' if record.traced else ''}: {e}"
                       for e in record.errors]
        for error in errors:
            print(f"CHECK FAILED: {error}", file=sys.stderr)
        values = self.end_to_end(setup_s, peak_mb)
        if self.tracer is None:
            metrics = {name: (values[name], END_TO_END[name]) for name in END_TO_END}
        else:
            metrics = {name: (layers[name], PER_LAYER[name]) for name in PER_LAYER}
            out = ROOT / ".perfbench"
            out.mkdir(exist_ok=True)
            path = out / f"spans-{workload.name}-seed{self.args.seed}.npz"
            self.tracer.write(str(path))
            print(f"spans: {path.relative_to(ROOT)} ({len(self.tracer.start)} spans)")
            print_table(values, END_TO_END, "end to end (plain ops of this traced run)")
        plain = [r for r in self.records if not r.traced]
        print_table({k: v for k, (v, _) in metrics.items()},
                    {k: u for k, (_, u) in metrics.items()},
                    f"{workload.name}: {len(plain)} ops "
                    f"(op_s.p50 over n={len(plain)})")
        return {
            "correct": not errors,
            "attempted": len(self.records),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }


def print_table(values: dict[str, float], units: dict[str, str], title: str) -> None:
    print(f"# {title}")
    for name, value in values.items():
        print(f"  {name:<26} {value:>14.6g} {units[name]}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    which.add_argument("--all", action="store_true",
                       help="run every workload in turn, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the timed phase (whole rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small op: a self-test, not a measurement")
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh interpreter, so set-up includes imports."""
    import subprocess

    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        status = max(status, subprocess.run(command, cwd=ROOT).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.all:
        return run_all(args)
    load = [round(v, 2) for v in os.getloadavg()]
    import_program()
    import numpy  # noqa: F401
    import workloads  # noqa: F401  (imports the program)

    import_s = time.perf_counter() - _STARTED
    bench = Bench(args)
    print("context " + json.dumps(context(args, bench.workload, load), sort_keys=True))
    result = bench.run(import_s)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
