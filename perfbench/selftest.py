"""The benchmark's own tests.

Run with ``python3 -m pytest -q perfbench/selftest.py``.  The file name does
not match ``test_*.py``, so the tier-1 run does not collect it; the smoke
runs fly real flights and take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from tracer import Tracer, attribute_state, same_state, self_times  # noqa: E402


def spans(*rows: tuple[float, float, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    start, end, parent = zip(*rows)
    return np.array(start), np.array(end), np.array(parent)


# -- self-time arithmetic -----------------------------------------------------------


def test_nested_children():
    # root [0, 10] > a [1, 6] > b [2, 4]
    own = self_times(*spans((0, 10, -1), (1, 6, 0), (2, 4, 1)))
    assert own.tolist() == [5.0, 3.0, 2.0]


def test_sibling_children():
    own = self_times(*spans((0, 10, -1), (1, 3, 0), (3, 7, 0), (8, 9, 0)))
    assert own.tolist() == [3.0, 2.0, 4.0, 1.0]


def test_zero_length_children():
    own = self_times(*spans((0, 4, -1), (1, 1, 0), (2, 2, 0), (2, 3, 0)))
    assert own.tolist() == [3.0, 0.0, 0.0, 1.0]


def test_overlapping_and_protruding_children_count_once():
    # Siblings overlap on [3, 4]; the last one runs past its parent's end.
    own = self_times(*spans((0, 10, -1), (2, 4, 0), (3, 5, 0), (9, 12, 0)))
    assert own[0] == pytest.approx(10 - 3 - 1)


def test_overlapping_random_children_match_a_unit_grid_reference():
    # Integer endpoints let a set of covered unit cells serve as reference.
    rng = np.random.default_rng(7)
    rows = [(0, 100, -1)]
    for _ in range(200):
        parent = int(rng.integers(len(rows)))
        lo, hi = rows[parent][:2]
        a, b = sorted(int(x) for x in rng.integers(lo, hi + 1, size=2))
        rows.append((a, b, parent))
    own = self_times(*spans(*rows))
    for index, (lo, hi, _) in enumerate(rows):
        cells = set(range(lo, hi))
        for child_lo, child_hi, parent in rows:
            if parent == index:
                cells -= set(range(child_lo, child_hi))
        assert own[index] == len(cells)


def test_self_times_sum_exactly_for_a_call_stack():
    rows = [(0.0, 10.0, -1), (1.0, 4.0, 0), (1.5, 2.0, 1), (2.0, 2.0, 1), (5.0, 9.0, 0)]
    own = self_times(*spans(*rows))
    assert own.sum() == pytest.approx(10.0)


# -- wrapping -------------------------------------------------------------------------


def short_flight():
    from repro.sim import FlightScenario

    return FlightScenario.figure7(attack_start=0.05, duration=0.1)


def test_wrapped_attributes_are_restored_identically():
    from repro.sim import run_scenario
    from repro.sensors.imu import Imu

    tracer = Tracer()
    before = attribute_state(tracer.targets)
    assert "sample_now" not in vars(Imu)
    tracer.install()
    assert "sample_now" in vars(Imu)
    assert not same_state(before, attribute_state(tracer.targets))
    with tracer.op_span(0):
        run_scenario(short_flight())
    tracer.restore()
    assert same_state(before, attribute_state(tracer.targets))
    assert "sample_now" not in vars(Imu)
    assert not tracer.installed


def test_traced_op_self_times_add_up():
    from repro.sim import run_scenario

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op_span(3):
            run_scenario(short_flight())
    finally:
        tracer.restore()
    row = tracer.per_op()[3]
    assert row["rtos.advance.calls"] == 100
    assert row["dynamics.step.calls"] == 100
    self_sum = sum(v for k, v in row.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(row["op.wall_s"], rel=1e-9)
    assert tracer.counts[3]["network.drops"] >= 0


def test_module_functions_are_wrapped_at_every_binding():
    import repro.sim.batch as batch
    import repro.sim.batch.core as core

    original = core.run_batch
    tracer = Tracer()
    tracer.install()
    try:
        assert batch.run_batch is core.run_batch
        assert core.run_batch is not original
    finally:
        tracer.restore()
    assert batch.run_batch is original and core.run_batch is original


# -- end to end -----------------------------------------------------------------------


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", ["scalar_figs", "batch_grid", "service_store"])
def test_smoke_run(workload):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {
        "cells_per_s", "op_s.p50", "cpu_per_cell_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_reports_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = run_bench("--workload", "scalar_figs", "--seed", "3", "--seconds", "0",
                     "--smoke", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stderr
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["dynamics.step.calls"]["value"] == 5000


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "scalar_figs", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
