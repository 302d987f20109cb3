"""Process accounting read from ``/proc``: CPU seconds, peak RSS, children.

The service workload's fleet runs in worker processes the benchmark did not
create itself (the campaign service spawns them), so they are found as the
children of this process and read from outside.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

_TICK = os.sysconf("SC_CLK_TCK")


def children() -> list[int]:
    """Direct child process ids of this process (any of its threads)."""
    root = Path(f"/proc/{os.getpid()}/task")
    found: list[int] = []
    for task in root.iterdir():
        try:
            found.extend(int(p) for p in (task / "children").read_text().split())
        except OSError:
            continue
    return sorted(set(found))


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of ``pid``; 0 once it has exited."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB; 0 if unreadable."""
    try:
        status = Path(f"/proc/{pid or os.getpid()}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


class CpuMeter:
    """CPU seconds of this process plus a fixed set of worker processes."""

    def __init__(self, workers: list[int] | tuple[int, ...] = ()) -> None:
        self.workers = tuple(workers)

    def read(self) -> float:
        return time.process_time() + sum(cpu_seconds(pid) for pid in self.workers)
