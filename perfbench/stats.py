"""Small measurement helpers: percentiles and /proc memory readings."""

from __future__ import annotations

import contextlib
import gc
import math
import os
import statistics
import threading
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile with linear interpolation (numpy's default)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def windowed_p99(values_by_window: Sequence[Sequence[float]]) -> float:
    """Median over windows of each window's p99 (a stall hits one window)."""
    return statistics.median(percentile(w, 99) for w in values_by_window if w)


@contextlib.contextmanager
def gc_paused():
    """No cyclic garbage collection in the load generator while it times.

    The generator keeps every phase's frames and replies; a collection
    scanning them mid-phase would steal CPU from the server it loads.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def read_status_kb(pid: int, field: str) -> float:
    """A ``kB`` field of ``/proc/<pid>/status`` (0 when the process is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                kids += [int(x) for x in handle.read().split()]
        except OSError:
            pass
    return kids


def descendants(pid: int) -> list[int]:
    out, stack = [], children(pid)
    while stack:
        child = stack.pop()
        out.append(child)
        stack += children(child)
    return out


#: Seconds between memory samples while a batch runs.
SAMPLE_INTERVAL_S = 0.1


class TreeRssSampler:
    """Peak memory of the batches run inside ``with sampler:`` blocks.

    A sample is Σ ``VmHWM`` of the pool's workers plus how far this
    process's ``VmRSS`` has grown since the block began; the peak is
    kept across blocks.  Worker processes of a forkserver pool are
    grandchildren (children of the fork server); the fork server itself
    is excluded because it serves every pool rather than one batch.
    """

    def __init__(self) -> None:
        self.peak_kb = 0.0
        self._base_kb = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self) -> None:
        me = os.getpid()
        workers = [p for child in children(me) for p in descendants(child)]
        grown = max(0.0, read_status_kb(me, "VmRSS") - self._base_kb)
        total = grown + sum(read_status_kb(p, "VmHWM") for p in workers)
        self.peak_kb = max(self.peak_kb, total)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.sample()

    def __enter__(self) -> "TreeRssSampler":
        self._base_kb = read_status_kb(os.getpid(), "VmRSS")
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.sample()
        self._stop.set()
        self._thread.join(timeout=5)
