"""A10 — the process backend as a first-class execution substrate.

Renders the ``process-scaling`` experiment of the ``repro.obs.perf``
registry (full tier), plus the thread arms of ``batch-scaling``:
cross-backend verdict agreement on the E1 pairs and the serving smoke
workload at thread/process x 1/4 workers, crash isolation of a poison
pill, and the multi-core throughput gate (>= 1.5x on >= 2 cores; on one
core a process pool is pure overhead, so that gate is skipped, never
faked).  EXPERIMENTS.md A10 has the story.
"""

import os

import pytest

#: (arm, experiment holding its E1-family agreement and timing, workload)
ARMS = (
    ("thread-1", "batch-scaling", "batch-thread-1worker"),
    ("thread-4", "batch-scaling", "batch-thread-4workers"),
    ("process-1", "process-scaling", "batch-process-1worker"),
    ("process-4", "process-scaling", "batch-process-4workers"),
)


def test_a10_cross_backend_agreement(benchmark, report, full_experiment):
    """Thread and process pools answer exactly like the sequential loop."""
    entries = dict(
        zip(
            ("batch-scaling", "process-scaling"),
            full_experiment(benchmark, "batch-scaling", "process-scaling"),
        )
    )
    workload = entries["process-scaling"]["exact"]["workload"]
    rows = []
    for arm, experiment_id, timing in ARMS:
        exact = entries[experiment_id]["exact"]
        assert exact["agreement"][arm], f"{arm} diverged on E1 pairs"
        assert workload["agreement"][arm], f"{arm} diverged on {workload['file']}"
        rows.append(
            [
                arm,
                exact["pairs"] + workload["pairs"],
                "yes",
                f"{entries[experiment_id]['timings'][timing]['best_ms']:.2f}",
            ]
        )
    report(
        "A10",
        "cross-backend differential oracle: E1 pairs + batch_smoke.ndjson "
        "vs the sequential loop (best of 3, cold caches)",
        ["arm", "pairs checked", "verdicts match", "E1 best ms"],
        rows,
        note="agreement is hard-asserted on every machine; single-core "
        "boxes legitimately show the process arms slower (serialization "
        "overhead, no parallelism to buy it back)",
    )


def test_a10_crash_isolation(benchmark, report, full_experiment):
    """A dying worker costs its own item, never the batch or the pool."""
    crash = full_experiment(benchmark, "process-scaling")["exact"]["crash"]
    report(
        "A10",
        "crash isolation: poison pill (unpickle = os._exit) mid-batch of 5, "
        "2 process workers",
        ["poison is isolated ERROR", "survivors intact", "accepts after crash"],
        [
            [
                "yes" if crash[key] else "no"
                for key in (
                    "poison_is_isolated_error",
                    "survivors_match_sequential",
                    "accepts_after_crash",
                )
            ]
        ],
        note="the poison is retried once in quarantine on a rebuilt pool "
        "(so one crash never condemns an innocent in-flight item), then "
        "resolved as an isolated ERROR",
    )
    assert all(crash.values())


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="process-pool speedup needs >= 2 cores; on one core the pool "
    "is pure overhead and the gate would measure the box, not the code",
)
def test_a10_multicore_speedup(benchmark, report, full_experiment):
    """Process-4 beats the sequential loop >= 1.5x on CPU-bound pairs."""
    entry = full_experiment(benchmark, "process-scaling")
    blowup = entry["exact"]["blowup"]
    assert blowup["agreement"]["process-4"]  # agreement gate, even here
    sequential_ms = entry["timings"]["blowup-sequential"]["best_ms"]
    process_ms = entry["timings"]["blowup-process-4workers"]["best_ms"]
    speedup = sequential_ms / process_ms
    report(
        "A10",
        f"multi-core throughput: {blowup['pairs']} complement-blowup pairs, "
        "sequential vs 4 process workers (best of 3, cold caches)",
        ["pairs", "cores", "sequential ms", "process-4 ms", "speedup"],
        [
            [
                blowup["pairs"],
                os.cpu_count(),
                f"{sequential_ms:.1f}",
                f"{process_ms:.1f}",
                f"{speedup:.2f}x",
            ]
        ],
        note="pairs are (a|b)-window determinization blow-ups (~2^8 states "
        "each) so per-item compute dwarfs pickle + pool startup",
    )
    assert speedup >= 1.5  # acceptance target
