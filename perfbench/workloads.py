"""The three benchmark workloads, untraced (the end-to-end numbers).

Each workload function returns a :class:`Outcome`: the end-to-end
metrics named in ``BENCHMARK.json``, the ungated figures of LAYERS.md
(printed on the report line), and the attempted/failed/wrong counts.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import random
import statistics
import subprocess
import sys
import time
from typing import Any

import gen
from oracle import Oracle
from serveload import Server, closed_loop, contain_frame, ladder, open_loop, saturate
from stats import TreeRssSampler, percentile, windowed_p99

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORK = pathlib.Path(__file__).resolve().parent / ".out"

#: Latency charged to a frame that failed (shed, errored, unanswered or
#: wrong): it misses every latency limit.
FAILED_MS = 30_000.0
#: serve-hot rates (frames/s) and the ladder's p99 limit.
HOT_RATE, HOT_RATE_HI, LADDER_LIMIT_MS, LADDER_RUNG_S = 300.0, 800.0, 25.0, 0.5
#: serve-mixed rate, class shares and the heavy frames' deadline.
MIXED_RATE, NOVEL_SHARE, HEAVY_SHARE, HEAVY_DEADLINE_MS = 200.0, 0.19, 0.01, 50.0
#: serve-mixed p99 windows: 300 frames, so each holds one heavy frame of each n.
MIXED_WINDOW_S = 300 / MIXED_RATE
#: Slack over the server's documented two-stage bound (2 x deadline).
DEADLINE_SLACK_MS = 25.0
#: Pairs per cold batch: each of the 2 workers sees > 1,024 distinct regexes.
BATCH_SIZE = 2400
#: Set-up repetitions per run, spread over the run; setup_s is their median.
SETUPS = 9
#: serve-hot: launches before each phase (base, hi, ladder); the last
#: launch of each serves the phase.  They add up to SETUPS.
HOT_LAUNCHES = (3, 3, 3)
#: serve-hot shares of --seconds: base rate, high rate, all saturation bursts.
HOT_BASE_SHARE, HOT_HI_SHARE, HOT_SAT_SHARE = 0.3, 0.1, 0.5
#: Saturation bursts per phase: one before and one after its open loop.
BURSTS_PER_PHASE = 2
#: Frames prepared for the saturation phase per second (above any rate reached).
SAT_FRAMES_PER_S = 6000


@dataclasses.dataclass
class Outcome:
    metrics: dict[str, float]
    extra: dict[str, float]
    attempted: int
    failed: int
    wrong: list[str]
    notes: dict[str, Any] = dataclasses.field(default_factory=dict)


def _windows(result, indices: list[int], window_s: float = 1.0) -> list[list[float]]:
    """Latencies (failed frames at FAILED_MS) bucketed by due time."""
    if not indices:
        return []
    t0 = result.due[indices[0]]
    buckets: dict[int, list[float]] = {}
    for i in indices:
        buckets.setdefault(int((result.due[i] - t0) / window_s), []).append(_latency(result, i))
    return [buckets[k] for k in sorted(buckets)]


def _latency(result, i: int) -> float:
    response = result.responses[i]
    if response is None or response.get("verdict") == "error" or (
        response.get("method") == "serve-admission"
    ):
        return FAILED_MS
    return (result.received[i] - result.due[i]) * 1000.0


def _judge_served(oracle: Oracle, pairs: list[dict], result, indices) -> tuple[int, list[str]]:
    """Judge every answered frame; returns (failed, wrong descriptions)."""
    from repro.serve.protocol import parse_query_spec

    from repro.core import check_containment

    failed, wrong = 0, []
    for i in indices:
        response = result.responses[i]
        if response is None or response.get("method") == "serve-admission":
            failed += 1
            continue
        pair = pairs[i]
        why = oracle.judge(pair, response["verdict"])
        if why == "unconfirmed":
            # The wire carries no counterexample: fetch the certificate
            # in this process and replay it with the public evaluators.
            queries = (parse_query_spec(pair["left"]), parse_query_spec(pair["right"]))
            certificate = check_containment(*queries).counterexample
            why = oracle.judge(pair, "refuted", certificate, queries) if certificate else (
                "REFUTED over the wire but no counterexample in process"
            )
        if why is not None:
            failed += 1
            wrong.append(f"{pair['id']} {pair['left']} vs {pair['right']}: {response['verdict']} ({why})")
    return failed, wrong


def _exact(responses) -> float:
    answered = [r for r in responses if r is not None]
    exact = sum(1 for r in answered if r.get("verdict") in ("holds", "refuted"))
    return exact / len(answered) if answered else 0.0


def start_warm_server(hot: list[dict], extra=(), launcher=()) -> tuple[Server, float]:
    """Launch, then warm the hot set; returns (server, seconds to ready)."""
    started = time.perf_counter()
    server = Server(WORK, extra=extra, launcher=launcher)
    frames = [contain_frame(p, f"w{k}") for k, p in enumerate(hot)]
    replies = closed_loop(server.port, frames)
    if len(replies) != len(frames):
        server.stop()
        raise RuntimeError("warm-up frames went unanswered")
    return server, time.perf_counter() - started


def warm_server(hot: list[dict], launches: int, setup_times: list[float]) -> Server:
    """*launches* timed launches (appended to *setup_times*); the last stays up."""
    for k in range(launches):
        server, seconds = start_warm_server(hot)
        setup_times.append(seconds)
        if k < launches - 1:
            server.stop()
    return server


def hot_frames(seed: int, hot: list[dict], count: int, tag: str) -> tuple[list[bytes], list[dict]]:
    rng = random.Random(f"{tag}:{seed}")
    weights = gen.skewed_weights(len(hot))
    chosen = rng.choices(hot, weights=weights, k=count)
    return [contain_frame(p, f"f{i}") for i, p in enumerate(chosen)], chosen


def serve_hot(seed: int, seconds: float) -> Outcome:
    """Three phases, each on a freshly launched and warmed server.

    The phases are open loops at the base rate and the high rate (hit
    round trips) and the rate ladder (``max_rate_hz``).  Each phase is
    framed by two saturation bursts, in which every connection keeps
    ``WINDOW`` frames in flight; the gated ``pairs_per_s`` is the median
    burst throughput.  Set-up launches and bursts so sample the whole run.
    """
    hot = gen.hot_set(seed)
    oracle = Oracle()
    setups: list[float] = []
    bursts: list[tuple[Any, list[dict]]] = []
    burst_s = seconds * HOT_SAT_SHARE / (BURSTS_PER_PHASE * len(HOT_LAUNCHES))

    def burst(port: int) -> None:
        frames_b, chosen = hot_frames(
            seed, hot, int(SAT_FRAMES_PER_S * burst_s), f"sat{len(bursts)}"
        )
        bursts.append((saturate(port, frames_b, burst_s), chosen))

    def phase(launches: int, body):
        server = warm_server(hot, launches, setups)
        try:
            burst(server.port)
            out = body(server.port)
            burst(server.port)
            return out, server.peak_rss_mb()
        finally:
            server.stop()

    base_n = int(HOT_RATE * seconds * HOT_BASE_SHARE)
    frames, pairs = hot_frames(seed, hot, base_n, "base")
    base, rss_base = phase(HOT_LAUNCHES[0], lambda port: open_loop(port, frames, HOT_RATE))
    hi_n = int(HOT_RATE_HI * seconds * HOT_HI_SHARE)
    frames_hi, pairs_hi = hot_frames(seed, hot, hi_n, "hi")
    hi, rss_hi = phase(HOT_LAUNCHES[1], lambda port: open_loop(port, frames_hi, HOT_RATE_HI))
    rung_pairs: list[list[dict]] = []

    def make(count: int) -> list[bytes]:
        frames_l, chosen = hot_frames(seed, hot, count, f"ladder{len(rung_pairs)}")
        rung_pairs.append(chosen)
        return frames_l

    (max_rate, rungs, rung_results), rss_ladder = phase(
        HOT_LAUNCHES[2],
        lambda port: ladder(port, make, HOT_RATE_HI, LADDER_RUNG_S, LADDER_LIMIT_MS),
    )
    failed, wrong = _judge_served(oracle, pairs, base, range(base_n))
    failed_hi, wrong_hi = _judge_served(oracle, pairs_hi, hi, range(hi_n))
    for chosen, result in zip(rung_pairs, rung_results):
        # Ladder rungs probe overload: sheds there are expected, but a
        # wrong verdict still fails the run.
        wrong_rung = _judge_served(oracle, chosen, result, range(len(chosen)))[1]
        wrong_hi += wrong_rung
        failed_hi += len(wrong_rung)
    rates, failed_sat, sat_n = [], 0, 0
    for result, chosen in bursts:
        count = len(result.due)
        bad, why = _judge_served(oracle, chosen, result, range(count))
        span_s = max(r for r in result.received if r is not None) - result.due[0]
        rates.append((count - bad) / span_s)
        failed_sat += bad
        sat_n += count
        wrong += why
    latencies = [_latency(base, i) for i in range(base_n)]
    latencies_hi = [_latency(hi, i) for i in range(hi_n)]
    metrics = {
        "setup_s": statistics.median(setups),
        "pairs_per_s": statistics.median(rates),
        "exact_share": _exact(base.responses + [r for b, _ in bursts for r in b.responses]),
        "peak_rss_mb": max(rss_base, rss_hi, rss_ladder),
    }
    extra = {
        "hit_rtt_p50_ms": percentile(latencies, 50),
        "hit_rtt_p99_ms": percentile(latencies, 99),
        "hit_rtt_p50_ms_hi": percentile(latencies_hi, 50),
        "hit_rtt_p99_ms_hi": windowed_p99(_windows(hi, list(range(hi_n)))),
        "max_rate_hz": max_rate,
        "failed_share": (failed + failed_hi + failed_sat) / (base_n + hi_n + sat_n),
        "loadgen.late_ms_p99": percentile(base.late_ms() + hi.late_ms(), 99),
    }
    return Outcome(
        metrics, extra, base_n + hi_n + sat_n, failed + failed_hi + failed_sat,
        wrong + wrong_hi, {"ladder": rungs, "burst_pairs_per_s": [round(r, 1) for r in rates]},
    )


def mixed_frames(seed: int, hot: list[dict], count: int) -> tuple[list[bytes], list[dict], list[str]]:
    """~80% hot hits, ~19% novel RPQ/2RPQ misses, 1% heavy A8 with a deadline.

    Heavy frames are stratified so every run has the same heavy mix:
    one per block of 100 frames at a seeded offset, n cycling 6, 7, 8.
    """
    rng = random.Random(f"mixed:{seed}")
    weights = gen.skewed_weights(len(hot))
    block = round(1 / HEAVY_SHARE)
    heavy_at = {k * block + rng.randrange(block): k for k in range(count // block + 1)}
    frames, pairs, classes = [], [], []
    for i in range(count):
        if i in heavy_at:
            n = (6, 7, 8)[heavy_at[i] % 3]
            pair = dict(gen.a8_pair(n, suffix=f"h{seed}x{i}"), id=f"heavy{i}")
            frames.append(contain_frame(pair, f"f{i}", HEAVY_DEADLINE_MS))
            classes.append("heavy")
        elif rng.random() < NOVEL_SHARE / (1 - HEAVY_SHARE):
            pair = dict(gen.rpq_pair(rng, rng.random() < 0.5, suffix=f"n{seed}x{i}"), id=f"novel{i}")
            frames.append(contain_frame(pair, f"f{i}"))
            classes.append("novel")
        else:
            pair = rng.choices(hot, weights=weights)[0]
            frames.append(contain_frame(pair, f"f{i}"))
            classes.append("hot")
        pairs.append(pair)
    return frames, pairs, classes


def serve_mixed(seed: int, seconds: float) -> Outcome:
    hot = gen.hot_set(seed)
    oracle = Oracle()
    setups: list[float] = []
    server = warm_server(hot, SETUPS, setups)
    try:
        count = int(MIXED_RATE * seconds)
        frames, pairs, classes = mixed_frames(seed, hot, count)
        result = open_loop(server.port, frames, MIXED_RATE)
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    failed, wrong = _judge_served(oracle, pairs, result, range(count))
    every = list(range(count))
    by_class = {c: [i for i in every if classes[i] == c] for c in ("hot", "novel", "heavy")}
    span_s = max(r for r in result.received if r is not None) - result.due[0]
    heavy_ok = [
        i for i in by_class["heavy"]
        if _latency(result, i) <= 2 * HEAVY_DEADLINE_MS + DEADLINE_SLACK_MS
    ]
    hits = [_latency(result, i) for i in by_class["hot"]]
    misses = [_latency(result, i) for i in by_class["novel"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "pairs_per_s": (count - failed) / span_s,
        "exact_share": _exact(result.responses),
        "peak_rss_mb": rss_mb,
    }
    extra = {
        "hit_rtt_p50_ms": percentile(hits, 50),
        "hit_rtt_p99_ms": windowed_p99(_windows(result, by_class["hot"], MIXED_WINDOW_S)),
        "miss_rtt_p50_ms": percentile(misses, 50),
        "miss_rtt_p99_ms": windowed_p99(_windows(result, by_class["novel"], 5.0)),
        "deadline_met_share": len(heavy_ok) / max(1, len(by_class["heavy"])),
        "failed_share": failed / count,
        "loadgen.late_ms_p99": percentile(result.late_ms(), 99),
    }
    notes = {"heavy_frames": len(by_class["heavy"]), "novel_frames": len(by_class["novel"])}
    return Outcome(metrics, extra, count, failed, wrong, notes)


def batch_objects(pairs: list[dict]) -> list[tuple[Any, Any]]:
    from repro.serve.protocol import parse_query_spec

    return [
        (p["left_obj"], p["right_obj"]) if p["family"] == "rq"
        else (parse_query_spec(p["left"]), parse_query_spec(p["right"]))
        for p in pairs
    ]


def judge_batch(oracle: Oracle, pairs, objects, items) -> tuple[int, list[str]]:
    failed, wrong = 0, []
    for pair, queries, item in zip(pairs, objects, items):
        result = item.result
        why = oracle.judge(pair, result.verdict.value, result.counterexample, queries)
        if why is not None:
            failed += 1
            wrong.append(f"{pair['id']} ({pair['family']}): {result.verdict.value} ({why})")
    return failed, wrong


def batch_setup() -> float:
    """Wall of one whole ``repro batch --backend process`` on two tiny pairs."""
    WORK.mkdir(parents=True, exist_ok=True)
    tiny = WORK / "tiny.ndjson"
    tiny.write_text(
        '{"id": "t1", "left": "rpq:s", "right": "rpq:s|t"}\n'
        '{"id": "t2", "left": "rpq:s t", "right": "rpq:s"}\n'
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", "batch", str(tiny), "--backend", "process",
         "--workers", "2"],
        cwd=ROOT, env=env, check=True, capture_output=True, timeout=120,
    )
    return time.perf_counter() - started


def batch_cold(seed: int, seconds: float) -> Outcome:
    """Back-to-back cold batches; one set-up measurement before each round.

    Set-up launches are spread over the run (topped up to ``SETUPS`` at
    the end).  ``peak_rss_mb`` is the batch's own memory: the workers'
    peak plus how far this process grew while a batch ran, not the
    generator's and oracle's data held here between batches.
    """
    from repro.core.batch import check_containment_many

    setups = [batch_setup()]
    # Start this process's fork server outside the timed rounds: a
    # `repro batch` run pays it once, as part of set-up (measured above).
    check_containment_many(batch_objects(gen.smoke_pairs()[:2]), backend="process", workers=2)
    oracle = Oracle()
    walls, item_ms, attempted, failed, wrong, exact = [], [], 0, 0, [], 0
    busy = 0.0
    sampler = TreeRssSampler()
    round_no = 0
    while sum(walls) < seconds or round_no < 2:
        if len(setups) < SETUPS:
            setups.append(batch_setup())
        pairs = gen.batch_round(seed, round_no, BATCH_SIZE)
        objects = batch_objects(pairs)
        with sampler:
            started = time.perf_counter()
            batch = check_containment_many(objects, backend="process", workers=2)
            walls.append(time.perf_counter() - started)
        item_ms += [item.wall_ms for item in batch.items]
        busy += sum(item.wall_ms for item in batch.items)
        attempted += len(pairs)
        exact += sum(1 for item in batch.items if item.result.is_exact)
        bad, why = judge_batch(oracle, pairs, objects, batch.items)
        failed += bad + (len(pairs) - len(batch.items))
        wrong += why
        round_no += 1
    while len(setups) < SETUPS:
        setups.append(batch_setup())
    windows = [item_ms[k:k + 500] for k in range(0, len(item_ms), 500)]
    metrics = {
        "setup_s": statistics.median(setups),
        "pairs_per_s": (attempted - failed) / sum(walls),
        "exact_share": exact / attempted,
        "peak_rss_mb": sampler.peak_kb / 1024.0,
    }
    extra = {
        "verdict_p50_ms": percentile(item_ms, 50),
        "verdict_p99_ms": windowed_p99(windows),
        "failed_share": failed / attempted,
        "executor.busy_share": busy / 1000.0 / (2 * sum(walls)),
        "rounds": round_no,
    }
    return Outcome(metrics, extra, attempted, failed, wrong)


WORKLOADS = {"serve-hot": serve_hot, "batch-cold": batch_cold, "serve-mixed": serve_mixed}
