"""Traced-run launcher: per-layer metrics timed from outside the program.

Timing wrappers are installed on the program's public functions at the
name each caller looks them up by (``repro.core.engine`` imports
``rpq_contained`` by name, so the wrapper goes on
``repro.core.engine.rpq_contained``).  Spans (name, start, end, parent,
request id) are kept in memory and written out when the run ends; a
span's self time is its duration minus the time its children cover.

Two ways in:

- ``python3 perfbench/traced.py serve --spans PATH -- <serve args>``
  installs the wrappers and runs ``repro serve`` in this process; the
  span dump is written when the server drains.
- :func:`run` (called by ``run.py --trace 1``) drives a workload: the
  served workloads against the launcher above, ``batch-cold`` in
  process on the thread backend with 1 worker (process workers cannot
  be reached from outside, so its ``executor.*`` figures come from an
  untraced process-backend pass, observed from the parent).

Each run also makes an untraced pass of the same load; the tracing
overhead is the traced end-to-end figure minus the untraced one.
"""

from __future__ import annotations

import functools
import json
import pathlib
import sys
import threading
import time
from typing import Any, Callable

HERE = pathlib.Path(__file__).resolve().parent

#: Functions wrapped, as (module, attribute, span name).
ENGINE_TARGETS = [
    ("repro.core.batch", "check_containment", "engine"),
    ("repro.core.engine", "check_containment", "engine"),
    ("repro.core.engine", "rpq_contained", "kernel"),
    ("repro.core.engine", "two_rpq_contained", "kernel"),
    ("repro.core.engine", "uc2rpq_contained", "expansion"),
    ("repro.core.engine", "rq_contained", "expansion"),
    ("repro.core.engine", "grq_contained", "expansion"),
    ("repro.core.engine", "datalog_in_datalog", "expansion"),
    ("repro.core.engine", "datalog_in_ucq", "expansion"),
    ("repro.core.engine", "ucq_in_datalog", "expansion"),
    ("repro.rpq.rpq", "reduce_nfa", "compile"),
]
SERVE_TARGETS = [
    ("repro.serve.protocol", "parse_frame", "protocol.parse"),
    ("repro.serve.protocol", "response_payload", "protocol.encode"),
    ("repro.serve.protocol", "encode_frame", "protocol.encode"),
    ("repro.core.batch", "_run_one_item", "executor.item"),
]

#: Per-layer figures that cannot be taken from outside the program.
NOT_MEASURABLE = {
    "serve.write": "the socket write after encode_frame has no public function "
    "boundary; it falls into server.unattributed_ms_p50",
    "serve.admission wait": "admission and the executor queue share one access-log "
    "field (queued_ms); server.queued_ms_* covers both",
    "batch-cold worker spans": "process workers run in forkserver children the "
    "benchmark cannot wrap; engine/compile/kernel/expansion figures for batch-cold "
    "come from the same pairs rerun on the thread backend with 1 worker",
}


class Spans:
    """In-memory span log; a thread-local stack links children to parents."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        #: (submitted, done, worker wall_ms, worker, request id) per submit.
        self.hops: list[tuple[float, float, float, str | None, str | None]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            record: dict[str, Any] = {
                "name": name, "parent": stack[-1] if stack else None,
                "rid": getattr(self._local, "rid", None),
                "thread": threading.get_ident(),
            }
            with self._lock:
                record["id"] = len(self.records)
                self.records.append(record)
            stack.append(record["id"])
            if name == "executor.item":
                self._local.rid = args[8] if len(args) > 8 else kwargs.get("request_id")
                record["rid"] = self._local.rid
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                stack.pop()
            _annotate(record, name, args, result)
            return result

        return timed

    def wrap_submit(self, submit: Callable) -> Callable:
        """ContainmentExecutor.submit: submit-to-result minus the worker's wall."""
        spans = self

        @functools.wraps(submit)
        def timed_submit(executor: Any, *args: Any, **kwargs: Any) -> Any:
            submitted = time.perf_counter()
            future = submit(executor, *args, **kwargs)

            def done(f: Any) -> None:
                item = f.result()
                with spans._lock:
                    spans.hops.append((
                        submitted, time.perf_counter(), item.wall_ms, item.worker,
                        item.request_id,
                    ))

            future.add_done_callback(done)
            return future

        return timed_submit

    def install(self, targets: list[tuple[str, str, str]]) -> list[tuple[Any, str, Any]]:
        """Wrap each target in place; returns what :func:`restore` puts back."""
        import importlib

        originals = []
        for module_name, attr, name in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))
        return originals

    def dump(self, path: pathlib.Path) -> None:
        with open(path, "w") as handle:
            for record in self.records:
                handle.write(json.dumps(record, default=str) + "\n")
            for hop in self.hops:
                handle.write(json.dumps({"name": "executor.hop", "hop": hop}) + "\n")


def _annotate(record: dict[str, Any], name: str, args: tuple, result: Any) -> None:
    """Counts the layer already exposes, attached where the work happened."""
    if name == "compile":
        record["states_in"] = len(args[0].states)
        record["states_out"] = len(result.states)
    elif name in ("kernel", "expansion"):
        details = dict(getattr(result, "details", {}) or {})
        kernel = details.get("kernel") or {}
        record["configs"] = kernel.get("configs", 0)
        record["subsumption_hits"] = kernel.get("subsumption_hits", 0)
        record["antichain_peak"] = kernel.get("antichain_peak", 0)
        record["verdict"] = result.verdict.value
    elif name == "protocol.parse":
        record["rid"] = getattr(result, "request_id", None)
    elif name == "protocol.encode":
        payload = args[0] if args and isinstance(args[0], dict) else None
        item = args[1] if len(args) > 1 else None
        record["rid"] = (payload or {}).get("request_id") or getattr(item, "request_id", None)
    elif name == "engine":
        record["cache"] = dict(result.details).get("cache")


# --- analysis -----------------------------------------------------------------


def load_spans(path: pathlib.Path) -> tuple[list[dict], list[tuple]]:
    records, hops = [], []
    for line in path.read_text().splitlines():
        row = json.loads(line)
        if row["name"] == "executor.hop":
            hops.append(tuple(row["hop"]))
        else:
            records.append(row)
    return records, hops


def self_times(records: list[dict]) -> dict[int, float]:
    """Duration minus the union of children's intervals, per span id (ms)."""
    children: dict[int, list[dict]] = {}
    for record in records:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(record)
    out = {}
    for record in records:
        covered, reach = 0.0, record["start"]
        for child in sorted(children.get(record["id"], ()), key=lambda c: c["start"]):
            start, end = max(child["start"], reach), min(child["end"], record["end"])
            if end > start:
                covered += end - start
                reach = end
        out[record["id"]] = (record["end"] - record["start"] - covered) * 1000.0
    return out


def self_time_table(records: list[dict]) -> dict[str, dict[str, float]]:
    selfs = self_times(records)
    table: dict[str, dict[str, float]] = {}
    for record in records:
        row = table.setdefault(record["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += (record["end"] - record["start"]) * 1000.0
        row["self_ms"] += selfs[record["id"]]
    return table


def engine_layers(records: list[dict]) -> dict[str, float]:
    """engine / compile / kernel / expansion metrics from a span log."""
    from stats import percentile

    by_id = {r["id"]: r for r in records}

    def ms(r: dict) -> float:
        return (r["end"] - r["start"]) * 1000.0

    def ancestors(r: dict):
        while r["parent"] is not None:
            r = by_id[r["parent"]]
            yield r

    roots = [r for r in records if r["name"] == "engine"
             and not any(a["name"] == "engine" for a in ancestors(r))]
    engine_ms = sum(ms(r) for r in roots)
    covered_kinds = ("compile", "kernel", "expansion")
    # Top-most covered spans inside an engine call: their union is the
    # attributed part of engine time.
    top = [r for r in records if r["name"] in covered_kinds
           and not any(a["name"] in covered_kinds for a in ancestors(r))
           and any(a["name"] == "engine" for a in ancestors(r))]
    compiles = [r for r in records if r["name"] == "compile"]
    kernels = [r for r in records if r["name"] == "kernel"]
    expansions = [r for r in records if r["name"] == "expansion"
                  and not any(a["name"] == "expansion" for a in ancestors(r))]
    compile_in = {k["id"]: 0.0 for k in kernels}
    for c in compiles:
        for a in ancestors(c):
            if a["id"] in compile_in:
                compile_in[a["id"]] += ms(c)
                break
    configs = sum(k.get("configs", 0) for k in kernels)
    hits = sum(k.get("subsumption_hits", 0) for k in kernels)
    compile_ms = sum(ms(c) for c in compiles)
    check = [ms(r) for r in roots]
    return {
        "engine.check_ms_p50": percentile(check, 50) if check else 0.0,
        "engine.check_ms_p99": percentile(check, 99) if check else 0.0,
        "engine.unattributed_share": (
            (engine_ms - sum(ms(r) for r in top)) / engine_ms if engine_ms else 0.0
        ),
        "compile.ms_total": compile_ms,
        "compile.share": compile_ms / engine_ms if engine_ms else 0.0,
        "compile.calls": float(len(compiles)),
        "compile.states_in": float(sum(c["states_in"] for c in compiles)),
        "compile.states_out": float(sum(c["states_out"] for c in compiles)),
        "kernel.ms_total": sum(ms(k) - compile_in[k["id"]] for k in kernels),
        "kernel.configs": float(configs),
        "kernel.subsumption_ratio": configs / (configs + hits) if configs + hits else 0.0,
        "kernel.antichain_peak_max": float(max((k.get("antichain_peak", 0) for k in kernels), default=0)),
        "expansion.ms_total": sum(ms(e) for e in expansions),
        "expansion.count": float(len(expansions)),
        "expansion.bounded_share": (
            sum(1 for e in expansions if e.get("verdict") == "holds_up_to_bound") / len(expansions)
            if expansions else 0.0
        ),
    }


def cache_layers(before: dict, after: dict) -> dict[str, float]:
    out = {}
    for cache in ("containment", "regex-nfa", "determinize"):
        b, a = before.get(cache, {}), after.get(cache, {})
        hits = a.get("hits", 0) - b.get("hits", 0)
        misses = a.get("misses", 0) - b.get("misses", 0)
        key = cache.replace("-", "_")
        out[f"cache.{key}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out[f"cache.{key}.evictions"] = float(a.get("evictions", 0) - b.get("evictions", 0))
    return out


# --- serve-mode entry point ---------------------------------------------------


def serve_main(argv: list[str]) -> int:
    """``traced.py serve --spans PATH -- <repro serve args>``."""
    spans_path = pathlib.Path(argv[argv.index("--spans") + 1])
    serve_args = argv[argv.index("--") + 1:]
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    spans = Spans()
    spans.install(ENGINE_TARGETS + SERVE_TARGETS)
    from repro.cli import main
    from repro.core.batch import ContainmentExecutor

    ContainmentExecutor.submit = spans.wrap_submit(ContainmentExecutor.submit)

    try:
        return main(serve_args)
    finally:
        spans.dump(spans_path)


if __name__ == "__main__" and len(sys.argv) > 1 and sys.argv[1] == "serve":
    sys.exit(serve_main(sys.argv[2:]))


# --- traced runs ----------------------------------------------------------------


def _zero_layers() -> dict[str, float]:
    """Every per-layer metric, at 0: a layer a workload never runs does no work."""
    import run as runner

    return {m["name"]: 0.0 for m in runner.SPEC["per_layer"]}


def _serve_traced(workload: str, seed: int, seconds: float):
    """Untraced then traced server, same frames at the same rate."""
    import gen
    import workloads as wl
    from oracle import Oracle
    from serveload import open_loop
    from stats import percentile

    hot = gen.hot_set(seed)
    if workload == "serve-hot":
        rate = wl.HOT_RATE
        count = int(rate * seconds * 0.45)
        frames, pairs = wl.hot_frames(seed, hot, count, "base")
    else:
        rate = wl.MIXED_RATE
        count = int(rate * seconds * 0.45)
        frames, pairs, _ = wl.mixed_frames(seed, hot, count)
    metrics = _zero_layers()
    out = wl.WORK / f"trace-{workload}-{seed}"
    out.mkdir(parents=True, exist_ok=True)
    spans_path, access_path = out / "spans.ndjson", out / "access.ndjson"
    access_path.unlink(missing_ok=True)

    server, _ = wl.start_warm_server(hot)
    try:
        untraced = open_loop(server.port, frames, rate)
    finally:
        server.stop()
    launcher = [sys.executable, str(HERE / "traced.py"), "serve", "--spans", str(spans_path), "--"]
    server, _ = wl.start_warm_server(hot, extra=["--access-log", str(access_path)], launcher=launcher)
    try:
        before = server.control("metrics")
        traced = open_loop(server.port, frames, rate)
        after = server.control("metrics")
    finally:
        server.stop()
    oracle = Oracle()
    wrong = wl._judge_served(oracle, pairs, untraced, range(count))[1]
    wrong += wl._judge_served(oracle, pairs, traced, range(count))[1]

    records, hops = load_spans(spans_path)
    timed_rids = {f"f{i}" for i in range(count)}
    # Only the timed phase: warm-up requests ("w<k>") and control verbs go.
    in_phase = _phase_filter(records, timed_rids)
    access = [json.loads(line) for line in access_path.read_text().splitlines() if line.strip()]
    access = [a for a in access if a.get("request_id") in timed_rids]

    def us(name: str) -> dict[str, float]:
        by_rid: dict[str, float] = {}
        for r in in_phase:
            if r["name"] == name:
                by_rid[r["rid"]] = by_rid.get(r["rid"], 0.0) + (r["end"] - r["start"]) * 1e6
        return by_rid

    parse_us, encode_us = us("protocol.parse"), us("protocol.encode")
    metrics["protocol.parse_us_p50"] = percentile(list(parse_us.values()), 50)
    metrics["protocol.encode_us_p50"] = percentile(list(encode_us.values()), 50)
    sheds = {}
    for reason in ("queue_full", "deadline", "draining"):
        name = f"serve.shed.{reason}"
        delta = (after["metrics"].get(name, {}).get("value", 0)
                 - before["metrics"].get(name, {}).get("value", 0))
        sheds[reason] = delta
        metrics[f"admission.shed_share.{reason}"] = delta / count
    queued = [a["queued_ms"] for a in access if a.get("queued_ms") is not None]
    execs = [a["exec_ms"] for a in access if a.get("exec_ms") is not None]
    metrics["server.queued_ms_p50"] = percentile(queued, 50)
    metrics["server.queued_ms_p99"] = percentile(queued, 99)
    metrics["server.exec_ms_p50"] = percentile(execs, 50)
    unattributed = []
    for a in access:
        i = int(a["request_id"][1:])
        if traced.received[i] is None or a.get("exec_ms") is None:
            continue
        rtt = (traced.received[i] - traced.sent[i]) * 1000.0
        parts = a.get("queued_ms", 0) + a["exec_ms"] + (
            parse_us.get(a["request_id"], 0) + encode_us.get(a["request_id"], 0)) / 1000.0
        unattributed.append(rtt - parts)
    metrics["server.unattributed_ms_p50"] = percentile(unattributed, 50)
    phase_hops = [h for h in hops if h[4] in timed_rids]
    metrics["executor.hop_ms_p50"] = percentile(
        [(done - sub) * 1000.0 - wall for sub, done, wall, *_ in phase_hops], 50)
    span_s = max(r for r in traced.received if r is not None) - traced.due[0]
    metrics["executor.busy_share"] = sum(h[2] for h in phase_hops) / 1000.0 / (2 * span_s)
    metrics["executor.pool_rebuilds"] = float(
        after["metrics"].get("batch.pool_rebuilds", {}).get("value", 0)
        - before["metrics"].get("batch.pool_rebuilds", {}).get("value", 0))
    metrics.update(engine_layers(in_phase))
    metrics.update(cache_layers(before["cache"], after["cache"]))
    metrics["loadgen.late_ms_p99"] = percentile(traced.late_ms(), 99)
    metrics["trace.overhead_ms_p50"] = (
        percentile(traced.rtt_ms(), 50) - percentile(untraced.rtt_ms(), 50))
    table = self_time_table(in_phase)
    return metrics, table, 2 * count, wrong, {"sheds": sheds, "spans": str(spans_path)}


def _phase_filter(records: list[dict], rids: set[str]) -> list[dict]:
    """Spans of the timed requests and everything nested under them."""
    by_id = {r["id"]: r for r in records}
    keep = []
    for r in records:
        node = r
        while node is not None and node.get("rid") not in rids:
            node = by_id.get(node["parent"]) if node["parent"] is not None else None
        if node is not None:
            keep.append(r)
    return keep


def _batch_traced(seed: int, seconds: float):
    """Process pass (executor + caches), then untraced and traced thread-1 passes."""
    import gen
    import workloads as wl
    from oracle import Oracle
    from repro.cache import cache_stats, clear_caches
    from repro.core.batch import check_containment_many
    from repro.obs.metrics import metrics_snapshot
    from stats import percentile

    metrics = _zero_layers()
    pairs = gen.batch_round(seed, 0, wl.BATCH_SIZE)
    objects = wl.batch_objects(pairs)
    oracle = Oracle()
    check_containment_many(wl.batch_objects(gen.smoke_pairs()[:2]), backend="process", workers=2)

    spans = Spans()
    from repro.core.batch import ContainmentExecutor

    original_submit = ContainmentExecutor.submit
    ContainmentExecutor.submit = spans.wrap_submit(original_submit)
    rebuilds = metrics_snapshot().get("batch.pool_rebuilds", {}).get("value", 0)
    clear_caches()
    before = cache_stats()
    started = time.perf_counter()
    batch = check_containment_many(objects, backend="process", workers=2)
    elapsed = time.perf_counter() - started
    after = cache_stats()
    ContainmentExecutor.submit = original_submit
    wrong = wl.judge_batch(oracle, pairs, objects, batch.items)[1]
    # Per-item hop: the gap between a worker's consecutive completions,
    # minus the check's own wall time (IPC, pickling, telemetry).
    gaps, last_done = [], {}
    for _, done, wall, worker, _ in sorted(spans.hops, key=lambda h: h[1]):
        if worker in last_done:
            gaps.append((done - last_done[worker]) * 1000.0 - wall)
        last_done[worker] = done
    metrics["executor.hop_ms_p50"] = percentile(gaps, 50)
    metrics["executor.busy_share"] = sum(i.wall_ms for i in batch.items) / 1000.0 / (2 * elapsed)
    metrics["executor.pool_rebuilds"] = float(
        metrics_snapshot().get("batch.pool_rebuilds", {}).get("value", 0) - rebuilds)
    metrics.update(cache_layers(before, after))

    # Same pairs in process, thread backend, 1 worker: untraced, then traced.
    subset = max(200, int(len(objects) * min(1.0, seconds / 30.0)))
    clear_caches()
    plain = check_containment_many(objects[:subset], backend="thread", workers=1)
    spans = Spans()
    originals = spans.install(ENGINE_TARGETS)
    clear_caches()
    traced_batch = check_containment_many(objects[:subset], backend="thread", workers=1)
    restore(originals)
    wrong += wl.judge_batch(oracle, pairs[:subset], objects[:subset], traced_batch.items)[1]
    metrics.update(engine_layers(spans.records))
    metrics["trace.overhead_ms_p50"] = (
        percentile([i.wall_ms for i in traced_batch.items], 50)
        - percentile([i.wall_ms for i in plain.items], 50))
    table = self_time_table(spans.records)
    out = wl.WORK / f"trace-batch-cold-{seed}"
    out.mkdir(parents=True, exist_ok=True)
    spans.dump(out / "spans.ndjson")
    attempted = len(objects) + subset
    return metrics, table, attempted, wrong, {"spans": str(out / "spans.ndjson")}


def restore(originals: list[tuple[Any, str, Any]]) -> None:
    for module, attr, original in reversed(originals):
        setattr(module, attr, original)


def run(workload: str, seed: int, seconds: float):
    """One traced run: per-layer metrics, self-time table, overhead."""
    import workloads as wl

    if workload == "batch-cold":
        metrics, table, attempted, wrong, notes = _batch_traced(seed, seconds)
    else:
        metrics, table, attempted, wrong, notes = _serve_traced(workload, seed, seconds)
    rows = sorted(table.items(), key=lambda kv: -kv[1]["self_ms"])
    notes["self_time_ms"] = {
        name: {"count": row["count"], "total": round(row["total_ms"], 3), "self": round(row["self_ms"], 3)}
        for name, row in rows
    }
    notes["not_measurable"] = NOT_MEASURABLE
    table_path = wl.WORK / f"selftime-{workload}-{seed}.json"
    table_path.write_text(json.dumps(notes["self_time_ms"], indent=2))
    return wl.Outcome(metrics, {}, attempted, len(wrong), wrong, notes)
