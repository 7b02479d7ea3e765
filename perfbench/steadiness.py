"""Steadiness report: run each workload K times and judge the spread.

    python3 perfbench/steadiness.py run --runs 10 --out perfbench/.out/set-a.json
    python3 perfbench/steadiness.py run --runs 5 --workload serve-mixed --out ...
    python3 perfbench/steadiness.py compare set-a.json set-b.json

``run`` executes ``run.py`` once per seed (seeds 1..K, or from
``--first-seed``) with ``--trace 0`` and prints, per workload and
end-to-end metric, the median, the quartiles (``statistics.quantiles``
with n=4) and the spread — the distance between the quartiles as a
share of the median — against the metric's bound.  A spread is steady
when it is below a third of the bound.  The ungated figures a run
prints on its report line are summarised too, without a bound.

``compare`` reads two run sets and prints one row per workload and
metric: both medians and quartiles, the change as a share of the first
median, the first set's own spread, and a verdict (see :func:`compare`).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def one_run(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"] if len(lines) > 1 else {}
    return {
        "seed": seed, "wall_s": time.perf_counter() - started,
        "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()}, "report": report,
    }


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def summarize(runs: dict[str, list[dict]]) -> bool:
    steady = True
    print(f"{'workload':12s} {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}  verdict")
    for workload, rows in runs.items():
        for name, meta in BOUNDS.items():
            values = [r["metrics"][name] for r in rows]
            median, q1, q3, rel = spread(values)
            ok = rel < meta["bound"] / 3
            steady &= ok
            print(f"{workload:12s} {name:28s} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{rel:8.3f} {meta['bound']:6.2f}  {'steady' if ok else 'UNSTEADY'}")
        for name in rows[0]["report"]:
            values = [r["report"][name] for r in rows if name in r["report"]]
            if len(values) >= 2 and statistics.median(values):
                median, q1, q3, rel = spread(values)
                print(f"{workload:12s} {'(' + name + ')':28s} {median:12.4f} {q1:12.4f} "
                      f"{q3:12.4f} {rel:8.3f}       -")
        walls = [r["wall_s"] for r in rows]
        failed = sum(r["failed"] for r in rows)
        print(f"{workload:12s} runs={len(rows)} wall_s median={statistics.median(walls):.1f} "
              f"max={max(walls):.1f} failed={failed} all_correct={all(r['correct'] for r in rows)}")
    return steady


def compare(first: dict[str, list[dict]], second: dict[str, list[dict]]) -> bool:
    """One row per workload and metric, as the choosing-metrics rule reads it.

    ``WORSE``: the second median is worse than the first by more than the
    bound.  ``unresolved``: the first set's own spread is wider than the
    bound.  ``better``: improved by more than the first set's spread.
    ``ok``: neither.  Returns False when any row is ``WORSE``.
    """
    within = True
    print(f"{'workload':12s} {'metric':16s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>8s} {'spread A':>9s} {'bound':>6s}  verdict")
    for workload in first:
        for name, meta in BOUNDS.items():
            a = [r["metrics"][name] for r in first[workload]]
            b = [r["metrics"][name] for r in second.get(workload, [])]
            if len(a) < 2 or len(b) < 2:
                continue
            med_a, q1_a, q3_a, rel_a = spread(a)
            med_b, q1_b, q3_b, _ = spread(b)
            change = (med_b - med_a) / med_a
            worse = change if meta["better"] == "lower" else -change
            if worse > meta["bound"]:
                verdict, within = "WORSE", False
            elif rel_a > meta["bound"]:
                verdict = "unresolved"
            elif -worse > rel_a:
                verdict = "better"
            else:
                verdict = "ok"
            print(f"{workload:12s} {name:16s} {med_a:11.4f} [{q1_a:8.4g}, {q3_a:8.4g}] "
                  f"{med_b:11.4f} [{q1_b:8.4g}, {q3_b:8.4g}] {change:+8.3f} {rel_a:9.3f} "
                  f"{meta['bound']:6.2f}  {verdict}")
    return within


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run_p = sub.add_parser("run")
    run_p.add_argument("--runs", type=int, default=10)
    run_p.add_argument("--first-seed", type=int, default=1)
    run_p.add_argument("--workload", action="append")
    run_p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    run_p.add_argument("--out", type=pathlib.Path, required=True)
    cmp_p = sub.add_parser("compare")
    cmp_p.add_argument("first", type=pathlib.Path)
    cmp_p.add_argument("second", type=pathlib.Path)
    args = parser.parse_args()
    if args.cmd == "compare":
        ok = compare(json.loads(args.first.read_text()), json.loads(args.second.read_text()))
        return 0 if ok else 1
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for k in range(args.runs):
        for workload in workloads:
            row = one_run(workload, args.first_seed + k, args.seconds)
            runs[workload].append(row)
            print(f"# {workload} seed={row['seed']} {row['wall_s']:.1f}s "
                  + " ".join(f"{n}={v:.4g}" for n, v in row["metrics"].items()), flush=True)
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(runs, indent=1))
    return 0 if summarize(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
