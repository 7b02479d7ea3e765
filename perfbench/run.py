"""Benchmark entry point: one seeded workload, one JSON result line.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout (the program is imported from
``src/``).  ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` runs the traced launcher and reports the per-layer
metrics.  A human-readable report goes to stderr; the last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``.  Every
verdict is checked by an independent oracle: a wrong one fails the run
(exit 1, ``"correct": false``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else None


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("serve-hot", "batch-cold", "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if SPEC is None or not (ROOT / "src" / "repro").is_dir():
        print("run.py: no program source (src/repro) or BENCHMARK.json beside the benchmark",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    if args.trace:
        import traced

        outcome = traced.run(args.workload, args.seed, args.seconds)
        units = _units("per_layer")
    else:
        import workloads

        outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
        units = _units("end_to_end")
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
          file=sys.stderr)
    for name in units:
        print(f"#   {name:38s} {outcome.metrics[name]:14.4f} {units[name]}", file=sys.stderr)
    for name, value in outcome.extra.items():
        print(f"#   (report) {name:29s} {value:14.4f}", file=sys.stderr)
    for name, value in outcome.notes.items():
        print(f"#   (note) {name}: {json.dumps(value)}", file=sys.stderr)
    for line in outcome.wrong[:20]:
        print(f"# WRONG {line}", file=sys.stderr)
    correct = not outcome.wrong
    print(json.dumps({"report": outcome.extra, "workload": args.workload, "seed": args.seed}))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    import procs

    if os.environ.get(procs.CHILD_ENV):
        sys.exit(main())
    # Measure in a child and end every process the measurement leaves behind.
    sys.exit(procs.supervise([sys.executable, __file__, *sys.argv[1:]]))
