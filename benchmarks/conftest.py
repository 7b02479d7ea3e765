"""Shared infrastructure for the experiment benchmarks (E1-E12).

Each experiment prints the rows/series DESIGN.md's experiment index
names.  Every ``report(...)`` call emits twice from the one row source:

- ``benchmarks/results/<experiment>.txt`` — the human table quoted in
  EXPERIMENTS.md (also echoed in the end-of-run summary), and
- ``benchmarks/results/<experiment>.json`` — the same rows as a JSON
  list of ``{experiment, title, headers, rows, note}`` objects, the
  machine-readable feed for the performance observatory
  (``repro bench`` / ``BENCH_<runid>.json``; see DESIGN.md §7).
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Iterable, Sequence

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# Benchmarks gate answers against the naive oracles the test suite uses
# (``tests/reference_oracles.py``, imported as ``reference_oracles``).
sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "tests"))


def _format_table(
    title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [f"\n== {title} =="]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


_SESSION_TABLES: list[str] = []


@pytest.fixture(scope="session")
def report():
    """Emit an experiment table to the results dir (.txt + .json) and
    the end-of-run summary (pytest's capture would swallow mid-test
    prints)."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def emit(
        experiment: str,
        title: str,
        headers: Sequence[str],
        rows: Iterable[Sequence[object]],
        note: str = "",
    ) -> None:
        materialized = [list(row) for row in rows]  # generators: consume once
        text = _format_table(f"{experiment}: {title}", headers, materialized)
        if note:
            text += f"   note: {note}\n"
        _SESSION_TABLES.append(text)
        out = RESULTS_DIR / f"{experiment.lower()}.txt"
        with out.open("a") as handle:
            handle.write(text)
        json_out = RESULTS_DIR / f"{experiment.lower()}.json"
        tables = (
            json.loads(json_out.read_text()) if json_out.exists() else []
        )
        tables.append(
            {
                "experiment": experiment,
                "title": title,
                "headers": list(headers),
                "rows": materialized,
                "note": note,
            }
        )
        json_out.write_text(
            json.dumps(tables, indent=2, default=str) + "\n"
        )

    # Fresh results per session.
    for stale in RESULTS_DIR.glob("*.txt"):
        stale.unlink()
    for stale in RESULTS_DIR.glob("*.json"):
        stale.unlink()
    return emit


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print every experiment table after capture has been released."""
    if not _SESSION_TABLES:
        return
    terminalreporter.section("experiment tables (also in benchmarks/results/)")
    for text in _SESSION_TABLES:
        terminalreporter.write(text)


@pytest.fixture(scope="session")
def once_benchmark():
    """Helper: run a callable exactly once under pytest-benchmark timing.

    Experiments that sweep a parameter time each point themselves (via
    time.perf_counter inside the table builder); the pytest-benchmark
    fixture is still exercised so ``--benchmark-only`` collects the test.
    """

    def run(benchmark, fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return run
