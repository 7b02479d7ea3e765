"""A9 — compiled graph snapshots: set-at-a-time evaluation vs the
pre-snapshot path.

Renders the ``evaluation-engine`` experiment of the ``repro.obs.perf``
registry (full tier), which defines the repeated-query and multi-atom
CRPQ membership workloads and their arms: the pre-snapshot arm clears
the evaluation caches per call, the regex cache stays warm on both.
Answers are hard-gated against the naive reference oracles
(``tests/reference_oracles.py``) and both workloads must clear >= 5x;
EXPERIMENTS.md A9 has the story.
"""

from repro.cache import clear_caches
from repro.crpq.evaluation import satisfies_c2rpq
from repro.obs.perf import evaluation_workload

import reference_oracles as reference


def _speedup(entry, workload: str) -> tuple[float, float, float]:
    presnapshot = entry["timings"][f"{workload}-sequential"]["best_ms"]
    snapshot = entry["timings"][f"{workload}-snapshot"]["best_ms"]
    return presnapshot, snapshot, presnapshot / snapshot


def test_a9_repeated_query_workload(benchmark, report, full_experiment):
    """Repeated 2RPQ evaluation: snapshot cache vs per-call recompilation."""
    entry = full_experiment(benchmark, "evaluation-engine")
    work = evaluation_workload("full")
    clear_caches()
    assert [query.evaluate(work.db) for query in work.queries] == [
        reference.answers(query.regex.to_nfa(), work.db) for query in work.queries
    ]
    assert entry["exact"]["disagreements"] == 0
    presnapshot_ms, snapshot_ms, speedup = _speedup(entry, "repeated-query")
    report(
        "A9",
        f"repeated-query workload: {len(work.queries)} 2RPQs x {work.rounds} "
        f"rounds on a {len(work.db.nodes_in_order())}-node graph (best of 3)",
        ["evaluate() calls", "pre-snapshot ms", "snapshot ms", "speedup"],
        [
            [
                work.rounds * len(work.queries),
                f"{presnapshot_ms:.2f}",
                f"{snapshot_ms:.2f}",
                f"{speedup:.1f}x",
            ]
        ],
        note="pre-snapshot arm clears evaluation caches per call (old cost "
        "structure); regex->NFA cache warm on both arms; answers hard-gated "
        "against the naive reference BFS",
    )
    assert speedup >= 5.0  # acceptance target


def test_a9_multi_atom_crpq_workload(benchmark, report, full_experiment):
    """CRPQ membership hot loop: per-snapshot instantiation vs per-test."""
    entry = full_experiment(benchmark, "evaluation-engine")
    work = evaluation_workload("full")
    clear_caches()
    expected = reference.crpq_answers(work.crpq, work.crpq_db)
    assert [
        satisfies_c2rpq(work.crpq, work.crpq_db, head) for head in work.heads
    ] == [head in expected for head in work.heads]
    presnapshot_ms, snapshot_ms, speedup = _speedup(entry, "multi-atom-crpq")
    report(
        "A9",
        f"multi-atom CRPQ membership: {len(work.crpq.atoms)} distinct regular "
        f"atoms, {len(work.heads)} heads on a "
        f"{len(work.crpq_db.nodes_in_order())}-node graph (best of 3)",
        ["membership tests", "per-test instantiate ms", "per-snapshot ms", "speedup"],
        [
            [
                len(work.heads),
                f"{presnapshot_ms:.2f}",
                f"{snapshot_ms:.2f}",
                f"{speedup:.1f}x",
            ]
        ],
        note="satisfies_c2rpq is the hot loop of expansion-based containment; "
        "atoms materialize once per snapshot on the cached arm, once per "
        "membership test on the pre-snapshot arm",
    )
    assert speedup >= 5.0  # acceptance target
