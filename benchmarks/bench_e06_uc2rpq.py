"""E6 — Theorem 6 class: UC2RPQ containment via expansions.

Rows reported:
- the paper's Example 1 containments (triangle vs the 2-rule union),
- expansion-count growth as the length bound rises for an infinite-
  language query (the EXPSPACE shadow: the space grows exponentially,
  which is why the bound parameter exists), and
- runtime per verdict for a small mixed workload.
"""

import time

from repro.budget import Budget
from repro.crpq.containment import uc2rpq_contained
from repro.crpq.expansion import enumerate_expansions
from repro.crpq.syntax import C2RPQ, UC2RPQ, paper_example_1


def test_e06_example1_verdicts(benchmark, report, once_benchmark):
    triangle, union = paper_example_1()

    def run():
        rows = []
        for label, q1, q2 in (
            ("triangle ⊑ union", triangle, union),
            ("union ⊑ triangle", union, triangle),
            ("union ⊑ union", union, union),
        ):
            start = time.perf_counter()
            result = uc2rpq_contained(q1, q2)
            rows.append(
                [
                    label,
                    result.verdict.value,
                    result.details.get("expansions_checked", "-"),
                    f"{(time.perf_counter() - start) * 1000:.1f}",
                ]
            )
        return rows

    rows = once_benchmark(benchmark, run)
    report(
        "E6",
        "Example 1 (paper) containment verdicts",
        ["instance", "verdict", "expansions", "ms"],
        rows,
        note="finite atom languages: all verdicts exact",
    )
    assert rows[0][1] == "holds" and rows[1][1] == "refuted"


def test_e06_expansion_growth(benchmark, report, once_benchmark):
    query = C2RPQ.from_strings(
        "x,z", [("(a|b)*", "x", "y"), ("a+", "y", "z")]
    )

    def run():
        rows = []
        for bound in range(1, 7):
            start = time.perf_counter()
            count = sum(1 for _ in enumerate_expansions(query, bound))
            rows.append([bound, count, f"{(time.perf_counter() - start) * 1000:.1f}"])
        return rows

    rows = once_benchmark(benchmark, run)
    report(
        "E6",
        "expansion-space growth vs total length bound",
        ["length bound", "expansions", "ms to enumerate"],
        rows,
        note="exponential growth: the practical face of EXPSPACE-hardness",
    )
    counts = [row[1] for row in rows]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] > 8 * counts[0]


def test_e06_mixed_workload(benchmark, report, once_benchmark):
    workload = [
        (
            "subpattern",
            C2RPQ.from_strings("x,y", [("a", "x", "y"), ("b", "x", "z")]),
            C2RPQ.from_strings("x,y", [("a", "x", "y")]),
        ),
        (
            "star-vs-plus",
            C2RPQ.from_strings("x,y", [("a+", "x", "y")]),
            C2RPQ.from_strings("x,y", [("a a*", "x", "y")]),
        ),
        (
            "two-way",
            C2RPQ.from_strings("x,y", [("a b-", "x", "y")]),
            C2RPQ.from_strings("x,y", [("a b- b b-", "x", "y")]),
        ),
    ]

    def run():
        rows = []
        for label, q1, q2 in workload:
            start = time.perf_counter()
            result = uc2rpq_contained(q1, q2, budget=Budget(max_total_length=5))
            rows.append(
                [label, result.verdict.value, f"{(time.perf_counter() - start) * 1000:.1f}"]
            )
        return rows

    rows = once_benchmark(benchmark, run)
    report(
        "E6",
        "mixed UC2RPQ workload",
        ["instance", "verdict", "ms"],
        rows,
    )
