"""E4 — Lemma 4: single-exponential 2NFA complementation.

Renders the ``E4-complement`` experiment of the ``repro.obs.perf``
registry (full tier): 2NFA size n -> reachable states of (a) Lemma 4's
complement NFA and (b) the classical convert-then-complement baseline
(Shepherdson determinization, whose complement is free but whose table
space is 2^{n + n^2}-shaped).  The shape claim: both are exponential,
Lemma 4's exponent is linear in n and the measured sizes stay far below
the naive doubly-exponential 2^{2^n} a convert-to-NFA-then-subset
pipeline costs.
"""

import math


def test_e04_complement_sizes(benchmark, report, full_experiment):
    entry = full_experiment(benchmark, "E4-complement")
    series = entry["exact"]["series"]
    timed_ms = entry["timings"]["lemma4-complement-largest"]["best_ms"]
    report(
        "E4",
        "complementation blow-up: Lemma 4 vs Shepherdson baseline",
        ["2NFA", "n", "Lemma4 states", "4^n bound", "Shepherdson states"],
        [[f"fold({text})", *rest] for text, *rest in series],
        note="reachable Lemma4 states stay within 4^n; baseline tables are "
        "far smaller here but the baseline determinizes (no on-the-fly use); "
        f"timed workload (largest repeated complement): best {timed_ms:.1f} ms",
    )
    assert all(states <= bound for _, _, states, bound, _ in series)


def test_e04_growth_shape(benchmark, report, full_experiment):
    """Lemma 4 reachable size grows with n; log-size roughly linear."""
    series = full_experiment(benchmark, "E4-complement")["exact"]["series"]
    report(
        "E4",
        "log2(reachable complement states) / n",
        ["2NFA", "n", "states", "log2(states)/n"],
        [
            [f"fold({text})", n, states, f"{math.log2(states) / n:.2f}"]
            for text, n, states, _, _ in series
        ],
        note="bounded by 2 (the 4^n = 2^{2n} exponent), confirming 2^{O(n)}",
    )
