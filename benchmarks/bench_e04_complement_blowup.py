"""E4 — Lemma 4: single-exponential 2NFA complementation.

Series: 2NFA size n -> reachable states of (a) Lemma 4's complement NFA
and (b) the classical convert-then-complement baseline (Shepherdson
determinization, whose complement is free but whose table space is
2^{n + n^2}-shaped).  The shape claim: both are exponential, Lemma 4's
exponent is linear in n and the measured sizes stay far below the naive
doubly-exponential 2^{2^n} a convert-to-NFA-then-subset pipeline costs.
"""

import time

from repro.automata.alphabet import Alphabet
from repro.automata.complement import complement_two_nfa, lemma4_state_bound
from repro.automata.dfa import reduce_nfa
from repro.automata.fold import fold_two_nfa
from repro.automata.regex import parse_regex
from repro.automata.shepherdson import two_nfa_to_dfa
from repro.budget import Budget

# Folds of word queries give a graded family of well-behaved 2NFAs.
# (One more letter roughly squares the reachable complement: the family
# stops where a laptop run stops being interactive.)
FAMILY = ["p", "p p", "p p-", "p? p", "p p- p"]


def test_e04_complement_sizes(benchmark, report, once_benchmark):
    sigma_pm = Alphabet(("p",)).two_way

    def run():
        rows = []
        for text in FAMILY:
            two = fold_two_nfa(reduce_nfa(parse_regex(text).to_nfa()), sigma_pm)
            n = two.num_states
            start = time.perf_counter()
            lemma4 = complement_two_nfa(two, meter=Budget(max_states=200_000).start())
            lemma4_ms = (time.perf_counter() - start) * 1000
            start = time.perf_counter()
            shepherdson = two_nfa_to_dfa(two, meter=Budget(max_states=200_000).start())
            shepherdson_ms = (time.perf_counter() - start) * 1000
            rows.append(
                [
                    f"fold({text})",
                    n,
                    lemma4.num_states,
                    lemma4_state_bound(two),
                    f"{lemma4_ms:.1f}",
                    shepherdson.num_states,
                    f"{shepherdson_ms:.1f}",
                ]
            )
        return rows

    rows = once_benchmark(benchmark, run)
    report(
        "E4",
        "complementation blow-up: Lemma 4 vs Shepherdson baseline",
        [
            "2NFA",
            "n",
            "Lemma4 states",
            "4^n bound",
            "Lemma4 ms",
            "Shepherdson states",
            "Shepherdson ms",
        ],
        rows,
        note="reachable Lemma4 states stay within 4^n; baseline tables are "
        "far smaller here but the baseline determinizes (no on-the-fly use)",
    )
    for row in rows:
        assert row[2] <= row[3]


def test_e04_growth_shape(benchmark, report, once_benchmark):
    """Lemma 4 reachable size grows with n; log-size roughly linear."""
    sigma_pm = Alphabet(("p",)).two_way

    def run():
        import math

        rows = []
        for text in ("p", "p p", "p p- p"):
            two = fold_two_nfa(reduce_nfa(parse_regex(text).to_nfa()), sigma_pm)
            complement = complement_two_nfa(two, meter=Budget(max_states=200_000).start())
            rows.append(
                [
                    two.num_states,
                    complement.num_states,
                    f"{math.log2(complement.num_states) / two.num_states:.2f}",
                ]
            )
        return rows

    rows = once_benchmark(benchmark, run)
    report(
        "E4",
        "log2(reachable complement states) / n",
        ["n", "states", "log2(states)/n"],
        rows,
        note="bounded by 2 (the 4^n = 2^{2n} exponent), confirming 2^{O(n)}",
    )
