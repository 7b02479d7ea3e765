"""E3 — Lemma 3: the fold 2NFA is small.

Renders the ``E3-fold-size`` experiment of the ``repro.obs.perf``
registry (full tier): NFA states n x alphabet size |Sigma| -> states of
the fold 2NFA, against the paper's bound n(|Sigma±|+1).  The end-marker
construction achieves exactly 2n, independent of the alphabet —
strictly inside the bound for every alphabet.
"""


def test_e03_fold_state_counts(benchmark, report, full_experiment):
    exact = full_experiment(benchmark, "E3-fold-size")["exact"]
    report(
        "E3",
        "fold-2NFA size vs Lemma 3 bound n(|Sigma±|+1)",
        ["|Sigma|", "NFA states n", "fold 2NFA states", "paper bound", "within"],
        [
            [sigma, n, folded, bound, "OK" if folded <= bound else "VIOLATION"]
            for sigma, n, folded, bound in exact["series"]
        ],
        note="marker-based construction gives exactly 2n",
    )
    assert all(folded <= bound for _, _, folded, bound in exact["series"])
    assert all(folded == 2 * n for _, n, folded, _ in exact["series"])
