"""E1 — Lemma 1: RPQ containment ⟺ language containment.

Renders the ``E1-oracle`` experiment of the ``repro.obs.perf`` registry
(full tier), which defines the workload:

- agreement of the Lemma 1 pipeline with a brute-force language oracle
  on exhaustive small and random larger regex pairs (must be 100%), and
- runtime of the pipeline as regex depth grows (the PSPACE machinery's
  practical cost on benign instances).
"""


def test_e01_agreement_with_oracle(benchmark, report, full_experiment):
    exact = full_experiment(benchmark, "E1-oracle")["exact"]
    report(
        "E1",
        "Lemma 1 pipeline vs brute-force oracle",
        ["pairs", "consistent", "inconsistent", "containments found"],
        [[exact["pairs"], exact["consistent"], exact["inconsistent"],
          exact["containments"]]],
        note="inconsistent must be 0 (Lemma 1 exactness)",
    )
    assert exact["inconsistent"] == 0


def test_e01_scaling_with_depth(benchmark, report, full_experiment):
    entry = full_experiment(benchmark, "E1-oracle")
    rows = []
    for depth, pairs, holds in entry["exact"]["depth_sweep"]:
        best_ms = entry["timings"][f"rpq-containment-depth{depth}"]["best_ms"]
        rows.append([depth, f"{best_ms / pairs:.2f}", f"{holds}/{pairs}"])
    report(
        "E1",
        "containment cost vs regex depth (best of 3)",
        ["regex depth", "ms/check", "holds"],
        rows,
        note="worst case is PSPACE; random instances stay in the milliseconds",
    )
