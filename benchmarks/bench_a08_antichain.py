"""A8 — antichain containment kernel vs the plain subset-search baseline.

Renders the ``antichain-ablation`` experiment of the ``repro.obs.perf``
registry (full tier), which defines the workloads: the ``(a|b)* a
(a|b)^n`` blow-up family, where the subset kernel's configurations grow
~2^n and the antichain frontier ~n, and random pairs without blow-up,
where the simulation preprocessing is pure overhead.  Both kernels must
agree on verdicts and witness lengths; EXPERIMENTS.md A8 has the story.
"""


def _best_ms(entry, name: str) -> float:
    return entry["timings"][name]["best_ms"]


def test_a8_blowup_family(benchmark, report, full_experiment):
    """Blow-up family: subset vs antichain kernel, verdicts cross-checked."""
    entry = full_experiment(benchmark, "antichain-ablation")
    exact = entry["exact"]
    frontier = exact["frontier"]
    assert exact["disagreements"] == 0
    assert exact["blowup_agreements"] == len(frontier)
    largest = frontier[-1][0]
    rows, speedups = [], []
    for n, subset_configs, antichain_configs, _, hits in frontier:
        label = "" if n == largest else f"-n{n}"
        subset_ms = _best_ms(entry, f"blowup-subset{label}")
        antichain_ms = _best_ms(entry, f"blowup-antichain{label}")
        speedups.append(subset_ms / antichain_ms)
        rows.append(
            [
                n,
                subset_configs,
                antichain_configs,
                hits,
                f"{subset_ms:.2f}",
                f"{antichain_ms:.2f}",
                f"{speedups[-1]:.1f}x",
            ]
        )
    report(
        "A8",
        "blow-up family (a|b)* a (a|b)^n: subset vs antichain kernel (best of 3)",
        [
            "n",
            "subset configs",
            "antichain configs",
            "subsumption hits",
            "subset ms",
            "antichain ms",
            "speedup",
        ],
        rows,
        note="verdicts identical, witnesses equal-length and verified on both arms; "
        "configs grow ~2^n on the subset arm, ~n on the antichain arm",
    )
    # Acceptance target: >= 2x on at least one blow-up point (in
    # practice every point past n=6 clears it by a wide margin)...
    assert max(speedups) >= 2.0
    assert speedups[-1] >= 2.0  # ...and specifically on the largest point


def test_a8_random_pairs_no_regression(benchmark, report, full_experiment):
    """Random pairs: antichain must absorb its preprocessing."""
    entry = full_experiment(benchmark, "antichain-ablation")
    rows, ratios = [], []
    for depth, pairs, agreements in entry["exact"]["random_sweep"]:
        assert agreements == pairs
        subset_ms = _best_ms(entry, f"random-d{depth}-subset")
        antichain_ms = _best_ms(entry, f"random-d{depth}-antichain")
        ratios.append(antichain_ms / subset_ms)
        rows.append(
            [
                depth,
                f"{subset_ms / pairs:.3f}",
                f"{antichain_ms / pairs:.3f}",
                f"{ratios[-1]:.2f}",
            ]
        )
    report(
        "A8",
        "random regex pairs: antichain overhead on non-blow-up instances "
        "(20 pairs/depth, best of 3)",
        ["regex depth", "subset ms/check", "antichain ms/check", "antichain/subset"],
        rows,
        note="the simulation preprocessing must not dominate when there is "
        "nothing to prune; ratios near 1 are the goal here, not speedups",
    )
    # Soft sanity bound: preprocessing overhead stays within 4x even on
    # tiny instances where the search itself is microseconds.
    assert all(ratio <= 4.0 for ratio in ratios)
