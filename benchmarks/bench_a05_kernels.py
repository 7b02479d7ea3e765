"""A5 — containment-cache effectiveness.

Renders the ``engine-cache`` experiment of the ``repro.obs.perf``
registry (full tier): repeated engine checks on the same pairs are
served from the containment cache, with hit/miss counters to prove it
(DESIGN.md "Performance architecture").
"""


def test_a5_containment_cache(benchmark, report, full_experiment):
    """Repeated engine checks on the same pairs are served from cache."""
    entry = full_experiment(benchmark, "engine-cache")
    exact, timings = entry["exact"], entry["timings"]
    pairs = exact["containment_misses"]
    cold, warm = exact["outcomes"][:pairs], exact["outcomes"][pairs:]
    # One cold pass of misses, then whole warm passes of hits that
    # repeat the cold verdicts, with the counters agreeing.
    assert all(cache == "miss" for _, cache in cold)
    assert all(cache == "hit" for _, cache in warm)
    assert len(warm) % pairs == 0
    assert exact["containment_hits"] == len(warm)
    assert [verdict for verdict, _ in warm] == (
        [verdict for verdict, _ in cold] * (len(warm) // pairs)
    )
    cold_ms = timings["engine-cold-pass"]["best_ms"]
    warm_ms = timings["engine-warm-pass"]["best_ms"]
    report(
        "A5",
        "containment cache: cold pass vs cached pass over the same pairs "
        "(best of 3)",
        ["pairs", "cold ms", "cached ms/pass", "hits", "misses", "speedup"],
        [
            [
                pairs,
                f"{cold_ms:.2f}",
                f"{warm_ms:.3f}",
                exact["containment_hits"],
                exact["containment_misses"],
                f"{cold_ms / max(warm_ms, 1e-9):.0f}x",
            ]
        ],
        note="repeat check(Q1, Q2) calls never re-run the decision procedure",
    )
