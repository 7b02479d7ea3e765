"""Seeded input generator for the benchmark workloads.

Everything the program under test receives is built here from the
workload seed: wire frames for the served workloads and query pairs for
the batch workload.  Each generated pair is a plain record

    {"id": str, "left": "kind:spec", "right": "kind:spec",
     "family": str, "truth": "holds" | "refuted" | None}

``family`` tells the oracle (:mod:`oracle`) how to judge a verdict;
``truth`` is set only where it is known by construction (hand labels,
the A8 blow-up family) and is otherwise decided by the oracle itself.

Pairs that must be cache misses are made unique by renaming their
letters (``a``/``b`` become ``a<k>``/``b<k>``), which changes the
canonical cache key without changing the pair's shape or its verdict.
"""

from __future__ import annotations

import json
import pathlib
import random
from typing import Any

from repro.automata.regex import random_regex
from repro.rq.generators import random_rq

HERE = pathlib.Path(__file__).resolve().parent
SMOKE_FILE = HERE.parent / "benchmarks" / "workloads" / "batch_smoke.ndjson"

#: Hand-labelled truth for every frame of ``batch_smoke.ndjson``: whether
#: the containment really holds.  Derived by hand from the queries'
#: semantics (LAYERS.md, "The oracle"), not from any engine run.
#: A procedure may answer a true containment with HOLDS_UP_TO_BOUND;
#: only a verdict contradicting the label is wrong.
SMOKE_TRUTH = {
    "rpq-concat-vs-plus": "holds",      # aa is one word of a+
    "rpq-plus-vs-concat": "refuted",    # the word a
    "rpq-star-absorbs-plus": "holds",
    "rpq-star-vs-plus": "refuted",      # the empty word
    "rpq-union-left": "holds",
    "rpq-union-right": "refuted",       # the word b
    "rpq-optional": "holds",
    "rpq-nested-star": "holds",
    "rpq-two-letter": "holds",
    "rpq-empty-word": "refuted",        # the empty word
    "2rpq-paper-example": "holds",      # p folds onto p p- p (paper §3.2)
    "2rpq-inverse-refuted": "refuted",  # path 0-p->1<-p-2 joins 0,2 only via p p-
    "2rpq-roundtrip": "refuted",        # semipath p p- p p- of length 4 has no p p- shortcut
    "rq-transitive": "holds",           # e+ within e*
    "rq-single-step": "holds",
    "datalog-tc-self": "holds",         # a program is contained in itself
    "datalog-step-in-tc": "holds",
    "datalog-tc-in-step": "refuted",    # a 2-edge path
    "cross-rpq-in-datalog": "holds",    # e e is in the transitive closure of e
    "rpq-letter-disjoint": "refuted",
}

#: E1-style atom regexes (simple atoms dominate real query logs).
ATOMS = ("a", "b", "a b", "a|b", "a*", "a+", "b a", "(a b)*", "a?", "(a|b)*", "b*")


def smoke_pairs() -> list[dict[str, Any]]:
    pairs = []
    for line in SMOKE_FILE.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        family = "smoke-datalog" if "datalog:" in line else "smoke-graph"
        pairs.append(
            {
                "id": "smoke:" + record["id"],
                "left": record["left"],
                "right": record["right"],
                "family": family,
                "truth": SMOKE_TRUTH[record["id"]],
            }
        )
    return pairs


def _rename(spec: str, suffix: str) -> str:
    """Rename the letters ``a``/``b`` of a regex spec to ``a<suffix>``/``b<suffix>``."""
    out = []
    for token in spec.replace("(", " ( ").replace(")", " ) ").replace("|", " | ").split():
        stem = token.rstrip("*+?-")
        tail = token[len(stem):]
        out.append((stem + suffix if stem in ("a", "b") else stem) + tail)
    return " ".join(out)


def rpq_pair(rng: random.Random, two_way: bool, suffix: str = "") -> dict[str, Any]:
    """One random RPQ (or 2RPQ) pair, depth 3-5 over {a, b}."""
    left = str(random_regex(rng, ("a", "b"), rng.randint(3, 5), two_way))
    right = str(random_regex(rng, ("a", "b"), rng.randint(3, 5), two_way))
    if suffix:
        left, right = _rename(left, suffix), _rename(right, suffix)
    family = "rpq2" if "-" in left + right else "rpq1"
    return {"left": "rpq:" + left, "right": "rpq:" + right, "family": family, "truth": None}


def a8_pair(n: int, suffix: str) -> dict[str, Any]:
    """``(x|y)* x (x|y)^n ⊆ (x|y)* y (x|y)^n``: refuted by ``x x^n``."""
    x, y = "x" + suffix, "y" + suffix
    tail = " ".join([f"({x}|{y})"] * n)
    return {
        "left": f"rpq:({x}|{y})* {x} {tail}",
        "right": f"rpq:({x}|{y})* {y} {tail}",
        "family": "a8",
        "truth": "refuted",
    }


def rq_pair(rng: random.Random) -> Any:
    """An equal-arity pair of random RQ terms (objects, not specs)."""
    while True:
        left = random_rq(rng, ("a", "b"), rng.randint(1, 3))
        right = random_rq(rng, ("a", "b"), rng.randint(1, 3))
        if left.arity == right.arity:
            return left, right


def hot_set(seed: int) -> list[dict[str, Any]]:
    """The ~60 distinct hot pairs: the smoke frames plus atom pairs."""
    rng = random.Random(seed)
    atom_pairs = [(x, y) for x in ATOMS for y in ATOMS if x != y]
    rng.shuffle(atom_pairs)
    pairs = smoke_pairs()
    for k, (x, y) in enumerate(sorted(atom_pairs[:40])):
        pairs.append(
            {"id": f"atom:{k}", "left": "rpq:" + x, "right": "rpq:" + y,
             "family": "rpq1", "truth": None}
        )
    return pairs


def skewed_weights(count: int) -> list[float]:
    """Zipf-like popularity (exponent 1.1) over *count* hot-set positions.

    The rank of each position is fixed (not seeded), so every seed sees
    the same popularity of each frame class and per-run figures such as
    ``exact_share`` do not swing with which frame happens to rank first;
    the seed still picks the atom pairs and the draw sequence.
    """
    ranks = list(range(1, count + 1))
    random.Random(0).shuffle(ranks)
    return [1.0 / rank ** 1.1 for rank in ranks]


def batch_round(seed: int, round_no: int, size: int) -> list[dict[str, Any]]:
    """One cold batch: distinct pairs of every family, in seeded order.

    Mix: 45% one-way RPQ, 35% 2RPQ, 10% RQ, the 6 Datalog/RQ smoke
    frames, and an A8 tail (n = 5-7, two of each, fresh letters).
    RPQ/2RPQ letters are drawn from four name pairs so one batch holds
    more distinct regexes than the regex-nfa cache.
    """
    rng = random.Random(f"batch:{seed}:{round_no}")
    pairs: list[dict[str, Any]] = []
    seen: set[tuple[str, str]] = set()
    n_rpq1, n_rpq2, n_rq = int(size * 0.45), int(size * 0.35), int(size * 0.10)
    for count, two_way in ((n_rpq1, False), (n_rpq2, True)):
        made = 0
        while made < count:
            pair = rpq_pair(rng, two_way, suffix=str(rng.randrange(4)))
            key = (pair["left"], pair["right"])
            if key in seen:
                continue
            seen.add(key)
            pairs.append(pair)
            made += 1
    for _ in range(n_rq):
        left, right = rq_pair(rng)
        pairs.append({"left_obj": left, "right_obj": right, "family": "rq", "truth": None})
    pairs += [p for p in smoke_pairs() if p["family"] == "smoke-datalog" or p["left"].startswith("rq:")]
    for n in (5, 5, 6, 6, 7, 7):
        pairs.append(a8_pair(n, suffix=f"r{round_no}n{n}{len(pairs)}"))
    rng.shuffle(pairs)
    for k, pair in enumerate(pairs):
        pair["id"] = f"b{round_no}:{k}"
    return pairs
