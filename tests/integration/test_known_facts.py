"""A regression corpus of known containment facts.

Each row is a (query, query, expected) triple whose ground truth is
established by hand (standard theory examples).  The corpus locks the
engine's behavior: a regression in any procedure flips a row.

Expected values: True = must not be refuted; False = must be REFUTED.
"""

import pytest

from repro.budget import Budget
from repro.core.engine import check_containment
from repro.cq.syntax import cq_from_strings
from repro.crpq.syntax import C2RPQ
from repro.datalog.parser import parse_program
from repro.report import Verdict
from repro.rpq.rpq import RPQ, TwoRPQ


def rpq(text):
    return RPQ.parse(text)


def rpq2(text):
    return TwoRPQ.parse(text)


def cq(head, *atoms):
    return cq_from_strings(head, list(atoms))


def c2(head, *atoms):
    return C2RPQ.from_strings(head, [tuple(a) for a in atoms])


CORPUS = [
    # --- RPQ: pure language containment (Lemma 1) -------------------------------
    ("a ⊑ a|b", rpq("a"), rpq("a|b"), True),
    ("a|b ⊑ a", rpq("a|b"), rpq("a"), False),
    ("a a ⊑ a+", rpq("a a"), rpq("a+"), True),
    ("a+ ⊑ a a*", rpq("a+"), rpq("a a*"), True),
    ("a a* ⊑ a+", rpq("a a*"), rpq("a+"), True),
    ("a* ⊑ a+", rpq("a*"), rpq("a+"), False),
    ("(a b)+ a ⊑ a (b a)+", rpq("(a b)+ a"), rpq("a (b a)+"), True),
    ("a b ⊑ b a", rpq("a b"), rpq("b a"), False),
    # --- 2RPQ: folding matters (Lemma 2 / Theorem 5) -----------------------------
    ("p ⊑ p p- p", rpq2("p"), rpq2("p p- p"), True),
    ("p p- p ⊑ p", rpq2("p p- p"), rpq2("p"), False),
    ("p p ⊑ p p- p", rpq2("p p"), rpq2("p p- p"), False),
    ("a ⊑ a a- a a- a", rpq2("a"), rpq2("a a- a a- a"), True),
    ("a b- ⊑ a b- b b-", rpq2("a b-"), rpq2("a b- b b-"), True),
    ("a- ⊑ a- a a-", rpq2("a-"), rpq2("a- a a-"), True),
    ("p p- ⊑ p p", rpq2("p p-"), rpq2("p p"), False),
    # --- CQ: homomorphisms (Chandra-Merlin) --------------------------------------
    (
        "path3 ⊑ two-edges",
        cq("x,w", "E(x,y)", "E(y,z)", "E(z,w)"),
        cq("x,w", "E(x,y)", "E(z,w)"),
        True,
    ),
    (
        "two-edges ⊑ path3",
        cq("x,w", "E(x,y)", "E(z,w)"),
        cq("x,w", "E(x,y)", "E(y,z)", "E(z,w)"),
        False,
    ),
    (
        "hexagon ⊑ triangle is false",
        cq("x", "E(x,a)", "E(a,b)", "E(b,c)", "E(c,d)", "E(d,f)", "E(f,x)"),
        cq("x", "E(x,y)", "E(y,z)", "E(z,x)"),
        False,
    ),
    (
        "triangle ⊑ hexagon (wrap twice)",
        cq("x", "E(x,y)", "E(y,z)", "E(z,x)"),
        cq("x", "E(x,a)", "E(a,b)", "E(b,c)", "E(c,d)", "E(d,f)", "E(f,x)"),
        True,
    ),
    ("self-loop ⊑ edge", cq("x", "E(x,x)"), cq("x", "E(x,y)"), True),
    ("edge ⊑ self-loop", cq("x", "E(x,y)"), cq("x", "E(x,x)"), False),
    # --- UC2RPQ: two paths vs one ------------------------------------------------
    (
        "same-word conj ⊑ single atom",
        c2("x,y", ("a b", "x", "y"), ("a b", "x", "y")),
        c2("x,y", ("a b", "x", "y")),
        True,
    ),
    (
        "conj of different words ⊄ intersection",
        c2("x,y", ("a (b|c)", "x", "y"), ("(a|d) b", "x", "y")),
        c2("x,y", ("a b", "x", "y")),
        False,
    ),
    # --- Datalog / GRQ -----------------------------------------------------------
    (
        "left-linear tc ⊑ right-linear tc",
        parse_program("t(x,y) :- e(x,y). t(x,z) :- t(x,y), e(y,z)."),
        parse_program("t(x,y) :- e(x,y). t(x,z) :- e(x,y), t(y,z)."),
        True,
    ),
    (
        "tc ⊑ bounded 2-hop",
        parse_program("t(x,y) :- e(x,y). t(x,z) :- t(x,y), e(y,z)."),
        parse_program("h(x,y) :- e(x,y). h(x,z) :- e(x,y), e(y,z)."),
        False,
    ),
    (
        "even-chain tc ⊑ tc",
        parse_program("p(x,z) :- e(x,y), e(y,z). p(x,z) :- p(x,y), p(y,z)."),
        parse_program("t(x,y) :- e(x,y). t(x,z) :- t(x,y), e(y,z)."),
        True,
    ),
]


@pytest.mark.parametrize(
    "label,q1,q2,expected", CORPUS, ids=[row[0] for row in CORPUS]
)
def test_known_fact(label, q1, q2, expected):
    result = check_containment(q1, q2, budget=Budget(max_expansions=60))
    if expected:
        assert result.verdict is not Verdict.REFUTED, (label, result.describe())
    else:
        assert result.verdict is Verdict.REFUTED, (label, result.describe())
