"""Integration tests: every lemma, theorem and worked example of the paper.

One test (class) per claim, cross-referenced to the section that states
it.  These are the executable counterpart of EXPERIMENTS.md.
"""

import itertools

import pytest

from repro.automata.alphabet import Alphabet
from repro.automata.complement import complement_two_nfa, lemma4_state_bound
from repro.automata.dfa import nfa_contains, reduce_nfa
from repro.automata.fold import fold_two_nfa, folds_onto, lemma3_state_bound
from repro.automata.regex import parse_regex
from repro.budget import Budget
from repro.core.engine import check_containment
from repro.core.witness import verify_counterexample
from repro.cq.containment import cq_contained
from repro.cq.syntax import cq_from_strings
from repro.crpq.containment import uc2rpq_contained
from repro.crpq.evaluation import evaluate_uc2rpq
from repro.crpq.syntax import C2RPQ, paper_example_1
from repro.datalog.analysis import is_monadic, is_nonrecursive
from repro.datalog.containment import datalog_in_datalog
from repro.datalog.evaluation import bounded_evaluate, evaluate
from repro.datalog.parser import parse_program
from repro.datalog.syntax import reachability_program, transitive_closure_program
from repro.datalog.unfolding import unfold_nonrecursive
from repro.graphdb.database import GraphDatabase
from repro.graphdb.generators import cycle_graph, random_graph
from repro.grq.containment import grq_contained
from repro.grq.membership import is_grq
from repro.relational.generators import chain_instance, random_instance
from repro.relational.instance import graph_to_instance
from repro.report import Verdict
from repro.rpq.containment import rpq_contained, two_rpq_contained
from repro.rpq.rpq import RPQ, TwoRPQ
from repro.rq.containment import rq_contained
from repro.rq.evaluation import evaluate_rq
from repro.rq.syntax import TransitiveClosure, edge, triangle_plus, triangle_query
from repro.rq.to_datalog import rq_to_datalog


class TestSection2_ChandraMerlin:
    """[18]: CQ containment is decidable via homomorphisms."""

    def test_known_containments(self):
        p3 = cq_from_strings("x,w", ["E(x,y)", "E(y,z)", "E(z,w)"])
        has_edge = cq_from_strings("x,w", ["E(x,y)", "E(z,w)"])
        assert cq_contained(p3, has_edge)
        assert not cq_contained(has_edge, p3)


class TestSection2_NonrecursiveDatalogIsUCQ:
    """Section 2.2: a nonrecursive program equals a finite UCQ."""

    def test_semantic_equality_on_random_instances(self):
        program = parse_program(
            """
            q(x) :- a(x, y), helper(y).
            helper(y) :- b(y).
            helper(y) :- a(y, z), b(z).
            """,
            goal="q",
        )
        assert is_nonrecursive(program)
        ucq = unfold_nonrecursive(program)
        from repro.cq.evaluation import evaluate_ucq

        for seed in range(5):
            db = random_instance({"a": 2, "b": 1}, 5, 8, seed=seed)
            assert frozenset(evaluate(program, db)) == evaluate_ucq(ucq, db)


class TestSection2_DatalogSemantics:
    """Section 2.2: P^inf(D) = U_i P^i(D)."""

    def test_union_of_stages(self):
        tc = transitive_closure_program("edge", "tc")
        db = chain_instance(6)
        stages = [bounded_evaluate(tc, db, i) for i in range(9)]
        union = frozenset().union(*stages)
        assert union == evaluate(tc, db)
        for earlier, later in zip(stages, stages[1:]):
            assert earlier <= later


class TestSection2_MonadicDatalog:
    """Section 2.3: reachability is monadic; E+ is not expressible
    monadically (witnessed here by the classifier, not a proof)."""

    def test_paper_programs_classified(self):
        assert is_monadic(reachability_program())
        assert not is_monadic(transitive_closure_program())

    def test_reachability_program_semantics(self):
        program = reachability_program("E", "P", "Q")
        db = graph_to_instance(
            GraphDatabase.from_edges(
                [(1, "E", 2), (2, "E", 3), (4, "E", 5)]
            )
        )
        db.add("P", (3,))
        assert evaluate(program, db) == {(1,), (2,)}


class TestLemma1_RPQContainmentIsLanguageContainment:
    """Lemma 1: Q1 ⊑ Q2 iff L(Q1) ⊆ L(Q2) for (one-way) RPQs."""

    PAIRS = [
        ("a a", "a+"), ("a+", "a a"), ("a|b", "(a|b)*"),
        ("(a b)+", "a (b a)* b"), ("a", "b"),
    ]

    @pytest.mark.parametrize("left,right", PAIRS)
    def test_equivalence_of_the_two_notions(self, left, right):
        q1, q2 = RPQ.parse(left), RPQ.parse(right)
        language = nfa_contains(q1.nfa, q2.nfa, ("a", "b"))
        query = rpq_contained(q1, q2).holds
        assert language == query, (left, right)


class TestSection3_2_Divergence:
    """The example Q1 = p, Q2 = p p- p: query containment holds,
    language containment fails — Lemma 1 is false for 2RPQs."""

    def test_query_containment_holds(self):
        result = two_rpq_contained(TwoRPQ.parse("p"), TwoRPQ.parse("p p- p"))
        assert result.verdict is Verdict.HOLDS

    def test_language_containment_fails(self):
        q1 = reduce_nfa(parse_regex("p").to_nfa())
        q2 = reduce_nfa(parse_regex("p p- p").to_nfa())
        assert not nfa_contains(q1, q2, Alphabet(("p",)).two_way)

    def test_semantic_verification_on_all_small_graphs(self):
        """Exhaustively: on every p-graph with <= 3 nodes, Q1 ⊆ Q2."""
        q1, q2 = TwoRPQ.parse("p"), TwoRPQ.parse("p p- p")
        nodes = [0, 1, 2]
        pairs = [(a, b) for a in nodes for b in nodes]
        for bits in range(2 ** len(pairs)):
            edges = [
                (a, "p", b)
                for index, (a, b) in enumerate(pairs)
                if bits >> index & 1
            ]
            db = GraphDatabase.from_edges(edges, nodes=nodes)
            assert q1.evaluate(db) <= q2.evaluate(db), edges


class TestLemma2_FoldCharacterization:
    """Lemma 2: Q1 ⊑ Q2 iff L(Q1) ⊆ fold(L(Q2)), spot-checked by
    comparing the fold-based verdict against semantic evaluation."""

    def test_fold_example(self):
        assert folds_onto(("a", "b", "b-", "b", "c"), ("a", "b", "c"))

    def test_fold_based_verdicts_match_semantics(self, rng):
        from repro.automata.regex import random_regex

        for _ in range(6):
            q1 = TwoRPQ(random_regex(rng, ("a",), 2, allow_inverse=True))
            q2 = TwoRPQ(random_regex(rng, ("a",), 2, allow_inverse=True))
            verdict = two_rpq_contained(q1, q2)
            for seed in range(3):
                db = random_graph(4, 7, ("a",), seed=seed)
                if verdict.holds:
                    assert q1.evaluate(db) <= q2.evaluate(db)


class TestLemma3_FoldAutomatonSize:
    """Lemma 3: fold(L(A)) has a 2NFA with n(|Sigma±|+1) states; the
    marker-based construction achieves 2n, within the bound."""

    @pytest.mark.parametrize("text", ["p", "p p- p", "(p|q)* p-", "p+ q+"])
    def test_size_within_bound(self, text):
        nfa = reduce_nfa(parse_regex(text).to_nfa())
        sigma_pm = Alphabet(("p", "q")).two_way
        two = fold_two_nfa(nfa, sigma_pm)
        assert two.num_states == 2 * nfa.num_states
        assert two.num_states <= lemma3_state_bound(nfa, sigma_pm)


class TestLemma4_SingleExponentialComplement:
    """Lemma 4: the complement NFA is exact and within 2^{O(n)}."""

    def test_exact_and_bounded(self):
        sigma_pm = Alphabet(("p",)).two_way
        two = fold_two_nfa(reduce_nfa(parse_regex("p p-").to_nfa()), sigma_pm)
        complement = complement_two_nfa(two)
        assert complement.num_states <= lemma4_state_bound(two)
        for length in range(4):
            for word in itertools.product(sigma_pm, repeat=length):
                assert complement.accepts(word) != two.accepts(word)


class TestTheorem5_TwoRPQContainment:
    """Theorem 5: 2RPQ containment decided by the five-step pipeline."""

    def test_positive_negative_and_replay(self):
        positive = two_rpq_contained(TwoRPQ.parse("a b-"), TwoRPQ.parse("a b- b b-"))
        assert positive.holds
        negative = two_rpq_contained(TwoRPQ.parse("a b- b"), TwoRPQ.parse("a b-"))
        assert negative.verdict is Verdict.REFUTED
        assert verify_counterexample(
            TwoRPQ.parse("a b- b"), TwoRPQ.parse("a b-"), negative
        )


class TestTheorem6_UC2RPQ:
    """Theorem 6 class: Example 1 queries and their containments."""

    def test_example_1_containments(self):
        triangle, union = paper_example_1()
        assert uc2rpq_contained(triangle, union).verdict is Verdict.HOLDS
        refuted = uc2rpq_contained(union, triangle)
        assert refuted.verdict is Verdict.REFUTED
        # The counterexample is (an expansion of) the directed 3-cycle.
        db = refuted.counterexample.database
        assert evaluate_uc2rpq(union, db)

    def test_example_1_on_three_cycle(self):
        _, union = paper_example_1()
        assert evaluate_uc2rpq(union, cycle_graph(3, "r")) == {
            (0, 1), (1, 2), (2, 0)
        }


class TestSection3_4_RQClosure:
    """Section 3.4: UC2RPQ is not closed under TC; RQ is.  triangle+ is
    an RQ; no bounded-length UC2RPQ approximation equals it."""

    def test_triangle_plus_strictly_extends_triangle(self):
        result = rq_contained(triangle_plus(), triangle_query(), budget=Budget(max_expansions=40))
        assert result.verdict is Verdict.REFUTED
        assert rq_contained(triangle_query(), triangle_plus()).holds

    def test_triangle_plus_differs_from_unrolled_approximations(self):
        """Q+ disagrees with the k-fold unrolling for every small k."""
        def unrolled(k):
            query = triangle_query()
            parts = [query]
            from repro.rq.syntax import And, Project, rename
            from repro.cq.syntax import Var

            # Compose the triangle with itself i times, union the results.
            composed = query
            union = query
            for i in range(1, k):
                renamed = rename(
                    triangle_query(), {"x": f"m{i}", "y": "y", "z": f"t{i}"}
                )
                left = rename(composed, {"y": f"m{i}"})
                composed = Project(And(left, renamed), composed.head_vars)
                union = union | composed
            return union

        for k in (1, 2):
            approx = unrolled(k)
            # approx ⊑ triangle+ always; the converse must fail.  Each
            # chained triangle costs ~8 rule applications in the Datalog
            # image, so k+1 triangles need a deeper application bound.
            assert rq_contained(approx, triangle_plus(), budget=Budget(max_expansions=60)).holds
            assert not rq_contained(
                triangle_plus(),
                approx,
                budget=Budget(max_applications=40, max_expansions=60),
            ).holds


class TestSection4_1_Embedding:
    """Section 4.1: the RQ -> Datalog translation preserves semantics
    and lands in GRQ."""

    def test_translation_is_grq_and_semantics_preserved(self):
        query = TransitiveClosure(
            edge("a", "x", "y")
        )
        program = rq_to_datalog(query)
        assert is_grq(program)
        for seed in range(3):
            db = random_graph(5, 9, ("a",), seed=seed)
            assert evaluate(program, graph_to_instance(db)) == evaluate_rq(query, db)


class TestTheorem8_GRQ:
    """Theorem 8 class: GRQ containment through the unified engine."""

    def test_grq_containment_via_engine(self):
        tc = transitive_closure_program("edge", "tc")
        rq_tc = TransitiveClosure(edge("edge", "x", "y"))
        # The RQ and its hand-written GRQ program are equivalent.
        assert check_containment(rq_tc, tc, budget=Budget(max_expansions=25)).holds
        assert check_containment(tc, rq_tc, budget=Budget(max_expansions=25)).holds

    def test_undecidable_fragment_falls_back(self):
        """Outside GRQ, the engine degrades to the semi-decision."""
        nonlinear = parse_program(
            """
            t(x, y) :- e(x, y).
            t(x, z) :- t(x, y), t(y, z).
            """
        )
        linear = transitive_closure_program("e", "t")
        result = check_containment(nonlinear, linear, budget=Budget(max_expansions=20))
        assert result.method == "expansion-vs-evaluation"
        assert result.holds  # the two are equivalent; bounded verdict
