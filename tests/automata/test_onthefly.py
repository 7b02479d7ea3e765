"""Tests for the on-the-fly product-emptiness search."""

import pytest

from repro.automata.nfa import NFA
from repro.automata.onthefly import find_accepted_word, intersection_is_empty
from repro.automata.regex import parse_regex
from repro.automata.shepherdson import LazyShepherdsonComplement
from repro.automata.two_nfa import one_way_as_two_way
from repro.budget import Budget, BudgetExhausted


def wrap(text: str) -> NFA:
    return parse_regex(text).to_nfa()


class TestFindAcceptedWord:
    def test_single_machine(self):
        assert find_accepted_word([wrap("a b")], ("a", "b")) == ("a", "b")

    def test_intersection_witness_is_shortest(self):
        word = find_accepted_word([wrap("(a|b)* a"), wrap("a (a|b)*")], ("a", "b"))
        assert word == ("a",)

    def test_empty_intersection(self):
        assert find_accepted_word([wrap("a a"), wrap("b")], ("a", "b")) is None

    def test_epsilon_in_intersection(self):
        assert find_accepted_word([wrap("a*"), wrap("b*")], ("a", "b")) == ()

    def test_three_way_intersection(self):
        word = find_accepted_word(
            [wrap("(a|b)+"), wrap("(a|b)* b"), wrap("a (a|b)*")], ("a", "b")
        )
        assert word is not None
        assert word[0] == "a" and word[-1] == "b"

    def test_machine_with_no_initial_states(self):
        empty = NFA.build(("a",), [0], [], [0], [])
        assert find_accepted_word([empty, wrap("a")], ("a",)) is None

    def test_budget_raises(self):
        with pytest.raises(BudgetExhausted) as info:
            find_accepted_word(
                [wrap("(a|b)(a|b)(a|b)(a|b)"), wrap("b b b b")],
                ("a", "b"),
                meter=Budget(max_configs=2).start(),
            )
        assert info.value.resource == "configs" and info.value.limit == 2

    def test_kernel_stats_populated(self):
        stats: dict = {}
        find_accepted_word(
            [wrap("a a a"), wrap("a*")], ("a",), kernel="subset", kernel_stats=stats
        )
        assert stats["selected"] == "subset"
        assert stats["configs"] > 0

    def test_rejects_a_first_machine_that_is_not_an_nfa(self):
        lazy = LazyShepherdsonComplement(one_way_as_two_way(wrap("a")))
        with pytest.raises(TypeError):
            find_accepted_word([lazy, wrap("a")], ("a",))
        with pytest.raises(TypeError):
            find_accepted_word([], ("a",))


class TestIntersectionIsEmpty:
    def test_yes_and_no(self):
        assert intersection_is_empty([wrap("a"), wrap("b")], ("a", "b"))
        assert not intersection_is_empty([wrap("a+"), wrap("a a")], ("a", "b"))
