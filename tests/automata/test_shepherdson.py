"""Tests for the Shepherdson-style 2NFA determinization baseline."""

import itertools

import pytest

from repro.automata.alphabet import Alphabet
from repro.automata.complement import complement_two_nfa
from repro.automata.dfa import reduce_nfa
from repro.automata.fold import fold_two_nfa
from repro.automata.regex import parse_regex
from repro.automata.shepherdson import (
    LazyShepherdsonComplement,
    naive_complement_two_nfa,
    two_nfa_to_dfa,
)
from repro.automata.two_nfa import one_way_as_two_way
from repro.budget import Budget, BudgetExhausted

SIGMA_P = Alphabet(("p",)).two_way
SIGMA_AB = Alphabet(("a", "b")).two_way


def fold_of(text: str, alphabet):
    return fold_two_nfa(reduce_nfa(parse_regex(text).to_nfa()), alphabet)


class TestDeterminization:
    @pytest.mark.parametrize(
        "text,alphabet",
        [("p p- p", SIGMA_P), ("a b", SIGMA_AB), ("a (a-|b)*", SIGMA_AB)],
    )
    def test_dfa_language_equals_two_nfa_language(self, text, alphabet):
        two = fold_of(text, alphabet)
        dfa = two_nfa_to_dfa(two)
        for length in range(4):
            for word in itertools.product(alphabet, repeat=length):
                assert dfa.accepts(word) == two.accepts(word), (text, word)

    def test_on_one_way_embedding(self):
        nfa = reduce_nfa(parse_regex("(a|b)* a").to_nfa())
        two = one_way_as_two_way(nfa)
        dfa = two_nfa_to_dfa(two)
        for length in range(5):
            for word in itertools.product(("a", "b"), repeat=length):
                assert dfa.accepts(word) == nfa.accepts(word), word

    def test_random_two_nfas(self, rng, random_two_nfa):
        for _ in range(8):
            two = random_two_nfa(rng, 3, ("a", "b"), density=0.15)
            dfa = two_nfa_to_dfa(two)
            for length in range(4):
                for word in itertools.product(("a", "b"), repeat=length):
                    assert dfa.accepts(word) == two.accepts(word), word

    def test_budget(self, rng, random_two_nfa):
        two = random_two_nfa(rng, 5, ("a", "b"), density=0.3)
        with pytest.raises(BudgetExhausted) as info:
            two_nfa_to_dfa(two, meter=Budget(max_states=1).start())
        assert info.value.resource == "states" and info.value.limit == 1


class TestNaiveComplement:
    def test_agrees_with_lemma4(self):
        two = fold_of("p p", SIGMA_P)
        naive = naive_complement_two_nfa(two)
        lemma4 = complement_two_nfa(two)
        for length in range(4):
            for word in itertools.product(SIGMA_P, repeat=length):
                assert naive.accepts(word) == lemma4.accepts(word), word


class TestLazyShepherdsonComplement:
    def test_is_deterministic(self):
        two = fold_of("p", SIGMA_P)
        lazy = LazyShepherdsonComplement(two)
        (initial,) = lazy.initial_states()
        (successor,) = lazy.successor_states(initial, "p")
        assert successor is not None

    def test_complement_semantics(self):
        two = fold_of("p p- p", SIGMA_P)
        lazy = LazyShepherdsonComplement(two)
        for length in range(4):
            for word in itertools.product(SIGMA_P, repeat=length):
                state = next(iter(lazy.initial_states()))
                for symbol in word:
                    (state,) = lazy.successor_states(state, symbol)
                assert lazy.is_final(state) == (not two.accepts(word)), word
