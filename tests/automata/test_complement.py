"""Tests for Lemma 4: single-exponential 2NFA complementation."""

import itertools

import pytest

from repro.automata.alphabet import Alphabet
from repro.automata.complement import (
    LazyComplement,
    complement_two_nfa,
    lemma4_state_bound,
)
from repro.automata.dfa import reduce_nfa
from repro.automata.fold import fold_two_nfa
from repro.automata.regex import parse_regex
from repro.automata.two_nfa import one_way_as_two_way
from repro.budget import Budget, BudgetExhausted


def fold_of(text: str, alphabet):
    return fold_two_nfa(reduce_nfa(parse_regex(text).to_nfa()), alphabet)


SIGMA_P = Alphabet(("p",)).two_way


class TestMaterializedComplement:
    @pytest.mark.parametrize("text", ["p", "p p", "p?"])
    def test_complement_of_fold_agrees_with_brute_force(self, text):
        two = fold_of(text, SIGMA_P)
        complement = complement_two_nfa(two)
        for length in range(4):
            for word in itertools.product(SIGMA_P, repeat=length):
                assert complement.accepts(word) == (not two.accepts(word)), (text, word)

    def test_complement_of_one_way_embedding(self):
        nfa = reduce_nfa(parse_regex("a b|a").to_nfa())
        two = one_way_as_two_way(nfa)
        complement = complement_two_nfa(two)
        for length in range(4):
            for word in itertools.product(("a", "b"), repeat=length):
                assert complement.accepts(word) == (not nfa.accepts(word)), word

    def test_random_two_nfas(self, rng, random_two_nfa):
        for _ in range(8):
            two = random_two_nfa(rng, 3, ("a",), density=0.2)
            complement = complement_two_nfa(two)
            for length in range(4):
                for word in itertools.product(("a",), repeat=length):
                    assert complement.accepts(word) == (not two.accepts(word)), word

    def test_state_budget(self):
        two = fold_of("p p- p", SIGMA_P)
        with pytest.raises(BudgetExhausted) as info:
            complement_two_nfa(two, meter=Budget(max_states=2).start())
        assert info.value.resource == "states" and info.value.limit == 2

    def test_stays_within_lemma4_bound(self):
        two = fold_of("p", SIGMA_P)
        complement = complement_two_nfa(two)
        assert complement.num_states <= lemma4_state_bound(two)


class TestLazyComplement:
    def test_initial_states_cover_s0(self):
        two = fold_of("p", SIGMA_P)
        lazy = LazyComplement(two)
        initial = frozenset(two.initial)
        for t0, _t1 in lazy.initial_states():
            assert initial <= t0

    def test_minimal_guess_comes_first(self):
        two = fold_of("p", SIGMA_P)
        lazy = LazyComplement(two)
        first_t0, _ = next(iter(lazy.initial_states()))
        assert first_t0 == frozenset(two.initial)

    def test_final_requires_no_accepting_state(self):
        two = fold_of("p", SIGMA_P)
        lazy = LazyComplement(two)
        bad = (frozenset(), frozenset(two.final))
        assert not lazy.is_final(bad)

    def test_lazy_language_matches_materialized(self):
        two = fold_of("p p", SIGMA_P)
        lazy = LazyComplement(two)
        materialized = complement_two_nfa(two)

        def lazy_accepts(word):
            current = set(lazy.initial_states())
            for symbol in word:
                nxt = set()
                for state in current:
                    nxt.update(lazy.successor_states(state, symbol))
                current = nxt
                if not current:
                    return False
            return any(lazy.is_final(state) for state in current)

        for length in range(3):
            for word in itertools.product(SIGMA_P, repeat=length):
                assert lazy_accepts(word) == materialized.accepts(word), word
