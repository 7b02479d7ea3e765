"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

import itertools
import pathlib
import random
import sys

import pytest

# Test modules import the naive oracles as ``reference_oracles``; under
# ``--import-mode=importlib`` the tests directory is not on sys.path.
sys.path.insert(0, str(pathlib.Path(__file__).parent))

from repro.automata.nfa import NFA
from repro.graphdb.database import GraphDatabase


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; reseed per test for reproducibility."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def small_graph() -> GraphDatabase:
    """A small two-label graph with cycles, shared by many tests."""
    return GraphDatabase.from_edges(
        [
            ("a", "r", "b"),
            ("b", "r", "c"),
            ("c", "r", "a"),
            ("a", "s", "c"),
            ("c", "s", "d"),
            ("d", "r", "d"),
        ]
    )


def _brute_force_language(nfa: NFA, alphabet: tuple[str, ...], max_length: int) -> set:
    """All words of L(nfa) over *alphabet* up to *max_length* (oracle)."""
    out = set()
    for length in range(max_length + 1):
        for word in itertools.product(alphabet, repeat=length):
            if nfa.accepts(word):
                out.add(word)
    return out


@pytest.fixture
def brute_force_language():
    """Oracle fixture: enumerate a language up to a length bound."""
    return _brute_force_language


def _random_two_nfa(
    rng: random.Random,
    num_states: int,
    alphabet: tuple[str, ...],
    density: float = 0.25,
):
    """A random 2NFA (with marker moves) for fuzzing the constructions."""
    from repro.automata.alphabet import LEFT_MARKER, RIGHT_MARKER
    from repro.automata.two_nfa import LEFT, RIGHT, STAY, TwoNFA

    states = list(range(num_states))
    symbols = list(alphabet) + [LEFT_MARKER, RIGHT_MARKER]
    transitions = []
    for state in states:
        for symbol in symbols:
            for target in states:
                for direction in (LEFT, STAY, RIGHT):
                    if symbol is LEFT_MARKER and direction == LEFT:
                        continue
                    if symbol is RIGHT_MARKER and direction == RIGHT:
                        continue
                    if rng.random() < density:
                        transitions.append((state, symbol, target, direction))
    initial = rng.sample(states, k=max(1, num_states // 3))
    final = rng.sample(states, k=max(1, num_states // 3))
    return TwoNFA.build(alphabet, states, initial, final, transitions)


@pytest.fixture
def random_two_nfa():
    """Factory fixture building random 2NFAs for fuzz tests."""
    return _random_two_nfa
