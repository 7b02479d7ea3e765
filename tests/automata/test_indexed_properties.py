"""Property-based cross-validation of the indexed kernels (hypothesis).

The design contract of :mod:`repro.automata.indexed` is that every
kernel equals the textbook construction it replaces.  These tests hold
the kernels to that claim against the naive constructions in
``tests/reference_oracles.py`` on random regexes and random edge-list
automata, with caching disabled where a cached result could stand in
for the kernel under test.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.automata.dfa import containment_counterexample, determinize
from repro.automata.indexed import IndexedNFA, containment_counterexample_indexed
from repro.automata.nfa import NFA
from repro.automata.regex import Regex, random_regex
from repro.cache import use_caching
from repro.graphdb.generators import random_graph
from repro.rpq.rpq import evaluate_nfa_on_graph, targets_from

import reference_oracles as reference

ALPHABET = ("a", "b")


@st.composite
def regexes(draw, depth: int = 3) -> Regex:
    seed = draw(st.integers(min_value=0, max_value=10**9))
    return random_regex(random.Random(seed), ALPHABET, depth, False)


@st.composite
def edge_list_nfas(draw) -> NFA:
    """Random automata that need not come from a regex (odd shapes too)."""
    num_states = draw(st.integers(min_value=1, max_value=6))
    state_ids = st.integers(min_value=0, max_value=num_states - 1)
    edges = draw(
        st.lists(
            st.tuples(state_ids, st.sampled_from(ALPHABET), state_ids),
            max_size=14,
        )
    )
    initial = draw(st.lists(state_ids, min_size=1, max_size=2))
    final = draw(st.lists(state_ids, max_size=2))
    return NFA.build(ALPHABET, range(num_states), initial, final, edges)


@st.composite
def words(draw, max_len: int = 5):
    return tuple(draw(st.lists(st.sampled_from(ALPHABET), max_size=max_len)))


@settings(max_examples=50, deadline=None)
@given(edge_list_nfas())
def test_determinize_is_a_structural_drop_in(nfa):
    with use_caching(False):
        fast = determinize(nfa, ALPHABET)
    assert fast == reference.determinize(nfa, ALPHABET)


@settings(max_examples=50, deadline=None)
@given(edge_list_nfas(), edge_list_nfas())
def test_product_is_a_structural_drop_in(left, right):
    assert left.product(right) == reference.product(left, right)


@settings(max_examples=50, deadline=None)
@given(edge_list_nfas())
def test_emptiness_and_shortest_word_agree_with_baseline(nfa):
    compiled = IndexedNFA.from_nfa(nfa)
    baseline = reference.shortest_word(nfa)
    fast = compiled.shortest_word()
    assert nfa.shortest_word() == fast
    assert compiled.is_empty() == (baseline is None)
    assert (fast is None) == (baseline is None)
    if fast is not None:
        assert len(fast) == len(baseline)  # both BFS: shortest length
        assert nfa.accepts(fast)


@settings(max_examples=50, deadline=None)
@given(edge_list_nfas())
def test_trim_agrees_with_baseline(nfa):
    assert nfa.trim() == reference.trim(nfa)


@settings(max_examples=40, deadline=None)
@given(regexes(), regexes())
def test_minimize_produces_identical_canonical_dfa(r1, r2):
    with use_caching(False):
        dfa = determinize(r1.to_nfa().union(r2.to_nfa()), ALPHABET)
    assert dfa.minimize() == reference.minimize(dfa)


@settings(max_examples=40, deadline=None)
@given(regexes(), regexes())
def test_containment_counterexamples_agree_with_baseline(r1, r2):
    left, right = r1.to_nfa().trim(), r2.to_nfa().trim()
    fast = containment_counterexample_indexed(left, right, ALPHABET)
    with use_caching(False):
        assert containment_counterexample(left, right, ALPHABET) == fast
    slow = reference.containment_witness(left, right, ALPHABET)
    assert (fast is None) == (slow is None)
    if fast is not None:
        assert len(fast) == len(slow)  # both searches are breadth-first
        assert left.accepts(fast) and not right.accepts(fast)
        assert left.accepts(slow) and not right.accepts(slow)


@settings(max_examples=25, deadline=None)
@given(regexes(depth=2), st.integers(min_value=0, max_value=10**6))
def test_rpq_graph_evaluation_agrees_with_baseline(regex, graph_seed):
    nfa = regex.to_nfa().trim()
    db = random_graph(6, 12, ALPHABET, seed=graph_seed)
    assert evaluate_nfa_on_graph(nfa, db) == reference.answers(nfa, db)
    source = sorted(db.nodes, key=repr)[0]
    assert targets_from(nfa, db, source) == set(reference.distances(nfa, db, source))
