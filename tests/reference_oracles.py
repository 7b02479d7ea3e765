"""Naive textbook constructions the kernel tests compare against: plain
sets and dicts, no bitsets, no caches, nothing from repro.automata.indexed.
Results have the production structure (frozenset subsets, state pairs,
...), so tests compare with ``==`` where that contract is structural."""

from __future__ import annotations

import itertools
from collections import deque

from repro.automata.dfa import DFA
from repro.automata.nfa import NFA


def _bfs(seeds, step) -> dict:
    """BFS-ordered parent map ``state -> (previous, label) | None``;
    *step(state)* yields ``(label, successor)`` pairs."""
    parents, queue = dict.fromkeys(seeds), deque(seeds)
    while queue:
        state = queue.popleft()
        for label, nxt in step(state):
            if nxt not in parents:
                parents[nxt] = (state, label)
                queue.append(nxt)
    return parents


def _word(parents: dict, state) -> tuple:
    """The labels on the BFS-tree path from a seed to *state*."""
    word = []
    while parents[state] is not None:
        state, label = parents[state]
        word.append(label)
    return tuple(reversed(word))


def determinize(nfa: NFA, alphabet) -> DFA:
    """Subset construction over the reachable subsets (complete DFA)."""
    alphabet = tuple(dict.fromkeys(alphabet))
    step = lambda subset: [  # noqa: E731
        (a, frozenset(t for s in subset for t in nfa.successors(s, a))) for a in alphabet
    ]
    states = frozenset(_bfs([frozenset(nfa.initial)], step))
    delta = {(subset, a): target for subset in states for a, target in step(subset)}
    final = frozenset(subset for subset in states if subset & nfa.final)
    return DFA(alphabet, states, frozenset(nfa.initial), final, delta)


def minimize(dfa: DFA) -> DFA:
    """Moore refinement over the reachable states.  The coarsest stable
    partition is unique, so its blocks equal Hopcroft's."""
    states = _bfs([dfa.initial], lambda s: ((a, dfa.step(s, a)) for a in dfa.alphabet))
    block = {s: int(s in dfa.final) for s in states}
    while True:
        sig = {s: (block[s], *(block[dfa.step(s, a)] for a in dfa.alphabet)) for s in states}
        ids = {key: i for i, key in enumerate(sorted(set(sig.values())))}
        if len(ids) == len(set(block.values())):
            break
        block = {s: ids[sig[s]] for s in states}
    of = {s: frozenset(t for t in states if block[t] == block[s]) for s in states}
    delta = {(of[s], a): of[dfa.step(s, a)] for s in states for a in dfa.alphabet}
    final = frozenset(of[s] for s in states if s in dfa.final)
    return DFA(dfa.alphabet, frozenset(of.values()), of[dfa.initial], final, delta)


def product(left: NFA, right: NFA) -> NFA:
    """Intersection automaton over the reachable state pairs."""
    alphabet = tuple(a for a in left.alphabet if a in set(right.alphabet))
    step = lambda pair: [  # noqa: E731
        (a, target) for a in alphabet
        for target in itertools.product(left.successors(pair[0], a), right.successors(pair[1], a))
    ]
    initial = list(itertools.product(left.initial, right.initial))
    states = _bfs(initial, step)
    edges = [(pair, a, target) for pair in states for a, target in step(pair)]
    final = [(p, q) for p, q in states if p in left.final and q in right.final]
    return NFA.build(alphabet, states, initial, final, edges)


def trim(nfa: NFA) -> NFA:
    """Keep the states reachable from an initial and reaching a final state."""
    edges = list(nfa.edges())
    forward = _bfs(nfa.initial, lambda s: ((x, b) for a, x, b in edges if a == s))
    backward = _bfs(nfa.final, lambda s: ((x, a) for a, x, b in edges if b == s))
    live = forward.keys() & backward.keys()
    kept = [(a, x, b) for a, x, b in edges if a in live and b in live]
    return NFA.build(nfa.alphabet, live, nfa.initial & live, nfa.final & live, kept)


def shortest_word(nfa: NFA):
    """A shortest accepted word, or None."""
    step = lambda s: ((a, t) for a in nfa.alphabet for t in nfa.successors(s, a))  # noqa: E731
    parents = _bfs(nfa.initial, step)
    hit = next((s for s in parents if s in nfa.final), None)
    return None if hit is None else _word(parents, hit)


def containment_witness(left: NFA, right: NFA, alphabet):
    """A shortest word of L(left) - L(right), complement materialized."""
    complement = determinize(right, alphabet).complement().to_nfa()
    return shortest_word(product(left, complement))


def distances(nfa: NFA, db, source) -> dict:
    """Answer node -> shortest conforming-semipath length from *source*:
    BFS over ``(node, state)``; ``db.successors`` follows inverse letters."""
    parents = _bfs([(source, s) for s in nfa.initial], lambda c: (
        (a, nxt) for a in nfa.alphabet
        for nxt in itertools.product(db.successors(c[0], a), nfa.successors(c[1], a))
    ))
    found: dict = {}
    for node, state in parents:
        if state in nfa.final and node not in found:
            found[node] = len(_word(parents, (node, state)))
    return found


def answers(nfa: NFA, db) -> frozenset:
    """All pairs connected by a semipath spelling a word of L(nfa)."""
    return frozenset((x, y) for x in db.nodes for y in distances(nfa, db, x))


def crpq_answers(query, db) -> frozenset:
    """Head tuples of a C2RPQ: every variable assignment, atoms checked."""
    atoms = [(atom, answers(atom.query.regex.to_nfa(), db)) for atom in query.atoms]
    variables = sorted(query.variables(), key=repr)
    rows = set()
    for values in itertools.product(list(db.nodes), repeat=len(variables)):
        env = dict(zip(variables, values))
        if all((env[a.source], env[a.target]) in rel for a, rel in atoms):
            rows.add(tuple(env[v] for v in query.head_vars))
    return frozenset(rows)
