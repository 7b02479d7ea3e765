"""Classical 2NFA -> one-way conversion (Shepherdson-style tables).

This is the "standard approach" the paper contrasts with Lemma 4: first
reduce the two-way automaton to a one-way automaton with an exponential
blow-up, then complement.  The table construction below determinizes the
2NFA directly; its states are pairs ``(I, M)`` where, after reading the
prefix ``a1 .. ap`` of the tape ``⊢ a1 .. an ⊣``,

- ``I ⊆ S`` is the set of states in which the 2NFA can cross the
  boundary from position ``p`` to ``p+1`` starting from an initial
  configuration while staying inside positions ``0..p`` beforehand, and
- ``M ⊆ S x S`` holds ``(t, s)`` iff the 2NFA, dropped at position ``p``
  in state ``t``, can exit to position ``p+1`` in state ``s`` while
  staying inside ``0..p`` in between.

Both tables are computable left to right by a least-fixpoint closure in
the newly added column, so the result is a *complete deterministic*
automaton with at most ``2^{|S| + |S|^2}`` states — one exponential,
versus the two a naive NFA-conversion-then-subset-complement would pay.
It doubles as an independent oracle for Lemma 4 in the test suite.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..budget import BudgetMeter
from .alphabet import LEFT_MARKER, RIGHT_MARKER
from .dfa import DFA
from .two_nfa import TwoNFA

Table = tuple[frozenset, frozenset]  # (I, M)


def _column_closure(
    two_nfa: TwoNFA,
    seeds: frozenset,
    tape_symbol: object,
    reenter: Callable[[object], frozenset],
) -> frozenset:
    """States reachable at the current column from *seeds*.

    A stay move remains in the column; a left move drops into the region
    to the left, from which *reenter(state)* gives the states that can
    come back into the column.
    """
    reached = set(seeds)
    queue = deque(seeds)
    while queue:
        state = queue.popleft()
        for successor, direction in two_nfa.moves(state, tape_symbol):
            if direction == 0:
                targets: frozenset = frozenset({successor})
            elif direction == -1:
                targets = reenter(successor)
            else:
                continue  # right moves exit the region; handled by caller
            for target in targets:
                if target not in reached:
                    reached.add(target)
                    queue.append(target)
    return frozenset(reached)


def _exits_right(two_nfa: TwoNFA, column: frozenset, tape_symbol: object) -> frozenset:
    return frozenset(
        successor
        for state in column
        for successor, direction in two_nfa.moves(state, tape_symbol)
        if direction == 1
    )


def _initial_table(two_nfa: TwoNFA) -> Table:
    """Tables for the region consisting of the left marker only."""
    no_reentry: Callable[[object], frozenset] = lambda _state: frozenset()  # noqa: E731
    start = _column_closure(two_nfa, frozenset(two_nfa.initial), LEFT_MARKER, no_reentry)
    crossing = _exits_right(two_nfa, start, LEFT_MARKER)
    pairs = set()
    for t in two_nfa.states:
        column = _column_closure(two_nfa, frozenset({t}), LEFT_MARKER, no_reentry)
        for s in _exits_right(two_nfa, column, LEFT_MARKER):
            pairs.add((t, s))
    return crossing, frozenset(pairs)


def _step_table(two_nfa: TwoNFA, table: Table, symbol: str) -> Table:
    """Extend the region by one input letter."""
    crossing, pairs = table
    reentry_map: dict[object, set] = {}
    for t, s in pairs:
        reentry_map.setdefault(t, set()).add(s)
    reenter: Callable[[object], frozenset] = lambda state: frozenset(  # noqa: E731
        reentry_map.get(state, ())
    )
    column = _column_closure(two_nfa, crossing, symbol, reenter)
    new_crossing = _exits_right(two_nfa, column, symbol)
    new_pairs = set()
    for t in two_nfa.states:
        t_column = _column_closure(two_nfa, frozenset({t}), symbol, reenter)
        for s in _exits_right(two_nfa, t_column, symbol):
            new_pairs.add((t, s))
    return new_crossing, frozenset(new_pairs)


def _accepts_from_table(two_nfa: TwoNFA, table: Table) -> bool:
    """Final check: play the right marker's column against the tables."""
    crossing, pairs = table
    reentry_map: dict[object, set] = {}
    for t, s in pairs:
        reentry_map.setdefault(t, set()).add(s)
    reenter: Callable[[object], frozenset] = lambda state: frozenset(  # noqa: E731
        reentry_map.get(state, ())
    )
    column = _column_closure(two_nfa, crossing, RIGHT_MARKER, reenter)
    return bool(column & two_nfa.final)


def two_nfa_to_dfa(
    two_nfa: TwoNFA,
    meter: "BudgetMeter | None" = None,
    tracer=None,
) -> DFA:
    """Determinize a 2NFA into a complete DFA over its alphabet.

    Args:
        two_nfa: the automaton to convert.
        meter: optional :class:`repro.budget.BudgetMeter`; charges one
            ``"states"`` unit per table and polls the deadline (raising
            :class:`repro.budget.BudgetExhausted` past the budget's
            ``max_states``).
        tracer: optional :class:`repro.obs.trace.Tracer`; records a
            ``shepherdson-tables`` span with the table count (set once
            on exit, never inside the construction loop).

    Returns:
        A :class:`DFA` with ``L(DFA) = L(two_nfa)``.
    """
    if tracer is not None:
        with tracer.span(
            "shepherdson-tables", two_nfa_states=two_nfa.num_states
        ) as span:
            dfa = _two_nfa_to_dfa(two_nfa, meter)
            span.count("tables", dfa.num_states)
            return dfa
    return _two_nfa_to_dfa(two_nfa, meter)


def _two_nfa_to_dfa(
    two_nfa: TwoNFA,
    meter: "BudgetMeter | None",
) -> DFA:
    initial = _initial_table(two_nfa)
    states: set[Table] = {initial}
    if meter is not None:
        meter.charge("states")
    transitions: dict[tuple[Table, str], Table] = {}
    queue = deque([initial])
    while queue:
        table = queue.popleft()
        if meter is not None:
            meter.poll()
        for symbol in two_nfa.alphabet:
            nxt = _step_table(two_nfa, table, symbol)
            transitions[(table, symbol)] = nxt
            if nxt not in states:
                states.add(nxt)
                if meter is not None:
                    meter.charge("states")
                queue.append(nxt)
    final = frozenset(
        table for table in states if _accepts_from_table(two_nfa, table)
    )
    return DFA(two_nfa.alphabet, frozenset(states), initial, final, transitions)


class LazyShepherdsonComplement:
    """Implicit automaton for the *complement* of a 2NFA's language.

    Because the table construction is deterministic, the complement is
    free: run the tables and flip the final check.  Exposes the
    implicit-automaton protocol of :mod:`repro.automata.onthefly`, so a
    product search explores exactly the tables reachable under the words
    the other factor can produce — one successor per (state, letter),
    which makes this the production path for 2RPQ containment.  (The
    Lemma 4 pipeline in :mod:`repro.automata.complement` is the
    paper-faithful alternative; benchmark E5 compares the two.)
    """

    def __init__(self, two_nfa: TwoNFA) -> None:
        self.two_nfa = two_nfa

    def initial_states(self):
        return [_initial_table(self.two_nfa)]

    def successor_states(self, state: Table, symbol: str):
        return [_step_table(self.two_nfa, state, symbol)]

    def is_final(self, state: Table) -> bool:
        return not _accepts_from_table(self.two_nfa, state)


def naive_complement_two_nfa(two_nfa: TwoNFA):
    """The baseline pipeline the paper deems too costly: convert, then flip.

    Returns the complement as an NFA, for size comparison with Lemma 4's
    construction in benchmark E4.
    """
    return two_nfa_to_dfa(two_nfa).complement().to_nfa()
