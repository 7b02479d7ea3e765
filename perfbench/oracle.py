"""Independent verdict oracle for the benchmark.

Nothing here calls the containment engine.  A verdict is judged by the
pair's family (see :mod:`gen`):

- ``rpq1`` / ``a8`` (one-way RPQs): a complete decision procedure of its
  own — a small regex parser, Thompson construction and an on-the-fly
  subset product — decides language inclusion, which is query
  containment for one-way RPQs (Lemma 1).  Every word up to
  :data:`BRUTE_LENGTH` is also checked with Python's :mod:`re` as a
  cross-check of the oracle itself.
- ``rpq2`` (2RPQs): a bounded search over the left query's semipath
  expansions (canonical path databases of its words, paper §3.2) with
  an evaluator of its own; a separating expansion proves REFUTED.
- ``rq``: a search over small random graph databases with the
  program's public RQ evaluator; a separating database proves REFUTED.
- ``smoke-*``: the hand-labelled truth in :data:`gen.SMOKE_TRUTH`.

Every REFUTED verdict that carries a counterexample is replayed: both
queries are evaluated on its database with the public evaluators
(``TwoRPQ.evaluate``, ``evaluate_rq``, Datalog ``evaluate``) and the
output tuple must separate them.

A verdict is *wrong* when it contradicts a proved truth, when a replay
fails, or when it is an ERROR.  HOLDS_UP_TO_BOUND and INCONCLUSIVE
never contradict anything; they count against ``exact_share`` instead.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import deque
from typing import Any

#: Words up to this length are brute-forced with :mod:`re` (one-way pairs).
BRUTE_LENGTH = 6
#: Semipath expansions of the left 2RPQ up to this length are searched.
SEMIPATH_LENGTH = 5
#: At most this many expansions are tried per 2RPQ pair.
SEMIPATH_WORDS = 96
#: Random graph databases tried per RQ pair.
RANDOM_DATABASES = 24


class OracleError(AssertionError):
    """The oracle disagrees with itself (a bug in this file, not the program)."""


# --- regexes: parser, Thompson NFA -------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<sym>[A-Za-z_][A-Za-z0-9_]*-?)|(?P<op>[()|*+?.]))")


def parse(text: str) -> tuple:
    """Parse the program's regex syntax into a tuple AST.

    Nodes: ``("sym", s)``, ``("eps",)``, ``("cat", l, r)``,
    ``("alt", l, r)``, ``("star", x)``, ``("plus", x)``, ``("opt", x)``.
    """
    tokens: list[tuple[str, str]] = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"bad regex {text!r} at {pos}")
        pos = match.end()
        if match.group("sym"):
            tokens.append(("sym", match.group("sym")))
        else:
            tokens.append(("op", match.group("op")))
    tokens.append(("end", ""))
    at = [0]

    def peek() -> tuple[str, str]:
        return tokens[at[0]]

    def take() -> tuple[str, str]:
        token = tokens[at[0]]
        at[0] += 1
        return token

    def expr() -> tuple:
        node = term()
        while peek() == ("op", "|"):
            take()
            node = ("alt", node, term())
        return node

    def term() -> tuple:
        node = factor()
        while True:
            if peek() == ("op", "."):
                take()
            kind, value = peek()
            if kind == "sym" or (kind, value) == ("op", "("):
                node = ("cat", node, factor())
            else:
                return node

    def factor() -> tuple:
        node = atom()
        while peek()[0] == "op" and peek()[1] in "*+?":
            op = take()[1]
            node = ({"*": "star", "+": "plus", "?": "opt"}[op], node)
        return node

    def atom() -> tuple:
        kind, value = take()
        if kind == "sym":
            return ("sym", value)
        if (kind, value) == ("op", "("):
            if peek() == ("op", ")"):
                take()
                return ("eps",)
            node = expr()
            if take() != ("op", ")"):
                raise ValueError(f"unbalanced regex {text!r}")
            return node
        raise ValueError(f"unexpected {value!r} in regex {text!r}")

    node = expr()
    if peek()[0] != "end":
        raise ValueError(f"trailing input in regex {text!r}")
    return node


class NFA:
    """Thompson epsilon-NFA with one start and one accepting state."""

    def __init__(self, ast: tuple) -> None:
        self.moves: list[list[tuple[str | None, int]]] = []
        self.start, self.accept = self._build(ast)
        self.symbols = sorted({s for edges in self.moves for s, _ in edges if s})
        self._closure: dict[frozenset, frozenset] = {}

    def _state(self) -> int:
        self.moves.append([])
        return len(self.moves) - 1

    def _build(self, node: tuple) -> tuple[int, int]:
        kind = node[0]
        start, end = self._state(), self._state()
        if kind == "sym":
            self.moves[start].append((node[1], end))
        elif kind == "eps":
            self.moves[start].append((None, end))
        elif kind == "cat":
            s1, e1 = self._build(node[1])
            s2, e2 = self._build(node[2])
            self.moves[start].append((None, s1))
            self.moves[e1].append((None, s2))
            self.moves[e2].append((None, end))
        elif kind == "alt":
            for child in node[1:]:
                s, e = self._build(child)
                self.moves[start].append((None, s))
                self.moves[e].append((None, end))
        else:  # star / plus / opt
            s, e = self._build(node[1])
            self.moves[start].append((None, s))
            self.moves[e].append((None, end))
            if kind in ("star", "opt"):
                self.moves[start].append((None, end))
            if kind in ("star", "plus"):
                self.moves[e].append((None, s))
        return start, end

    def closure(self, states: frozenset) -> frozenset:
        cached = self._closure.get(states)
        if cached is not None:
            return cached
        seen = set(states)
        stack = list(states)
        while stack:
            for symbol, target in self.moves[stack.pop()]:
                if symbol is None and target not in seen:
                    seen.add(target)
                    stack.append(target)
        result = frozenset(seen)
        self._closure[states] = result
        return result

    def initial(self) -> frozenset:
        return self.closure(frozenset([self.start]))

    def step(self, states: frozenset, symbol: str) -> frozenset:
        return self.closure(
            frozenset(t for s in states for sym, t in self.moves[s] if sym == symbol)
        )

    def accepts(self, word: tuple[str, ...]) -> bool:
        states = self.initial()
        for symbol in word:
            states = self.step(states, symbol)
        return self.accept in states


def inclusion_witness(left: NFA, right: NFA) -> tuple[str, ...] | None:
    """Shortest word of L(left) - L(right), or None when L(left) ⊆ L(right)."""
    alphabet = sorted(set(left.symbols) | set(right.symbols))
    start = (left.initial(), right.initial())
    parents: dict[tuple, tuple | None] = {start: None}
    queue = deque([start])
    while queue:
        config = queue.popleft()
        if left.accept in config[0] and right.accept not in config[1]:
            word: list[str] = []
            while parents[config] is not None:
                config, symbol = parents[config]
                word.append(symbol)
            return tuple(reversed(word))
        for symbol in alphabet:
            nxt_left = left.step(config[0], symbol)
            if not nxt_left:
                continue
            nxt = (nxt_left, right.step(config[1], symbol))
            if nxt not in parents:
                parents[nxt] = (config, symbol)
                queue.append(nxt)
    return None


def nullable(ast: tuple) -> bool:
    kind = ast[0]
    if kind == "sym":
        return False
    if kind == "cat":
        return nullable(ast[1]) and nullable(ast[2])
    if kind == "alt":
        return nullable(ast[1]) or nullable(ast[2])
    return kind != "plus" or nullable(ast[1])  # eps, star, opt


def non_empty(ast: tuple) -> tuple | None:
    """An AST for L(ast) minus the empty word (None: that is empty)."""
    kind = ast[0]
    if kind == "sym":
        return ast
    if kind == "eps":
        return None
    if kind == "alt":
        parts = [p for p in (non_empty(ast[1]), non_empty(ast[2])) if p is not None]
    elif kind == "cat":
        head = non_empty(ast[1])
        parts = [("cat", head, ast[2])] if head is not None else []
        if nullable(ast[1]) and (tail := non_empty(ast[2])) is not None:
            parts.append(tail)
    elif kind == "opt":
        return non_empty(ast[1])
    else:  # star / plus: nonempty words are products of nonempty words
        body = non_empty(ast[1])
        return None if body is None else ("plus", body)
    if not parts:
        return None
    return parts[0] if len(parts) == 1 else ("alt", parts[0], parts[1])


def python_regex(ast: tuple, chars: dict[str, str]) -> str:
    """The AST as a Python ``re`` pattern, one character per letter.

    Loop bodies are made non-nullable first (``(a*)*`` becomes
    ``(a+)*`` in effect): the language is unchanged, and the
    backtracking matcher cannot blow up on nested empty iterations.
    """
    kind = ast[0]
    if kind == "sym":
        return re.escape(chars[ast[1]])
    if kind == "eps":
        return ""
    if kind == "cat":
        return python_regex(ast[1], chars) + python_regex(ast[2], chars)
    if kind == "alt":
        return f"(?:{python_regex(ast[1], chars)}|{python_regex(ast[2], chars)})"
    if kind == "opt":
        return f"(?:{python_regex(ast[1], chars)})?"
    body = non_empty(ast[1])
    if body is None:
        return ""
    loop = "*" if kind == "star" or nullable(ast[1]) else "+"
    return f"(?:{python_regex(body, chars)}){loop}"


def _symbols(ast: tuple) -> set[str]:
    if ast[0] == "sym":
        return {ast[1]}
    return set().union(*(_symbols(child) for child in ast[1:] if isinstance(child, tuple)))


def brute_force_witness(left: tuple, right: tuple, max_length: int) -> tuple | None:
    """Shortest word up to *max_length* matched by *left* and not *right*."""
    letters = sorted(_symbols(left) | _symbols(right))
    chars = {letter: chr(0x4E00 + k) for k, letter in enumerate(letters)}
    pattern_left = re.compile(python_regex(left, chars))
    pattern_right = re.compile(python_regex(right, chars))
    for length in range(max_length + 1):
        for word in itertools.product(letters, repeat=length):
            text = "".join(chars[letter] for letter in word)
            if pattern_left.fullmatch(text) and not pattern_right.fullmatch(text):
                return word
    return None


# --- 2RPQ semipath expansions --------------------------------------------------


def _words(nfa: NFA, max_length: int, limit: int) -> list[tuple[str, ...]]:
    """Up to *limit* accepted words of length <= *max_length*, shortest first."""
    found: list[tuple[str, ...]] = []
    frontier = [((), nfa.initial())]
    for _ in range(max_length + 1):
        nxt = []
        for word, states in frontier:
            if nfa.accept in states:
                found.append(word)
                if len(found) >= limit:
                    return found
            for symbol in nfa.symbols:
                after = nfa.step(states, symbol)
                if after:
                    nxt.append((word + (symbol,), after))
        frontier = nxt
    return found


def semipath_accepts(nfa: NFA, word: tuple[str, ...]) -> bool:
    """Is (0, len(word)) an answer of the 2RPQ *nfa* on the path database of *word*?

    The database has an ``a``-edge i -> i+1 for letter ``a`` at position
    i and an ``a``-edge i+1 -> i for ``a-``; the query moves forward
    along ``a`` edges and backward along them for ``a-``.
    """
    edges: list[tuple[int, str, int]] = []
    for i, letter in enumerate(word):
        if letter.endswith("-"):
            edges.append((i + 1, letter[:-1], i))
        else:
            edges.append((i, letter, i + 1))
    out: dict[tuple[int, str], set[int]] = {}
    for u, label, v in edges:
        out.setdefault((u, label), set()).add(v)
        out.setdefault((v, label + "-"), set()).add(u)
    target = len(word)
    start = (0, nfa.initial())
    seen = {start}
    stack = [start]
    while stack:
        node, states = stack.pop()
        if node == target and nfa.accept in states:
            return True
        for symbol in nfa.symbols:
            for nxt_node in out.get((node, symbol), ()):
                after = nfa.step(states, symbol)
                if after and (nxt_node, after) not in seen:
                    seen.add((nxt_node, after))
                    stack.append((nxt_node, after))
    return False


def semipath_refutation(left: NFA, right: NFA) -> tuple[str, ...] | None:
    for word in _words(left, SEMIPATH_LENGTH, SEMIPATH_WORDS):
        if not semipath_accepts(right, word):
            return word
    return None


# --- RQ: random small databases ----------------------------------------------


def random_database_refutation(left: Any, right: Any, seed: str) -> Any:
    """A small random graph database separating *left* from *right*, or None."""
    from repro.graphdb.database import GraphDatabase
    from repro.rq.evaluation import evaluate_rq

    rng = random.Random(seed)
    for trial in range(RANDOM_DATABASES):
        db = GraphDatabase()
        nodes = range(2 + trial % 3)
        for node in nodes:
            db.add_node(node)
        for u in nodes:
            for v in nodes:
                for label in ("a", "b"):
                    if rng.random() < 0.35:
                        db.add_edge(u, label, v)
        extra = evaluate_rq(left, db) - evaluate_rq(right, db)
        if extra:
            return db
    return None


# --- counterexample replay (public evaluators) ----------------------------------


def replay(left: Any, right: Any, counterexample: Any) -> bool:
    """Does the counterexample's output tuple separate the two queries?"""
    database, output = counterexample.database, tuple(counterexample.output)
    return _answers(left, database, output) and not _answers(right, database, output)


def _answers(query: Any, database: Any, output: tuple) -> bool:
    from repro.datalog.evaluation import evaluate
    from repro.datalog.syntax import Program
    from repro.graphdb.database import GraphDatabase
    from repro.relational.instance import graph_to_instance, instance_to_graph
    from repro.rpq.rpq import TwoRPQ
    from repro.rq.evaluation import evaluate_rq
    from repro.rq.syntax import RQ

    if isinstance(query, Program):
        instance = (
            graph_to_instance(database) if isinstance(database, GraphDatabase) else database
        )
        return output in evaluate(query, instance)
    graph = database if isinstance(database, GraphDatabase) else instance_to_graph(database)
    if isinstance(query, TwoRPQ):
        return output in query.evaluate(graph)
    if isinstance(query, RQ):
        return output in evaluate_rq(query, graph)
    raise TypeError(f"no evaluator for {type(query).__name__}")


# --- judging ------------------------------------------------------------------


class Oracle:
    """Judges verdicts; caches the truth it proves per distinct pair."""

    def __init__(self) -> None:
        self._truth: dict[tuple, tuple[str | None, bool]] = {}

    def truth(self, pair: dict[str, Any]) -> tuple[str | None, bool]:
        """(truth, proved) — truth is "holds", "refuted" or None (unknown)."""
        if pair.get("truth") is not None:
            return pair["truth"], True
        family = pair["family"]
        if family == "rq":
            key = (family, id(pair["left_obj"]), id(pair["right_obj"]))
        else:
            key = (family, pair["left"], pair["right"])
        cached = self._truth.get(key)
        if cached is None:
            cached = self._prove(pair)
            if family != "rq":
                self._truth[key] = cached
        return cached

    def _prove(self, pair: dict[str, Any]) -> tuple[str | None, bool]:
        family = pair["family"]
        if family == "rq":
            db = random_database_refutation(pair["left_obj"], pair["right_obj"], pair["id"])
            return ("refuted", True) if db is not None else (None, False)
        left_ast = parse(pair["left"].split(":", 1)[1])
        right_ast = parse(pair["right"].split(":", 1)[1])
        left, right = NFA(left_ast), NFA(right_ast)
        if family == "rpq2":
            word = semipath_refutation(left, right)
            return ("refuted", True) if word is not None else (None, False)
        witness = inclusion_witness(left, right)
        brute = brute_force_witness(left_ast, right_ast, BRUTE_LENGTH)
        if (brute is None) != (witness is None or len(witness) > BRUTE_LENGTH):
            raise OracleError(
                f"inclusion and brute force disagree on {pair['left']} vs {pair['right']}"
            )
        return ("holds" if witness is None else "refuted"), True

    def judge(
        self,
        pair: dict[str, Any],
        verdict: str,
        counterexample: Any = None,
        queries: tuple[Any, Any] | None = None,
    ) -> str | None:
        """None when *verdict* is acceptable, else why it is wrong.

        Returns ``"unconfirmed"`` for a REFUTED verdict that no proof
        here covers and that arrived without a counterexample; the
        caller must fetch one and judge again.
        """
        if verdict == "error":
            return "error verdict"
        truth, proved = self.truth(pair)
        if verdict == "holds" and proved and truth == "refuted":
            return "HOLDS but the oracle proved a refutation"
        if verdict == "refuted":
            if proved and truth == "holds":
                return "REFUTED but the containment holds"
            if counterexample is not None:
                if queries is None:
                    raise ValueError("replay needs the query objects")
                if not replay(queries[0], queries[1], counterexample):
                    return "counterexample does not replay"
            elif not (proved and truth == "refuted"):
                return "unconfirmed"
        return None
