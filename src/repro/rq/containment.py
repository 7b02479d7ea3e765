"""RQ containment (Theorem 7 class) via expansions of the Datalog image.

``Q1 ⊑ Q2`` for regular queries is checked by the same two-ingredient
recipe the paper attributes to [11, 13, 20, 48]: quantify over the
canonical databases of ``Q1`` (here: expansions of its Section 4.1
Datalog translation, which unfold transitive closures into explicit
chains) and decide each instance *exactly* by evaluating ``Q2`` over it.

Contract (DESIGN.md §2): refutations are exact counterexample databases;
positive verdicts are exact (HOLDS) when ``Q1`` uses no transitive
closure — its Datalog image is then nonrecursive, so the expansion space
is finite and exhausted — and HOLDS_UP_TO_BOUND otherwise.  The exact
algorithm is 2EXPSPACE-complete (Theorem 7), which no implementation can
run beyond toy sizes; the bound is the calibrated substitute.
"""

from __future__ import annotations

from typing import Any

from ..automata.antichain import resolve_kernel
from ..budget import Budget
from ..obs.trace import maybe_span
from ..report import ContainmentResult, Counterexample, EquivalenceResult
from ..datalog.analysis import is_nonrecursive
from ..datalog.containment import expansion_check
from ..relational.instance import Instance, instance_to_graph
from .evaluation import satisfies_rq
from .syntax import RQ
from .to_datalog import rq_to_datalog

DEFAULT_EXPANSION_BUDGET = 3000
DEFAULT_APPLICATION_BOUND = 20

#: Limits for the fields a caller's budget leaves unset.
DEFAULT_LIMITS = {
    "max_applications": DEFAULT_APPLICATION_BOUND,
    "max_expansions": DEFAULT_EXPANSION_BUDGET,
}


def rq_contained(
    q1: RQ,
    q2: RQ,
    budget: Budget | None = None,
    tracer=None,
    kernel: str = "auto",
) -> ContainmentResult:
    """Expansion-based containment check for regular queries.

    Args:
        q1, q2: RQ algebra terms of equal arity.
        budget: optional :class:`repro.budget.Budget`.  Its
            ``max_applications`` bounds rule applications per expansion
            of ``q1``'s Datalog image (each transitive-closure unrolling
            step costs one application) and ``max_expansions`` the
            expansions examined; both are ignored when ``q1`` is
            TC-free, whose expansion space is finite.  Unset fields take
            :data:`DEFAULT_LIMITS`.  Its deadline interrupts the
            enumeration cooperatively (structured verdict, no
            exception).
        tracer: optional :class:`repro.obs.trace.Tracer`; records a
            ``translate-datalog`` span for the Section 4.1 translation
            and an ``expansion-loop`` span counting expansions.
        kernel: accepted for engine-wide option uniformity and
            validated eagerly; the expansion procedure runs no
            language-inclusion search (the engine records
            ``selected: None``).
    """
    resolve_kernel(kernel)
    if q1.arity != q2.arity:
        raise ValueError(
            f"containment between arities {q1.arity} and {q2.arity} is ill-typed"
        )
    with maybe_span(tracer, "translate-datalog") as span:
        program = rq_to_datalog(q1)
        exhaustive = is_nonrecursive(program)
        span.annotate(rules=len(program.rules), nonrecursive=exhaustive)

    def refute(instance: Instance, head: Any) -> Counterexample | None:
        graph = instance_to_graph(instance)
        if satisfies_rq(q2, graph, head):
            return None
        return Counterexample(graph, head)

    return expansion_check(
        program, refute, "rq-expansion", budget, DEFAULT_LIMITS,
        exhaustive=exhaustive, tracer=tracer,
    )


def rq_equivalent(
    q1: RQ, q2: RQ, exact: bool = False, budget: Budget | None = None
) -> EquivalenceResult:
    """Equivalence via both containment directions.

    Returns an :class:`repro.report.EquivalenceResult` (truthy like the
    bool this used to return); with ``exact=True`` bounded directions do
    not count and are surfaced via ``bounded_directions``.
    """
    return EquivalenceResult(
        rq_contained(q1, q2, budget=budget),
        rq_contained(q2, q1, budget=budget),
        exact=exact,
    )
