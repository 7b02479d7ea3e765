"""Containment involving Datalog programs (Sections 2.3 and 4).

Exactly decidable directions implemented exactly:

- ``UCQ ⊆ Datalog`` (:func:`ucq_in_datalog`): evaluate the program over
  the canonical database of each disjunct — decidable because Datalog
  evaluation terminates; the classical reduction from [20].
- ``nonrecursive Datalog ⊆/⊇ anything UCQ-like``: via
  :func:`repro.datalog.unfolding.unfold_nonrecursive`.

The undecidable/expensive directions use the expansion characterization
(a Datalog query equals the union of its expansions), giving a sound
refutation procedure that is exact whenever the expansion space is
exhausted and reports ``HOLDS_UP_TO_BOUND`` otherwise — the contract
DESIGN.md section 2 spells out.  Full Datalog containment is undecidable
(the paper's [52]), so *some* bound is intrinsic, not an implementation
shortcut.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from ..automata.antichain import resolve_kernel
from ..budget import UNLIMITED, Budget, BudgetExhausted, bounded_result
from ..cq.containment import ucq_contained
from ..cq.evaluation import satisfies_ucq
from ..cq.syntax import CQ, UCQ
from ..obs.trace import maybe_span
from ..report import ContainmentResult, Counterexample, EquivalenceResult, Verdict
from ..relational.instance import Instance
from .analysis import is_nonrecursive
from .evaluation import evaluate
from .syntax import Program
from .unfolding import enumerate_expansions, unfold_nonrecursive

DEFAULT_EXPANSION_BUDGET = 2000

#: Default limits of the Datalog procedures, for fields a caller's
#: budget leaves unset.  There is no default application bound: the
#: expansion cap alone bounds the search.
DEFAULT_LIMITS = {"max_expansions": DEFAULT_EXPANSION_BUDGET}


def expansion_check(
    program: Program,
    refute: Callable[[Instance, Any], Counterexample | None],
    method: str,
    budget: Budget | None,
    defaults: Mapping[str, int | None],
    *,
    exhaustive: bool,
    tracer=None,
) -> ContainmentResult:
    """The expansion loop shared by every Datalog-image procedure.

    Enumerates *program*'s expansions, builds each one's canonical
    instance, and asks *refute* for a counterexample on it (an exact
    membership test: None means the expansion is contained).  The first
    counterexample is an exact REFUTED.  If none turns up, the verdict
    is HOLDS when *exhaustive* (a nonrecursive program, whose finite
    expansion space is enumerated unbounded) and HOLDS_UP_TO_BOUND
    otherwise.

    The limits are *budget*'s ``max_applications`` / ``max_expansions``,
    with *defaults* filling the fields it leaves unset; they bound the
    enumerator.  A non-null *budget* also starts a meter for its
    deadline, which accounts expansions for the spend report; a spent
    deadline comes back as a structured verdict, never an exception.
    An optional *tracer* records an ``expansion-loop`` span counting
    expansions.
    """
    limits = (budget or UNLIMITED).merged(**defaults)
    meter = None
    if budget is not None and not budget.is_null:
        meter = Budget(deadline_ms=budget.deadline_ms).start()
    iterator = enumerate_expansions(
        program,
        max_applications=None if exhaustive else limits.max_applications,
        max_expansions=None if exhaustive else limits.max_expansions,
        meter=meter,
    )
    checked = 0
    try:
        with maybe_span(tracer, "expansion-loop", exhaustive=exhaustive) as span:
            try:
                for expansion in iterator:
                    checked += 1
                    if meter is not None:
                        meter.note("expansions")
                    counterexample = refute(*expansion.canonical_instance())
                    if counterexample is not None:
                        return ContainmentResult(
                            Verdict.REFUTED,
                            method,
                            counterexample,
                            details={"expansions_checked": checked},
                        )
            finally:
                span.count("expansions", checked)
    except BudgetExhausted as exc:
        return bounded_result(
            method, exc, meter, details={"expansions_checked": checked}
        )
    details: dict[str, Any] = {"expansions_checked": checked}
    if exhaustive:
        return ContainmentResult(Verdict.HOLDS, method, details=details)
    if limits.max_applications is not None:
        details["max_applications"] = limits.max_applications
    if meter is not None:
        details["budget"] = {"spend": meter.spend()}
    return ContainmentResult(
        Verdict.HOLDS_UP_TO_BOUND,
        method,
        bound=limits.max_expansions,
        details=details,
    )


def cq_in_datalog(cq: CQ, program: Program) -> ContainmentResult:
    """Exact: ``cq ⊆ program`` iff the program derives the frozen head
    over the canonical database of *cq* (one terminating evaluation)."""
    if cq.arity != program.goal_arity:
        raise ValueError("arity mismatch between CQ and program goal")
    instance, head = cq.canonical_instance()
    answers = evaluate(program, instance)
    if head in answers:
        return ContainmentResult(Verdict.HOLDS, "canonical-db-evaluation")
    return ContainmentResult(
        Verdict.REFUTED,
        "canonical-db-evaluation",
        Counterexample(instance, head),
    )


def ucq_in_datalog(
    ucq: UCQ | CQ, program: Program, tracer=None, kernel: str = "auto"
) -> ContainmentResult:
    """Exact: every disjunct must map into the program's answers.

    *kernel* is accepted for engine-wide option uniformity and validated
    eagerly; canonical-database evaluation runs no language-inclusion
    search (the engine records ``selected: None``).
    """
    resolve_kernel(kernel)
    union = ucq if isinstance(ucq, UCQ) else UCQ((ucq,))
    with maybe_span(tracer, "canonical-db-evaluation") as span:
        checked = 0
        try:
            for disjunct in union:
                checked += 1
                result = cq_in_datalog(disjunct, program)
                if result.verdict is Verdict.REFUTED:
                    return result
        finally:
            span.count("disjuncts", checked)
    return ContainmentResult(Verdict.HOLDS, "canonical-db-evaluation")


def datalog_in_ucq(
    program: Program,
    ucq: UCQ | CQ,
    budget: Budget | None = None,
    tracer=None,
    kernel: str = "auto",
) -> ContainmentResult:
    """``program ⊆ ucq`` via expansion enumeration.

    Exact (HOLDS/REFUTED) for nonrecursive programs; for recursive
    programs a REFUTED verdict is exact and a positive verdict is
    ``HOLDS_UP_TO_BOUND`` over the explored expansions.  An optional
    *budget*'s ``max_applications`` / ``max_expansions`` fields bound the
    expansion search (defaults: :data:`DEFAULT_LIMITS`); its deadline is
    polled cooperatively and produces a structured verdict, never an
    exception.  An optional *tracer* records an ``unfold-to-ucq`` span
    (nonrecursive path) or an ``expansion-loop`` span counting
    expansions.  *kernel* is accepted for engine-wide option uniformity
    and validated eagerly; the expansion procedure runs no
    language-inclusion search (the engine records ``selected: None``).
    """
    resolve_kernel(kernel)
    union = ucq if isinstance(ucq, UCQ) else UCQ((ucq,))
    if is_nonrecursive(program):
        with maybe_span(tracer, "unfold-to-ucq") as span:
            unfolded = unfold_nonrecursive(program)
            span.count("disjuncts", len(tuple(unfolded)))
            result = ucq_contained(unfolded, union)
        if result.holds:
            return ContainmentResult(Verdict.HOLDS, "unfold-to-ucq")
        instance, head = result.counterexample  # type: ignore[misc]
        return ContainmentResult(
            Verdict.REFUTED, "unfold-to-ucq", Counterexample(instance, head)
        )

    def refute(instance: Instance, head: Any) -> Counterexample | None:
        if satisfies_ucq(union, instance, head):
            return None
        return Counterexample(instance, head)

    return expansion_check(
        program, refute, "expansion", budget, DEFAULT_LIMITS,
        exhaustive=False, tracer=tracer,
    )


def datalog_in_datalog(
    left: Program,
    right: Program,
    budget: Budget | None = None,
    tracer=None,
    kernel: str = "auto",
) -> ContainmentResult:
    """``left ⊆ right`` for two Datalog programs.

    For each expansion of *left*, check (exactly) whether its canonical
    database makes *right* derive the head — the [20]-style combination
    of expansions with terminating evaluation.  Undecidable in general
    [52], hence the bounded verdict; REFUTED is always exact, and a
    nonrecursive *left* exhausts its finite expansion space, upgrading
    the positive verdict to HOLDS.  An optional *budget* bounds the
    expansion search (defaults: :data:`DEFAULT_LIMITS`) and adds
    cooperative deadline polling (structured verdict on exhaustion,
    never an exception).  *kernel* is accepted for engine-wide option
    uniformity and validated eagerly; the expansion procedure runs no
    language-inclusion search (the engine records ``selected: None``).
    """
    resolve_kernel(kernel)
    if left.goal_arity != right.goal_arity:
        raise ValueError("arity mismatch between program goals")
    return expansion_check(
        left, evaluation_refutes(right), "expansion-vs-evaluation", budget,
        DEFAULT_LIMITS, exhaustive=is_nonrecursive(left), tracer=tracer,
    )


def evaluation_refutes(
    program: Program,
) -> Callable[[Instance, Any], Counterexample | None]:
    """The refutation test "*program* does not derive the head"."""

    def refute(instance: Instance, head: Any) -> Counterexample | None:
        if head in evaluate(program, instance):
            return None
        return Counterexample(instance, head)

    return refute


def datalog_equivalent_bounded(
    left: Program,
    right: Program,
    exact: bool = False,
    budget: Budget | None = None,
) -> EquivalenceResult:
    """Bounded equivalence check via both containment directions.

    Returns an :class:`repro.report.EquivalenceResult` (truthy like the
    bool this used to return); with ``exact=True`` bounded directions do
    not count and are surfaced via ``bounded_directions``.
    """
    return EquivalenceResult(
        datalog_in_datalog(left, right, budget=budget),
        datalog_in_datalog(right, left, budget=budget),
        exact=exact,
    )
