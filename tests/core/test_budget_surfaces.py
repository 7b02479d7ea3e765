"""Budget is the only resource knob: regression tests for the routes
that used to disagree silently.

Bounds reach a check only as :class:`repro.budget.Budget` fields.  The
operator surfaces (``repro contain``/``batch``/``serve`` flags,
``ServeConfig``, wire frames) build that Budget through one pair of
functions, so a workload line means the same thing on every front door.
"""

from __future__ import annotations

import asyncio
import inspect
import io
import json

import pytest

from repro.automata.complement import complement_two_nfa
from repro.automata.onthefly import find_accepted_word, intersection_is_empty
from repro.automata.shepherdson import naive_complement_two_nfa, two_nfa_to_dfa
from repro.cache import clear_caches
from repro.cli import main
from repro.core.engine import check_containment, check_equivalence
from repro.crpq import expansion as crpq_expansion
from repro.crpq.containment import uc2rpq_contained, uc2rpq_equivalent
from repro.crpq.minimization import minimize_c2rpq, minimize_uc2rpq
from repro.datalog import unfolding as datalog_unfolding
from repro.datalog.containment import (
    datalog_equivalent_bounded,
    datalog_in_datalog,
    datalog_in_ucq,
)
from repro.grq.containment import grq_contained, grq_equivalent
from repro.rpq.containment import two_rpq_contained, two_rpq_equivalent
from repro.rq.containment import rq_contained, rq_equivalent
from repro.serve.server import ContainmentServer, ServeConfig

TC = "datalog:t(x,y) :- e(x,y). t(x,z) :- t(x,y), e(y,z)."


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches(reset_stats=True)
    yield
    clear_caches(reset_stats=True)


def serve_pipe(config: ServeConfig, lines: list[str]) -> list[dict]:
    """Every response of a piped ``repro serve`` session, in order."""
    stdin = io.BytesIO("".join(line + "\n" for line in lines).encode())
    stdout = io.BytesIO()

    async def run():
        await ContainmentServer(config).serve_pipe(stdin=stdin, stdout=stdout)

    asyncio.run(run())
    return [json.loads(line) for line in stdout.getvalue().decode().splitlines()]


class TestNoSecondRoute:
    @pytest.mark.parametrize(
        "function",
        [
            two_rpq_contained, two_rpq_equivalent,
            uc2rpq_contained, uc2rpq_equivalent,
            minimize_c2rpq, minimize_uc2rpq,
            rq_contained, rq_equivalent,
            grq_contained, grq_equivalent,
            datalog_in_ucq, datalog_in_datalog, datalog_equivalent_bounded,
            find_accepted_word, intersection_is_empty,
            complement_two_nfa, two_nfa_to_dfa, naive_complement_two_nfa,
            check_containment, check_equivalence,
        ],
        ids=lambda function: function.__name__,
    )
    def test_no_max_parameters(self, function):
        names = inspect.signature(function).parameters
        assert not [name for name in names if name.startswith("max_")]

    def test_enumerators_keep_their_caps(self):
        # The expansion enumerators are the mechanism the towers drive
        # from a Budget, not a second route around it.
        for module in (datalog_unfolding, crpq_expansion):
            names = inspect.signature(module.enumerate_expansions).parameters
            assert "max_expansions" in names


class TestAutoBudgetKeepsTheExpansionCap:
    """``--auto-budget --max-expansions N`` used to drop N: the cap was
    an engine option, and every escalation round overrode it."""

    def test_cli_contain(self, capsys):
        code = main(["contain", TC, TC, "--auto-budget", "--max-expansions", "3"])
        assert code == 0
        assert capsys.readouterr().out.strip() == (
            "holds up to bound 3 (grq-expansion)"
        )

    def test_serve_config(self):
        config = ServeConfig(workers=1, auto_budget=True, max_expansions=3)
        frame = json.dumps({"id": "tc", "left": TC, "right": TC})
        (response,) = serve_pipe(config, [frame])
        assert response["verdict"] == "holds_up_to_bound"
        assert response["bound"] == 3

    def test_every_escalation_round_uses_the_cap(self):
        from repro.budget import base_budget
        from repro.serve.protocol import parse_query_spec

        tc = parse_query_spec(TC)
        budget = base_budget(deadline_ms=500.0, auto=True, max_expansions=3)
        result = check_containment(tc, tc, budget=budget)
        rounds = result.details["escalation"]["rounds"]
        assert rounds
        assert {r["limits"]["expansions"] for r in rounds} == {3}


class TestBatchMatchesServe:
    """``repro batch`` used to keep only (left, right) of each line."""

    LINES = [
        json.dumps({"id": "plain", "left": "rpq:a a", "right": "rpq:a+"}),
        json.dumps(
            {"id": "kernel", "left": "rpq:a+", "right": "rpq:a a", "kernel": "subset"}
        ),
        json.dumps({"id": "cap", "left": TC, "right": TC, "max_expansions": 7}),
        json.dumps({"id": "deadline", "left": TC, "right": TC, "deadline_ms": 60000}),
    ]

    @staticmethod
    def key(response: dict) -> tuple:
        return (
            response["id"],
            response["verdict"],
            response["method"],
            response["bound"],
            response["kernel"]["requested"],
        )

    def test_same_answers_through_both_front_doors(self, tmp_path, capsys):
        workload = tmp_path / "w.ndjson"
        workload.write_text("\n".join(self.LINES) + "\n")
        assert main(["batch", str(workload), "--workers", "2"]) == 0
        batch = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        served = serve_pipe(ServeConfig(workers=2), self.LINES)
        assert [self.key(r) for r in batch] == [self.key(r) for r in served]
        by_id = {r["id"]: r for r in batch}
        assert by_id["kernel"]["kernel"]["requested"] == "subset"
        assert by_id["cap"]["bound"] == 7
        # The line's deadline reached the check: its budget ran a meter
        # (an unbudgeted run records an empty spend).
        for responses in (batch, served):
            deadline = {r["id"]: r for r in responses}["deadline"]
            assert "elapsed_ms" in deadline["budget"]["spend"]
