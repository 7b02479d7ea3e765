"""Declarative networking with GRQ: the application the paper motivates.

Section 1 and Section 4 of the paper argue that applications like
declarative networking [37] need recursion for *connectivity* — "there
is a network connection of some unknown length between nodes x and y" —
which Monadic Datalog cannot express, full Datalog makes undecidable,
and GRQ makes decidable.

This example models a small datacenter network, writes routing queries
as GRQ programs, and uses the containment engine as a *policy checker*:
"does every multi-hop route the router computes stay within links the
security policy allows?" is exactly a containment question.

Run:  python examples/declarative_networking.py
"""

from repro.budget import Budget
from repro.core import check_containment
from repro.datalog import evaluate, parse_program
from repro.grq import check_grq
from repro.relational import Instance


def build_network() -> Instance:
    """Two racks of servers, top-of-rack switches, a spine, one bad link."""
    db = Instance()
    links = [
        # rack 1
        ("s1", "tor1"), ("s2", "tor1"), ("s3", "tor1"),
        # rack 2
        ("s4", "tor2"), ("s5", "tor2"),
        # fabric
        ("tor1", "spine"), ("tor2", "spine"),
        # unapproved gear: a lab box wired straight into s3
        ("lab0", "s3"),
    ]
    for a, b in links:
        db.add("link", (a, b))
        db.add("link", (b, a))  # links are bidirectional
        if "lab0" not in (a, b):
            db.add("approved", (a, b))
            db.add("approved", (b, a))
    return db


ROUTER = """
    % connectivity over all physical links (Section 2.3's E+ pattern)
    route(x, y) :- link(x, y).
    route(x, z) :- route(x, y), link(y, z).
"""

POLICY = """
    % connectivity restricted to approved links
    safe(x, y) :- approved(x, y).
    safe(x, z) :- safe(x, y), approved(y, z).
"""


def main() -> None:
    network = build_network()
    router = parse_program(ROUTER, goal="route")
    policy = parse_program(POLICY, goal="safe")

    # Both programs are GRQ: recursion is exactly transitive closure.
    for name, program in (("router", router), ("policy", policy)):
        report = check_grq(program)
        print(f"{name}: GRQ? {report.is_grq}")

    routes = evaluate(router, network)
    print(f"\nrouter computes {len(routes)} reachable pairs")
    print("s1 can reach s5:", ("s1", "s5") in routes)

    # Static policy check = query containment (no network data needed!).
    verdict = check_containment(router, policy, budget=Budget(max_expansions=40))
    print("\nevery route is policy-safe?", verdict.describe())

    # The engine refuses to certify: physical connectivity uses links the
    # policy does not approve.  The counterexample is a synthetic network
    # exhibiting the violation pattern.
    if verdict.counterexample is not None:
        cex = verdict.counterexample
        print("counterexample network:", sorted(cex.database.facts()))
        print("violating route:", cex.output)

    # Fix the router to only use approved links, then re-check.
    fixed = parse_program(
        """
        route(x, y) :- approved(x, y).
        route(x, z) :- route(x, y), approved(y, z).
        """,
        goal="route",
    )
    verdict = check_containment(fixed, policy, budget=Budget(max_expansions=40))
    print("\nfixed router is policy-safe?", verdict.describe())

    # And the fixed router still reaches everything reachable safely:
    verdict = check_containment(policy, fixed, budget=Budget(max_expansions=40))
    print("policy-reachability ⊑ fixed router?", verdict.describe())

    # On the concrete network, the difference is visible too.
    fixed_routes = evaluate(fixed, network)
    dropped = routes - fixed_routes
    print(f"\nroutes dropped by the fix: {len(dropped)}")
    print("lab0 routes removed:", any("lab0" in pair for pair in dropped))


if __name__ == "__main__":
    main()
