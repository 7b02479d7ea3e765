"""The benchmark's own tests: the oracle, the span arithmetic, and the
rules that a wrong verdict fails a run and that no process outlives one.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import pathlib
import random
import re
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
from repro.automata.regex import random_regex  # noqa: E402


def _random_specs(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield (str(random_regex(rng, ("a", "b"), rng.randint(3, 5))),
               str(random_regex(rng, ("a", "b"), rng.randint(3, 5))))


def test_python_regex_matches_the_oracle_nfa_word_by_word():
    chars = {"a": "x", "b": "y"}
    for left, _ in _random_specs(3, 300):
        ast = oracle.parse(left)
        nfa = oracle.NFA(ast)
        pattern = re.compile(oracle.python_regex(ast, chars))
        for length in range(6):
            for word in itertools.product("ab", repeat=length):
                text = "".join(chars[c] for c in word)
                assert bool(pattern.fullmatch(text)) == nfa.accepts(word), (left, word)


def test_inclusion_oracle_agrees_with_brute_force():
    for left, right in _random_specs(4, 400):
        l_ast, r_ast = oracle.parse(left), oracle.parse(right)
        witness = oracle.inclusion_witness(oracle.NFA(l_ast), oracle.NFA(r_ast))
        brute = oracle.brute_force_witness(l_ast, r_ast, oracle.BRUTE_LENGTH)
        assert (brute is None) == (witness is None or len(witness) > oracle.BRUTE_LENGTH)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_a8_pairs_are_refuted_by_the_independent_oracle(n):
    pair = gen.a8_pair(n, suffix="t")
    left = oracle.NFA(oracle.parse(pair["left"].split(":", 1)[1]))
    right = oracle.NFA(oracle.parse(pair["right"].split(":", 1)[1]))
    witness = oracle.inclusion_witness(left, right)
    assert witness is not None and len(witness) == n + 1


def test_rename_keeps_the_shape_and_changes_every_letter():
    spec = "((a* (b- ()))+ (a++ b*+))+"
    renamed = gen._rename(spec, "7")
    assert oracle.parse(renamed) is not None
    assert oracle._symbols(oracle.parse(renamed)) == {"a7", "b7", "b7-"}


def test_semipath_search_refutes_the_paper_counterexample():
    # p p- is not contained in p: the path 0 -p-> 1 <-p- 2 answers (0, 2) for p p- only.
    left, right = oracle.NFA(oracle.parse("p p-")), oracle.NFA(oracle.parse("p"))
    assert oracle.semipath_refutation(left, right) == ("p", "p-")
    # p is contained in p p- p (paper §3.2): no expansion of p separates them.
    left, right = oracle.NFA(oracle.parse("p")), oracle.NFA(oracle.parse("p p- p"))
    assert oracle.semipath_refutation(left, right) is None


def test_engine_verdicts_on_a_cold_batch_pass_the_oracle():
    from repro.core import check_containment
    from workloads import batch_objects, judge_batch

    pairs = gen.batch_round(5, 0, 120)
    objects = batch_objects(pairs)

    class Item:
        def __init__(self, result):
            self.result = result

    items = [Item(check_containment(*q)) for q in objects]
    failed, wrong = judge_batch(oracle.Oracle(), pairs, objects, items)
    assert (failed, wrong) == (0, [])


def test_a_wrong_hand_label_is_reported():
    from repro.core import check_containment
    from repro.serve.protocol import parse_query_spec

    pair = dict(gen.smoke_pairs()[0], truth="refuted")  # really holds
    queries = (parse_query_spec(pair["left"]), parse_query_spec(pair["right"]))
    verdict = check_containment(*queries).verdict.value
    assert verdict == "holds"
    assert oracle.Oracle().judge(pair, verdict) is not None


def test_a_wrong_expected_verdict_fails_the_run(monkeypatch, capsys):
    # Flip every hand label: served smoke frames now contradict the
    # oracle, so the run must report correct=false and exit non-zero.
    for key, truth in list(gen.SMOKE_TRUTH.items()):
        monkeypatch.setitem(gen.SMOKE_TRUTH, key, "holds" if truth == "refuted" else "refuted")
    code = run.main(["--workload", "serve-mixed", "--seed", "3", "--seconds", "2"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] > 0


def test_self_time_subtracts_covered_children_once():
    records = [
        {"id": 0, "name": "engine", "parent": None, "start": 0.0, "end": 0.010},
        {"id": 1, "name": "kernel", "parent": 0, "start": 0.001, "end": 0.006},
        {"id": 2, "name": "compile", "parent": 1, "start": 0.002, "end": 0.004,
         "states_in": 9, "states_out": 4},
        {"id": 3, "name": "compile", "parent": 0, "start": 0.007, "end": 0.008,
         "states_in": 3, "states_out": 2},
    ]
    selfs = traced.self_times(records)
    assert selfs[0] == pytest.approx(4.0)  # 10 ms minus 5 + 1 covered
    assert selfs[1] == pytest.approx(3.0)
    layers = traced.engine_layers(records)
    assert layers["compile.ms_total"] == pytest.approx(3.0)
    assert layers["kernel.ms_total"] == pytest.approx(3.0)  # 5 ms minus its 2 ms compile
    assert layers["engine.unattributed_share"] == pytest.approx(0.4)


def test_benchmark_spec_names_every_metric_a_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["serve-hot", "batch-cold"]
    assert set(traced._zero_layers()) == {m["name"] for m in spec["per_layer"]}


def test_supervisor_reaps_what_the_measurement_leaves_behind():
    # The measured child exits at once, leaving a background process
    # that outlives it (as a fork server does); it must be gone by the
    # time the supervisor returns.
    import subprocess

    script = (
        "import sys, procs; "
        "sys.exit(procs.supervise(['sh', '-c', 'sleep 0.3 & echo $!; exit 3']))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=HERE, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 3
    orphan = int(done.stdout.split()[0])
    assert not pathlib.Path(f"/proc/{orphan}").exists()
