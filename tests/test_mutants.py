"""The committed mutants still apply: tests/mutants.py is run outside tier-1,
so a refactor that moves a snippet fails here until its mutant is updated."""

import os
import time

import mutants
import pytest
from mutants import MUTANTS, ROOT, SRC, Mutant, run


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_snippet_occurs_exactly_once(mutant):
    text = (SRC / "absim" / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


def test_names_unique_and_named_tests_defined():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in MUTANTS:
        assert mutant.tests
        for node in mutant.tests:
            path, *_, function = node.split("::")
            assert f"def {function}(" in (ROOT / path).read_text(encoding="utf-8"), node


def test_looping_mutant_times_out():
    # a mutant that makes its test spin forever ends with its own outcome
    loops = Mutant("greedy_action_loops", "qlearning.py",
                   "    return row.index(max(row))\n", "    while True:\n        pass\n",
                   ("tests/test_qlearning.py::TestGreedyAction::test_argmax",))
    start = time.monotonic()
    assert run(loops, timeout=3) == "timed out after 3 s"
    assert time.monotonic() - start < 30


def test_timeout_counts_as_not_killed(monkeypatch, capsys):
    monkeypatch.setattr(mutants, "run", lambda mutant: "timed out after 3 s")
    assert mutants.main([MUTANTS[0].name]) == 1
    assert capsys.readouterr().out == (f"{MUTANTS[0].name}: timed out after 3 s\n"
                                       "0 of 1 mutants killed\n")


def test_parallel_mutants_report_in_mutants_order(monkeypatch, capsys):
    # with two workers, the first mutant sleeps 1.5 s at each of its test's two
    # calls, so it ends after the second; both run at once, and the first is
    # still reported first
    slow = Mutant("greedy_action_sleeps", "qlearning.py",
                  "    return row.index(max(row))\n",
                  "    __import__('time').sleep(1.5)\n    return row.index(max(row))\n",
                  ("tests/test_qlearning.py::TestGreedyAction::test_argmax",))
    fast = next(m for m in MUTANTS if m.name == "greedy_action_last_tie")
    monkeypatch.setattr(mutants, "MUTANTS", (slow, fast))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    spans = {}

    def timed(mutant):
        start = time.monotonic()
        outcome = run(mutant)
        spans[mutant.name] = (start, time.monotonic())
        return outcome

    monkeypatch.setattr(mutants, "run", timed)
    assert mutants.main([]) == 1
    assert capsys.readouterr().out == ("greedy_action_sleeps: survived\n"
                                       "greedy_action_last_tie: killed\n"
                                       "1 of 2 mutants killed\n")
    (slow_start, slow_end), (_, fast_end) = spans[slow.name], spans[fast.name]
    assert slow_start < fast_end < slow_end  # they overlapped, and the second ended first
