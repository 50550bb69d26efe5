"""The sweep engine's witness policy: the first failing cell of a law, or
with ``all_witnesses`` at most ``WITNESS_CAP`` of them, the last of which
counts the failing cells left out."""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from functools import partial

import numpy as np
import pytest

import quadrica.verdict as engine
from quadrica.verdict import (
    WITNESS_CAP,
    Failure,
    Verdict,
    law_failures,
    passing_candidates,
    run_laws,
)

CELLS = WITNESS_CAP + 100


def identity_is_zero(i):
    """Fails at every cell but 0."""
    return i, np.zeros_like(i)


def test_the_witness_list_stops_at_the_cap_and_counts_the_rest(monkeypatch):
    failures = law_failures("L", (CELLS,), identity_is_zero, all_witnesses=True)
    assert [f.witness for f in failures] == [(i,) for i in range(1, WITNESS_CAP + 1)]
    assert failures[0] == Failure("L", (1,), "lhs=1 rhs=0")
    assert [f.omitted for f in failures] == [0] * (WITNESS_CAP - 1) + [CELLS - 1 - WITNESS_CAP]
    assert law_failures("L", (CELLS,), identity_is_zero) == failures[:1]
    # the same list when the sweep runs in blocks of 64 cells
    monkeypatch.setattr(engine, "_BLOCK_CELLS", 64)
    assert law_failures("L", (CELLS,), identity_is_zero, all_witnesses=True) == failures


def test_a_verdict_names_each_law_whose_witnesses_were_left_out():
    laws = [
        ("L", (CELLS,), identity_is_zero),
        ("M", (4, 3), lambda a, b: (a * b, np.zeros_like(a + b))),
        ("N", (2,), lambda a: (a, a)),
    ]
    verdict = run_laws(laws, all_witnesses=True)
    assert verdict.failed_laws() == ("L", "M")
    assert len(verdict.failures) == WITNESS_CAP + 6
    omitted = [(f.law, f.omitted) for f in verdict.failures if f.omitted]
    assert omitted == [("L", CELLS - 1 - WITNESS_CAP)]
    assert not any(f.omitted for f in run_laws(laws).failures)


def test_an_index_set_axis_runs_over_its_elements(monkeypatch):
    """A law's axis given as a tuple runs over the tuple's values: the law
    body and the witnesses see the elements, in one block or in many."""
    odd = tuple(range(1, 2 * CELLS, 2))
    laws = [("L", (odd, 3), lambda a, b: (a * b, np.zeros_like(a + b)))]
    cells = [(a, b) for a in odd for b in (1, 2)]
    assert run_laws(laws).failures == (Failure("L", (1, 1), "lhs=1 rhs=0"),)
    every = run_laws(laws, all_witnesses=True).failures
    assert [f.witness for f in every] == cells[:WITNESS_CAP]
    stack = [("L", (odd,), lambda q, a: (a == q, np.zeros_like(a + q)))]
    assert passing_candidates(stack, 12).tolist() == [q % 2 == 0 for q in range(12)]
    monkeypatch.setattr(engine, "_BLOCK_CELLS", 64)
    assert run_laws(laws, all_witnesses=True).failures == every
    assert passing_candidates(stack, 12).tolist() == [q % 2 == 0 for q in range(12)]


def scattered(q, a, b, c):
    """Holds for the candidates divisible by 3; every other candidate fails
    at a scattered set of cells, its own."""
    fails = (q % 3 != 0) & ((a * b + c + q) % 5 == 0)
    return fails, np.zeros_like(q + a + b + c)


@pytest.mark.parametrize("budget", [1, 2, 5, 13, 64])
def test_blocks_split_any_axis_and_keep_every_verdict_and_witness(monkeypatch, budget):
    """With a block budget smaller than one candidate's grid, and smaller
    than a slice of it along the leading axes, the sweep splits the
    candidates and then each axis in turn.  Every block fits the budget,
    the blocks cover each cell once in lexicographic order, and every
    result is that of the unsplit sweep: first and exhaustive witnesses on
    index-set axes, and the mask of a candidate stack."""
    odd = (1, 3, 5, 9, 11)
    dims = (odd, 4, (0, 2, 6))
    single = [("L", dims, partial(scattered, 4))]
    stack = [("L", dims, scattered)]
    first, every = run_laws(single), run_laws(single, all_witnesses=True)
    mask = passing_candidates(stack, 12)
    assert len(first.failures) == 1 and 1 < len(every.failures) < 60
    assert mask.tolist() == [q % 3 == 0 for q in range(12)]
    monkeypatch.setattr(engine, "_BLOCK_CELLS", budget)
    assert run_laws(single) == first
    assert run_laws(single, all_witnesses=True) == every
    assert passing_candidates(stack, 12).tolist() == mask.tolist()
    sizes, grid = engine._split(dims)
    qs = np.arange(12)
    cells = []
    for block, parts, shape in engine._blocks(sizes, grid, len(qs)):
        assert np.prod(shape) <= budget
        cells += [(int(qs[block][i]), *(int(p.ravel()[j]) for p, j in zip(parts, rest)))
                  for i, *rest in np.ndindex(*shape)]
    assert cells == [(q, a, b, c) for q in qs for a in odd for b in range(4) for c in (0, 2, 6)]


def test_a_law_with_empty_dims_sweeps_its_one_cell(monkeypatch):
    monkeypatch.setattr(engine, "_BLOCK_CELLS", 1)
    assert law_failures("E", (), lambda: (1, 2)) == [Failure("E", (), "lhs=1 rhs=2")]
    assert law_failures("E", (), lambda: (3, 3), all_witnesses=True) == []
    assert law_failures("Z", (0, 3), lambda a, b: (a, b + 1)) == []


def test_checked_names_each_law_once_in_first_seen_order():
    """A law of several clauses repeats its label in the law list; the
    verdict, and a merge of two verdicts, name it once."""
    laws = [("L", (2,), lambda a: (a, a)), ("K", (2,), lambda a: (a, 0 * a)),
            ("L", (3,), lambda a: (a, a))]
    verdict = run_laws(laws)
    assert verdict.checked == ("L", "K")
    assert verdict.failures == (Failure("K", (1,), "lhs=1 rhs=0"),)
    other = Verdict.from_failures([], ["M", "K"])
    assert verdict.merge(other).checked == ("L", "K", "M")
    assert other.merge(verdict).checked == ("M", "K", "L")


def test_a_merge_lists_a_failure_found_by_both_verdicts_once():
    """A failure of the second verdict that the first lists already (a map
    over one module) is dropped; two clauses of one law failing at the
    same cell stay two failures of their verdict."""
    a, b, c = (Failure("L", (1,), "lhs=1 rhs=0"), Failure("K", (0,), "lhs=0 rhs=2"),
               Failure("L", (2,), "lhs=2 rhs=0"))
    one = Verdict.from_failures([a, b], ["L", "K"])
    assert one.merge(Verdict.from_failures([b, c], ["K", "L"])).failures == (a, b, c)
    assert one.merge(one) == one
    twice = Verdict.from_failures([a, a], ["L"])
    assert twice.merge(twice).failures == (a, a)
    assert one.merge(twice).failures == (a, b)


def test_a_verdict_listed_on_read_compares_hashes_and_prints_as_its_list():
    """A failing verdict of ``run_laws`` equals, hashes and prints as the
    verdict of its failures, and stays frozen."""
    laws = [("L", (3,), identity_is_zero), ("K", (2,), lambda a: (a, a))]
    eager = Verdict.from_failures(law_failures("L", (3,), identity_is_zero), ["L", "K"])
    assert run_laws(laws) == eager and eager == run_laws(laws)
    assert hash(run_laws(laws)) == hash(eager)
    assert repr(run_laws(laws)) == repr(eager) == (
        "Verdict(passed=False, failures=(Failure(law='L', witness=(1,), detail='lhs=1 rhs=0', "
        "omitted=0),), checked=('L', 'K'))")
    verdict = run_laws(laws)
    with pytest.raises(FrozenInstanceError):
        verdict.passed = True
    assert Verdict(True) == Verdict(True, (), ()) != eager
