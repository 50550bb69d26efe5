"""A failing verdict is decided first and lists its failures on first read.

The list must be that of sweeping every law in full with ``law_failures``,
in law order, under the witness policy of the call that made the verdict;
``require`` must name its first failure; and deciding and then reading
must sweep no law twice.  The cases are every failing module and pair
candidate of the census of ``_census.py`` over ``rnil`` and ``sym`` at
n = 2, and two broken structures: the ``lambda 2`` square ring with one
``act`` entry changed, and the ``sym 3`` regular module with one bracket
entry changed.
"""

from __future__ import annotations

from functools import cache

import pytest

import quadrica.verdict as engine
from quadrica import (
    BhpModule,
    CpModule,
    MapTable,
    SquareRing,
    build_example,
    free_cp_pair,
    is_cp_quadratic,
    regular_module,
    set_config,
    verify_bhp_module,
    verify_square_ring,
)
from quadrica.errors import ConsistencyError
from quadrica.modules import _module_laws
from quadrica.squarering import _ring_laws
from quadrica.verdict import law_failures

from _census import module_candidates, module_census, pair_candidates, pair_census

CENSUS_KINDS = ("rnil", "sym")


def full_list(laws, all_witnesses: bool) -> tuple:
    """Every law swept in full, in law order, reduced forms ignored."""
    out = []
    for label, dims, law, *_ in laws:
        sizes, grid = engine._split(tuple(dims))
        out += law_failures(label, sizes, law, grid=grid, all_witnesses=all_witnesses)
    return tuple(out)


def broken_ring() -> SquareRing:
    """``lambda 2`` with (0,0)·0·1 raised by 1: it fails AC4 twice at one
    cell, among others."""
    sr = build_example("lambda", 2)
    act = sr.act.copy()
    act[0, 0, 0, 1] = (act[0, 0, 0, 1] + 1) % sr.ree.order
    return SquareRing(sr.re, sr.ree, act, sr.h, sr.p, sr.t)


def broken_module() -> BhpModule:
    """The ``sym 3`` regular module with [0,0]·0 raised by 1: it fails MC2
    and MC3, which have no reduced form, and MC5 (three times at one
    cell), MC6 and MC7, which have."""
    mod = regular_module(build_example("sym", 3))
    bracket = mod.bracket.copy()
    bracket[0, 0, 0] = (bracket[0, 0, 0] + 1) % mod.nm
    return BhpModule(mod.sr, mod.group, mod.scal, bracket)


@cache
def census_candidates() -> tuple[BhpModule, ...]:
    """Every module candidate of the census, and every pair candidate on
    each module that passes."""
    out = []
    for kind in CENSUS_KINDS:
        for mod in module_candidates(build_example(kind, 2)):
            out.append(mod)
            if verify_bhp_module(mod).passed:
                out.extend(pair_candidates(mod))
    return tuple(out)


def verify(obj):
    return verify_square_ring(obj) if isinstance(obj, SquareRing) else verify_bhp_module(obj)


def reference(obj, all_witnesses: bool) -> tuple:
    """The failures of ``verify(obj)`` from full sweeps: a ring's axioms,
    then its derived laws that fail at a cell not listed already (as
    ``Verdict.merge`` lists them)."""
    if not isinstance(obj, SquareRing):
        return full_list(_module_laws(obj), all_witnesses)
    laws, derived = (full_list(part, all_witnesses) for part in _ring_laws(obj))
    return laws + tuple(f for f in derived if f not in laws)


def failing_cases() -> list:
    return [m for m in census_candidates() if not verify(m).passed] + [broken_ring(),
                                                                      broken_module()]


def test_the_cases_are_failing_modules_pairs_and_a_ring():
    """274 of the 302 census candidates fail: 262 modules and 12 pairs."""
    failing = failing_cases()
    assert len(census_candidates()) == 302
    assert [sum(type(m) is kind for m in failing)
            for kind in (BhpModule, CpModule, SquareRing)] == [262 + 1, 12, 1]


@pytest.mark.parametrize("all_witnesses", [False, True], ids=["first", "every"])
def test_a_list_read_later_is_the_full_sweep_of_the_call_time_policy(all_witnesses):
    """Each verdict is made under one witness policy and read under the
    other: it lists what its call asked for."""
    differ = 0
    for obj in failing_cases():
        set_config(exhaustive_witnesses=all_witnesses)
        verdict = verify(obj)
        set_config(exhaustive_witnesses=not all_witnesses)
        assert not verdict.passed
        expected = reference(obj, all_witnesses)
        assert verdict.failures == expected and expected
        differ += expected != reference(obj, not all_witnesses)
    assert differ > 0


@pytest.mark.parametrize("all_witnesses", [False, True], ids=["first", "every"])
def test_a_refusal_of_an_unread_list_names_its_first_failure(all_witnesses):
    set_config(exhaustive_witnesses=all_witnesses)
    for obj in failing_cases():
        with pytest.raises(ConsistencyError) as info:
            verify(obj).require(ConsistencyError, "x")
        assert str(info.value) == f"x fails {reference(obj, all_witnesses)[0]}"


def test_the_census_reads_passed_alone_and_sweeps_its_ledger(swept):
    """The census of ``_census.py`` reads ``passed`` alone: 1,108 sweeps of
    29,449 cells, the same on every run (3,514 sweeps of 779,119 cells
    when every failing candidate listed its failures in full)."""
    rings = [build_example(kind, 2) for kind in CENSUS_KINDS]
    with swept() as census:
        counts = [(len(mods), sum(len(pair_census(m)) for m in mods))
                  for mods in map(module_census, rings)]
    assert counts == [(3, 8), (6, 11)]
    assert (census.sweeps, census.cells) == (1_108, 29_449)


@pytest.mark.parametrize("all_witnesses", [False, True], ids=["first", "every"])
def test_reading_the_census_failures_sweeps_no_law_the_decision_held(monkeypatch, swept,
                                                                     all_witnesses):
    """Reading the failures of every failing census candidate after the
    decision sweeps no (law, dims) that the decision found holding, and
    none twice under one witness policy.  With first witnesses, deciding
    and then reading costs exactly the sweeps of listing at once."""
    set_config(exhaustive_witnesses=all_witnesses)
    seen = []  # (law, dims, all witnesses, held) of each sweep

    def counting(label, dims, law, *, all_witnesses=False, **kwargs):
        found = law_failures(label, dims, law, all_witnesses=all_witnesses, **kwargs)
        seen.append((law, tuple(dims), all_witnesses, not found))
        return found

    candidates = census_candidates()
    monkeypatch.setattr(engine, "law_failures", counting)
    with swept() as decided:
        verdicts = [verify_bhp_module(m) for m in candidates]
    assert (decided.sweeps, decided.cells) == (1_108, 29_449)
    held = {(law, dims) for law, dims, _, ok in seen if ok}
    decision = len(seen)
    with swept() as read:
        failing = [v.failures for v in verdicts if not v.passed]
    assert len(failing) == 274 and all(failing)
    assert len(seen) > decision
    assert not any((law, dims) in held for law, dims, *_ in seen[decision:])
    assert len({key[:3] for key in seen}) == len(seen)
    if not all_witnesses:
        assert (decided.sweeps + read.sweeps, decided.cells + read.cells) == (3_514, 779_119)


def test_a_rejected_certificate_is_listed_when_it_is_made(swept):
    """A certificate holds the failures of each route, not the stacks and
    sweeps of its decision: reading them afterwards sweeps nothing."""
    pair = free_cp_pair(build_example("sym", 2))
    cert = is_cp_quadratic(MapTable(pair, pair, [1] * pair.nm))
    assert not cert.passed and len(cert.routes) == 2
    with swept() as tally:
        lists = [cert.verdict.failures, *(verdict.failures for _, verdict in cert.routes)]
    assert all(lists) and (tally.sweeps, tally.cells) == (0, 0)
