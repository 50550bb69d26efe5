"""The generator route of the group layer.

``build_group`` decides associativity by Light's test on a generating set S
of the table as a magma, and ``subgroup_closure``, ``generators`` and S come
from one vectorised closure.  Verdicts, ``NotAGroup`` messages, closures and
generating sets must be those of the exhaustive associativity sweep and of
the loop-based closure below.
"""

from __future__ import annotations

import itertools
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import quadrica.verdict as engine
from quadrica import (
    FiniteGroup,
    build_example,
    build_group,
    cyclic,
    dihedral,
    direct_product,
    free_cp_pair,
    generators,
    gr,
    hom_module,
    loads,
    rbar_regular_module,
    ree_module,
    regular_module,
    verify_bhp_module,
    zero_module,
)
from quadrica.errors import NotAGroup
from quadrica.groups import _generating_set
from quadrica.verdict import law_failures, run_laws

from conftest import RING_SPECS
from _census import module_candidates, pair_candidates

DATA = Path(__file__).parent / "data"


def associativity(add: np.ndarray):
    return lambda a, b, c: (add[add[a, b], c], add[a, add[b, c]])


def full_sweep_message(add: np.ndarray) -> str | None:
    """The ``NotAGroup`` message of the exhaustive associativity sweep, or
    None when the table is associative."""
    n = len(add)
    bad = law_failures("associativity", (n, n, n), associativity(add))
    return (f"group table fails associativity at {bad[0].witness}: {bad[0].detail}"
            if bad else None)


def loop_closure(group: FiniteGroup, seed) -> tuple[int, ...]:
    """The least subgroup containing ``seed``, by a fixed point over sums
    and negatives, one element at a time."""
    members = {0} | {int(s) for s in seed}
    frontier = list(members)
    while frontier:
        a = frontier.pop()
        for b in list(members):
            for c in (int(group.add[a, b]), int(group.add[b, a]), int(group.neg[a])):
                if c not in members:
                    members.add(c)
                    frontier.append(c)
    return tuple(sorted(members))


def loop_generators(group: FiniteGroup) -> tuple[int, ...]:
    picked: list[int] = []
    span = {0}
    for a in range(group.order):
        if a not in span:
            picked.append(a)
            span = set(loop_closure(group, picked))
    return tuple(picked)


def magmas_with_neutral_zero(n: int):
    """Every table of order n in which 0 is a two-sided neutral element."""
    free = [(i, j) for i in range(1, n) for j in range(1, n)]
    for values in itertools.product(range(n), repeat=len(free)):
        add = np.zeros((n, n), dtype=np.int64)
        add[0] = add[:, 0] = np.arange(n)
        for cell, v in zip(free, values):
            add[cell] = v
        yield add


def sampled_magmas(count: int):
    """A seeded sample of tables of order 4–6 with neutral 0: half uniform,
    half a cyclic group with one or two cells changed."""
    rng = np.random.default_rng(10)
    for t in range(count):
        n = int(rng.integers(4, 7))
        if t % 2:
            add = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
            for _ in range(int(rng.integers(1, 3))):
                add[tuple(rng.integers(1, n, 2))] = rng.integers(0, n)
        else:
            add = rng.integers(0, n, (n, n))
            add[0] = add[:, 0] = np.arange(n)
        yield add


def assert_light_agrees(add: np.ndarray) -> None:
    """Light's test gives the verdict of the full sweep, and ``build_group``
    the ``NotAGroup`` message of the full sweep."""
    n = len(add)
    law = associativity(add)
    S = _generating_set(add)
    for all_witnesses in (False, True):
        assert run_laws([("associativity", (n, n, n), law, (n, S, n))],
                        all_witnesses=all_witnesses) == \
            run_laws([("associativity", (n, n, n), law)], all_witnesses=all_witnesses)
    expected = full_sweep_message(add)
    try:
        group = build_group(add)
    except NotAGroup as err:
        assert expected == str(err) or (expected is None and "inverse" in str(err))
    else:
        assert expected is None
        assert np.array_equal(group.add, add)


def build_suite_groups() -> tuple[FiniteGroup, ...]:
    """The groups of the structures the suite builds: the 20 rings, their
    standard modules and Hom carriers at n = 2, the census candidates, the
    documents under tests/data and the hand-built groups of test_groups.
    Each structure is verified, and each free pair also gives ``gr``."""
    groups = [cyclic(1), cyclic(6), dihedral(3), dihedral(4),
              direct_product(cyclic(2), cyclic(3)), direct_product(cyclic(2), cyclic(4)),
              direct_product(dihedral(4), cyclic(2))]
    for kind, n, eps in RING_SPECS:
        sr = build_example(kind, n, epsilon=eps)
        groups += [sr.re.group, sr.ree]
        for mod in (regular_module(sr), ree_module(sr), rbar_regular_module(sr),
                    free_cp_pair(sr), zero_module(sr)):
            groups.append(mod.group)
        pair = free_cp_pair(sr)
        gr(pair)
        if n == 2:
            groups.append(hom_module(pair, pair).group)
    for kind in ("rnil", "sym"):
        for mod in module_candidates(build_example(kind, 2)):
            groups.append(mod.group)
            if verify_bhp_module(mod).passed:
                groups += [p.group for p in pair_candidates(mod)]
    for path in sorted(DATA.glob("*.cpmod")):
        groups.append(loads(path.read_text()).group)
    distinct = {g.add.tobytes(): g for g in groups}
    return tuple(distinct.values())


suite_groups = cache(build_suite_groups)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_light_agrees_with_the_full_sweep_on_every_small_magma(n):
    tables = list(magmas_with_neutral_zero(n))
    assert len(tables) == n ** ((n - 1) ** 2)
    for add in tables:
        assert_light_agrees(add)


def test_light_agrees_with_the_full_sweep_on_a_sample_of_larger_magmas():
    failing = 0
    for add in sampled_magmas(300):
        assert_light_agrees(add)
        failing += full_sweep_message(add) is not None
    assert 0 < failing < 300


def test_light_agrees_with_the_full_sweep_on_every_suite_group():
    groups = suite_groups()
    assert max(g.order for g in groups) == 64
    for group in groups:
        assert_light_agrees(np.array(group.add))


def test_a_witness_off_the_generating_set_keeps_the_full_sweep_message():
    """S = (1,), and the first failing cell of the full sweep is (1, 2, 1):
    its middle entry is not in S.  Running the middle axis over the
    positions 0 .. |S|-1 of S, (0,), would pass this table."""
    add = np.array([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 2, 1, 2]])
    assert _generating_set(add) == (1,)
    with pytest.raises(NotAGroup) as info:
        build_group(add)
    assert str(info.value) == "group table fails associativity at (1, 2, 1): lhs=2 rhs=0"
    assert str(info.value) == full_sweep_message(add)


def test_associativity_sweeps_the_generating_set_on_the_middle_axis(monkeypatch):
    """One sweep of n·|S|·n cells for a group, then the n cells of the
    inverse law.  A table that fails associativity is refused by the
    reduced form; its first witness is then the one of the full n³ sweep,
    the only other sweep, and no inverse sweep follows.  (S on the first
    axis would be a valid test too, by the mirror of Light's argument, so
    only the dims tell it apart.)"""
    seen = []

    def counting(label, dims, law, **kwargs):
        seen.append(tuple(dims))
        return law_failures(label, dims, law, **kwargs)

    monkeypatch.setattr(engine, "law_failures", counting)
    group = build_group(direct_product(cyclic(3), cyclic(3)).add)
    assert seen == [(9, 2, 9), (9,)] and generators(group) == (1, 3)
    seen.clear()
    with pytest.raises(NotAGroup):
        build_group([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 2, 1, 2]])
    assert seen == [(4, 1, 4), (4, 4, 4)]


def test_closures_and_generators_match_the_loop_on_every_suite_group(monkeypatch):
    """Every seed that building the suite's structures passes to
    ``subgroup_closure``, every seed of one or two elements on the groups
    of order at most 16, and every generating set."""
    recorded: list[tuple[FiniteGroup, tuple[int, ...]]] = []
    closure = FiniteGroup.subgroup_closure

    def recording(self, seed):
        seed = tuple(int(s) for s in seed)
        recorded.append((self, seed))
        return closure(self, seed)

    monkeypatch.setattr(FiniteGroup, "subgroup_closure", recording)
    build_suite_groups()
    monkeypatch.undo()
    assert len(dict.fromkeys(recorded)) >= 10  # distinct (group, seed) pairs
    for group, seed in dict.fromkeys(recorded):
        assert group.subgroup_closure(seed) == loop_closure(group, seed)
    for group in suite_groups():
        fresh = FiniteGroup(group.add, group.neg)  # nothing cached
        assert generators(fresh) == loop_generators(fresh) == generators(group)
        if group.order <= 16:
            for seed in itertools.combinations_with_replacement(range(group.order), 2):
                assert group.subgroup_closure(seed) == loop_closure(group, seed)
            assert group.subgroup_closure(()) == (0,)
