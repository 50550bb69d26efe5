"""Generated submodules, admissible intermediates and the refusals of the
module quotients, each against a plain-Python oracle written here.

The modules are the n = 2 census modules over ``rnil`` and ``sym`` and the
regular and R_ee modules over ``tensor 3``, ``gamma 3``, ``sym 4`` and
``rnil 4``.
"""

from __future__ import annotations

import itertools
from functools import cache

import pytest

from quadrica import (
    FiniteGroup,
    admissible_intermediates,
    build_example,
    derived_module,
    free_cp_pair,
    generated_submodule,
    gr,
    quotient_bhp,
    r_center,
    ree_module,
    regular_module,
)
from quadrica import modules as modules_layer
from quadrica.errors import ConsistencyError, NotNormal, PreconditionUnmet
from quadrica.groups import representatives

from _census import module_census


@cache
def modules() -> dict:
    out = {}
    for kind in ("rnil", "sym"):
        for i, mod in enumerate(module_census(build_example(kind, 2))):
            out[f"{kind}2-census{i}"] = mod
    for kind, n in (("tensor", 3), ("gamma", 3), ("sym", 4), ("rnil", 4)):
        sr = build_example(kind, n)
        out[f"{kind}{n}-regular"] = regular_module(sr)
        out[f"{kind}{n}-ree"] = ree_module(sr)
    return out


NAMES = [f"{kind}2-census{i}" for kind, count in (("rnil", 3), ("sym", 6)) for i in range(count)] + [
    f"{kind}{n}-{which}"
    for kind, n in (("tensor", 3), ("gamma", 3), ("sym", 4), ("rnil", 4))
    for which in ("regular", "ree")
]


def test_module_list_is_complete():
    assert sorted(modules()) == sorted(NAMES)


def closure_oracle(mod, seed) -> tuple[int, ...]:
    """The least set holding 0 and seed, closed under +, scal and bracket."""
    members = {0, *(int(s) for s in seed)}
    while True:
        grown = set(members)
        for a in members:
            grown.update(int(v) for v in mod.scal[a])
            for b in members:
                grown.add(int(mod.group.add[a, b]))
                grown.update(int(v) for v in mod.bracket[a, b])
        if grown == members:
            return tuple(sorted(members))
        members = grown


def closed(mod, members, *, brackets: bool) -> bool:
    s = set(members)
    return (
        all(int(mod.group.add[a, b]) in s for a in s for b in s)
        and all(int(v) in s for a in s for v in mod.scal[a])
        and (not brackets or all(int(v) in s for a in s for b in s for v in mod.bracket[a, b]))
    )


@pytest.mark.parametrize("name", NAMES)
def test_generated_submodule_equals_the_closure_oracle(name):
    mod = modules()[name]
    for k in (0, 1, 2):
        for seed in itertools.combinations(range(mod.nm), k):
            assert generated_submodule(mod, set(seed)) == closure_oracle(mod, seed), seed


@pytest.mark.parametrize("name", NAMES)
def test_admissible_intermediates_equal_brute_force(name):
    """Every scalar-stable subgroup between [M,M]_R and Z_R(M), found by
    trying every set between them."""
    mod = modules()[name]
    lower = set(closure_oracle(mod, {int(v) for v in mod.bracket.ravel()}))
    upper = [m for m in range(mod.nm) if not mod.bracket[m].any()]
    free = [u for u in upper if u not in lower]
    expected = [
        tuple(sorted(lower | set(extra)))
        for k in range(len(free) + 1)
        for extra in itertools.combinations(free, k)
        if closed(mod, lower | set(extra), brackets=False)
    ]
    expected.sort(key=lambda s: (len(s), s))
    assert admissible_intermediates(mod) == expected


def refusal_oracle(mod, members) -> str | None:
    """The loops that decide whether ``members`` is a normal submodule, in
    their order: subgroup, then each law in its quantifier order: normal
    over (g, m), scalar-stable over (a, r), bracket-stable over (m, n, x),
    with m, a and n in the set.  By MC4, [n,m]·x = [m,n]·T(x), so the
    bracket's other slot escapes at the same pairs; the oracle asserts it."""
    s = tuple(sorted({int(m) for m in members}))
    add, neg, scal, bracket = mod.group.add, mod.group.neg, mod.scal, mod.bracket
    ne, nee = mod.sr.re.order, mod.sr.ree.order
    if any(int(add[a, b]) not in s for a in s for b in s):
        return f"{s} is not a subgroup"
    laws = [
        ("normal", [(g, m) for g in range(mod.nm) for m in s
                    if int(add[add[g, m], neg[g]]) not in s]),
        ("scalar-stable", [(a, r) for a in s for r in range(ne) if int(scal[a, r]) not in s]),
        ("bracket-stable", [(m, n, x) for m in range(mod.nm) for n in s for x in range(nee)
                            if int(bracket[m, n, x]) not in s]),
    ]
    other_slot = {(m, n) for m in range(mod.nm) for n in s for x in range(nee)
                  if int(bracket[n, m, x]) not in s}
    assert other_slot == {(m, n) for m, n, _ in laws[2][1]}
    for law, failing in laws:
        if failing:
            what = "subgroup" if law == "normal" else "quotient by"
            return f"{what} {s} fails {law} at {failing[0]}: lhs=0 rhs=1"
    return None


@pytest.mark.parametrize("name", NAMES)
def test_quotient_refusals_equal_the_loop_oracle(name):
    """Every set of at most two elements and every subgroup they generate:
    quotient_bhp refuses with the oracle's message, or succeeds."""
    mod = modules()[name]
    cases = set()
    for k in (1, 2):
        for seed in itertools.combinations(range(mod.nm), k):
            cases.add((0, *seed) if 0 not in seed else seed)
            cases.add(mod.group.subgroup_closure(seed))
    for members in sorted(cases):
        expected = refusal_oracle(mod, members)
        if expected is None:
            quo, proj = quotient_bhp(mod, members)
            assert quo.nm * len(set(members)) == mod.nm
        else:
            with pytest.raises(NotNormal) as err:
                quotient_bhp(mod, members)
            assert str(err.value) == expected, members


@pytest.mark.parametrize(
    "kind,n,members,message",
    [
        ("tensor", 3, (0, 1), "(0, 1) is not a subgroup"),
        ("tensor", 3, (0, 3, 6),
         "quotient by (0, 3, 6) fails scalar-stable at (3, 1): lhs=0 rhs=1"),
        ("gamma", 3, (0, 3, 6),
         "quotient by (0, 3, 6) fails scalar-stable at (3, 1): lhs=0 rhs=1"),
        ("sym", 4, (0, 4, 8, 12),
         "quotient by (0, 4, 8, 12) fails scalar-stable at (4, 1): lhs=0 rhs=1"),
        ("sym", 4, (0, 8), "quotient by (0, 8) fails bracket-stable at (4, 8, 1): lhs=0 rhs=1"),
    ],
)
def test_quotient_bhp_refusal_messages(kind, n, members, message):
    with pytest.raises(NotNormal) as err:
        quotient_bhp(regular_module(build_example(kind, n)), members)
    assert str(err.value) == message


def test_closures_refuse_elements_outside_the_carrier():
    reg = regular_module(build_example("sym", 2))
    assert reg.nm == 4
    with pytest.raises(PreconditionUnmet, match=r"element -1 is outside the carrier 0\.\.3"):
        reg.group.subgroup_closure([-1])
    with pytest.raises(PreconditionUnmet, match=r"element -1 is outside the carrier 0\.\.3"):
        generated_submodule(reg, {-1})
    with pytest.raises(PreconditionUnmet, match=r"element 4 is outside the carrier 0\.\.3"):
        generated_submodule(reg, {4})


def test_coset_representatives_are_carried_by_the_quotient_objects():
    pair = free_cp_pair(build_example("tensor", 3))
    graded = gr(pair)
    assert graded.reps1.tolist() == [0, 3, 6]
    assert graded.reps1.tolist() == representatives(graded.proj1).tolist()
    bar = graded.operad.op1
    assert bar.reps.tolist() == representatives(bar.proj).tolist()
    assert bar.proj[bar.reps].tolist() == list(range(bar.order))


def test_the_inclusion_chain_reuses_what_each_function_holds(monkeypatch):
    """On the ``sym 4`` regular module, ``admissible_intermediates``
    computes [M,M]_R once and ``r_center`` not at all; a chain that does
    not hold is still refused."""
    mod = regular_module(build_example("sym", 4))
    calls = []
    closure = modules_layer.generated_submodule
    monkeypatch.setattr(modules_layer, "generated_submodule",
                        lambda m, seed: calls.append(m) or closure(m, seed))
    admissible_intermediates(mod)
    assert len(calls) == 1
    calls.clear()
    assert r_center(mod) != (0,)
    assert calls == []
    monkeypatch.setattr(modules_layer, "r_center", lambda m: (0,))
    with pytest.raises(ConsistencyError, match=r"^inclusion chain broken: "
                       r"\[M,M\]=\[0\], \[M,M\]_R=\[0, 1, 2, 3\], Z_R=\[0\]$"):
        derived_module(mod)
    monkeypatch.undo()
    monkeypatch.setattr(FiniteGroup, "center", lambda group: (0,))
    with pytest.raises(ConsistencyError, match=r"^inclusion chain broken: "
                       r"\[M,M\]=\[0\], Z_R=\[0, 1, 2, 3\], Z=\[0\]$"):
        r_center(mod)
