"""The generator route of the square-ring verifier.

``verify_square_ring`` decides the four additivity laws of the action, its
left monoid law, its two split laws and AC8 on generators of R_e and R_ee,
once every other axiom holds, and sweeps them in full otherwise.  Its
verdict must equal a plain exhaustive ``run_laws`` over the same laws with
their reduced forms stripped: passed, each failure with its witness and
detail, and ``checked``.
"""

from __future__ import annotations

from functools import cache
from math import prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import quadrica.verdict as engine
from quadrica import (
    SquareRing,
    Verdict,
    build_example,
    generators,
    get_config,
    set_config,
    verify_square_ring,
)
from quadrica.squarering import _ring_laws
from quadrica.verdict import law_failures, run_laws

from conftest import RING_SPECS


@cache
def rings() -> tuple[SquareRing, ...]:
    return tuple(build_example(kind, n, epsilon=eps) for kind, n, eps in RING_SPECS)


def exhaustive(sr: SquareRing) -> Verdict:
    """Every axiom and derived identity swept in full, as ``run_laws`` does."""
    laws, derived = _ring_laws(sr)
    every = get_config().exhaustive_witnesses
    return run_laws([law[:3] for law in laws], all_witnesses=every).merge(
        run_laws(derived, all_witnesses=every))


def assert_agrees(sr: SquareRing) -> None:
    for all_witnesses in (False, True):
        set_config(exhaustive_witnesses=all_witnesses)
        assert verify_square_ring(sr) == exhaustive(sr)


def with_action(sr: SquareRing, act) -> SquareRing:
    return SquareRing(sr.re, sr.ree, act, sr.h, sr.p, sr.t)


def relabelled(sr: SquareRing, pi) -> SquareRing:
    """``sr`` with R_ee relabelled inside the action by ``pi``, a
    permutation that fixes 0: (r,s)·x·t ↦ π⁻¹((r,s)·π(x)·t)."""
    pi = np.asarray(pi, dtype=np.int64)
    return with_action(sr, np.argsort(pi)[sr.act[:, :, pi, :]])


def test_every_example_ring_keeps_the_exhaustive_verdict():
    reduced = set()
    for sr in rings():
        assert_agrees(sr)
        assert verify_square_ring(sr).passed
        reduced |= {law[0] for law in _ring_laws(sr)[0] if len(law) == 4}
    assert reduced == {"action-additive-1", "action-additive-2", "action-additive-3",
                       "action-additive-4", "action-left-monoid", "action-split-left",
                       "action-split-right", "AC8"}


@st.composite
def perturbed_rings(draw) -> SquareRing:
    """An example ring with its action changed: one entry set to another
    value, or R_ee relabelled inside the action, which keeps the unit,
    monoid and split laws and may break additivity."""
    sr = draw(st.sampled_from(rings()))
    ne, nee = sr.re.order, sr.ree.order
    if draw(st.booleans()):
        act = sr.act.copy()
        cell = tuple(draw(st.integers(0, size - 1)) for size in (ne, ne, nee, ne))
        act[cell] = draw(st.integers(0, nee - 1))
        return with_action(sr, act)
    return relabelled(sr, [0] + draw(st.permutations(range(1, nee))))


@given(perturbed_rings())
def test_perturbed_actions_keep_the_exhaustive_verdict(sr):
    assert_agrees(sr)


def test_a_relabelled_action_fails_only_additivity_first_off_the_generators():
    """On Z/3 ``tensor`` the action is (r,s)·x·t = c·x for a scalar c of
    Z/3; relabelled by π, c = 2 acts by an involution of R_ee that is not
    additive.  Only the four additivity laws fail, the first failing cell
    of action-additive-3 has y = 4 ∉ G_ee = (1, 3) and t = 6 ∉ G_R =
    (1, 3), and the reduced forms still refuse: the verdict is the
    exhaustive one."""
    sr = relabelled(build_example("tensor", 3), (0, 1, 3, 6, 4, 5, 2, 7, 8))
    laws, derived = _ring_laws(sr)
    failing = [label for label, dims, law, *_ in laws if not run_laws([(label, dims, law)])]
    assert failing == [f"action-additive-{i}" for i in (1, 2, 3, 4)]
    assert not all(run_laws([(law[0], law[3], law[2])]) for law in laws if len(law) == 4)
    assert run_laws(derived).passed
    set_config(exhaustive_witnesses=False)
    assert [(f.law, f.witness) for f in verify_square_ring(sr).failures] == [
        ("action-additive-1", (3, 3, 3, 1, 3)),
        ("action-additive-2", (3, 3, 3, 1, 3)),
        ("action-additive-3", (3, 3, 1, 4, 6)),
        ("action-additive-4", (3, 3, 1, 3, 3)),
    ]
    assert_agrees(sr)


@pytest.mark.parametrize("cell, failing", [
    ((0, 0, 0, 0), ("action-split-left", "action-split-right")),
    ((0, 0, 1, 0), ("action-split-left", "action-split-right", "AC8")),
])
def test_split_laws_and_ac8_that_fail_first_off_the_generators(cell, failing):
    """Z/2 ``tensor`` with one action entry (r,s)·x·t at r = s = t = 0
    set to 3: every law without a reduced form holds; the four additivity
    laws fail, and so do the laws named, first at r = 0 ∉ G_R = (1, 2).
    The split laws and AC8 run on (G_R, G_R, G_ee, G_R); given the
    additivity laws, the cells of each argument where one of them holds
    form a subgroup, whose least outside element is a greedy generator, so
    a first failing cell off the generators needs a failing additivity law,
    whose reduced form then refuses.  The verdict is the exhaustive one."""
    sr = build_example("tensor", 2)
    act = sr.act.copy()
    act[cell] = 3
    sr = with_action(sr, act)
    laws, derived = _ring_laws(sr)
    assert (generators(sr.re.group), generators(sr.ree)) == ((1, 2), (1, 2))
    fails = [law[0] for law in laws if not run_laws([law[:3]])]
    assert fails == [f"action-additive-{i}" for i in (1, 2, 3, 4)] + list(failing)
    assert all(len(law) == 4 for law in laws if law[0] in fails)
    set_config(exhaustive_witnesses=False)
    witnesses = {f.law: f.witness for f in verify_square_ring(sr).failures}
    assert all(witnesses[label] == cell for label in failing)
    assert_agrees(sr)


def sweeps(monkeypatch, sr: SquareRing) -> list[tuple[str, tuple[int, ...]]]:
    """The (label, dims) of every sweep that verifying ``sr`` runs."""
    seen = []

    def counting(label, dims, law, **kwargs):
        seen.append((label, tuple(dims)))
        return law_failures(label, dims, law, **kwargs)

    monkeypatch.setattr(engine, "law_failures", counting)
    verify_square_ring(sr)
    monkeypatch.undo()
    return seen


def sizes(dims) -> tuple[int, ...]:
    """The integer size of each axis of a law's dims."""
    return tuple(len(d) if isinstance(d, tuple) else d for d in dims)


def full_sweeps(sr: SquareRing, part: str = "all") -> list[tuple[str, tuple[int, ...]]]:
    """The axioms of ``sr`` and then its derived laws, each in full, in law
    order; ``part`` "plain", "reducible" or "derived" keeps the axioms
    without a reduced form, those with one, or the derived laws."""
    laws, derived = _ring_laws(sr)
    keep = {"all": laws + derived, "derived": derived,
            "plain": [law for law in laws if len(law) == 3],
            "reducible": [law for law in laws if len(law) == 4]}[part]
    return [(law[0], law[1]) for law in keep]


def test_each_ring_law_is_swept_once_unless_a_reduced_form_fails(monkeypatch):
    sr = build_example("tensor", 3)
    ne, nee = sr.re.order, sr.ree.order
    G_R, G_ee = generators(sr.re.group), generators(sr.ree)
    assert (ne, nee, G_R, G_ee) == (9, 9, (1, 3), (1, 3))
    reduced = {
        "action-additive-1": (ne, G_R, G_R, G_ee, G_R),
        "action-additive-2": (ne, ne, G_R, G_ee, G_R),
        "action-additive-3": (ne, ne, nee, G_ee, ne),
        "action-additive-4": (ne, ne, G_ee, ne, G_R),
        "action-left-monoid": (ne, ne, ne, ne, G_ee),
        "action-split-left": (G_R, G_R, G_ee, G_R),
        "action-split-right": (G_R, G_R, G_ee, G_R),
        "AC8": (G_R, G_R, G_ee, G_R),
    }
    assert {law[0]: law[3] for law in _ring_laws(sr)[0] if len(law) == 4} == reduced
    reduced = {label: sizes(dims) for label, dims in reduced.items()}
    # the axioms without a reduced form, the reduced forms, the derived laws
    expected = (full_sweeps(sr, "plain")
                + [(label, reduced[label]) for label, _ in full_sweeps(sr, "reducible")]
                + full_sweeps(sr, "derived"))
    seen = sweeps(monkeypatch, sr)
    assert seen == expected
    # 34,420 cells, against 319,348 in full
    assert sum(prod(d) for _, d in seen) <= 40_000
    assert 5 * sum(prod(d) for _, d in seen) < sum(prod(d) for _, d in full_sweeps(sr))
    # the first reduced form fails: it stops the decision, the derived laws
    # are decided, and merging the two verdicts reads the failures, which
    # sweeps every reducible axiom in full
    mutant = relabelled(sr, (0, 1, 3, 6, 4, 5, 2, 7, 8))
    assert sweeps(monkeypatch, mutant) == (
        full_sweeps(mutant, "plain") + [("action-additive-1", reduced["action-additive-1"])]
        + full_sweeps(mutant, "derived") + full_sweeps(mutant, "reducible"))
