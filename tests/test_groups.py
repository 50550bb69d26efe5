from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quadrica import build_example, build_group, cyclic, dihedral, direct_product, free_cp_pair
from quadrica.errors import NotAGroup, NotNormal, PreconditionUnmet
from quadrica.groups import closed_sets_between, representatives


def test_cyclic_basics():
    g = cyclic(6)
    assert g.order == 6
    assert g.commutative
    assert g.nilpotency_class == 1
    assert g.add[2, 5] == 1
    assert g.neg[2] == 4
    assert g.sub(1, 4) == 3
    assert g.repeat(2, 5) == 4
    assert g.sum([1, 2, 3]) == 0


def test_trivial_group():
    g = cyclic(1)
    assert g.order == 1
    assert g.nilpotency_class == 1
    assert g.center() == (0,)


def test_dihedral_eight_is_class_two():
    d4 = dihedral(4)
    assert d4.order == 8
    assert not d4.commutative
    assert d4.nilpotency_class == 2
    assert d4.commutator_subgroup() == (0, 4)
    assert d4.center() == (0, 4)
    assert d4.lower_central_series() == [tuple(range(8)), (0, 4), (0,)]


def test_dihedral_sixteen_has_a_lower_central_series_of_length_four():
    assert dihedral(8).lower_central_series() == [tuple(range(16)), (0, 4, 8, 12), (0, 8), (0,)]


def test_symmetric_three_has_no_class():
    s3 = dihedral(3)
    assert s3.order == 6
    assert not s3.commutative
    assert s3.nilpotency_class is None
    assert s3.lower_central_series()[-1] != (0,)


def test_direct_product():
    g = direct_product(cyclic(2), cyclic(3))
    assert g.order == 6
    assert g.commutative
    h = direct_product(dihedral(4), cyclic(2))
    assert h.order == 16
    assert h.nilpotency_class == 2


def test_subgroup_closure_and_membership():
    d4 = dihedral(4)
    assert d4.subgroup_closure([2]) == (0, 2, 4, 6)
    assert d4.subgroup_closure([1]) == (0, 1)
    assert d4.is_subgroup((0, 2, 4, 6))
    assert not d4.is_subgroup((0, 2))
    assert d4.is_normal((0, 4))
    assert not d4.is_normal((0, 1))


def test_quotient():
    d4 = dihedral(4)
    q, proj = d4.quotient((0, 4))
    assert q.order == 4
    assert q.commutative
    assert proj[0] == 0
    # projection is a homomorphism
    for a in range(8):
        for b in range(8):
            assert proj[d4.add[a, b]] == q.add[proj[a], proj[b]]


def test_quotient_requires_normality():
    with pytest.raises(NotNormal):
        dihedral(4).quotient((0, 1))


def test_commutators_land_in_derived_subgroup():
    d4 = dihedral(4)
    derived = set(d4.commutator_subgroup())
    for a in range(8):
        for b in range(8):
            assert d4.commutator(a, b) in derived


def test_build_group_accepts_cyclic_table():
    g = build_group(cyclic(5).add)
    assert g.order == 5
    assert np.array_equal(g.neg, cyclic(5).neg)


def test_build_group_rejects_bad_tables():
    with pytest.raises(NotAGroup):
        build_group([[0, 1], [1, 1]])  # 1 has no inverse
    # a relabeled Z/2 (neutral at 1) is fine: build_group renumbers it
    assert build_group([[1, 0], [0, 1]]).order == 2
    with pytest.raises(NotAGroup):
        build_group([[1, 1], [1, 1]])  # no two-sided neutral anywhere
    with pytest.raises(NotAGroup):
        build_group([[0, 1, 2], [1, 2, 0]])  # not square
    # associative magma with neutral but a non-latin row
    with pytest.raises(NotAGroup):
        build_group([[0, 1, 2], [1, 1, 1], [2, 1, 2]])


def test_closed_sets_between_enumerates_subgroups():
    g = cyclic(4)
    closure = lambda s: frozenset(g.subgroup_closure(s))
    sets = closed_sets_between(closure, [0], range(4))
    assert sets == [(0,), (0, 2), (0, 1, 2, 3)]


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_class_two_commutator_identities(a, b, c):
    """In a class-2 group commutators are central and biadditive."""
    g = direct_product(dihedral(4), cyclic(2))
    com = g.commutator
    center = set(g.center())
    assert com(a, b) in center
    assert com(g.add[a, b], c) == g.add[com(a, c), com(b, c)]
    assert com(a, g.add[b, c]) == g.add[com(a, b), com(a, c)]


def least_of_each_class(proj) -> list[int]:
    return [int(np.flatnonzero(proj == c).min()) for c in range(int(proj.max()) + 1)]


def test_quotient_numbers_classes_by_their_least_element():
    q, proj = dihedral(4).quotient((0, 4))
    assert proj.tolist() == [0, 1, 2, 3, 0, 1, 2, 3]
    assert least_of_each_class(proj) == [0, 1, 2, 3] == representatives(proj).tolist()
    assert q.add.tolist() == [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    pair = free_cp_pair(build_example("tensor", 3))
    assert pair.aset == (0, 1, 2)
    q, proj = pair.group.quotient(pair.aset)
    assert proj.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert least_of_each_class(proj) == [0, 3, 6] == representatives(proj).tolist()


def test_quotient_names_the_first_conjugation_witness():
    with pytest.raises(NotNormal) as err:
        dihedral(4).quotient((0, 1))
    assert str(err.value) == "subgroup (0, 1) fails normal at (2, 1): lhs=0 rhs=1"
    with pytest.raises(NotNormal) as err:
        dihedral(4).quotient((0, 2))
    assert str(err.value) == "(0, 2) is not a subgroup"


def test_normality_refuses_elements_outside_the_carrier():
    with pytest.raises(PreconditionUnmet, match=r"element -4 is outside the carrier 0\.\.7"):
        dihedral(4).is_normal([0, -4])
    with pytest.raises(PreconditionUnmet, match=r"element 9 is outside the carrier 0\.\.7"):
        dihedral(4).quotient([0, 9])


def normal_subgroups(g) -> list[tuple[int, ...]]:
    closure = lambda s: frozenset(g.subgroup_closure(s))
    return [s for s in closed_sets_between(closure, [0], range(g.order)) if g.is_normal(s)]


@st.composite
def group_and_normal_subgroup(draw):
    if draw(st.booleans()):
        g = direct_product(cyclic(draw(st.integers(1, 6))), cyclic(draw(st.integers(1, 6))))
    else:
        g = dihedral(draw(st.integers(1, 6)))
    return g, draw(st.sampled_from(normal_subgroups(g)))


@given(group_and_normal_subgroup())
def test_quotient_projects_homomorphically_onto_classes_numbered_by_least_element(case):
    g, members = case
    q, proj = g.quotient(members)
    assert q.order * len(members) == g.order
    assert sorted(set(proj.tolist())) == list(range(q.order))
    a, b = np.meshgrid(np.arange(g.order), np.arange(g.order), indexing="ij")
    assert np.array_equal(proj[g.add[a, b]], q.add[proj[a], proj[b]])
    assert np.array_equal(proj[g.neg], q.neg[proj])
    least = least_of_each_class(proj)
    assert least == sorted(least)  # classes are numbered by their least element
    assert representatives(proj).tolist() == least
    for c, rep in enumerate(least):
        assert set(np.flatnonzero(proj == c).tolist()) == {int(g.add[rep, m]) for m in members}
