from __future__ import annotations

import numpy as np
import pytest

from quadrica import build_near_ring, zmod
from quadrica.errors import NotAGroup, NotARing
from quadrica.examples import _pair_re, i2_ideal


def test_zmod_basics():
    r = zmod(6)
    assert r.order == 6
    assert r.one == 1
    assert r.two == 2
    assert r.mul[4, 5] == 2
    assert np.array_equal(r.mul, r.mul.T)


def test_zmod_ideals_and_annihilators():
    assert zmod(6).ideal_closure([2]) == (0, 2, 4)
    assert zmod(6).annihilator([2]) == (0, 3)
    assert zmod(4).annihilator([2]) == (0, 2)
    assert zmod(5).ideal_closure([2]) == (0, 1, 2, 3, 4)


def test_i2_ideal_values():
    # the ideal generated by all r^2 - r
    assert i2_ideal(zmod(2)) == (0,)
    assert i2_ideal(zmod(3)) == (0, 1, 2)
    assert i2_ideal(zmod(4)) == (0, 2)
    assert i2_ideal(zmod(5)) == (0, 1, 2, 3, 4)
    assert i2_ideal(zmod(6)) == (0, 2, 4)


def test_build_near_ring_round_trip():
    z4 = zmod(4)
    r = build_near_ring(z4.group.add, z4.mul)
    assert r.one == 1 and r.two == 2


def test_build_near_ring_locates_the_unit():
    # unit need not sit at index 1: permute Z/3 by swapping 1 and 2
    perm = np.array([0, 2, 1])
    inv = perm
    z3 = zmod(3)
    add = perm[z3.group.add[np.ix_(inv, inv)]]
    mul = perm[z3.mul[np.ix_(inv, inv)]]
    r = build_near_ring(add, mul)
    assert r.one == 2


def test_build_near_ring_rejections():
    with pytest.raises(NotAGroup):
        build_near_ring([[0, 1], [1, 1]], [[0, 0], [0, 1]])
    with pytest.raises(NotARing, match="no two-sided multiplicative unit"):
        build_near_ring(zmod(2).group.add, [[0, 0], [0, 0]])
    with pytest.raises(NotARing, match="no two-sided multiplicative unit"):
        mul = np.array([[0, 0, 0], [0, 2, 1], [0, 1, 1]])  # not associative either
        build_near_ring(zmod(3).group.add, mul)
    # Z/4 with unit 1, 2·2 = 0 and 3·2 = 3: (3·2)·2 = 3, but 3·(2·2) = 0
    mul = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 0], [0, 3, 3, 0]]
    with pytest.raises(NotARing) as info:
        build_near_ring(zmod(4).group.add, mul)
    assert str(info.value) == "near-ring fails mul-associative at (3, 2, 2): lhs=3 rhs=0"


def test_one_sided_distributivity_is_checked():
    """The R ⊕ R pair ring distributes on the left but not on the right;
    the right-distributive constructor must refuse it and the relaxed one
    must accept it."""
    pr = _pair_re(zmod(3))
    with pytest.raises(NotARing):
        build_near_ring(pr.group.add, pr.mul)
    relaxed = build_near_ring(pr.group.add, pr.mul, right_distributive=False)
    assert relaxed.one == pr.one
