from __future__ import annotations

import numpy as np
import pytest

from quadrica import (
    BhpModule,
    CpModule,
    Failure,
    FiniteGroup,
    NearRing,
    admissible_intermediates,
    build_example,
    derived_module,
    dihedral,
    elementary_properties,
    free_cp_pair,
    generated_submodule,
    gr,
    gr_gamma,
    gr_z,
    is_cp_linear,
    is_linear,
    quotient_bhp,
    quotient_cp,
    r_center,
    rbar_regular_module,
    ree_module,
    regular_module,
    submodule_module,
    verify_bhp_module,
    verify_cp_module,
    zero_module,
)
from quadrica.errors import PreconditionUnmet
from quadrica.modules import _cp_linear_laws
from quadrica.verdict import run_laws

SPOT_RINGS = [("sym", 2), ("rnil", 4), ("tensor", 3), ("gamma", 4)]


@pytest.mark.parametrize("kind,n", SPOT_RINGS)
def test_standard_modules_verify(kind, n):
    sr = build_example(kind, n)
    for mod in (regular_module(sr), ree_module(sr), rbar_regular_module(sr)):
        v = verify_bhp_module(mod)
        assert v.passed, [f.law for f in v.failures]
        assert v.checked == ("MC1", "MC2", "MC3", "MC4", "MC5", "MC6", "MC7")  # each once
        e = elementary_properties(mod)
        assert e.passed
        assert "brackets-central" in e.checked and "class-le-2" in e.checked
    for pair in (free_cp_pair(sr), zero_module(sr)):
        v = verify_cp_module(pair)
        assert v.passed
        assert v.checked == ("MC1", "MC2", "MC3", "MC4", "MC5", "MC6", "MC0", "MC7a", "MC7b")


def test_free_pair_distinguishes_im_p():
    sr = build_example("sym", 2)
    assert free_cp_pair(sr).aset == sr.im_p()
    assert zero_module(sr).nm == 1


def test_derived_and_center_values():
    sym2 = regular_module(build_example("sym", 2))
    assert derived_module(sym2) == (0, 1)
    assert r_center(sym2) == (0, 1)
    rnil4 = regular_module(build_example("rnil", 4))
    assert derived_module(rnil4) == (0,)
    assert r_center(rnil4) == (0, 1, 2, 3)
    tensor3 = regular_module(build_example("tensor", 3))
    assert derived_module(tensor3) == (0, 1, 2) == r_center(tensor3)


def test_generated_submodule():
    sr = build_example("sym", 2)
    reg = regular_module(sr)
    assert generated_submodule(reg, {sr.one}) == (0, 1, 2, 3)
    assert generated_submodule(reg, set()) == (0,)
    assert generated_submodule(reg, {1}) == (0, 1)


def test_admissible_intermediates():
    assert admissible_intermediates(regular_module(build_example("sym", 2))) == [(0, 1)]
    assert admissible_intermediates(regular_module(build_example("rnil", 4))) == [
        (0,),
        (0, 2),
        (0, 1, 2, 3),
    ]


def test_submodule_and_quotient_round_trip():
    sr = build_example("sym", 2)
    reg = regular_module(sr)
    sub, embed = submodule_module(reg, (0, 1))
    assert verify_bhp_module(sub).passed
    assert sub.nm == 2 and list(embed) == [0, 1]
    quo, proj = quotient_bhp(reg, (0, 1))
    assert verify_bhp_module(quo).passed
    assert quo.nm == 2
    for a in range(reg.nm):
        for b in range(reg.nm):
            assert proj[reg.group.add[a, b]] == quo.group.add[proj[a], proj[b]]


def test_quotient_cp_collapses_the_distinguished_part():
    pair = free_cp_pair(build_example("tensor", 2))
    quo, proj = quotient_cp(pair, pair.aset)
    assert verify_cp_module(quo).passed
    assert quo.aset == (0,)
    assert quo.nm == pair.nm // len(pair.aset)


def test_bad_distinguished_subgroup_fails_mc0():
    sr = build_example("sym", 2)
    reg = regular_module(sr)
    bad = CpModule(sr, reg.group, reg.scal, reg.bracket, (0, 2))
    v = verify_cp_module(bad)
    assert not v.passed
    assert "MC0" in {f.law for f in v.failures}


def test_witnesses_name_elements_of_the_distinguished_subgroup():
    """On the regular module of ``sym 2`` with A = {0, 2}, 2·1 = 0 leaves A
    and [2, 2]·1 = 1 is not 0: the witnesses name the element 2 of A, not
    its position 1 in A."""
    sr = build_example("sym", 2)
    reg = regular_module(sr)
    bad = CpModule(sr, reg.group, reg.scal, reg.bracket, (0, 2))
    assert verify_cp_module(bad).failures == (
        Failure("MC0", (2, 1), "lhs=0 rhs=1"),
        Failure("MC7a", (2, 2, 1), "lhs=1 rhs=0"),
        Failure("MC7b", (2, 2, 1), "lhs=0 rhs=1"),
    )


def test_tampered_bracket_fails_verification():
    sr = build_example("sym", 2)
    reg = regular_module(sr)
    bracket = reg.bracket.copy()
    bracket[2, 3, 1] = 2  # bracket values must stay central
    v = verify_bhp_module(BhpModule(sr, reg.group, reg.scal, bracket))
    assert not v.passed
    assert all(f.witness for f in v.failures)


def test_gr_of_free_pair():
    g = gr(free_cp_pair(build_example("sym", 2)))
    assert g.deg1.order == 2 and g.deg2.order == 2
    assert g.operad.sizes == (2, 2)
    assert sorted(g.proj1.tolist()) == [0, 0, 1, 1]
    assert g.pairing.shape == (2, 2, 2)


def test_gr_is_built_once_per_verified_pair():
    pair = free_cp_pair(build_example("sym", 2))
    assert gr(pair) is gr(pair)
    with pytest.raises(ValueError):
        gr(pair).pairing[0, 0, 0] = 1  # the cached object is shared by every caller


def test_gr_of_a_failing_pair_raises_every_time_and_caches_nothing():
    sr = build_example("sym", 2)
    reg = regular_module(sr)
    bad = CpModule(sr, reg.group, reg.scal, reg.bracket, (0, 2))  # fails MC0
    for _ in range(2):
        with pytest.raises(PreconditionUnmet, match="MC0"):
            gr(bad)
        assert bad._gr is None


def test_verified_module_tables_are_read_only_copies():
    sr = build_example("sym", 2)
    reg = regular_module(sr)
    scal = reg.scal.copy()
    pair = CpModule(sr, reg.group, scal, reg.bracket, sr.im_p())
    assert verify_cp_module(pair).passed
    for table in (pair.scal, pair.bracket, pair.amask):
        with pytest.raises(ValueError):
            table[0] = 1
    scal[0, 0] = 1  # the caller's own array stays writable and is not shared
    assert pair.scal[0, 0] == 0


def test_group_and_ring_tables_are_read_only_copies():
    sr = build_example("sym", 2)
    pair = free_cp_pair(sr)
    gr(pair)  # caches a verdict and a graded object derived from these tables
    for table in (pair.group.add, pair.group.neg, sr.re.mul, sr.ree.add):
        with pytest.raises(ValueError):
            table[1] = 1
    add, neg, mul = pair.group.add.copy(), pair.group.neg.copy(), sr.re.mul.copy()
    group = FiniteGroup(add, neg)
    ring = NearRing(sr.re.group, mul, sr.one)
    for mine, kept in ((add, group.add), (neg, group.neg), (mul, ring.mul)):
        mine[1] += 1  # the caller's own array stays writable and is not shared
        assert not np.array_equal(mine, kept)


def test_gr_gamma_and_gr_z_agree_when_center_is_derived():
    """On the dihedral module of order 8 the derived submodule and the
    R-center coincide, so both graded constructions return the same data."""
    d4 = dihedral(4)
    sr = build_example("rnil", 4)
    scal = np.array([[d4.repeat(m, r) for r in range(4)] for m in range(8)])
    bracket = np.zeros((8, 8, 2), dtype=np.int64)
    for m in range(8):
        for n in range(8):
            bracket[m, n, 1] = d4.commutator(n, m)
    mod = BhpModule(sr, d4, scal, bracket)
    assert verify_bhp_module(mod).passed
    a = gr_gamma(mod)
    b = gr_z(mod)
    assert a.deg1.order == b.deg1.order == 4
    assert a.deg2.order == b.deg2.order == 2
    assert np.array_equal(a.proj1, b.proj1)
    assert np.array_equal(a.pairing, b.pairing)


def test_linearity_predicates():
    sr = build_example("sym", 3)
    reg = regular_module(sr)
    mul = sr.re.mul
    assert is_linear(np.arange(9), reg, reg)
    # right multiplication by (1,0) is additive, by (1,2) it is not
    assert is_linear(mul[:, 3], reg, reg)
    assert not is_linear(mul[:, 5], reg, reg)
    pair = free_cp_pair(sr)
    assert is_cp_linear(np.arange(9), pair, pair)
    assert not is_cp_linear(mul[:, 5], pair, pair)


def test_a_linear_map_that_does_not_map_a_into_b_fails_that_law_alone():
    """The identity of the classical regular module from (R, R) to (R, {0}):
    both are pairs, since its brackets vanish, and the identity is linear,
    so ``A into B`` is the one law that fails, first at a = 1."""
    sr = build_example("classical", 3)
    reg = regular_module(sr)
    full, zero = (CpModule(sr, reg.group, reg.scal, reg.bracket, aset)
                  for aset in (tuple(range(reg.nm)), (0,)))
    assert verify_cp_module(full).passed and verify_cp_module(zero).passed
    ident = np.arange(reg.nm)
    assert is_linear(ident, full, zero)
    assert not is_cp_linear(ident, full, zero)
    assert run_laws(_cp_linear_laws(ident, full, zero)).failures == (
        Failure("A into B", (1,), "lhs=0 rhs=1"),)
