from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quadrica import (
    RELATION_TEXT,
    CpModule,
    Failure,
    FiniteGroup,
    MapTable,
    batch_bhp_quadratic,
    batch_cp_quadratic,
    build_example,
    certificate_valid,
    compose_quadratic,
    cp_implies_bhp,
    defects,
    enumerate_cp_quadratic,
    factorization_check,
    free_cp_pair,
    is_bhp_quadratic,
    is_cp_quadratic,
    naive_bhp_quadratic,
    naive_cp_quadratic,
    promote_to_cp,
    ree_module,
    regular_module,
    three_defects_check,
    verify_cp_module,
)
from quadrica.errors import (
    CertificateInvalid,
    ConsistencyError,
    NonCommutativeRing,
    NotComposable,
    PreconditionUnmet,
    SearchSpaceTooLarge,
)
from quadrica.quadratic import _decide, _defect_stacks

from _census import module_census, pair_census
from conftest import triangular_square_ring


def square_map(sr, module) -> MapTable:
    return MapTable(module, module, sr.re.mul[np.arange(module.nm), np.arange(module.nm)])


def all_tables(dom_order: int, cod_order: int) -> np.ndarray:
    grids = np.meshgrid(*([np.arange(cod_order)] * dom_order), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


# ---------------------------------------------------------------------------
# closed-form defect checks on the worked examples


def test_h_map_is_quadratic_with_known_defects():
    """H on the nil ring over Z/4 sends r to r^2 - r; its additive defect
    is 2rs and its scalar defect r*(t^2 - t), both read off inside the
    two-element value group {0, 2}."""
    sr = build_example("rnil", 4)
    f = MapTable(regular_module(sr), ree_module(sr), sr.h)
    cert = is_bhp_quadratic(f)
    assert cert.passed
    assert cert.scalar_defects_quadratic
    assert dict(cert.routes).keys() == {"definition", "reduced"}
    assert all(v.passed for _, v in cert.routes)
    member_index = {0: 0, 2: 1}
    for r in range(4):
        for s in range(4):
            assert cert.defects.d[r, s] == member_index[(2 * r * s) % 4]
        for t in range(4):
            assert cert.defects.scalar[t, r] == member_index[(r * (t * t - t)) % 4]


def test_right_multiplications_are_quadratic():
    sr = build_example("sym", 3)
    reg = regular_module(sr)
    for t in range(9):
        assert is_bhp_quadratic(MapTable(reg, reg, sr.re.mul[:, t])).passed


def test_right_multiplication_defect_formulas():
    """For f = (.) * t the additive defect vanishes only up to the failed
    distributivity: the scalar defect is m*(rt - tr) and the bracket defect
    is [m, n] * (x * (t - t^2))."""
    sr = build_example("sym", 3)
    reg, ree = regular_module(sr), ree_module(sr)
    mul, sub = sr.re.mul, sr.re.group.sub
    t = 5
    bundle = defects(MapTable(reg, reg, mul[:, t]))
    for r in range(9):
        for m in range(9):
            assert bundle.scalar[r, m] == mul[m, sub(mul[r, t], mul[t, r])]
    t_minus_t2 = sub(t, mul[t, t])
    for x in range(3):
        scaled = ree.scal[x, t_minus_t2]
        for m in range(9):
            for n in range(9):
                assert bundle.bracket[x, m, n] == reg.bracket[m, n, scaled]


def test_zero_and_linear_maps_have_trivial_defects():
    reg = regular_module(build_example("sym", 2))
    zero = defects(MapTable(reg, reg, np.zeros(4, dtype=np.int64)))
    assert not zero.d.any() and not zero.scalar.any() and not zero.bracket.any()
    ident = defects(MapTable(reg, reg, np.arange(4)))
    assert not ident.d.any()


# ---------------------------------------------------------------------------
# the squaring dichotomy


def test_squaring_is_quadratic_exactly_over_the_boolean_base():
    sr2 = build_example("tensor", 2)
    pair2 = free_cp_pair(sr2)
    cert = is_cp_quadratic(MapTable(pair2, pair2, sr2.re.mul[np.arange(4), np.arange(4)]))
    assert cert.passed
    assert cert.graded is not None
    assert cert.graded["fbar"].tolist() == [0, 1]
    assert cert.graded["f2"].tolist() == [0, 0]

    sr3 = build_example("tensor", 3)
    reg3 = regular_module(sr3)
    bad = is_bhp_quadratic(square_map(sr3, reg3))
    assert not bad.passed
    failed = {f.law for f in bad.verdict.failures}
    assert failed  # and every label is a documented relation
    assert failed <= set(RELATION_TEXT)


def test_relation_text_covers_all_route_labels():
    for label in ("zero", "1(a)", "8(h)", "BHP1", "BHPc4", "CP1", "CPc4", "FAC3", "three-defects-r2"):
        assert label in RELATION_TEXT
        assert RELATION_TEXT[label]


# ---------------------------------------------------------------------------
# batch deciders against the one-map deciders


def test_batch_routes_agree_on_a_full_census():
    pair = free_cp_pair(build_example("sym", 2))
    tables = all_tables(4, 4)
    by_def = batch_cp_quadratic(pair, pair, tables, route="definition")
    assert int(by_def.sum()) == 8
    for route in ("reduced", "factorization"):
        assert np.array_equal(by_def, batch_cp_quadratic(pair, pair, tables, route=route))
    for table, expect in zip(tables, by_def):
        assert is_cp_quadratic(MapTable(pair, pair, table)).passed == bool(expect)
        assert naive_cp_quadratic(pair, pair, table) == bool(expect)


def test_batch_bhp_routes_agree_on_a_full_census():
    reg = regular_module(build_example("rnil", 4))
    tables = all_tables(4, 4)
    by_rel = batch_bhp_quadratic(reg, reg, tables, route="relations")
    assert int(by_rel.sum()) == 8
    for route in ("definition", "reduced"):
        assert np.array_equal(by_rel, batch_bhp_quadratic(reg, reg, tables, route=route))
    for table, expect in zip(tables[:: 7], by_rel[:: 7]):
        assert is_bhp_quadratic(MapTable(reg, reg, table)).passed == bool(expect)


def test_naive_bhp_oracle_agrees_on_a_full_census():
    reg = regular_module(build_example("rnil", 4))
    tables = all_tables(4, 4)
    mask = batch_bhp_quadratic(reg, reg, tables)
    assert int(mask.sum()) == 8
    assert [naive_bhp_quadratic(reg, reg, t) for t in tables] == mask.tolist()


def test_unknown_batch_route_is_refused():
    reg = regular_module(build_example("sym", 2))
    with pytest.raises(PreconditionUnmet):
        batch_bhp_quadratic(reg, reg, all_tables(4, 4)[:4], route="spectral")


@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.integers(0, 3), min_size=4, max_size=4))
def test_three_deciders_agree_on_sampled_tables(table):
    pair = free_cp_pair(build_example("sym", 2))
    arr = np.array(table, dtype=np.int64)
    expected = naive_cp_quadratic(pair, pair, arr)
    assert is_cp_quadratic(MapTable(pair, pair, arr)).passed == expected
    assert bool(batch_cp_quadratic(pair, pair, arr[None, :])[0]) == expected


# ---------------------------------------------------------------------------
# the three-defects identity


def test_three_defects_holds_for_certified_maps():
    sr = build_example("rnil", 4)
    v = three_defects_check(MapTable(regular_module(sr), ree_module(sr), sr.h))
    assert v.passed
    assert v.checked == ("three-defects", "three-defects-r2")


def test_three_defects_gates_on_quadraticity():
    sr = build_example("tensor", 3)
    with pytest.raises(PreconditionUnmet):
        three_defects_check(square_map(sr, regular_module(sr)))


# ---------------------------------------------------------------------------
# recertification of the scalar defects


def test_scalar_defects_of_census_maps_are_quadratic_map_by_map():
    """Every scalar defect f_(r) of every accepted plain and pair map of the
    rnil 2 / sym 2 census passes the single-map decider on its own, and
    every batch route accepts the whole stack of them: the stacked
    recertification and the per-map decision agree."""
    distinct = 0
    for kind in ("rnil", "sym"):
        mods = module_census(build_example(kind, 2))
        pairs = [p for m in mods for p in pair_census(m)]
        plain_routes = ("relations", "definition", "reduced")
        pair_routes = ("definition", "reduced", "factorization")
        for objs, batch, decide, routes in (
            (mods, batch_bhp_quadratic, is_bhp_quadratic, plain_routes),
            (pairs, batch_cp_quadratic, is_cp_quadratic, pair_routes),
        ):
            for dom in objs:
                for cod in objs:
                    tables = all_tables(dom.nm, cod.nm)
                    accepted = tables[batch(dom, cod, tables)]
                    if not len(accepted):
                        continue
                    rows = _defect_stacks(dom, cod, accepted).scalar.reshape(-1, dom.nm)
                    for route in routes:
                        assert batch(dom, cod, rows, route=route).all()
                    for row in np.unique(rows, axis=0):
                        distinct += 1
                        assert decide(MapTable(dom, cod, row)).passed
    assert distinct == 314


@pytest.mark.parametrize("kind", ["bhp", "cp"])
def test_a_forged_scalar_defect_is_refused_by_name(kind):
    sr = build_example("tensor", 2)
    module = free_cp_pair(sr) if kind == "cp" else regular_module(sr)
    f = square_map(sr, module)
    decide = is_cp_quadratic if kind == "cp" else is_bhp_quadratic
    batch = batch_cp_quadratic if kind == "cp" else batch_bhp_quadratic
    tables = all_tables(module.nm, module.nm)
    bad = tables[~batch(module, module, tables)][0]
    law = decide(MapTable(module, module, bad)).verdict.failures[0].law
    scalar = defects(f).scalar.copy()
    scalar[1] = bad
    forged = np.concatenate([f.table[None], scalar])  # f over forged scalar defects
    with pytest.raises(ConsistencyError, match=rf"f_\(1\) .* fails {re.escape(law)}$"):
        _decide(kind, f, forged)
    assert decide(f).scalar_defects_quadratic is True


# ---------------------------------------------------------------------------
# certificates, composition, promotion


def test_certificate_survives_reverification_but_not_tampering():
    sr = build_example("tensor", 2)
    pair = free_cp_pair(sr)
    cert = is_cp_quadratic(square_map(sr, pair))
    assert certificate_valid(cert)
    cert.map.table[0] = (cert.map.table[0] + 1) % 4
    assert not certificate_valid(cert)


def test_compose_squaring_with_itself():
    sr = build_example("tensor", 2)
    pair = free_cp_pair(sr)
    sq = is_cp_quadratic(square_map(sr, pair))
    fourth = compose_quadratic(sq, sq)
    assert fourth.passed
    diag = sr.re.mul[np.arange(4), np.arange(4)]
    assert np.array_equal(fourth.map.table, diag[diag])


def test_compose_right_multiplications():
    """g o f for f = (.)*t, g = (.)*s lands on (.)*(t*s)."""
    sr = build_example("sym", 2)
    pair = free_cp_pair(sr)
    mul = sr.re.mul
    t, s = 2, 3
    f = is_cp_quadratic(MapTable(pair, pair, mul[:, t]))
    g = is_cp_quadratic(MapTable(pair, pair, mul[:, s]))
    assert f.passed and g.passed
    gf = compose_quadratic(g, f)
    assert np.array_equal(gf.map.table, mul[:, mul[t, s]])


def test_compose_rejects_mismatched_endpoints():
    sq = is_cp_quadratic(square_map(build_example("tensor", 2), free_cp_pair(build_example("tensor", 2))))
    other = is_cp_quadratic(MapTable(*(free_cp_pair(build_example("sym", 2)),) * 2, np.zeros(4, dtype=np.int64)))
    with pytest.raises(NotComposable):
        compose_quadratic(other, sq)


def test_compose_rejects_stale_certificates():
    sr = build_example("tensor", 2)
    pair = free_cp_pair(sr)
    sq = is_cp_quadratic(square_map(sr, pair))
    sq.map.table[2] = 0  # silently corrupt the certified table
    with pytest.raises(CertificateInvalid):
        compose_quadratic(sq, sq)


def test_cp_implies_bhp():
    sr = build_example("tensor", 2)
    cert = is_cp_quadratic(square_map(sr, free_cp_pair(sr)))
    plain = cp_implies_bhp(cert)
    assert plain.kind == "bhp" and plain.passed
    assert np.array_equal(plain.map.table, cert.map.table)


def test_promote_to_cp():
    sr = build_example("rnil", 4)
    f = MapTable(regular_module(sr), ree_module(sr), sr.h)
    cert = promote_to_cp(f)
    assert cert.kind == "cp" and cert.passed
    # domain pair carries the derived submodule, which is trivial here
    assert cert.map.dom.aset == (0,)


def test_promote_refuses_non_quadratic_maps():
    sr = build_example("tensor", 3)
    with pytest.raises(CertificateInvalid):
        promote_to_cp(square_map(sr, regular_module(sr)))


def test_pair_decider_argument_guard():
    sr = build_example("sym", 2)
    with pytest.raises(PreconditionUnmet):
        is_cp_quadratic(np.zeros(4, dtype=np.int64))
    with pytest.raises(PreconditionUnmet):
        is_cp_quadratic(MapTable(regular_module(sr), regular_module(sr), np.zeros(4, dtype=np.int64)))


def klein_pair(aset) -> CpModule:
    """(Z/2)² over ``rnil 2``: the unit acts as the identity, 0 as zero,
    and the bracket is 0."""
    sr = build_example("rnil", 2)
    m = np.arange(4)
    scal = np.zeros((4, sr.re.order), dtype=np.int64)
    scal[:, sr.one] = m
    bracket = np.zeros((4, 4, sr.ree.order), dtype=np.int64)
    return CpModule(sr, FiniteGroup(m[:, None] ^ m[None, :], m), scal, bracket, aset)


def test_pair_map_witnesses_name_elements_of_the_distinguished_subgroup():
    """With A = {0, 2} in the domain, the f(A) clause of CP1 fails at
    f(2) = 2 outside B = {0}, and CP4 at d_f(1, 2) = 1: both name the
    element 2 of A, not its position 1 in A."""
    dom = klein_pair((0, 2))
    for cod, table, first in (
        (klein_pair((0,)), [0, 0, 2, 3], Failure("CP1", (2,), "lhs=0 rhs=1")),
        (klein_pair((0, 1)), [0, 2, 1, 2], Failure("CP4", (1, 2), "lhs=1 rhs=0")),
    ):
        assert verify_cp_module(cod).passed
        cert = is_cp_quadratic(MapTable(dom, cod, np.array(table)))
        assert cert.verdict.failures[0] == first


def test_noncommutative_base_is_rejected():
    sr = triangular_square_ring()
    reg = regular_module(sr)
    with pytest.raises(NonCommutativeRing):
        is_bhp_quadratic(MapTable(reg, reg, np.arange(8)))


# ---------------------------------------------------------------------------
# enumeration and factorization


def test_enumerate_matches_the_batch_census():
    pair = free_cp_pair(build_example("sym", 2))
    found = enumerate_cp_quadratic(pair, pair)
    assert len(found) == 8
    tables = all_tables(4, 4)
    mask = batch_cp_quadratic(pair, pair, tables, route="definition")
    expected = [tuple(map(int, t)) for t, ok in zip(tables, mask) if ok]
    assert [tuple(map(int, f.table)) for f in found] == sorted(expected)


def test_enumerate_respects_the_limit():
    pair = free_cp_pair(build_example("sym", 2))
    with pytest.raises(SearchSpaceTooLarge):
        enumerate_cp_quadratic(pair, pair, limit=3)


def test_factorization_check_passes_for_quadratic_pair_maps():
    sr = build_example("tensor", 2)
    pair = free_cp_pair(sr)
    v = factorization_check(square_map(sr, pair))
    assert v.passed
    assert {"FAC1", "FAC2", "FAC3"} <= set(v.checked)


def test_factorization_check_gates():
    sr = build_example("tensor", 3)
    pair = free_cp_pair(sr)
    with pytest.raises(PreconditionUnmet):
        factorization_check(square_map(sr, pair))
    with pytest.raises(PreconditionUnmet):
        factorization_check(np.zeros(4, dtype=np.int64))
