from __future__ import annotations

import gc
import re
import weakref
from functools import cache

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
    is_commutative,
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
from quadrica.quadratic import DefectBundle, _decide, _defect_stacks

from _census import module_census, pair_census
from conftest import triangular_square_ring


def square_map(sr, module) -> MapTable:
    return MapTable(module, module, sr.re.mul[np.arange(module.nm), np.arange(module.nm)])


def all_tables(dom_order: int, cod_order: int) -> np.ndarray:
    grids = np.meshgrid(*([np.arange(cod_order)] * dom_order), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


DECIDE = {"bhp": is_bhp_quadratic, "cp": is_cp_quadratic}
BATCH = {"bhp": batch_bhp_quadratic, "cp": batch_cp_quadratic}


@cache
def census_accepted() -> tuple:
    """(kind, dom, cod, accepted tables) of every block of the rnil 2 /
    sym 2 census with an accepted map: plain maps ("bhp") between census
    modules, pair maps ("cp") between census pairs."""
    blocks = []
    for ring in ("rnil", "sym"):
        mods = module_census(build_example(ring, 2))
        pairs = [p for m in mods for p in pair_census(m)]
        for kind, objs in (("bhp", mods), ("cp", pairs)):
            for dom in objs:
                for cod in objs:
                    tables = all_tables(dom.nm, cod.nm)
                    accepted = tables[BATCH[kind](dom, cod, tables)]
                    if len(accepted):
                        blocks.append((kind, dom, cod, accepted))
    return tuple(blocks)


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


@pytest.mark.parametrize("kind", ["bhp", "cp"])
def test_a_certified_map_sweeps_only_the_two_identity_laws(swept, kind):
    sr = build_example("tensor", 2)
    module = free_cp_pair(sr) if kind == "cp" else regular_module(sr)
    f = square_map(sr, module)
    assert DECIDE[kind](f).passed
    with swept() as certified:
        verdict = three_defects_check(f)
    assert verdict.passed and certified.sweeps == 2
    with swept() as fresh:
        assert three_defects_check(MapTable(module, module, f.table)) == verdict
    assert fresh.sweeps > 2  # the gate's sweeps


def test_relation_3c_and_the_bracket_clause_of_bhpc1_are_one_sweep(swept):
    """A passing plain map sweeps 26 clauses: the bracket clause of BHPc1,
    whose right side is a bracket of a bracket, 0 in a verified module, is
    relation 3(c)."""
    sr = build_example("tensor", 2)
    f = square_map(sr, regular_module(sr))
    is_commutative(sr)  # cached on the ring before the count
    with swept() as tally:
        cert = is_bhp_quadratic(f)
    assert cert.passed and tally.sweeps == 26
    assert "3(c)" in cert.verdict.checked and "BHPc1" in dict(cert.routes)["reduced"].checked


def test_writing_a_map_s_table_raises_value_error():
    """A certified map cannot be rewritten under its decision: the table
    is read-only, so the decision ``three_defects_check`` reads is always
    that of the map's table."""
    sr = build_example("tensor", 3)
    reg = regular_module(sr)
    f = MapTable(reg, reg, np.arange(reg.nm))  # the identity: linear, so quadratic
    assert is_bhp_quadratic(f).passed
    with pytest.raises(ValueError, match="read-only"):
        f.table[:] = square_map(sr, reg).table
    assert np.array_equal(f.table, np.arange(reg.nm))
    assert three_defects_check(f).passed


def test_a_map_keeps_a_copy_of_the_caller_s_table():
    """Writing the caller's array after the map is built leaves the map,
    its hash and its membership of a set unchanged."""
    sr = build_example("tensor", 2)
    pair = free_cp_pair(sr)
    tables = all_tables(pair.nm, pair.nm)[[0, 5]]
    f = MapTable(pair, pair, tables[0])
    before, kept = hash(f), {f}
    tables[0] = tables[1]  # the caller's own array stays writable
    assert np.array_equal(f.table, np.zeros(pair.nm, dtype=np.int64))
    assert hash(f) == before and f in kept
    assert f != MapTable(pair, pair, tables[0])


def test_a_failed_decision_does_not_skip_the_gate():
    sr = build_example("tensor", 3)
    f = square_map(sr, regular_module(sr))
    assert not is_bhp_quadratic(f).passed
    with pytest.raises(PreconditionUnmet, match="three-defects identity fails BHP"):
        three_defects_check(f)


def test_certified_maps_keep_the_verdict_of_a_fresh_map_on_the_criterion_5_set(swept):
    """Every accepted map of the rnil 2 / sym 2 census and the square on
    the tensor 2 regular module: the verdict read off the certificate,
    with no gate, equals the one that sweeps the gate."""
    maps = [(DECIDE[kind], MapTable(dom, cod, table))
            for kind, dom, cod, accepted in census_accepted() for table in accepted]
    sr = build_example("tensor", 2)
    maps.append((is_bhp_quadratic, square_map(sr, regular_module(sr))))
    assert len(maps) == 412 + 1_276 + 1
    for decide, f in maps:
        assert decide(f).passed
    with swept() as tally:
        verdicts = [three_defects_check(f) for _, f in maps]
    assert tally.sweeps == 2 * len(maps)
    assert all(v.passed for v in verdicts)
    assert verdicts == [three_defects_check(MapTable(f.dom, f.cod, f.table)) for _, f in maps]


def test_spoiling_a_certificate_s_defects_leaves_the_three_defects_verdict_alone():
    sr = build_example("tensor", 2)
    pair = free_cp_pair(sr)
    f = square_map(sr, pair)
    cert = is_cp_quadratic(f)
    fresh = three_defects_check(MapTable(pair, pair, f.table))
    with pytest.raises(ValueError, match="read-only"):
        cert.defects.d[0, 0] = 1
    spoiled = (cert.defects.d, cert.defects.scalar, cert.defects.bracket)
    cert.defects = DefectBundle(*((values + 1) % pair.nm for values in spoiled))
    assert three_defects_check(f) == fresh


@pytest.mark.parametrize("quadratic", [True, False])
def test_a_certificate_owns_its_defects_and_dies_without_the_cycle_collector(quadratic):
    """A certificate holds one map's defects, not views of the decision's
    stacks, and reference counting alone frees it while its map lives on:
    the decision that the map keeps does not point back at it."""
    sr = build_example("tensor", 2)
    pair = free_cp_pair(sr)
    f = square_map(sr, pair) if quadratic else MapTable(pair, pair, np.ones(4, dtype=np.int64))
    enabled = gc.isenabled()
    gc.disable()
    try:
        cert = is_cp_quadratic(f)
        assert cert.passed == quadratic
        for values in (cert.defects.d, cert.defects.scalar, cert.defects.bracket):
            assert values.base is None and values.flags.owndata and not values.flags.writeable
        ref = weakref.ref(cert)
        del cert
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# recertification of the scalar defects


def test_scalar_defects_of_census_maps_are_quadratic_map_by_map():
    """Every scalar defect f_(r) of every accepted plain and pair map of the
    rnil 2 / sym 2 census passes the single-map decider on its own, and
    every batch route accepts the whole stack of them: the stacked
    recertification and the per-map decision agree."""
    routes = {"bhp": ("relations", "definition", "reduced"),
              "cp": ("definition", "reduced", "factorization")}
    distinct = 0
    for kind, dom, cod, accepted in census_accepted():
        rows = _defect_stacks(dom, cod, accepted).scalar.reshape(-1, dom.nm)
        for route in routes[kind]:
            assert BATCH[kind](dom, cod, rows, route=route).all()
        for row in np.unique(rows, axis=0):
            distinct += 1
            assert DECIDE[kind](MapTable(dom, cod, row)).passed
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
    tampered = cert.map.table.copy()
    tampered[0] = (tampered[0] + 1) % 4
    cert.map = MapTable(pair, pair, tampered)
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
    corrupt = sq.map.table.copy()
    corrupt[2] = 0
    sq.map = MapTable(pair, pair, corrupt)  # a certificate pointed at another table
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
    """On every ordered pair of the 19 n = 2 census pair modules (8 over
    ``rnil 2``, 11 over ``sym 2``), the enumerator's tables are, in order,
    the rows of ``all_tables`` that ``batch_cp_quadratic`` accepts."""
    blocks = maps = 0
    for kind in ("rnil", "sym"):
        pairs = [p for m in module_census(build_example(kind, 2)) for p in pair_census(m)]
        for dom in pairs:
            for cod in pairs:
                found = np.array([f.table for f in enumerate_cp_quadratic(dom, cod)])
                tables = all_tables(dom.nm, cod.nm)
                assert np.array_equal(found, tables[batch_cp_quadratic(dom, cod, tables)])
                blocks += 1
                maps += len(found)
    assert (blocks, maps) == (185, 1_276)


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
