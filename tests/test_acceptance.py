"""End-to-end acceptance gate: nine numbered criteria, one test each.

Run ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Expected counts are frozen from independent probes; the timing
budgets are loose enough for CI noise but tight enough to catch an
accidental complexity regression.

Criterion 7 pins a non-existence proof: the dihedral group of order 8
carries no module structure at all over the order-2 nilpotent ring (see the
test's docstring for the two-line proof), so the test asserts the
verifier's exact MC1 obstruction and that both graded functors refuse the
candidate.  The graded-versus-lower-central-series comparison itself runs
in ``test_graded_functor_matches_group_theory_oracle`` over the order-4
nilpotent ring, where the module exists.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from quadrica import (
    BhpModule,
    Failure,
    MapTable,
    PreconditionUnmet,
    batch_bhp_quadratic,
    batch_cp_quadratic,
    build_example,
    commutativity_census,
    compose_quadratic,
    dihedral,
    elementary_properties,
    free_cp_pair,
    gr_gamma,
    gr_z,
    hom_module,
    is_bhp_quadratic,
    is_cp_linear,
    is_cp_quadratic,
    naive_bhp_quadratic,
    naive_cp_quadratic,
    pullback,
    pushforward,
    rbar_regular_module,
    ree_module,
    regular_module,
    set_config,
    three_defects_check,
    verify_bhp_module,
    verify_cp_module,
    verify_square_ring,
    zero_module,
)

from conftest import RING_SPECS
from _census import all_tables, module_census, pair_census

# ---------------------------------------------------------------------------
# frozen census totals over the two order-2 base rings (criteria 3, 5, 9)

CENSUS_SIZES = {"rnil": (3, 8), "sym": (6, 11)}  # (modules, pair structures)
PLAIN_CANDIDATES, PLAIN_QUADRATIC = 4_553, 412
PAIR_CANDIDATES, PAIR_QUADRATIC = 23_727, 1_276

_CENSUS: dict = {}


def census_data() -> dict:
    """Exhaustively classify every map between census modules, cross-checking
    all decision routes, and memoize the result so later criteria can reuse
    the certified maps without re-enumerating."""
    if _CENSUS:
        return _CENSUS
    t0 = time.monotonic()
    counts: dict[str, tuple[int, int]] = {}
    plain_total = plain_quad = pair_total = pair_quad = 0
    naive_checked = naive_agree = 0
    plain_naive = [0, 0]  # plain maps checked by the loop oracle, and agreeing
    certified: list[tuple] = []  # (dom, cod, table) for every accepted map
    samples: list[tuple] = []  # strided (dom, cod, table, expected, kind)
    for kind in ("rnil", "sym"):
        sr = build_example(kind, 2)
        mods = module_census(sr)
        pairs = [p for m in mods for p in pair_census(m)]
        counts[kind] = (len(mods), len(pairs))
        for dom in mods:
            for cod in mods:
                tables = all_tables(dom.nm, cod.nm)
                masks = [
                    batch_bhp_quadratic(dom, cod, tables, route=r)
                    for r in ("relations", "definition", "reduced")
                ]
                assert all(np.array_equal(masks[0], m) for m in masks[1:])
                mask = masks[0]
                plain_total += len(tables)
                plain_quad += int(mask.sum())
                certified.extend((dom, cod, t) for t, ok in zip(tables, mask) if ok)
                samples.extend(
                    (dom, cod, tables[i], bool(mask[i]), "plain")
                    for i in range(0, len(tables), 31)
                )
                for table, ok in zip(tables, mask):
                    plain_naive[0] += 1
                    plain_naive[1] += int(naive_bhp_quadratic(dom, cod, table) == bool(ok))
        for dom in pairs:
            for cod in pairs:
                tables = all_tables(dom.nm, cod.nm)
                masks = [
                    batch_cp_quadratic(dom, cod, tables, route=r)
                    for r in ("definition", "reduced", "factorization")
                ]
                assert all(np.array_equal(masks[0], m) for m in masks[1:])
                mask = masks[0]
                pair_total += len(tables)
                pair_quad += int(mask.sum())
                certified.extend((dom, cod, t) for t, ok in zip(tables, mask) if ok)
                samples.extend(
                    (dom, cod, tables[i], bool(mask[i]), "pair")
                    for i in range(0, len(tables), 97)
                )
                for i in range(len(tables)):
                    naive_checked += 1
                    naive_agree += int(
                        naive_cp_quadratic(dom, cod, tables[i]) == bool(mask[i])
                    )
    _CENSUS.update(
        counts=counts,
        plain=(plain_total, plain_quad),
        pair=(pair_total, pair_quad),
        certified=certified,
        samples=samples,
        naive=(naive_checked, naive_agree),
        naive_plain=tuple(plain_naive),
        elapsed=time.monotonic() - t0,
    )
    return _CENSUS


def _square_on_regular(kind: str, n: int) -> MapTable:
    sr = build_example(kind, n)
    reg = regular_module(sr)
    idx = np.arange(sr.re.order)
    return MapTable(reg, reg, sr.re.mul[idx, idx])


# ---------------------------------------------------------------------------
# 1. every example ring satisfies the full axiom suite, quickly


def test_criterion_1_ring_axiom_suite():
    t0 = time.monotonic()
    built = 0
    for kind, n, eps in RING_SPECS:
        v = verify_square_ring(build_example(kind, n, epsilon=eps))
        assert v.passed, (kind, n, eps, [f.law for f in v.failures])
        for ax in (f"AC{i}" for i in range(9)):
            assert ax in v.checked
        built += 1
    assert built == 20
    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# 2. the standard modules over every ring verify, plus the elementary facts


ELEMENTARY = (
    "brackets-central",
    "bracket-H2-commutator",
    "class-le-2",
    "neg-scal",
    "bracket-kills-P",
)


def test_criterion_2_standard_module_suite():
    structures = 0
    for kind, n, eps in RING_SPECS:
        sr = build_example(kind, n, epsilon=eps)
        plain = (regular_module(sr), ree_module(sr), rbar_regular_module(sr))
        pairs = (free_cp_pair(sr), zero_module(sr))
        for mod in plain:
            assert verify_bhp_module(mod).passed, (kind, n, eps)
        for pair in pairs:
            assert verify_cp_module(pair).passed, (kind, n, eps)
        for mod in plain + pairs:
            v = elementary_properties(mod)
            assert v.passed, (kind, n, eps)
            assert set(ELEMENTARY) <= set(v.checked)
            structures += 1
    assert structures == 100


# ---------------------------------------------------------------------------
# 3. the characterizations agree on every map between small modules


def test_criterion_3_characterization_equivalence():
    data = census_data()
    assert data["counts"] == CENSUS_SIZES
    assert data["plain"] == (PLAIN_CANDIDATES, PLAIN_QUADRATIC)
    assert data["pair"] == (PAIR_CANDIDATES, PAIR_QUADRATIC)
    # the vectorized routes already agreed pairwise inside census_data();
    # now pin the batch answers to the one-map deciders on a strided sample
    for dom, cod, table, expected, kind in data["samples"]:
        f = MapTable(dom, cod, table)
        got = (is_cp_quadratic(f) if kind == "pair" else is_bhp_quadratic(f)).passed
        assert got == expected, (kind, table)
    assert data["elapsed"] < 60.0


# ---------------------------------------------------------------------------
# 4. squaring on the tensor-square ring: certified iff the base is boolean

# witness slot layout per relation label: "m"/"r" decode as (first, second)
# residue pairs, "x" as a pair of residues in the square part
WITNESS_SLOTS = {
    "zero": ("c",),
    "1(a)": ("m", "m", "m", "x"),
    "2(b)": ("m", "m", "r", "x"),
    "3(c)": ("m", "m", "x", "m", "x"),
    "4(d)": ("m", "m", "m"),
    "5(e)": ("m", "m", "r", "r"),
    "6(f)": ("m", "m", "x", "m"),
    "7(g)": ("m", "r", "r"),
    "8(h)": ("m", "m", "x", "r"),
}


def _witness_blames_base_ring(n: int, law: str, witness: tuple) -> bool:
    """The rejection evidence must exhibit non-booleanness of Z/n: either
    first components r, r' and a second component s'' with 2rr's'' != 0,
    or a first component with r^2 + r != 0."""
    firsts: list[int] = []
    seconds: list[int] = []
    for slot, idx in zip(WITNESS_SLOTS[law], witness):
        a, b = divmod(int(idx), n)
        if slot in ("m", "r"):
            firsts.append(a)
            seconds.append(b)
        elif slot == "x":
            seconds.extend((a, b))
    if any((r * r + r) % n for r in firsts):
        return True
    return any(
        (2 * r1 * r2 * s) % n for r1 in firsts for r2 in firsts for s in seconds
    )


def test_criterion_4_boolean_squaring_criterion():
    assert is_bhp_quadratic(_square_on_regular("tensor", 2)).passed
    for n in (3, 4):
        cert = is_bhp_quadratic(_square_on_regular("tensor", n))
        assert not cert.passed
        fails = cert.verdict.failures
        assert fails
        for f in fails:
            assert _witness_blames_base_ring(n, f.law, f.witness), (
                n,
                f.law,
                f.witness,
            )


# ---------------------------------------------------------------------------
# 5. the three-defects identity holds for every certified map above


def test_criterion_5_three_defects_lemma():
    certified = list(census_data()["certified"])
    sq2 = _square_on_regular("tensor", 2)
    certified.append((sq2.dom, sq2.cod, sq2.table))
    assert len(certified) == PLAIN_QUADRATIC + PAIR_QUADRATIC + 1
    for dom, cod, table in certified:
        v = three_defects_check(MapTable(dom, cod, table))
        assert v.passed, table
        assert "three-defects" in v.checked
        assert "three-defects-r2" in v.checked


# ---------------------------------------------------------------------------
# 6. the internal hom is itself a verified pair module; composition,
#    precomposition, and postcomposition all re-certify


def test_criterion_6_hom_capstone():
    for kind, expect in (("rnil", 2), ("sym", 8)):
        pair = free_cp_pair(build_example(kind, 2))
        hom = hom_module(pair, pair)
        assert len(hom.maps) == expect
        assert verify_cp_module(hom).passed
        certs = [is_cp_quadratic(f) for f in hom.maps]
        assert all(c.passed for c in certs)
        for g in certs:
            for f in certs:
                assert compose_quadratic(g, f).passed
    sr = build_example("sym", 2)
    pair = free_cp_pair(sr)
    idx = np.arange(pair.nm)
    sq = is_cp_quadratic(MapTable(pair, pair, sr.re.mul[idx, idx]))
    assert sq.passed
    star = pullback(sq, pair)  # h -> h o f between hom modules
    assert is_cp_linear(star.table, star.dom, star.cod)
    push = pushforward(sq, pair)  # f -> g o f, quadratic with cross-check
    assert push.passed and push.kind == "cp"


# ---------------------------------------------------------------------------
# 7. dihedral-8 over the order-2 nilpotent ring: the proven obstruction


def test_criterion_7_graded_functor_dihedral_over_order_two():
    """Dihedral-8 as a module over the order-2 nilpotent ring cannot exist,
    so there is no graded object to compare with the lower central series;
    the test pins the obstruction instead.

    Proof: in that ring R_e = Z/2, so 1 + 1 = 0 and MC1 forces m·0 = 0,
    m·1 = m and m + m = m·(1+1) = m·0 = 0 for every carrier element.  R_ee
    is trivial, so the bracket is zero.  The tables below are therefore the
    only candidate, and dihedral-8 has rotations of additive order 4, so
    the verifier must reject it with MC1 exactly at the elements with
    m + m != 0 (r = s = 1), and neither graded functor may compute a graded
    object of the non-module.  The comparison itself is made over the
    order-4 ring by ``test_graded_functor_matches_group_theory_oracle``.
    """
    d4 = dihedral(4)
    sr = build_example("rnil", 2)
    scal = np.array(
        [[d4.repeat(m, r) for r in range(sr.re.order)] for m in range(d4.order)],
        dtype=np.int64,
    )
    bracket = np.zeros((d4.order, d4.order, sr.ree.order), dtype=np.int64)

    def candidate() -> BhpModule:  # fresh each time: no cached verdict
        return BhpModule(sr, d4, scal, bracket)

    # the premises that make these tables the only candidate
    assert sr.re.order == 2
    assert sr.re.add[sr.one, sr.one] == 0
    assert sr.ree.order == 1

    verdict = verify_bhp_module(candidate())
    assert verdict.failures == (Failure("MC1", (2, 1, 1), "lhs=0 rhs=4"),)
    assert not verdict.passed

    for functor in (gr_gamma, gr_z):
        with pytest.raises(PreconditionUnmet, match=r"fails MC1 at \(2, 1, 1\)"):
            functor(candidate())

    set_config(exhaustive_witnesses=True)
    verdict = verify_bhp_module(candidate())
    assert not verdict.passed
    assert {f.law for f in verdict.failures} == {"MC1"}
    assert {f.witness for f in verdict.failures} == {
        (m, 1, 1) for m in range(d4.order) if d4.add[m, m] != 0
    }


def test_graded_functor_matches_group_theory_oracle():
    """The same comparison over the order-4 nilpotent ring, where dihedral-8
    genuinely is a module (scalars act by repetition, brackets by
    commutators): gr of (M, [M,M]) must reproduce the graded object the
    group-theory layer computes independently from the lower central
    series — same quotient, same subgroup, commutator pairing, and
    repetition actions in both degrees."""
    d4 = dihedral(4)
    sr = build_example("rnil", 4)
    ne, nee, nm = sr.re.order, sr.ree.order, d4.order
    scal = np.array(
        [[d4.repeat(m, r) for r in range(ne)] for m in range(nm)], dtype=np.int64
    )
    bracket = np.zeros((nm, nm, nee), dtype=np.int64)
    for m in range(nm):
        for n in range(nm):
            for x in range(1, nee):
                bracket[m, n, x] = d4.repeat(d4.commutator(n, m), x)
    mod = BhpModule(sr, d4, scal, bracket)
    assert verify_bhp_module(mod).passed

    g = gr_gamma(mod)
    lcs = d4.lower_central_series()
    assert lcs == [tuple(range(8)), (0, 4), (0,)]
    assert tuple(int(e) for e in g.embed2) == lcs[1]

    quot, proj = d4.quotient(lcs[1])
    assert np.array_equal(g.proj1, np.asarray(proj))
    assert np.array_equal(g.deg1.group.add, quot.add)

    idx2 = {int(e): i for i, e in enumerate(g.embed2)}
    assert not g.pairing[:, :, 0].any()
    for a in range(nm):
        for b in range(nm):
            assert int(g.pairing[g.proj1[a], g.proj1[b], 1]) == idx2[d4.commutator(b, a)]

    for q in range(g.deg1.order):
        for r in range(g.deg1.scal.shape[1]):
            assert int(g.deg1.scal[q, r]) == quot.repeat(q, r)
    for i in range(g.deg2.order):
        for r in range(g.deg2.scal.shape[1]):
            assert int(g.embed2[g.deg2.scal[i, r]]) == d4.repeat(int(g.embed2[i]), r)


# ---------------------------------------------------------------------------
# 8. commutativity of the divided-power family tracks the 2R criterion


def test_criterion_8_commutativity_criterion():
    set_config(cap_ring=64, cap_group=256)  # the order-6 member is big
    rows = commutativity_census([("gamma", n, 0) for n in range(2, 7)])
    assert [row["n"] for row in rows] == [2, 3, 4, 5, 6]
    assert all(row["commutative"] for row in rows)
    assert all(row["i2_equals_2R"] for row in rows)


# ---------------------------------------------------------------------------
# 9. the naive loop decider agrees with the vectorized one everywhere


def test_criterion_9_differential_oracle():
    checked, agree = census_data()["naive"]
    for kind, n in (("tensor", 2), ("rnil", 4)):
        pair = free_cp_pair(build_example(kind, n))
        tables = all_tables(pair.nm, pair.nm)
        mask = batch_cp_quadratic(pair, pair, tables)
        for i in range(len(tables)):
            checked += 1
            agree += int(naive_cp_quadratic(pair, pair, tables[i]) == bool(mask[i]))
    assert checked == 24_239
    assert checked >= 10_000
    assert agree == checked


def test_criterion_9_plain_map_oracle():
    """The loop-based plain-map decider agrees with the batch decider on
    every one of the 4,553 plain census candidates, 412 of them accepted."""
    data = census_data()
    assert data["plain"] == (PLAIN_CANDIDATES, PLAIN_QUADRATIC)
    assert data["naive_plain"] == (PLAIN_CANDIDATES, PLAIN_CANDIDATES)
