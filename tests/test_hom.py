from __future__ import annotations

import itertools

import numpy as np
import pytest

import quadrica.quadratic as quadratic

from quadrica import (
    MapTable,
    build_example,
    free_cp_pair,
    hom_module,
    is_bhp_quadratic,
    is_cp_linear,
    is_cp_quadratic,
    pullback,
    pushforward,
    regular_module,
    set_config,
    verify_cp_module,
)
from quadrica.errors import CapExceeded, CertificateInvalid, ConsistencyError, PreconditionUnmet
from quadrica.quadratic import _row_ranks


def sym2_pair():
    return free_cp_pair(build_example("sym", 2))


def test_hom_carrier_orders():
    hm = hom_module(sym2_pair(), sym2_pair())
    assert hm.nm == 8 and len(hm.maps) == 8
    assert verify_cp_module(hm).passed
    pn = free_cp_pair(build_example("rnil", 2))
    hn = hom_module(pn, pn)
    assert hn.nm == 2
    assert hn.aset == (0,)


def test_hom_distinguished_part_is_the_pointed_annihilator():
    """A map sits in the distinguished part exactly when it lands in B and
    kills A; recomputed here from raw tables."""
    pair = sym2_pair()
    hm = hom_module(pair, pair)
    b = set(pair.aset)
    expected = tuple(
        i
        for i, g in enumerate(hm.maps)
        if set(map(int, g.table)) <= b and all(int(g.table[a]) == 0 for a in pair.aset)
    )
    assert hm.aset == expected


def test_hom_operations_are_pointwise():
    pair = sym2_pair()
    hm = hom_module(pair, pair)
    tables = [g.table for g in hm.maps]
    for i in range(hm.nm):
        assert hm.group.add[0, i] == i  # zero map is neutral
        for j in range(hm.nm):
            pointwise = pair.group.add[tables[i], tables[j]]
            assert np.array_equal(tables[hm.group.add[i, j]], pointwise)
        for r in range(pair.sr.re.order):
            assert np.array_equal(tables[hm.scal[i, r]], pair.scal[tables[i], r])
        for j in range(hm.nm):
            for x in range(pair.sr.ree.order):
                assert np.array_equal(
                    tables[hm.bracket[i, j, x]], pair.bracket[tables[i], tables[j], x]
                )


def test_hom_members_are_quadratic_and_nothing_else_is():
    pair = sym2_pair()
    hm = hom_module(pair, pair)
    keys = {tuple(map(int, g.table)) for g in hm.maps}
    for flat in range(4**4):
        table = np.array([(flat >> (2 * k)) & 3 for k in range(4)], dtype=np.int64)
        expect = tuple(map(int, table)) in keys
        assert is_cp_quadratic(MapTable(pair, pair, table)).passed == expect


def assemble_by_lookup(tables, nb, ne, nee):
    """Hom tables built cell by cell through a dict of map tables: the
    first result outside the carrier raises, or the four tables."""
    rank = {tuple(t): i for i, t in enumerate(tables.tolist())}

    def locate(row, what):
        key = tuple(int(v) for v in row)
        if key not in rank:
            raise ConsistencyError(f"pointwise {what} left the carrier of quadratic maps")
        return rank[key]

    k = len(tables)
    add = np.zeros((k, k), dtype=np.int64)
    neg = np.zeros(k, dtype=np.int64)
    scal = np.zeros((k, ne), dtype=np.int64)
    bracket = np.zeros((k, k, nee), dtype=np.int64)
    for i in range(k):
        neg[i] = locate(nb.group.neg[tables[i]], "negation")
        for j in range(k):
            add[i, j] = locate(nb.group.add[tables[i], tables[j]], "sum")
            for x in range(nee):
                bracket[i, j, x] = locate(nb.bracket[tables[i], tables[j], x], "bracket")
        for r in range(ne):
            scal[i, r] = locate(nb.scal[tables[i], r], "scalar multiple")
    return add, neg, scal, bracket


@pytest.mark.parametrize("kind,n", [("sym", 2), ("gamma", 2), ("rnil", 3), ("classical", 4)])
def test_forged_carriers_fail_like_a_cell_by_cell_lookup(kind, n, monkeypatch):
    """Every sub-list of the Hom carrier that keeps the zero map, handed to
    the assembly as if enumerated: a list not closed under the pointwise
    operations raises the error of the first cell outside it, and a closed
    one gives the tables of the lookup."""
    pair = free_cp_pair(build_example(kind, n))
    maps = quadratic.enumerate_cp_quadratic(pair, pair)
    ne, nee = pair.sr.re.order, pair.sr.ree.order
    messages = set()
    for size in range(len(maps)):
        for rest in itertools.combinations(maps[1:], size):
            forged = [maps[0], *rest]
            monkeypatch.setattr(quadratic, "enumerate_cp_quadratic", lambda *a, **k: forged)
            tables = np.stack([f.table for f in forged])
            try:
                expected = assemble_by_lookup(tables, pair, ne, nee)
            except ConsistencyError as exc:
                with pytest.raises(ConsistencyError) as got:
                    hom_module(pair, pair)
                assert str(got.value) == str(exc)
                messages.add(str(exc).split()[1])
                continue
            hm = hom_module(pair, pair)
            for got, want in zip((hm.group.add, hm.group.neg, hm.scal, hm.bracket), expected):
                assert np.array_equal(got, want)
    assert messages == {
        ("sym", 2): {"sum", "bracket"},
        ("gamma", 2): {"sum", "scalar"},
        ("rnil", 3): {"negation"},
        ("classical", 4): {"negation", "sum"},
    }[kind, n]


def test_row_ranks_match_a_dict_lookup_on_rows_too_long_for_one_key():
    rng = np.random.default_rng(7)
    for base, width in ((3, 5), (4, 40), (16, 70), (1, 9)):
        tables = np.unique(rng.integers(0, base, size=(30, width)), axis=0)
        rng.shuffle(tables)
        rows = np.concatenate([tables, rng.integers(0, base, size=(30, width))])
        rows = rows[rng.permutation(len(rows))][None]
        index = {tuple(t): i for i, t in enumerate(tables.tolist())}
        expected = [[index.get(tuple(r), -1) for r in block] for block in rows.tolist()]
        assert _row_ranks(tables, rows, base).tolist() == expected


def test_hom_respects_the_group_cap():
    set_config(cap_group=4)
    with pytest.raises(CapExceeded):
        hom_module(sym2_pair(), sym2_pair())


def test_pairs_over_different_square_rings_are_refused_before_the_search():
    classical = free_cp_pair(build_example("classical", 2))
    for dom, cod in ((classical, sym2_pair()), (sym2_pair(), classical)):
        for build in (quadratic.enumerate_cp_quadratic, hom_module):
            with pytest.raises(PreconditionUnmet, match="^domain and codomain live over "
                                                        "different square rings$"):
                build(dom, cod)


def test_pullback_along_the_identity_is_the_identity():
    pair = sym2_pair()
    ident = is_cp_quadratic(MapTable(pair, pair, np.arange(4)))
    out = pullback(ident, pair)
    assert np.array_equal(out.table, np.arange(out.dom.nm))


def test_pushforward_along_the_identity_is_the_identity():
    pair = sym2_pair()
    ident = is_cp_quadratic(MapTable(pair, pair, np.arange(4)))
    out = pushforward(ident, pair)
    assert out.passed
    assert np.array_equal(out.map.table, np.arange(out.map.dom.nm))


def test_pullback_precomposes():
    sr = build_example("tensor", 2)
    pair = free_cp_pair(sr)
    sq = is_cp_quadratic(MapTable(pair, pair, sr.re.mul[np.arange(4), np.arange(4)]))
    out = pullback(sq, pair)
    hom_src, hom_dst = out.dom, out.cod
    assert is_cp_linear(out.table, hom_src, hom_dst)
    for i, h in enumerate(hom_src.maps):
        assert np.array_equal(hom_dst.maps[int(out.table[i])].table, h.table[sq.map.table])


def test_pushforward_postcomposes():
    sr = build_example("tensor", 2)
    pair = free_cp_pair(sr)
    sq = is_cp_quadratic(MapTable(pair, pair, sr.re.mul[np.arange(4), np.arange(4)]))
    out = pushforward(sq, pair)
    assert out.passed
    hom_src, hom_dst = out.map.dom, out.map.cod
    for i, h in enumerate(hom_src.maps):
        assert np.array_equal(hom_dst.maps[int(out.map.table[i])].table, sq.map.table[h.table])


def test_functoriality_needs_a_passing_pair_certificate():
    sr = build_example("rnil", 4)
    reg = regular_module(sr)
    plain = is_bhp_quadratic(MapTable(reg, reg, np.zeros(4, dtype=np.int64)))
    with pytest.raises(PreconditionUnmet):
        pullback(plain, sym2_pair())
    pair = sym2_pair()
    ident = is_cp_quadratic(MapTable(pair, pair, np.arange(4)))
    ident.map.table[1] = 0
    with pytest.raises(CertificateInvalid):
        pushforward(ident, pair)
