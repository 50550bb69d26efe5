from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest

import quadrica.quadratic as quadratic

from quadrica import (
    MapTable,
    build_example,
    compose_quadratic,
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
from quadrica.errors import (
    CapExceeded,
    CertificateInvalid,
    ConsistencyError,
    PreconditionUnmet,
    SearchSpaceTooLarge,
)
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
    """Hom tables built cell by cell through a dict of map tables, one
    operation after the other in the order of the closure laws: the
    negation over i, the sum over (i, j), the bracket over (i, j, x), then
    the scalar multiple over (i, r).  The first result outside the carrier
    raises, or the four tables."""
    rank = {tuple(t): i for i, t in enumerate(tables.tolist())}
    k = len(tables)

    def lookup(what, shape, row):
        out = np.zeros(shape, dtype=np.int64)
        for cell in np.ndindex(*shape):
            key = tuple(int(v) for v in row(*cell))
            if key not in rank:
                raise ConsistencyError(f"carrier of quadratic maps fails pointwise {what} "
                                       f"at {cell}: lhs=0 rhs=1")
            out[cell] = rank[key]
        return out

    neg = lookup("negation", (k,), lambda i: nb.group.neg[tables[i]])
    add = lookup("sum", (k, k), lambda i, j: nb.group.add[tables[i], tables[j]])
    bracket = lookup("bracket", (k, k, nee), lambda i, j, x: nb.bracket[tables[i], tables[j], x])
    scal = lookup("scalar multiple", (k, ne), lambda i, r: nb.scal[tables[i], r])
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
                messages.add(str(exc).split(" pointwise ")[1].split(" at ")[0])
                continue
            hm = hom_module(pair, pair)
            for got, want in zip((hm.group.add, hm.group.neg, hm.scal, hm.bracket), expected):
                assert np.array_equal(got, want)
    assert messages == {
        ("sym", 2): {"sum", "bracket"},
        ("gamma", 2): {"sum", "scalar multiple"},
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


@pytest.mark.parametrize("kind", ["sym", "gamma", "tensor"])
def test_the_z3_free_pair_search_visits_2251_partial_tables(kind):
    """The search for the 81 quadratic self-maps of a Z/3 free pair visits
    exactly 2,251 partial tables: a limit of 2,251 lets it finish, one less
    stops it."""
    pair = free_cp_pair(build_example(kind, 3))
    assert len(quadratic.enumerate_cp_quadratic(pair, pair, limit=2_251)) == 81
    with pytest.raises(SearchSpaceTooLarge, match="^search visited more than 2250 nodes$"):
        quadratic.enumerate_cp_quadratic(pair, pair, limit=2_250)


@pytest.mark.parametrize("kind,nodes,maps", [
    ("sym", 70_033, 128), ("gamma", 118_417, 64), ("tensor", 70_033, 128),
])
def test_the_z4_free_pair_search_visits_a_pinned_node_count(kind, nodes, maps):
    pair = free_cp_pair(build_example(kind, 4))
    assert len(quadratic.enumerate_cp_quadratic(pair, pair, limit=nodes)) == maps
    with pytest.raises(SearchSpaceTooLarge, match=f"^search visited more than {nodes - 1} nodes$"):
        quadratic.enumerate_cp_quadratic(pair, pair, limit=nodes - 1)


def test_pairs_over_different_square_rings_are_refused_before_the_search():
    classical = free_cp_pair(build_example("classical", 2))
    for dom, cod in ((classical, sym2_pair()), (sym2_pair(), classical)):
        tables = np.zeros((1, dom.nm), dtype=np.int64)
        for build in (quadratic.enumerate_cp_quadratic, hom_module,
                      lambda d, c: quadratic.batch_cp_quadratic(d, c, tables),
                      lambda d, c: quadratic.batch_bhp_quadratic(d.base, c.base, tables)):
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


def test_pullback_names_the_linear_law_that_fails(monkeypatch):
    """Precomposition along the identity into a carrier whose maps 2 and 3
    trade labels, its tables left as they are: the table that swaps 2 and
    3 maps A into B but is not additive, first at (2, 4)."""
    pair = sym2_pair()
    ident = is_cp_quadratic(MapTable(pair, pair, np.arange(4)))
    real, homs = quadratic.hom_module, []

    def relabelled(ma, nb, limit):
        homs.append(hom := real(ma, nb, limit=limit))
        if len(homs) == 2:  # the target carrier
            maps = list(hom.maps)
            maps[2], maps[3] = maps[3], maps[2]
            hom.maps = tuple(maps)
        return hom

    monkeypatch.setattr(quadratic, "hom_module", relabelled)
    with pytest.raises(ConsistencyError) as err:
        pullback(ident, pair)
    assert str(err.value) == ("precomposition by a quadratic pair map fails additive at (2, 4): "
                              "lhs=6 rhs=7")


def test_functoriality_needs_a_passing_pair_certificate():
    sr = build_example("rnil", 4)
    reg = regular_module(sr)
    plain = is_bhp_quadratic(MapTable(reg, reg, np.zeros(4, dtype=np.int64)))
    with pytest.raises(PreconditionUnmet):
        pullback(plain, sym2_pair())
    pair = sym2_pair()
    ident = is_cp_quadratic(MapTable(pair, pair, np.arange(4)))
    tampered = np.arange(4)
    tampered[1] = 0
    ident.map = MapTable(pair, pair, tampered)
    with pytest.raises(CertificateInvalid):
        pushforward(ident, pair)


def test_pushforward_names_the_first_scalar_defect_that_disagrees():
    """The law (g_*)_(r) = g_(r)∘f over (r, f, m), with g_(1) spoiled at one
    element m0: its first failing cell, r first, then the carrier's maps in
    order, then m, is at r = 1, the first map that takes the value m0, and
    the first m it sends to m0."""
    sr = build_example("tensor", 2)
    pair = free_cp_pair(sr)
    sq = is_cp_quadratic(MapTable(pair, pair, sr.re.mul[np.arange(4), np.arange(4)]))
    m0 = 3
    right = int(sq.defects.scalar[1, m0])
    scalar = sq.defects.scalar.copy()
    scalar[1, m0] = spoiled = (right + 1) % pair.nm
    sq.defects = replace(sq.defects, scalar=scalar)
    first, m = next((i, m) for i, h in enumerate(hom_module(pair, pair).maps)
                    for m in range(pair.nm) if h.table[m] == m0)
    with pytest.raises(ConsistencyError) as err:
        pushforward(sq, pair)
    assert str(err.value) == ("postcomposition by a quadratic pair map fails (g_*)_(r) = g_(r)∘f "
                              f"at (1, {first}, {m}): lhs={right} rhs={spoiled}")


# the free pairs of the perfbench ``hom`` workload (``HOM_DOCS``)
HOM_PAIRS = [("rnil", 2), ("sym", 2), ("tensor", 2), ("gamma", 2),
             ("sym", 3), ("gamma", 3), ("tensor", 3)]


@pytest.mark.parametrize("kind,n", HOM_PAIRS, ids=[f"{k}{n}" for k, n in HOM_PAIRS])
def test_gr_is_a_functor_on_the_maps_of_a_hom_carrier(kind, n):
    """(g∘f)‾ = ḡ∘f̄ and (g∘f)₂ = g₂∘f₂ for every pair g, f of quadratic
    maps M → M, and the identity goes to identities: each composite of
    the carrier's tables, stacked, has the induced maps composed from
    those of its factors."""
    set_config(cap_group=128)  # the n = 3 carriers have 81 maps
    pair = free_cp_pair(build_example(kind, n))
    tables = np.stack([f.table for f in hom_module(pair, pair).maps])
    k = len(tables)
    composites = tables[np.arange(k)[:, None, None], tables[None]]  # [g, f] = T[g][T[f]]
    fbar, f2 = quadratic._graded_maps(pair, pair, tables)
    cbar, c2 = quadratic._graded_maps(pair, pair, composites.reshape(k * k, -1))
    for induced, composed in ((fbar, cbar), (f2, c2)):
        expected = induced[np.arange(k)[:, None, None], induced[None]]  # [g, f] = g'[f']
        assert np.array_equal(composed.reshape(k, k, -1), expected)
    ibar, i2 = quadratic._graded_maps(pair, pair, np.arange(pair.nm)[None])
    assert np.array_equal(ibar[0], np.arange(fbar.shape[1]))
    assert np.array_equal(i2[0], np.arange(f2.shape[1]))
    certs = [is_cp_quadratic(MapTable(pair, pair, t)) for t in tables[[0, k // 2, k - 1]]]
    for g, f in itertools.product(range(3), repeat=2):
        graded = compose_quadratic(certs[g], certs[f]).graded
        assert np.array_equal(graded["fbar"], certs[g].graded["fbar"][certs[f].graded["fbar"]])
        assert np.array_equal(graded["f2"], certs[g].graded["f2"][certs[f].graded["f2"]])
