"""The generator route of the map deciders.

``_bilinear_clauses`` gives every bilinearity law of d_f, of the f_[x] and
of the polarizations of the f_(r) a reduced form: the additive argument of
an additivity law, the pair (m, m') and x of a bracket law and the pair
(m, r) of a scalar law run over generators of the domain, of R_e and of
R_ee, and so does x of the f_[x].  Membership in B and the vanishing
clauses of d_f and the f_[x], the relations 1(a), 2(b) and 3(c) and the
bracket clause of BHPc1 carry reduced forms too.  ``run_laws``
and ``passing_candidates`` decide on them once every other law holds, so
every single-map verdict (passed, failures, witnesses, ``checked``) and
every batch mask must equal a plain sweep of the full laws.  The pinned
forms below fail only off the generators, or only at elements that are
not the first positions of a generating set, so a reduction that ran an
argument over too few elements, or over positions, would pass them.
"""

from __future__ import annotations

import re
from functools import cache
from math import prod

import numpy as np
import pytest

import quadrica.quadratic as quadratic
from quadrica import (
    BhpModule,
    ConsistencyError,
    Failure,
    FiniteGroup,
    MapTable,
    NearRing,
    SquareRing,
    build_example,
    cyclic,
    direct_product,
    enumerate_cp_quadratic,
    free_cp_pair,
    generators,
    is_bhp_quadratic,
    is_cp_quadratic,
    regular_module,
    set_config,
    verify_bhp_module,
)
from quadrica.quadratic import (
    _BHP_ROUTES,
    _CP_ROUTES,
    _bilinear_clauses,
    _Clauses,
    _defect_stacks,
    _single,
)
from quadrica.verdict import passing_candidates, run_laws

from _census import all_tables, module_census, pair_census

ROUTES = {"bhp": _BHP_ROUTES, "cp": _CP_ROUTES}
HOM_KINDS = ("classical", "rnil", "lambda", "tensor", "sym", "gamma")


def full(laws) -> list:
    """The laws without their reduced forms: every law swept in full."""
    return [law[:3] for law in laws]


def route_laws(kind: str, dom, cod, tables) -> dict:
    clauses = _Clauses(dom, cod, tables, _defect_stacks(dom, cod, tables))
    return {name: build(clauses) for name, build in ROUTES[kind].items()}


def bilinear_laws(phi, dom, cod) -> list:
    """The six bilinearity laws of the single form ``phi``, labelled "phi"."""
    return _single([("phi", *law) for law in _bilinear_clauses((), phi[None], dom, cod)])


def assert_agrees(laws) -> None:
    """The single-map verdict of ``laws`` is the verdict of the full sweeps,
    with the first witness and with every witness."""
    for all_witnesses in (False, True):
        got = run_laws(laws, all_witnesses=all_witnesses)
        assert got == run_laws(full(laws), all_witnesses=all_witnesses)


@cache
def census_blocks() -> tuple:
    """Every (kind, domain, codomain, tables) block of the census over
    ``rnil`` and ``sym`` at n = 2: plain maps between census modules and
    pair maps between census pairs, every table of each block."""
    blocks = []
    for ring in ("rnil", "sym"):
        mods = module_census(build_example(ring, 2))
        pairs = [p for m in mods for p in pair_census(m)]
        for kind, objs in (("bhp", mods), ("cp", pairs)):
            blocks += [(kind, dom, cod, all_tables(dom.nm, cod.nm)) for dom in objs for cod in objs]
    return tuple(blocks)


def test_masks_equal_the_full_masks_on_every_census_block():
    accepted = candidates = 0
    for kind, dom, cod, tables in census_blocks():
        masks = []
        for name, laws in route_laws(kind, dom, cod, tables).items():
            mask = passing_candidates(laws, len(tables))
            assert np.array_equal(mask, passing_candidates(full(laws), len(tables))), name
            masks.append(mask)
        assert all(np.array_equal(masks[0], m) for m in masks[1:])
        accepted += int(masks[0].sum())
        candidates += len(tables)
    assert len(census_blocks()) == 230
    assert (candidates, accepted) == (28_280, 1_688)


def test_single_map_verdicts_equal_the_full_sweeps_on_census_samples():
    """One accepted and one rejected table of every block, drawn with a
    fixed seed, through every route."""
    rng = np.random.default_rng(8)
    for kind, dom, cod, tables in census_blocks():
        laws = route_laws(kind, dom, cod, tables)
        mask = passing_candidates(next(iter(laws.values())), len(tables))
        for side in (mask, ~mask):
            for q in rng.permutation(np.flatnonzero(side))[:1]:
                for route in laws.values():
                    assert_agrees(_single(route, int(q)))


def test_certificates_equal_the_per_route_verdicts_on_every_census_block():
    """One accepted and one rejected table of every block, drawn with a
    fixed seed: the certificate, decided as one stack with the clauses
    shared across routes, has the fields that sweeping each route on its
    own with ``run_laws`` gives, with the first witness and with every
    witness: ``passed``, the failures (law, witness, detail, omitted),
    ``checked`` and ``routes``."""
    rng = np.random.default_rng(11)
    certified = {True: 0, False: 0}
    for kind, dom, cod, tables in census_blocks():
        decide = is_cp_quadratic if kind == "cp" else is_bhp_quadratic
        mask = passing_candidates(next(iter(route_laws(kind, dom, cod, tables).values())),
                                  len(tables))
        for side in (mask, ~mask):
            for q in rng.permutation(np.flatnonzero(side))[:1]:
                (_, primary), *secondary = route_laws(kind, dom, cod, tables[q][None]).items()
                for all_witnesses in (False, True):
                    set_config(exhaustive_witnesses=all_witnesses)
                    cert = decide(MapTable(dom, cod, tables[q]))
                    verdict = run_laws(_single(primary), all_witnesses=all_witnesses)
                    assert cert.passed == verdict.passed == bool(mask[q])
                    assert cert.verdict.failures == verdict.failures
                    assert cert.verdict.checked == verdict.checked
                    assert cert.routes == tuple((name, run_laws(_single(laws)))
                                                for name, laws in secondary)
                certified[cert.passed] += 1
    assert certified == {True: 230, False: 202}  # blocks with an accepted, a rejected map


@pytest.mark.parametrize("kind, route", [("bhp", "definition"), ("bhp", "reduced"),
                                         ("cp", "reduced"), ("cp", "factorization")])
def test_a_secondary_route_that_disagrees_on_one_map_is_an_internal_error(monkeypatch, kind,
                                                                          route):
    """A secondary route that rejects a map the primary accepts, or accepts
    a map the primary rejects, raises ConsistencyError naming both sides."""
    sr = build_example("tensor", 2)
    module = free_cp_pair(sr) if kind == "cp" else regular_module(sr)
    decide = is_cp_quadratic if kind == "cp" else is_bhp_quadratic
    square = MapTable(module, module, sr.re.mul[np.arange(module.nm), np.arange(module.nm)])
    bad = next(MapTable(module, module, t) for t in all_tables(module.nm, module.nm)
               if not decide(MapTable(module, module, t)).passed)
    assert decide(square).passed
    first = decide(bad).verdict.failures[0].law
    routes = quadratic._ROUTES[kind]
    build = routes[route]

    def rejecting(clauses):
        return build(clauses) + [("reject", (1,), lambda q, i: (np.ones_like(i), np.zeros_like(i)))]

    monkeypatch.setitem(routes, route, rejecting)
    message = f"routes disagree: primary passes but {route} fails reject at (0,)"
    with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
        decide(square)
    monkeypatch.setitem(routes, route, lambda clauses: [])
    message = f"routes disagree: primary fails {first} but {route} passes"
    with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
        decide(bad)


@pytest.mark.parametrize("kind", HOM_KINDS)
def test_free_pair_maps_keep_the_exhaustive_certificate(kind):
    """Every map of the n = 2 free pair with f(0) = 0, the tables the Hom
    search can reach: the primary verdict, with the first witness and with
    every witness, and the route outcomes of ``is_cp_quadratic``."""
    pair = free_cp_pair(build_example(kind, 2))
    tables = all_tables(pair.nm, pair.nm)
    tables = tables[tables[:, 0] == 0]
    primary, *secondary = route_laws("cp", pair, pair, tables).values()
    rejected = 0
    for q, table in enumerate(tables):
        for all_witnesses in (False, True):
            set_config(exhaustive_witnesses=all_witnesses)
            cert = is_cp_quadratic(MapTable(pair, pair, table))
            assert cert.verdict == run_laws(full(_single(primary, q)), all_witnesses=all_witnesses)
            assert [v for _, v in cert.routes] == [run_laws(full(_single(r, q))) for r in secondary]
        rejected += not cert.passed
    assert rejected > 0 or pair.nm < 4


def test_the_reduced_forms_sweep_fewer_cells_on_a_generated_carrier():
    """On the Z/3 ``tensor`` free pair (9 elements, 2 generators, over R_e
    and R_ee of 9 elements with 2 generators each) every reducible law of
    the definition route sweeps fewer cells: the additive argument, the
    pair (m, r) of a scalar law or the pair (m, m') and x of a bracket law
    runs over generators, and so do x of the f_[x], the pair of a
    membership clause and the M slot of a vanishing clause."""
    pair = free_cp_pair(build_example("tensor", 3))
    tables = np.zeros((1, pair.nm), dtype=np.int64)
    laws = route_laws("cp", pair, pair, tables)["definition"]
    reduced = [(law[1], law[3]) for law in laws if len(law) == 4 and law[3] is not None]
    # six per bilinear defect, d_f and the f_[x]; membership in B of d_f
    # and of the f_[x]; the four vanishing clauses of d_f and the f_[x]
    assert len(reduced) == 18
    def cells(dims):
        return prod(len(d) if isinstance(d, tuple) else d for d in dims)

    for dims, rdims in reduced:
        assert cells(rdims) < cells(dims)


def lambda2_module(bits: int, form) -> BhpModule:
    """(Z/2)^bits over ``lambda 2`` (H = 0, P = 0, T = id): the unit acts as
    the identity, 0 as zero, and [a,b]·1 = form(a, b)."""
    sr = build_example("lambda", 2)
    m = np.arange(1 << bits)
    scal = np.zeros((m.size, sr.re.order), dtype=np.int64)
    scal[:, sr.one] = m
    bracket = np.zeros((m.size, m.size, sr.ree.order), dtype=np.int64)
    bracket[:, :, 1] = form(m[:, None], m[None, :])
    return BhpModule(sr, FiniteGroup(m[:, None] ^ m[None, :], m), scal, bracket)


def test_a_biadditive_form_caught_only_off_the_generators_in_n_and_off_the_diagonal():
    """M = (Z/2)² with the zero bracket, N = (Z/2)³ with
    [e1,e2]·1 = [e2,e1]·1 = e3, and φ(m,n) = m & n, whose two bits are
    e1 and e2 in N.  φ is biadditive, and φ([m,m']·1, n) = 0 differs from
    [φ(m,n), φ(m',n)]·1 exactly when m, m' hold different bits and n holds
    both: never at a generator n, never at m = m'.  A reduced bracket law
    that also ran n over the generators, or ran only the pairs (g, g),
    would pass; the reduced forms must fail, and then give the witnesses
    of the full sweeps."""
    dom = lambda2_module(2, lambda a, b: 0 * (a + b))
    cod = lambda2_module(3, lambda a, b: ((a & 1) * (b >> 1 & 1) ^ (a >> 1 & 1) * (b & 1)) << 2)
    assert verify_bhp_module(dom).passed and verify_bhp_module(cod).passed
    assert generators(dom.group) == (1, 2)
    m = np.arange(4)
    laws = bilinear_laws(m[:, None] & m[None, :], dom, cod)
    for label, dims, law, reduced in laws:
        if reduced is not None:
            assert (not run_laws([(label, reduced, law)]).passed) == (len(dims) == 4)
    assert run_laws(laws).failures == (Failure("phi", (1, 2, 1, 3), "lhs=0 rhs=4"),) * 2
    assert_agrees(laws)


def test_the_same_forms_caught_off_positions_of_a_relabelled_generating_set():
    """The biadditive form above on M = (Z/2)⁴, read through m ↦ m >> 2:
    φ(m,n) = (m >> 2) & (n >> 2), with G = (1, 2, 4, 8).  Every failing
    bracket cell has m, m' ∈ {4, 8, 12} up to the low bits, so none has m
    or m' among the positions 0..3 of G.  A second form,
    ψ(m,n) = b₃(m)·b₄(m)·(n & 1) with bᵢ the i-th bit, is additive in n and
    in m along 1 and 2, but not along 4 or 8.  A reduced form that ran m'
    of ``_first_add``, or m or m' of ``_first_br``, over the positions of
    G instead of its elements would pass both."""
    dom = lambda2_module(4, lambda a, b: 0 * (a + b))
    cod = lambda2_module(3, lambda a, b: ((a & 1) * (b >> 1 & 1) ^ (a >> 1 & 1) * (b & 1)) << 2)
    assert verify_bhp_module(dom).passed and verify_bhp_module(cod).passed
    assert generators(dom.group) == (1, 2, 4, 8)
    m = np.arange(16)
    phi = (m[:, None] >> 2) & (m[None, :] >> 2)
    psi = (m[:, None] >> 2 & 1) * (m[:, None] >> 3 & 1) * (m[None, :] & 1)
    for form, failing, witness in (
        (phi, ("_first_br", "_second_br"), (4, 8, 1, 12)),
        (psi, ("_first_add",), (4, 8, 1)),
    ):
        laws = bilinear_laws(form, dom, cod)
        names = ("_first_add", "_second_add", "_first_scal", "_second_scal",
                 "_first_br", "_second_br")
        for name, (label, dims, law, reduced) in zip(names, laws):
            assert run_laws([(label, dims, law)]).passed == (name not in failing), name
            if reduced is not None:
                assert run_laws([(label, reduced, law)]).passed == (name not in failing), name
        detail = "lhs=0 rhs=4" if form is phi else "lhs=1 rhs=0"
        assert run_laws(laws).failures == (Failure("phi", witness, detail),) * len(failing)
        assert_agrees(laws)


def relabelled_tensor3() -> SquareRing:
    """``tensor 3`` with R_e renumbered by e + 3u ↦ u + 3e, where e·ε + u·1
    is the element of index e + 3u.  As built, G_R = (1, 3) is (ε, 1), so
    its positions 0, 1 are 0 and ε; relabelled, G_R = (1, 3) is (1, ε), and
    its positions are 0 and the unit, at which every scalar law holds."""
    sr = build_example("tensor", 3)
    i = np.arange(sr.re.order)
    new = i // 3 + 3 * (i % 3)
    old = np.argsort(new)
    re_ = sr.re
    group = FiniteGroup(new[re_.add[old][:, old]], new[re_.group.neg[old]])
    ring = NearRing(group, new[re_.mul[old][:, old]], int(new[re_.one]), right_distributive=False)
    return SquareRing(ring, sr.ree, sr.act[old][:, old][:, :, :, old], sr.h[old], new[sr.p], sr.t)


TENSOR3 = {"as built": lambda: build_example("tensor", 3), "relabelled": relabelled_tensor3}


def multiples(group: FiniteGroup) -> np.ndarray:
    """[k, m] = k·m for k = 0, 1, 2."""
    m = np.arange(group.order)
    return np.stack([0 * m, m, group.add[m, m]])


def unit_part(sr) -> np.ndarray:
    """u(r) for every r = e·ε + u·1 of R_e over Z/3: the class of r modulo
    P(R_ee) = {0, ε, 2ε}, read as a multiple of the unit."""
    units = multiples(sr.re.group)[:, sr.one]
    image = set(sr.im_p())
    return np.array([next(k for k, c in enumerate(units) if int(sr.re.group.sub(r, c)) in image)
                     for r in range(sr.re.order)])


@pytest.mark.parametrize("ring", TENSOR3)
def test_a_form_that_only_the_reduced_scalar_laws_catch(ring):
    """φ(m,n) = u(m)·n on the Z/3 ``tensor`` free pair (R_e acting on
    itself), u the unit part.  φ is biadditive.  φ(m·r, n) = u(m)u(r)·n and
    φ(m,n)·r differ exactly when u(m), u(n) and the ε-part of r are all
    nonzero, and φ(n, m·r), φ(n,m)·r differ at u(n) = 2 in the same way.
    Without the bracket laws (the four clauses the factorization route
    takes for d_f), only the reduced scalar laws catch φ.  Their failing
    cells need m = 1 and r = ε.  As built, m = 1 is G[1] = 3, not the
    position 1 = ε; relabelled, r = ε is G_R[1] = 3, not the position
    1 = 1.  A reduced form that ran m or r over positions would pass."""
    sr = TENSOR3[ring]()
    pair = free_cp_pair(sr)
    unit, eps = sr.one, int(sr.im_p()[1])
    assert generators(pair.group) == generators(sr.re.group) == (1, 3)
    assert sorted((unit, eps)) == [1, 3]
    laws = bilinear_laws(multiples(pair.group)[unit_part(sr)], pair, pair)[:4]
    for label, dims, law, reduced in laws[:2]:
        assert run_laws([(label, dims, law)]).passed and run_laws([(label, reduced, law)]).passed
    for label, dims, law, reduced in laws[2:]:
        assert not run_laws([(label, dims, law)]).passed
        caught = run_laws([(label, reduced, law)], all_witnesses=True).failures
        assert caught and {f.witness[:2] for f in caught} == {(unit, eps)}
    two, two_eps = int(sr.re.add[unit, unit]), int(sr.re.add[eps, eps])
    assert run_laws(laws).failures == (
        Failure("phi", (unit, eps, unit), f"lhs=0 rhs={eps}"),
        Failure("phi", (unit, eps, two), f"lhs={two_eps} rhs={eps}"),
    )
    assert_agrees(laws)


def eps_trivial_module(sr) -> BhpModule:
    """(Z/3)² with the zero bracket over a Z/3 ``tensor`` ring, r acting as
    multiplication by its unit part u(r): ε acts as 0, as MC3 demands of a
    zero bracket."""
    group = direct_product(cyclic(3), cyclic(3))
    scal = multiples(group)[unit_part(sr)].T
    return BhpModule(sr, group, scal, np.zeros((9, 9, sr.ree.order), dtype=np.int64))


@pytest.mark.parametrize("ring", TENSOR3)
@pytest.mark.parametrize("m0, off", [(4, "m"), (2, "r")])
def test_scalar_laws_that_fail_only_off_the_generators_keep_the_full_witnesses(ring, m0, off):
    """φ is 1 at (m0, m0) and 0 elsewhere, on the module of
    ``eps_trivial_module``, where G = (1, 3).  Both scalar laws fail, only
    where u(r) = 2, never at r ∈ G_R (ε and 1); at m0 = 4 = e1 + e2 also
    only at m ∈ {4, 8}, never at m ∈ G, while at m0 = 2 = 2·e1 they fail
    at the generator m = 1 (1·r = 2 for u(r) = 2).  Their reduced forms
    hold.  φ is not additive, and the reduced additivity laws catch it; the
    verdict is then that of the full sweeps, every failing scalar cell
    included."""
    sr = TENSOR3[ring]()
    mod = eps_trivial_module(sr)
    assert verify_bhp_module(mod).passed
    G, G_R = generators(mod.group), generators(sr.re.group)
    assert G == G_R == (1, 3)
    phi = np.zeros((mod.nm, mod.nm), dtype=np.int64)
    phi[m0, m0] = 1
    laws = bilinear_laws(phi, mod, mod)
    u = unit_part(sr)
    for i, (label, dims, law, reduced) in enumerate(laws):
        failing = run_laws([(label, dims, law)], all_witnesses=True).failures
        assert run_laws([(label, reduced, law)]).passed == (i >= 2), i
        if i in (2, 3):  # the scalar laws, witnesses (m, r, n)
            cells = {f.witness[:2] for f in failing}
            assert {u[r] for _, r in cells} == {2} and not {r for _, r in cells} & set(G_R)
            assert ({m for m, _ in cells} & set(G) == set()) == (off == "m")
    assert_agrees(laws)


def test_a_route_that_rejects_one_leaf_is_an_internal_error(monkeypatch):
    pair = free_cp_pair(build_example("sym", 2))
    leaf = enumerate_cp_quadratic(pair, pair)[-1].table
    build = _CP_ROUTES["reduced"]

    def rejecting(clauses):
        hit = np.all(clauses.T == leaf, axis=1).astype(np.int64)
        law = ("reject", (1,), lambda q, i: (hit[q] + 0 * i, np.zeros_like(i)))
        return build(clauses) + [law]

    monkeypatch.setitem(quadratic._CP_ROUTES, "reduced", rejecting)
    with pytest.raises(ConsistencyError, match="routes disagree on leaf .*: definition accepts"):
        enumerate_cp_quadratic(pair, pair)


# Maps of the Z/3 ``tensor`` free pair, decided as pair maps and as plain
# maps, and for each the reduced forms (route, label, first failing cell of
# the full law) that have a coordinate of that cell off their axes.
OFF_THE_AXES = {
    (0, 0, 3, 0, 0, 0, 0, 0, 0): {("definition", "CP1", (1, 3, 6)),
                                  ("definition", "CP4", (1, 2, 2)),
                                  ("relations", "2(b)", (1, 2, 6, 1)),
                                  ("relations", "3(c)", (3, 3, 2, 2, 1)),
                                  ("reduced", "BHPc1", (3, 3, 2, 2, 1))},
    (0, 0, 0, 0, 0, 3, 0, 0, 0): {("definition", "CP1", (1, 4)),
                                  ("relations", "1(a)", (1, 4, 5, 1)),
                                  ("reduced", "BHPc1", (1, 4, 5, 1))},
    (0, 0, 0, 0, 0, 0, 1, 0, 0): {("definition", "CP4", (6, 1)), ("reduced", "CPc4", (6, 1))},
    (0, 0, 0, 0, 0, 1, 0, 0, 0): {("definition", "CP4", (1, 4)), ("reduced", "CPc4", (1, 4))},
    (0, 2, 0, 3, 5, 5, 5, 4, 3): {("definition", "CP2", (2, 3, 3, 3)),
                                  ("definition", "BHP2", (2, 3, 3, 3))},
}


def on_the_axes(witness, dims) -> bool:
    return all(v in d for v, d in zip(witness, dims) if isinstance(d, tuple))


@pytest.mark.parametrize("table", OFF_THE_AXES)
def test_maps_that_fail_first_off_the_new_axes_keep_the_exhaustive_certificate(table):
    """Membership in B of d_f (on generator pairs) and of the f_[x] (x
    over G_ee too), the vanishing clauses with their M slot over G, the
    relations 1(a), 2(b), 3(c) and the bracket clause of BHPc1 with x, y
    over G_ee and m, m' over G, and x of the f_[x] over G_ee: each
    pinned map fails one of them first at a cell off its axes.  The
    certificates, primary verdict and routes, under both witness
    policies, are those of the full sweeps.  On these maps a law without
    a reduced form fails as well.  No map of the n = 2 census (4,696
    route verdicts in which every law without a reduced form holds and
    another fails), nor of samples of this pair, fails a reduced form
    first off its axes while every law without one holds: an argument in
    which the two sides are additive fails first at a greedy generator."""
    pair = free_cp_pair(build_example("tensor", 3))
    plain = BhpModule(pair.sr, pair.group, pair.scal, pair.bracket)
    T = np.array([table])
    off = set()
    for kind, mod in (("cp", pair), ("bhp", plain)):
        routes = route_laws(kind, mod, mod, T)
        for route, laws in routes.items():
            for label, dims, law, *reduced in _single(laws):
                failures = run_laws([(label, dims, law)]).failures
                if reduced and reduced[0] and failures:
                    if not on_the_axes(failures[0].witness, reduced[0]):
                        off.add((route, label, failures[0].witness))
        decide = is_cp_quadratic if kind == "cp" else is_bhp_quadratic
        primary, *secondary = routes.values()
        for all_witnesses in (False, True):
            set_config(exhaustive_witnesses=all_witnesses)
            cert = decide(MapTable(mod, mod, T[0]))
            assert cert.verdict == run_laws(full(_single(primary)), all_witnesses=all_witnesses)
            assert [v for _, v in cert.routes] == [run_laws(full(_single(r))) for r in secondary]
    assert OFF_THE_AXES[table] <= off


def test_enumerating_the_tensor_3_pair_sweeps_at_most_650000_cells(swept):
    """The level search and the three routes over the leaves of the Z/3
    ``tensor`` free pair, with the graded maps of the accepted tables:
    535,878 cells, counted where sweeps are cut into blocks (1,349,677
    with x of the f_[x], x of the bracket laws, membership and vanishing
    swept in full)."""
    pair = free_cp_pair(build_example("tensor", 3))
    with swept() as tally:
        maps = enumerate_cp_quadratic(pair, pair)
    assert len(maps) == 81
    assert tally.cells <= 650_000
