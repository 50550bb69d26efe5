"""The generator route of the map deciders.

``_bilinear_clauses`` gives the additivity and bracket-compatibility laws of
d_f and f_[x] reduced forms over generators of the domain.  ``run_laws``
and ``passing_candidates`` decide on them once every other law holds, so
every single-map verdict (passed, failures, witnesses, ``checked``) and
every batch mask must equal a plain sweep of the full laws.
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
    build_example,
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
    """On the Z/3 ``tensor`` free pair (9 elements, 2 generators) the bracket
    laws of the definition route sweep generator pairs (m, m')."""
    pair = free_cp_pair(build_example("tensor", 3))
    tables = np.zeros((1, pair.nm), dtype=np.int64)
    laws = route_laws("cp", pair, pair, tables)["definition"]
    reduced = [(law[1], law[3]) for law in laws if len(law) == 4 and law[3] is not None]
    assert len(reduced) == 8  # four per bilinear defect: d_f and the f_[x]
    for dims, rdims in reduced:
        assert prod(len(d) if isinstance(d, tuple) else d for d in rdims) < prod(dims)


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
