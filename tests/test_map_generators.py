"""The generator route of the map deciders.

``_bilinear_laws`` gives the additivity and bracket-compatibility laws of
d_f and f_[x] reduced forms over generators of the domain.  ``run_laws``
and ``passing_candidates`` decide on them once every other law holds, so
every single-map verdict (passed, failures, witnesses, ``checked``) and
every batch mask must equal a plain sweep of the full laws.
"""

from __future__ import annotations

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
    is_cp_quadratic,
    set_config,
    verify_bhp_module,
)
from quadrica.quadratic import (
    _BHP_ROUTES,
    _CP_ROUTES,
    _bilinear_laws,
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
    stacks = _defect_stacks(dom, cod, tables)
    return {name: build(dom, cod, tables, stacks) for name, build in ROUTES[kind].items()}


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
    laws = _single(_bilinear_laws("phi", (), (m[:, None] & m[None, :])[None], dom, cod))
    for label, dims, law, reduced in laws:
        if reduced is not None:
            assert (not run_laws([(label, reduced, law)]).passed) == (len(dims) == 4)
    assert run_laws(laws).failures == (Failure("phi", (1, 2, 1, 3), "lhs=0 rhs=4"),) * 2
    assert_agrees(laws)


def test_a_route_that_rejects_one_leaf_is_an_internal_error(monkeypatch):
    pair = free_cp_pair(build_example("sym", 2))
    leaf = enumerate_cp_quadratic(pair, pair)[-1].table
    build = _CP_ROUTES["reduced"]

    def rejecting(dom, cod, tables, stacks):
        hit = np.all(tables == leaf, axis=1).astype(np.int64)
        law = ("reject", (1,), lambda q, i: (hit[q] + 0 * i, np.zeros_like(i)))
        return build(dom, cod, tables, stacks) + [law]

    monkeypatch.setitem(quadratic._CP_ROUTES, "reduced", rejecting)
    with pytest.raises(ConsistencyError, match="routes disagree on leaf .*: definition accepts"):
        enumerate_cp_quadratic(pair, pair)
