"""The generator route of the module verifiers.

``verify_bhp_module`` and ``verify_cp_module`` decide the additivity clause
of MC1 on generators of R_e, the x-clause of MC5 on generators of R_ee, the
first two clauses of MC5 and MC7 on generator tuples of the carrier, and
MC6 on generators of the carrier, of R_e and of R_ee (in a pair module,
also the first two clauses of MC5 with x on generators of R_ee, and MC2
and MC4 with n on generators of the carrier and of A), once every other
law holds, and sweep them in full otherwise.  Their verdicts must equal a plain exhaustive ``run_laws`` over
every law: passed, each failure with its witness and detail, and
``checked``.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import quadrica.verdict as engine
from quadrica import (
    BhpModule,
    CpModule,
    Failure,
    FiniteGroup,
    Verdict,
    build_example,
    cyclic,
    dihedral,
    direct_product,
    free_cp_pair,
    generators,
    get_config,
    hom_module,
    rbar_regular_module,
    ree_module,
    regular_module,
    set_config,
    verify_bhp_module,
    verify_cp_module,
    zero_module,
)
from quadrica.modules import _module_laws
from quadrica.verdict import law_failures, run_laws

from conftest import RING_SPECS
from _census import module_candidates, pair_candidates

HOM_KINDS = ("classical", "rnil", "lambda", "tensor", "sym", "gamma")


def exhaustive(mod: BhpModule) -> Verdict:
    """Every law of the module swept in full, as ``run_laws`` does."""
    laws = [law[:3] for law in _module_laws(mod)]
    return run_laws(laws, all_witnesses=get_config().exhaustive_witnesses)


def holds(label: str, dims, law) -> bool:
    """Whether ``law`` holds on ``dims``, whose axes may be index sets."""
    return run_laws([(label, dims, law)]).passed


def sizes(dims) -> tuple[int, ...]:
    """The integer size of each axis of a law's dims."""
    return tuple(len(d) if isinstance(d, tuple) else d for d in dims)


def verify(mod: BhpModule) -> Verdict:
    return verify_cp_module(mod) if isinstance(mod, CpModule) else verify_bhp_module(mod)


def assert_agrees(mod: BhpModule) -> None:
    for all_witnesses in (False, True):
        set_config(exhaustive_witnesses=all_witnesses)
        assert verify(mod) == exhaustive(mod)


def standard_structures(sr):
    return (
        regular_module(sr),
        ree_module(sr),
        rbar_regular_module(sr),
        free_cp_pair(sr),
        zero_module(sr),
    )


@cache
def census_structures() -> tuple[BhpModule, ...]:
    """Every module and pair candidate the census of ``_census.py`` builds
    over ``rnil`` and ``sym`` at n = 2, verified or not."""
    out = []
    for kind in ("rnil", "sym"):
        for mod in module_candidates(build_example(kind, 2)):
            out.append(mod)
            if exhaustive(mod).passed:
                out.extend(pair_candidates(mod))
    return tuple(out)


def test_generators_are_picked_greedily_and_cached():
    pair = free_cp_pair(build_example("sym", 2))
    groups = [
        cyclic(1),
        cyclic(6),
        direct_product(cyclic(2), cyclic(2)),
        direct_product(cyclic(2), cyclic(4)),
        dihedral(4),
        hom_module(pair, pair).group,
    ]
    for group in groups:
        gens = generators(group)
        assert generators(group) is gens
        assert group.subgroup_closure(gens) == tuple(range(group.order))
        for i, g in enumerate(gens):
            span = group.subgroup_closure(gens[:i])
            assert g == min(set(range(group.order)) - set(span))
    assert generators(cyclic(1)) == ()
    assert generators(direct_product(cyclic(2), cyclic(2))) == (1, 2)


def test_criterion_2_structures_keep_the_exhaustive_verdict():
    structures = 0
    for kind, n, eps in RING_SPECS:
        for mod in standard_structures(build_example(kind, n, epsilon=eps)):
            assert_agrees(mod)
            structures += 1
    assert structures == 100


def test_census_modules_pairs_and_failing_candidates_keep_the_exhaustive_verdict():
    structures = census_structures()
    failing = 0
    for mod in structures:
        assert_agrees(mod)
        failing += not verify(mod).passed
    assert failing > 0 and failing < len(structures)


@pytest.mark.parametrize("kind", HOM_KINDS)
def test_hom_carriers_keep_the_exhaustive_verdict(kind):
    pair = free_cp_pair(build_example(kind, 2))
    assert_agrees(hom_module(pair, pair))


@cache
def mutation_bases() -> tuple[BhpModule, ...]:
    """Verified structures with at least one non-generator element."""
    out = []
    for kind, n in (("sym", 2), ("tensor", 2), ("gamma", 2), ("rnil", 3), ("lambda", 3)):
        sr = build_example(kind, n)
        out += [regular_module(sr), ree_module(sr), free_cp_pair(sr)]
        pair = free_cp_pair(sr)
        if kind in ("sym", "gamma"):
            out.append(hom_module(pair, pair))
    out += [m for m in census_structures() if m.nm == 4 and exhaustive(m).passed]
    return tuple(m for m in out if len(generators(m.group)) < m.nm)


@st.composite
def mutants(draw) -> BhpModule:
    """A verified structure with one ``scal`` or ``bracket`` entry changed at
    a module argument outside the generating set."""
    bases = mutation_bases()
    mod = bases[draw(st.integers(0, len(bases) - 1))]
    gens = set(generators(mod.group))
    m = draw(st.sampled_from([a for a in range(mod.nm) if a not in gens]))
    scal, bracket = mod.scal.copy(), mod.bracket.copy()
    value = draw(st.integers(0, mod.nm - 1))
    if draw(st.booleans()):
        n = draw(st.integers(0, mod.nm - 1))
        x = draw(st.integers(0, mod.sr.ree.order - 1))
        cell = (m, n, x) if draw(st.booleans()) else (n, m, x)
        bracket[cell] = value
    else:
        scal[m, draw(st.integers(0, mod.sr.re.order - 1))] = value
    if isinstance(mod, CpModule):
        return CpModule(mod.sr, mod.group, scal, bracket, mod.aset)
    return BhpModule(mod.sr, mod.group, scal, bracket)


@given(mutants())
def test_mutants_off_the_generators_keep_the_exhaustive_verdict(mod):
    assert_agrees(mod)


def mc5_only_mutant(*, pair: bool) -> BhpModule:
    """The zero-bracket module (Z/2)² over ``lambda 2`` (H = 0, P = 0,
    T = id) with [1,3]·1 = [3,1]·1 = 2: MC1–MC4 and the x-clause of MC5
    still hold, but the bracket is not additive, at the non-generator 3."""
    sr = build_example("lambda", 2)
    group = direct_product(cyclic(2), cyclic(2))
    scal = np.zeros((4, 2), dtype=np.int64)
    scal[:, sr.one] = np.arange(4)
    bracket = np.zeros((4, 4, 2), dtype=np.int64)
    bracket[1, 3, 1] = bracket[3, 1, 1] = 2
    if pair:
        return CpModule(sr, group, scal, bracket, (0, 2))
    return BhpModule(sr, group, scal, bracket)


@pytest.mark.parametrize("pair", [False, True])
def test_a_mutant_only_the_mc5_sweep_catches(pair):
    """Every law without a reduced form holds, and so do the generator
    sweeps of MC6 and MC7; only MC5 fails, which the reduced MC5 catches
    with m running over the whole carrier.  The verdict is then the
    exhaustive one, witnesses from the full sweeps."""
    mod = mc5_only_mutant(pair=pair)
    assert generators(mod.group) == (1, 2)
    for label, dims, law, reduced in _module_laws(mod):
        if reduced is None:
            assert holds(label, dims, law), label
        elif label != "MC5":
            assert holds(label, reduced, law), label
            assert holds(label, dims, law), label
    verdict = verify(mod)
    assert verdict.failures == (
        Failure("MC5", (1, 2, 1, 1), "lhs=2 rhs=0"),
        Failure("MC5", (1, 1, 2, 1), "lhs=2 rhs=0"),
    )
    assert_agrees(mod)


def mc5_x_only_module(*, pair: bool) -> BhpModule:
    """(Z/3)³ over ``tensor 3`` with basis e1, e2, e3 (the element of index
    a + 3b + 9c is a·e1 + b·e2 + c·e3).  r acts as multiplication by its
    unit part u(r), the coordinate of 1 in r = e·ε + u·1 (index e + 3u);
    [m,n]·x = ω(x)·det(m,n)·e3, with det(m,n) = m1·n2 − m2·n1 on the e1, e2
    coordinates.  On R_ee = (Z/3)², x of index a + 3b, ω is 0 on the lines
    of (1,0), (0,1) and (1,1), and ω(1,2) = 1, ω(2,1) = 2.  (r,s)·x·t is
    u(r)u(s)u(t)·x on this ring, ω(T x) = −ω(x), ω(c·x) = c·ω(x) and ω
    vanishes on the image of H, so every law holds but the x-clause of
    MC5: ω is not additive, (1,0) + (1,1) = (2,1)."""
    sr = build_example("tensor", 3)
    m = np.arange(27)
    c = np.stack([m % 3, m // 3 % 3, m // 9], axis=1)
    place = np.array([1, 3, 9])
    group = FiniteGroup((c[:, None] + c[None, :]) % 3 @ place, -c % 3 @ place)
    unit_part = np.arange(sr.re.order) // 3
    scal = c[:, None, :] * unit_part[None, :, None] % 3 @ place
    det = (c[:, None, 0] * c[None, :, 1] - c[:, None, 1] * c[None, :, 0]) % 3
    omega = np.zeros(sr.ree.order, dtype=np.int64)
    omega[1 + 3 * 2], omega[2 + 3 * 1] = 1, 2
    bracket = det[:, :, None] * omega % 3 * 9
    if pair:
        return CpModule(sr, group, scal, bracket, (0, 9, 18))
    return BhpModule(sr, group, scal, bracket)


@pytest.mark.parametrize("pair", [False, True])
def test_a_module_that_fails_only_the_mc5_x_clause_off_the_generators(pair):
    """Only the x-clause of MC5 fails, and its reduced form (y ∈ G_ee =
    (1, 3)) catches it.  The first failing cell has the non-generator
    y = 4 = (1,1): [e1,e2]·(2,1) = 2·e3, against ω(1,0) + ω(1,1) = 0.  The
    verdict is the exhaustive one under both witness policies."""
    mod = mc5_x_only_module(pair=pair)
    assert generators(mod.sr.ree) == (1, 3) and generators(mod.group) == (1, 3, 9)
    for label, dims, law, reduced in _module_laws(mod):
        x_clause = (label, dims) == ("MC5", (27, 27, 9, 9))
        assert holds(label, dims, law) != x_clause, label
        if reduced is not None:
            assert holds(label, reduced, law) != x_clause, label
    assert verify(mod).failures == (Failure("MC5", (1, 3, 1, 4), "lhs=18 rhs=0"),)
    assert_agrees(mod)


def clique_pair(clique) -> CpModule:
    """The pair ((Z/2)³, A = {0, 4}) over ``lambda 2`` (H = 0, P = 0,
    T = id), elements as bit vectors, r acting as multiplication by
    r ∈ Z/2, with [m,n]·1 = 4 when m ≠ n both lie in ``clique`` and
    [m,n]·x = 0 otherwise.  The clique misses A, so the bracket is
    symmetric, alternating, A-valued and kills A: every law but the first
    two clauses of MC5 holds.  (Given MC4 in full, those two fail
    together: T is a bijection.)"""
    sr = build_example("lambda", 2)
    m = np.arange(8)
    group = FiniteGroup(m[:, None] ^ m[None, :], m)
    scal = np.zeros((8, 2), dtype=np.int64)
    scal[:, sr.one] = m
    inside = np.isin(m, list(clique))
    bracket = np.zeros((8, 8, 2), dtype=np.int64)
    bracket[:, :, 1] = 4 * (inside[:, None] & inside[None, :] & (m[:, None] != m[None, :]))
    return CpModule(sr, group, scal, bracket, (0, 4))


@pytest.mark.parametrize("clique, witnesses", [
    ((1, 5, 6, 7), ((1, 2, 5, 1), (1, 1, 4, 1))),
    ((1, 2, 3, 7), ((1, 2, 7, 1), (1, 1, 6, 1))),
])
def test_pair_modules_that_fail_mc5_first_off_the_generators(clique, witnesses):
    """A pair module runs n over G and x over G_ee in the first clause of
    MC5, and x over G_ee in the second.  Here the first failing cell of the
    first clause has n ∉ G = (1, 2, 4) (and with the second clique so does
    the second clause at its added element), yet the reduced forms still
    refuse, and the witnesses are those of the full sweeps.  A first
    failing x ∉ G_ee cannot occur while the x-clause holds: at the first
    failing (m, m', n) the difference of the two sides is a homomorphism
    in x, so the least x where it is not 0 lies outside the span of the
    smaller elements, and the greedy choice of G_ee picks that x."""
    mod = clique_pair(clique)
    G = generators(mod.group)
    assert G == (1, 2, 4) and generators(mod.sr.ree) == (1,)
    mc5 = [(dims, law, reduced) for label, dims, law, reduced in _module_laws(mod)
           if label == "MC5"]
    assert [reduced for _, _, reduced in mc5] == [(8, G, G, (1,)), (8, 8, G, (1,)),
                                                  (8, 8, 2, (1,))]
    for label, dims, law, _ in _module_laws(mod):
        assert holds(label, dims, law) == (label != "MC5" or dims == (8, 8, 2, 2)), label
    assert not all(holds("MC5", reduced, law) for _, law, reduced in mc5)
    assert witnesses[0][2] not in G
    set_config(exhaustive_witnesses=False)
    assert tuple(f.witness for f in verify(mod).failures) == witnesses
    assert_agrees(mod)


def test_every_clique_pair_keeps_the_exhaustive_verdict():
    failing = 0
    for size in range(7):
        for clique in itertools.combinations((1, 2, 3, 5, 6, 7), size):
            mod = clique_pair(clique)
            assert_agrees(mod)
            failing += not verify(mod).passed
    assert 0 < failing < 64


def mc6_only_module(*, pair: bool, bit=(0, 1, 2, 3, 4, 5)) -> BhpModule:
    """A module over ``gamma 2`` on (Z/2)⁶ with basis e0..e5, e_i the bit
    ``bit[i]`` of an element.  The bracket at x = 1 is the symmetric
    product with e1∗e4 = e2∗e3 = e5 and all other basis products 0;
    m·(0,1) = γ(m) with γ(e1) = e3, γ(e2) = e4, γ = 0 on the other basis
    elements and γ(m+n) = γ(m) + γ(n) + m∗n.  γ(m)∗m = 0 for every m, so
    MC1 holds, and so does every law but MC6, which fails since
    γ(e1)∗e2 = e5: only at the generators (e1, e2) and (e2, e1), not at a
    pair (g, g) nor at one holding e0, which nothing involves."""
    sr = build_example("gamma", 2)
    m = np.arange(64)
    group = FiniteGroup(m[:, None] ^ m[None, :], m)
    bits = (m[:, None] >> np.array(bit)) & 1
    e = 1 << np.array(bit)
    form = np.zeros((6, 6), dtype=np.int64)
    form[1, 4] = form[4, 1] = form[2, 3] = form[3, 2] = 1
    prod = (bits @ form @ bits.T % 2) * e[5]
    gamma = bits[:, 1] * e[3] ^ bits[:, 2] * e[4] ^ (bits @ np.triu(form) * bits).sum(1) % 2 * e[5]
    scal = np.stack([0 * m, gamma, m, m ^ gamma], axis=1)  # R_e index 2r + s for (r, s)
    bracket = np.stack([0 * prod, prod], axis=2)
    if pair:
        return CpModule(sr, group, scal, bracket, (0, int(e[5])))
    return BhpModule(sr, group, scal, bracket)


@pytest.mark.parametrize("pair", [False, True])
def test_a_module_that_fails_only_mc6_at_distinct_generators(pair):
    for bit, witness in (
        ((0, 1, 2, 3, 4, 5), (2, 4, 1, 2, 1, 2)),
        # e1, e2 = 16, 32: no cell with m or n among the first six
        # elements fails, so a reduced MC6 that ran either argument over
        # the positions 0..5 of G instead of its elements would pass
        ((0, 4, 5, 3, 1, 2), (16, 32, 1, 2, 1, 2)),
    ):
        set_config(exhaustive_witnesses=False)
        mod = mc6_only_module(pair=pair, bit=bit)
        assert generators(mod.group) == (1, 2, 4, 8, 16, 32)
        for label, dims, law, _ in _module_laws(mod):
            assert (not holds(label, dims, law)) == (label == "MC6"), label
        verdict = verify(mod)
        target = 1 << bit[5]
        assert verdict.failures == (Failure("MC6", witness, f"lhs={target} rhs=0"),)
        assert_agrees(mod)


def mc2_only_pair() -> CpModule:
    """((Z/2)⁴, A = {0, 8}) over ``gamma 2`` with the zero bracket: ε
    acts as γ(m) = λ(m)·e3 with the cubic λ(m) = b₀(m)·b₁(m)·b₂(m) of
    the bits of m, 1 as the identity, 1 + ε as m + γ(m).  γ(γ(m)) = 0 and
    γ(m + γ(m)) = γ(m), so MC1 holds; P = 0, so MC3 does; the bracket is 0,
    so MC4–MC7b do.  γ is not additive, and H(ε) = 1 asks for
    γ(m + n) = γ(m) + γ(n) + [m,n]·1 = γ(m) + γ(n): only MC2 fails."""
    sr = build_example("gamma", 2)
    m = np.arange(16)
    group = FiniteGroup(m[:, None] ^ m[None, :], m)
    gamma = ((m & 7) == 7) * 8
    scal = np.stack([0 * m, gamma, m, m ^ gamma], axis=1)  # R_e: 0, ε, 1, 1 + ε
    return CpModule(sr, group, scal, np.zeros((16, 16, 2), dtype=np.int64), (0, 8))


def greedy_generators(group: FiniteGroup, members) -> tuple[int, ...]:
    """The least member not in the span of those picked, until the span
    holds every member."""
    picked: list[int] = []
    for a in sorted(members):
        if a not in group.subgroup_closure(picked):
            picked.append(a)
    return tuple(picked)


def mc2_axis(mod: CpModule) -> tuple[int, ...]:
    """The n axis of the reduced MC2 and MC4 of a pair module: G and the
    generators of A."""
    return tuple(sorted({*generators(mod.group), *greedy_generators(mod.group, mod.aset)}))


def test_a_pair_module_that_fails_only_mc2_first_off_the_generators():
    """A pair module runs n of MC2 over G and the generators of A.  Here
    MC2 alone fails, first at n = 6 = e1 + e2, outside G ∪ G_A =
    (1, 2, 4, 8): (e0 + e1 + e2)·ε = e3, against e0·ε + (e1 + e2)·ε = 0.
    The reduced form catches it elsewhere, at n = 4 ∈ G, and the verdict
    is the exhaustive one under both witness policies."""
    mod = mc2_only_pair()
    axis = mc2_axis(mod)
    assert axis == (1, 2, 4, 8)
    for label, dims, law, reduced in _module_laws(mod):
        assert holds(label, dims, law) == (label != "MC2"), label
        if label == "MC2":
            assert reduced == (16, axis, 4) and not holds(label, reduced, law)
    set_config(exhaustive_witnesses=False)
    assert verify(mod).failures == (Failure("MC2", (1, 6, 1), "lhs=8 rhs=0"),)
    assert 6 not in axis
    assert_agrees(mod)


def test_a_pair_module_that_fails_mc4_and_mc6_first_off_the_generators():
    """The Hom carrier of the ``sym 2`` free pair (8 elements, G = (1, 2, 4),
    A = {0, 1}) with [2,5]·1 raised to 1.  MC4 fails first at (2, 5, 1)
    and MC6 at (2, 5, 3, 2, 1, 2), n = 5 off the n axes and r = 3 = 1 + ε
    off G_R = (1, 2); MC5 fails too.  The reduced MC4, n over G and the
    generators of A, x over G_ee and T(H(2)), catches it at (5, 2, 1).
    MC6 can fail first off G_R or G_ee only while an additivity law that
    its proof reads fails too: with those laws, the cells of each of
    r, s, x, u where it holds form a subgroup, and the least element
    outside a subgroup is a greedy generator.  The verdict is the
    exhaustive one under both witness policies."""
    pair = free_cp_pair(build_example("sym", 2))
    hom = hom_module(pair, pair)
    bracket = hom.bracket.copy()
    bracket[2, 5, 1] = 1
    mod = CpModule(hom.sr, hom.group, hom.scal, bracket, hom.aset)
    assert mc2_axis(mod) == generators(mod.group) == (1, 2, 4)
    assert generators(mod.sr.re.group) == (1, 2) and mod.sr.t[mod.sr.h[mod.sr.two]] == 0
    reduced = {label: (dims, law, r) for label, dims, law, r in _module_laws(mod) if r}
    assert reduced["MC4"][2] == (8, (1, 2, 4), (0, 1))
    assert not holds("MC4", reduced["MC4"][2], reduced["MC4"][1])
    set_config(exhaustive_witnesses=False)
    failures = verify(mod).failures
    assert [f.law for f in failures] == ["MC4", "MC5", "MC5", "MC6"]
    assert failures[0].witness == (2, 5, 1) and failures[-1].witness == (2, 5, 3, 2, 1, 2)
    assert_agrees(mod)


def sweeps(monkeypatch, mod: BhpModule) -> list[tuple[str, tuple[int, ...]]]:
    """The (label, dims) of every sweep that verifying ``mod`` runs."""
    seen = []

    def counting(label, dims, law, **kwargs):
        seen.append((label, tuple(dims)))
        return law_failures(label, dims, law, **kwargs)

    monkeypatch.setattr(engine, "law_failures", counting)
    verify(mod)
    monkeypatch.undo()
    return seen


def full_sweeps(mod: BhpModule) -> list[tuple[str, tuple[int, ...]]]:
    return [(label, sizes(dims)) for label, dims, _, _ in _module_laws(mod)]


def test_each_law_is_swept_once_unless_a_reduced_form_fails(monkeypatch):
    # all laws hold: the reduced forms stand for their laws
    pair = free_cp_pair(build_example("sym", 2))
    hom = hom_module(pair, pair)
    laws = _module_laws(hom)
    nm, ne, nee = hom.nm, hom.sr.re.order, hom.sr.ree.order
    ng = len(generators(hom.group))
    ng_r, ng_ee = len(generators(hom.sr.re.group)), len(generators(hom.sr.ree))
    # n of MC2 and MC4 over G and the generators of A, x of MC4 over G_ee
    # and T(H(2))
    n_axis = len(mc2_axis(hom))
    x_axis = len({*generators(hom.sr.ree), int(hom.sr.t[hom.sr.h[hom.sr.two]])})
    assert (nm, ne, nee, ng, n_axis, ng_r, ng_ee, x_axis) == (8, 4, 2, 3, 3, 2, 1, 2)
    expected = [(label, sizes(dims)) for label, dims, _, r in laws if r is None]
    expected += [("MC1", (nm, ne, ng_r)), ("MC2", (nm, n_axis, ne)),
                 ("MC4", (nm, n_axis, x_axis)), ("MC5", (nm, ng, ng, ng_ee)),
                 ("MC5", (nm, nm, ng, ng_ee)), ("MC5", (nm, nm, nee, ng_ee)),
                 ("MC6", (ng, ng, ng_r, ng_r, ng_ee, ng_r))]
    seen = sweeps(monkeypatch, hom)
    assert sorted(seen) == sorted(expected)
    assert 2 * sum(prod(d) for _, d in seen) < sum(prod(d) for _, d in full_sweeps(hom))
    # MC1 fails in its second clause, which has no reduced form: every law
    # once, in full, and no reduced form
    mc1 = [m for m in census_structures() if exhaustive(m).failed_laws()[:1] == ("MC1",)]
    candidate = next(m for m in mc1 if not holds(*_module_laws(m)[1][:3]))
    assert sorted(sweeps(monkeypatch, candidate)) == sorted(full_sweeps(candidate))
    # MC1 fails only in its additivity clause: the first reduced form fails,
    # so it, then every law once in full
    candidate = next(m for m in mc1 if holds(*_module_laws(m)[1][:3]))
    nm, ne = candidate.nm, candidate.sr.re.order
    ng_r = len(generators(candidate.sr.re.group))
    assert sorted(sweeps(monkeypatch, candidate)) == sorted(full_sweeps(candidate)
                                                            + [("MC1", (nm, ne, ng_r))])
    # a later reduced form fails: the reduced forms up to it, then every law
    # once in full
    mutant = mc5_only_mutant(pair=False)
    assert sorted(sweeps(monkeypatch, mutant)) == sorted(full_sweeps(mutant)
                                                         + [("MC1", (4, 2, 1)), ("MC5", (4, 2, 4, 2))])


def test_the_tensor_3_hom_carrier_sweeps_at_most_260000_cells(monkeypatch, swept):
    """A passing pair module sweeps each law once, the reducible ones on
    generators: 251,924 cells on the 81-element Hom carrier of Z/3
    ``tensor``, counted where sweeps are cut into blocks (470,854 when
    MC2, MC4 and MC6 swept n, x and r, s, x, u in full)."""
    set_config(cap_group=128)
    pair = free_cp_pair(build_example("tensor", 3))
    hom = hom_module(pair, pair)
    assert hom.nm == 81 and generators(hom.group) == (1, 3, 9, 27)
    seen = sweeps(monkeypatch, hom)
    assert len(seen) == len(_module_laws(hom))
    with swept() as tally:
        verify(hom)
    assert tally.cells <= 260_000
