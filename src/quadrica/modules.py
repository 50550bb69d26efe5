"""BHP- and CP-modules over a square ring, with the MC-axiom verifier,
elementary-property suite, submodule/center/quotient machinery and the
graded-algebra functors over the truncated operad.

A module is a (possibly non-commutative) finite group M with a scalar action
m·r and a bracket [m,n]·x indexed by R_ee.  A CP-module is a pair (M,A): the
bracket kills A (MC7a) and lands in A (MC7b), and A is scalar-stable (MC0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_cap, get_config
from .errors import ConsistencyError, NotNormal, PreconditionUnmet
from .groups import FiniteGroup, _frozen_table, closed_sets_between, generators
from .squarering import OperadTrunc2, SquareRing, cokernel_p, ensure_verified, operad_of
from .verdict import Failure, Verdict, law_failures, run_laws

__all__ = [
    "BhpModule",
    "CpModule",
    "BarModule",
    "GradedAlgebra2",
    "MODULE_AXIOM_TEXT",
    "verify_bhp_module",
    "verify_cp_module",
    "ensure_module_verified",
    "elementary_properties",
    "generated_submodule",
    "r_center",
    "derived_module",
    "quotient_bhp",
    "quotient_cp",
    "admissible_intermediates",
    "submodule_module",
    "gr",
    "gr_gamma",
    "gr_z",
    "is_linear",
    "is_cp_linear",
    "regular_module",
    "ree_module",
    "rbar_regular_module",
    "zero_module",
    "free_cp_pair",
]

MODULE_AXIOM_TEXT = {
    "MC0": "A is stable under the action of R_e",
    "MC1": "m·1 = m;  (m·r)·s = m·(rs);  m·(r+s) = m·r + m·s",
    "MC2": "(m+n)·r = m·r + n·r + [m,n]·H(r)",
    "MC3": "m·P(x) = [m,m]·x",
    "MC4": "[m,n]·T(x) = [n,m]·x",
    "MC5": "[m,n]·x is additive in m, n and x",
    "MC6": "([m·r,n·s]·x)·t = [m,n]·((r,s)·x·t)",
    "MC7": "[[m,m']·x,n]·y = 0",
    "MC7a": "[m,n]·x = 0 if m in A",
    "MC7b": "[m,n]·x in A",
}


class BhpModule:
    """Module carrier with scal (|M|×|R_e|) and bracket (|M|×|M|×|R_ee|)."""

    __slots__ = ("sr", "group", "scal", "bracket", "_verdict")

    def __init__(self, sr: SquareRing, group: FiniteGroup, scal, bracket):
        ensure_verified(sr)
        self.sr = sr
        self.group = group
        self.scal = _frozen_table(scal)
        self.bracket = _frozen_table(bracket)
        nm, ne, nee = group.order, sr.re.order, sr.ree.order
        if self.scal.shape != (nm, ne):
            raise PreconditionUnmet(f"scal shape {self.scal.shape}, expected {(nm, ne)}")
        if self.bracket.shape != (nm, nm, nee):
            raise PreconditionUnmet(
                f"bracket shape {self.bracket.shape}, expected {(nm, nm, nee)}"
            )
        for table in (self.scal, self.bracket):
            if table.size and (table.min() < 0 or table.max() >= nm):
                raise PreconditionUnmet("module table entries out of range")
        self._verdict: Verdict | None = None

    @property
    def nm(self) -> int:
        return self.group.order

    def tables_equal(self, other: "BhpModule") -> bool:
        return (
            self.sr == other.sr
            and self.group == other.group
            and np.array_equal(self.scal, other.scal)
            and np.array_equal(self.bracket, other.bracket)
        )

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        return (
            isinstance(other, BhpModule)
            and isinstance(self, CpModule) == isinstance(other, CpModule)
            and self.tables_equal(other)
        )

    def __hash__(self) -> int:
        return hash((self.sr, self.group, self.scal.tobytes(), self.bracket.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(|M|={self.nm})"


class CpModule(BhpModule):
    """A BHP-module together with the distinguished subgroup A."""

    __slots__ = ("aset", "amask", "_gr")

    def __init__(self, sr: SquareRing, group: FiniteGroup, scal, bracket, aset):
        super().__init__(sr, group, scal, bracket)
        self.aset = tuple(sorted(int(a) for a in set(aset)))
        mask = np.zeros(self.nm, dtype=np.int64)
        if any(a < 0 or a >= self.nm for a in self.aset):
            raise PreconditionUnmet("A contains out-of-range elements")
        mask[list(self.aset)] = 1
        mask.flags.writeable = False
        self.amask = mask
        self._gr: GradedAlgebra2 | None = None

    @property
    def base(self) -> BhpModule:
        return BhpModule(self.sr, self.group, self.scal, self.bracket)

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        return (
            isinstance(other, CpModule)
            and self.tables_equal(other)
            and self.aset == other.aset
        )

    def __hash__(self) -> int:
        return hash((super().__hash__(), self.aset))


# ---------------------------------------------------------------------------
# verification


# Each law is (label, dims, law, reduced).  ``reduced`` is None, or the
# law's dims with some of its additive module arguments running over G, the
# carrier's generators; ``run_laws`` says when it stands for the law.


def _bhp_laws(mod: BhpModule, *, with_mc7: bool):
    sr = mod.sr
    nm, ne, nee = mod.nm, sr.re.order, sr.ree.order
    madd = mod.group.add
    scal, bracket = mod.scal, mod.bracket
    add, mul = sr.re.add, sr.re.mul
    eadd = sr.ree.add
    one, h, p, t, act = sr.one, sr.h, sr.p, sr.t, sr.act
    G = generators(mod.group)
    laws = [
        ("MC1", (nm,), lambda m: (scal[m, one], m), None),
        (
            "MC1",
            (nm, ne, ne),
            lambda m, r, s: (scal[scal[m, r], s], scal[m, mul[r, s]]),
            None,
        ),
        (
            "MC1",
            (nm, ne, ne),
            lambda m, r, s: (scal[m, add[r, s]], madd[scal[m, r], scal[m, s]]),
            None,
        ),
        (
            "MC2",
            (nm, nm, ne),
            lambda m, n, r: (
                scal[madd[m, n], r],
                madd[madd[scal[m, r], scal[n, r]], bracket[m, n, h[r]]],
            ),
            None,
        ),
        ("MC3", (nm, nee), lambda m, x: (scal[m, p[x]], bracket[m, m, x]), None),
        ("MC4", (nm, nm, nee), lambda m, n, x: (bracket[m, n, t[x]], bracket[n, m, x]), None),
        (
            "MC5",
            (nm, nm, nm, nee),
            lambda m, m2, n, x: (
                bracket[madd[m, m2], n, x],
                madd[bracket[m, n, x], bracket[m2, n, x]],
            ),
            (nm, G, nm, nee),
        ),
        (
            "MC5",
            (nm, nm, nm, nee),
            lambda m, n, n2, x: (
                bracket[m, madd[n, n2], x],
                madd[bracket[m, n, x], bracket[m, n2, x]],
            ),
            (nm, nm, G, nee),
        ),
        (
            "MC5",
            (nm, nm, nee, nee),
            lambda m, n, x, y: (
                bracket[m, n, eadd[x, y]],
                madd[bracket[m, n, x], bracket[m, n, y]],
            ),
            None,
        ),
        (
            "MC6",
            (nm, nm, ne, ne, nee, ne),
            lambda m, n, r, s, x, u: (
                scal[bracket[scal[m, r], scal[n, s], x], u],
                bracket[m, n, act[r, s, x, u]],
            ),
            (G, G, ne, ne, nee, ne),
        ),
    ]
    if with_mc7:
        laws.append(
            (
                "MC7",
                (nm, nm, nee, nm, nee),
                lambda m, m2, x, n, y: (
                    bracket[bracket[m, m2, x], n, y],
                    np.zeros_like(m + m2 + n),
                ),
                (G, G, nee, G, nee),
            )
        )
    return laws


def _cp_laws(mod: CpModule):
    sr = mod.sr
    nm, ne, nee = mod.nm, sr.re.order, sr.ree.order
    A, amask = mod.aset, mod.amask
    scal, bracket = mod.scal, mod.bracket
    return [
        ("MC0", (A, ne), lambda a, r: (amask[scal[a, r]], np.ones_like(a + r)), None),
        (
            "MC7a",
            (A, nm, nee),
            lambda a, n, x: (bracket[a, n, x], np.zeros_like(a + n + x)),
            None,
        ),
        (
            "MC7b",
            (nm, nm, nee),
            lambda m, n, x: (amask[bracket[m, n, x]], np.ones_like(m + n)),
            None,
        ),
    ]


def _module_laws(mod: BhpModule):
    """Every law of the module's verdict, in verdict order."""
    if isinstance(mod, CpModule):
        return _bhp_laws(mod, with_mc7=False) + _cp_laws(mod)
    return _bhp_laws(mod, with_mc7=True)


def verify_bhp_module(mod: BhpModule) -> Verdict:
    """The MC1–MC7 verdict of ``mod``, cached on the module.  It equals the
    exhaustive sweep of every law, witnesses included; the first two
    clauses of MC5, MC6 and MC7 are decided on generator tuples of the
    carrier M when every other law holds (see ``verdict.run_laws``).  Let G be
    ``generators(M)``; M is a group, so G generates it.

    Lemma.  A map φ: M → M with φ(m + g) = φ(m) + φ(g) for all m ∈ M and
    g ∈ G is a homomorphism.  Let S be the set of g for which this holds.
    If S is not empty, m = 0 gives φ(0) = 0; then for g, g' ∈ S,
    φ(m + g + g') = φ(m) + φ(g) + φ(g') = φ(m) + φ(g + g'), so S is closed
    under +.  In a finite group that makes S a subgroup, so S ⊇ ⟨G⟩ = M.
    (If M = 0 there is nothing to prove.)  Two homomorphisms that agree on
    G are equal; so two maps that are additive in each of some arguments
    are equal once they agree whenever those arguments lie in G.

    * MC5, clauses 1–2: the lemma for m ↦ [m,n]·x and n ↦ [m,n]·x, so
      the added element runs over G.  Clause 3 is swept in full.
    * MC7, given MC5: [[m,m']·x, n]·y is additive in m, m' and n, being
      built from the maps that MC5 makes additive, and so is 0; generator
      triples (m, m', n) decide it.  (In a pair module MC7 follows from
      MC7a and MC7b: [m,m']·x lies in A, which the bracket kills.)
    * MC6, given MC2, MC4, MC5 and MC7: the right side [m,n]·z is additive
      in m and n by MC5.  On the left, MC2 writes (m+m')·r as
      m·r + m'·r + [m,m']·H(r), MC5 splits the bracket over that sum, and
      the last term [[m,m']·H(r), n·s]·x is a bracket of a bracket, 0 by
      MC7.  In n the extra term is [m·r, β]·x with β a bracket, which is
      [β, m·r]·T(x) by MC4, so 0 again.  Finally MC2 gives
      (α + α')·u = α·u + α'·u + [α,α']·H(u), and [α,α']·H(u) = 0 by MC7
      since α is a bracket.  So both sides are additive in m and in n, and
      generator pairs (m, n) decide MC6, with r, s, x, u swept in full.

    Each reduced form sweeps a subset of its law's cells, so a reduced
    form that fails means a law that fails, and then the full sweeps give
    the witnesses."""
    verdict = run_laws(_module_laws(mod), all_witnesses=get_config().exhaustive_witnesses)
    mod._verdict = verdict
    return verdict


def verify_cp_module(mod: CpModule) -> Verdict:
    """MC0 + MC1–MC6 + MC7a/MC7b (MC7 is implied and not re-checked), with
    the same exhaustive verdict and generator reductions as
    ``verify_bhp_module``."""
    verdict = run_laws(_module_laws(mod), all_witnesses=get_config().exhaustive_witnesses)
    if 0 not in mod.aset:
        verdict = verdict.merge(
            Verdict(False, (Failure("MC0", (0,), "A must contain 0"),), ("MC0",))
        )
    mod._verdict = verdict
    return verdict


def ensure_module_verified(mod: BhpModule) -> None:
    if mod._verdict is None:
        if isinstance(mod, CpModule):
            verify_cp_module(mod)
        else:
            verify_bhp_module(mod)
    assert mod._verdict is not None
    if not mod._verdict.passed:
        first = mod._verdict.failures[0]
        raise PreconditionUnmet(
            f"module fails {first.law} at {first.witness} ({first.detail})"
        )


def elementary_properties(mod: BhpModule) -> Verdict:
    """The five basic structure facts every verified module satisfies:
    brackets are central, [m,n]·H(2) is the group commutator [n,m], the
    carrier is nilpotent of class <= 2, (-m)·r = -(m·r) + [m,m]·H(r), and
    ([m,n]·x)·P(y) = 0."""
    ensure_module_verified(mod)
    sr = mod.sr
    nm, ne, nee = mod.nm, sr.re.order, sr.ree.order
    g = mod.group
    madd, mneg = g.add, g.neg
    scal, bracket = mod.scal, mod.bracket
    h, p, two = sr.h, sr.p, sr.two

    def grp_comm(a, b):
        return madd[madd[madd[a, b], mneg[a]], mneg[b]]

    laws = [
        (
            "brackets-central",
            (nm, nm, nee, nm),
            lambda m, n, x, q: (madd[bracket[m, n, x], q], madd[q, bracket[m, n, x]]),
        ),
        (
            "bracket-H2-commutator",
            (nm, nm),
            lambda m, n: (bracket[m, n, h[two]], grp_comm(n, m)),
        ),
        (
            "class-le-2",
            (nm, nm, nm),
            lambda m, n, q: (madd[grp_comm(m, n), q], madd[q, grp_comm(m, n)]),
        ),
        (
            "neg-scal",
            (nm, ne),
            lambda m, r: (
                scal[mneg[m], r],
                madd[mneg[scal[m, r]], bracket[m, m, h[r]]],
            ),
        ),
        (
            "bracket-kills-P",
            (nm, nm, nee, nee),
            lambda m, n, x, y: (scal[bracket[m, n, x], p[y]], np.zeros_like(m + n)),
        ),
    ]
    cfg = get_config()
    return run_laws(laws, all_witnesses=cfg.exhaustive_witnesses)


# ---------------------------------------------------------------------------
# submodules, centers, quotients


def _submodule_closure(mod: BhpModule, seed) -> frozenset[int]:
    members = {0} | {int(s) for s in seed}
    frontier = list(members)
    g = mod.group
    while frontier:
        a = frontier.pop()
        new = set()
        new.update(int(v) for v in mod.scal[a])
        new.add(int(g.neg[a]))
        for b in members:
            new.add(int(g.add[a, b]))
            new.add(int(g.add[b, a]))
            new.update(int(v) for v in mod.bracket[a, b])
            new.update(int(v) for v in mod.bracket[b, a])
        fresh = new - members
        members |= fresh
        frontier.extend(fresh)
    return frozenset(members)


def generated_submodule(mod: BhpModule, seed) -> tuple[int, ...]:
    """Least sub-BHP-module containing seed (fixed point under add, neg,
    scal and bracket).  Cross-checked against the additive normal form:
    sums of generator multiples e·r and generator brackets [e,e']·x."""
    ensure_module_verified(mod)
    closure = _submodule_closure(mod, seed)
    seeds = sorted({int(s) for s in seed})
    atoms: set[int] = set()
    for e in seeds:
        atoms.update(int(v) for v in mod.scal[e])
        for e2 in seeds:
            atoms.update(int(v) for v in mod.bracket[e, e2])
    normal_form = set(mod.group.subgroup_closure(atoms))
    if normal_form != set(closure):
        raise ConsistencyError(
            "generated submodule disagrees with its additive normal form: "
            f"closure {sorted(closure)} vs {sorted(normal_form)}"
        )
    return tuple(sorted(closure))


def r_center(mod: BhpModule) -> tuple[int, ...]:
    """Z_R(M) = elements m with [m,n]·x = 0 for every n and x."""
    ensure_module_verified(mod)
    central = (mod.bracket == 0).all(axis=(1, 2))
    out = tuple(int(i) for i in np.flatnonzero(central))
    _assert_chain(mod, z=out)
    return out


def derived_module(mod: BhpModule) -> tuple[int, ...]:
    """[M,M]_R: the submodule generated by all bracket values."""
    ensure_module_verified(mod)
    values = {int(v) for v in np.unique(mod.bracket)}
    out = generated_submodule(mod, values)
    _assert_chain(mod, derived=out)
    return out


def _assert_chain(mod: BhpModule, derived=None, z=None) -> None:
    # [M,M] <= [M,M]_R <= Z_R(M) <= Z(M); cheap, so always asserted
    g = mod.group
    comm = set(g.commutator_subgroup())
    der = set(derived if derived is not None else
              generated_submodule(mod, {int(v) for v in np.unique(mod.bracket)}))
    central = (mod.bracket == 0).all(axis=(1, 2))
    zr = set(int(i) for i in np.flatnonzero(central)) if z is None else set(z)
    zg = set(g.center())
    if not (comm <= der <= zr <= zg):
        raise ConsistencyError(
            f"inclusion chain broken: [M,M]={sorted(comm)}, [M,M]_R={sorted(der)}, "
            f"Z_R={sorted(zr)}, Z={sorted(zg)}"
        )


def _check_normal_submodule(mod: BhpModule, members) -> tuple[int, ...]:
    s = tuple(sorted({int(m) for m in members}))
    sset = set(s)
    if tuple(mod.group.subgroup_closure(s)) != s:
        raise NotNormal(f"{s} is not a subgroup")
    if not mod.group.is_normal(s):
        raise NotNormal(f"{s} is not normal in the carrier group")
    for a in s:
        for r in range(mod.sr.re.order):
            if int(mod.scal[a, r]) not in sset:
                raise NotNormal(f"not scalar-stable: {a}·{r} = {int(mod.scal[a, r])}")
    for n in s:
        for m in range(mod.nm):
            for x in range(mod.sr.ree.order):
                if int(mod.bracket[m, n, x]) not in sset or int(mod.bracket[n, m, x]) not in sset:
                    raise NotNormal(f"bracket escapes: [{m},{n}]·{x}")
    return s


def quotient_bhp(mod: BhpModule, members) -> tuple[BhpModule, np.ndarray]:
    """Quotient by a normal sub-BHP-module; induced tables re-checked for
    well-definedness and the result re-verified."""
    ensure_module_verified(mod)
    s = _check_normal_submodule(mod, members)
    group_q, proj = mod.group.quotient(s)
    k = group_q.order
    reps = np.array([int(np.flatnonzero(proj == i)[0]) for i in range(k)], dtype=np.int64)
    scal_q = proj[mod.scal[reps]]
    bracket_q = proj[mod.bracket[np.ix_(reps, reps, np.arange(mod.sr.ree.order))]]
    for label, dims, law in (
        (
            "scal-well-defined",
            (mod.nm, mod.sr.re.order),
            lambda a, r: (proj[mod.scal[a, r]], scal_q[proj[a], r]),
        ),
        (
            "bracket-well-defined",
            (mod.nm, mod.nm, mod.sr.ree.order),
            lambda a, b, x: (proj[mod.bracket[a, b, x]], bracket_q[proj[a], proj[b], x]),
        ),
    ):
        bad = law_failures(label, dims, law)
        if bad:
            raise NotNormal(f"{label} fails at {bad[0].witness}: {bad[0].detail}")
    out = BhpModule(mod.sr, group_q, scal_q, bracket_q)
    verdict = verify_bhp_module(out)
    if not verdict.passed:
        raise ConsistencyError(
            f"quotient by a normal submodule fails {verdict.failures[0].law}"
        )
    return out, proj


def quotient_cp(mod: CpModule, members) -> tuple[CpModule, np.ndarray]:
    """Quotient of (M,A) by a normal submodule N, with B = N ∩ A; the
    quotient pair is (M/N, image of A)."""
    base_q, proj = quotient_bhp(mod, members)
    aset_q = sorted({int(proj[a]) for a in mod.aset})
    out = CpModule(mod.sr, base_q.group, base_q.scal, base_q.bracket, aset_q)
    verdict = verify_cp_module(out)
    if not verdict.passed:
        raise ConsistencyError(
            f"CP quotient fails {verdict.failures[0].law} at {verdict.failures[0].witness}"
        )
    return out, proj


def submodule_module(mod: BhpModule, members) -> tuple[BhpModule, np.ndarray]:
    """A submodule as a module in its own right; returns (module, embedding)."""
    ensure_module_verified(mod)
    s = tuple(sorted({int(m) for m in members}))
    if frozenset(s) != _submodule_closure(mod, s):
        raise PreconditionUnmet(f"{s} is not a submodule")
    embed = np.array(s, dtype=np.int64)
    index = np.full(mod.nm, -1, dtype=np.int64)
    index[embed] = np.arange(len(s))
    sub_add = index[mod.group.add[np.ix_(embed, embed)]]
    sub_neg = index[mod.group.neg[embed]]
    group_s = FiniteGroup(sub_add, sub_neg)
    scal_s = index[mod.scal[embed]]
    bracket_s = index[mod.bracket[np.ix_(embed, embed, np.arange(mod.sr.ree.order))]]
    out = BhpModule(mod.sr, group_s, scal_s, bracket_s)
    verdict = verify_bhp_module(out)
    if not verdict.passed:
        raise ConsistencyError("submodule fails module axioms after reindexing")
    return out, embed


def admissible_intermediates(mod: BhpModule, *, max_order: int = 16) -> list[tuple[int, ...]]:
    """All scalar-stable subgroups A with [M,M]_R <= A <= Z_R(M); each pair
    (M,A) is a CP-module and is re-verified here."""
    ensure_module_verified(mod)
    check_cap("admissible_intermediates carrier", mod.nm, max_order)
    lower = derived_module(mod)
    upper = r_center(mod)

    def closure(seed: frozenset[int]) -> frozenset[int]:
        members = set(mod.group.subgroup_closure(seed))
        while True:
            grown = set(members)
            for a in members:
                grown.update(int(v) for v in mod.scal[a])
            grown = set(mod.group.subgroup_closure(grown))
            if grown == members:
                return frozenset(members)
            members = grown

    out = closed_sets_between(closure, lower, upper)
    for aset in out:
        pair = CpModule(mod.sr, mod.group, mod.scal, mod.bracket, aset)
        if not verify_cp_module(pair).passed:
            raise ConsistencyError(f"intermediate {aset} fails CP axioms")
    return out


# ---------------------------------------------------------------------------
# graded algebra over the operad


@dataclass(frozen=True, eq=False)
class BarModule:
    """A module over the quotient ring R̄ = R_e/im P, given by tables."""

    group: FiniteGroup
    scal: np.ndarray  # (order, |R̄|)

    @property
    def order(self) -> int:
        return self.group.order


@dataclass(frozen=True, eq=False)
class GradedAlgebra2:
    """deg1 = M/A and deg2 = A as R̄-modules plus the bracket pairing
    deg1 × deg1 × OP2 → deg2."""

    operad: OperadTrunc2
    deg1: BarModule
    deg2: BarModule
    pairing: np.ndarray  # (k1, k1, |R_ee|) -> deg2 index
    proj1: np.ndarray  # M -> deg1 index
    embed2: np.ndarray  # deg2 index -> M element


def _bar_module_laws(barmod: BarModule, bar) -> list:
    n, k = barmod.order, bar.order
    madd = barmod.group.add
    scal = barmod.scal
    badd, bmul, bone = bar.ring.add, bar.ring.mul, bar.ring.one
    return [
        ("bar-abelian", (n, n), lambda a, b: (madd[a, b], madd[b, a])),
        ("bar-unit", (n,), lambda a: (scal[a, bone], a)),
        ("bar-assoc", (n, k, k), lambda a, r, s: (scal[scal[a, r], s], scal[a, bmul[r, s]])),
        ("bar-add-r", (n, k, k), lambda a, r, s: (scal[a, badd[r, s]], madd[scal[a, r], scal[a, s]])),
        ("bar-add-m", (n, n, k), lambda a, b, r: (scal[madd[a, b], r], madd[scal[a, r], scal[b, r]])),
    ]


def gr(pair: CpModule) -> GradedAlgebra2:
    """The graded object of a verified CP pair, built once per pair and
    cached on it (its tables are read-only, so it cannot go stale).  On the
    build every induced table is re-checked for well-definedness, and the
    pairing for the equivariance law [m·r, n·s]·(x·t) = ([m,n]·x)·rst.
    The pair is verified first on every call; a pair that fails, or a build
    that raises, leaves nothing cached."""
    ensure_module_verified(pair)
    if pair._gr is None:
        pair._gr = _build_gr(pair)
    return pair._gr


def _build_gr(pair: CpModule) -> GradedAlgebra2:
    sr = pair.sr
    operad = operad_of(sr)
    bar = operad.op1
    nee = sr.ree.order

    group1, proj1 = pair.group.quotient(pair.aset)
    k1 = group1.order
    reps1 = np.array([int(np.flatnonzero(proj1 == i)[0]) for i in range(k1)], dtype=np.int64)
    kbar = bar.order
    breps = np.array([int(np.flatnonzero(bar.proj == i)[0]) for i in range(kbar)], dtype=np.int64)

    scal1 = proj1[pair.scal[np.ix_(reps1, breps)]]
    bad = law_failures(
        "deg1-well-defined",
        (pair.nm, sr.re.order),
        lambda m, r: (proj1[pair.scal[m, r]], scal1[proj1[m], bar.proj[r]]),
    )
    if bad:
        raise ConsistencyError(f"deg1 action ill-defined at {bad[0].witness}")

    embed2 = np.array(pair.aset, dtype=np.int64)
    index2 = np.full(pair.nm, -1, dtype=np.int64)
    index2[embed2] = np.arange(len(pair.aset))
    group2 = FiniteGroup(
        index2[pair.group.add[np.ix_(embed2, embed2)]], index2[pair.group.neg[embed2]]
    )
    scal2 = index2[pair.scal[np.ix_(embed2, breps)]]
    bad = law_failures(
        "deg2-well-defined",
        (len(pair.aset), sr.re.order),
        lambda i, r: (index2[pair.scal[embed2[i], r]], scal2[i, bar.proj[r]]),
    )
    if bad:
        raise ConsistencyError(f"deg2 action ill-defined at {bad[0].witness}")

    pairing = index2[pair.bracket[np.ix_(reps1, reps1, np.arange(nee))]]
    bad = law_failures(
        "pairing-well-defined",
        (pair.nm, pair.nm, nee),
        lambda m, n, x: (index2[pair.bracket[m, n, x]], pairing[proj1[m], proj1[n], x]),
    )
    if bad:
        raise ConsistencyError(f"pairing ill-defined at {bad[0].witness}")

    deg1 = BarModule(group1, scal1)
    deg2 = BarModule(group2, scal2)
    laws = _bar_module_laws(deg1, bar) + _bar_module_laws(deg2, bar)
    add2 = group2.add
    laws += [
        (
            "pairing-additive-1",
            (k1, k1, k1, nee),
            lambda a, a2, b, x: (pairing[group1.add[a, a2], b, x], add2[pairing[a, b, x], pairing[a2, b, x]]),
        ),
        (
            "pairing-additive-2",
            (k1, k1, k1, nee),
            lambda a, b, b2, x: (pairing[a, group1.add[b, b2], x], add2[pairing[a, b, x], pairing[a, b2, x]]),
        ),
        (
            "pairing-additive-3",
            (k1, k1, nee, nee),
            lambda a, b, x, y: (pairing[a, b, sr.ree.add[x, y]], add2[pairing[a, b, x], pairing[a, b, y]]),
        ),
        (
            "pairing-equivariant",
            (k1, k1, kbar, kbar, nee, kbar),
            lambda a, b, r, s, x, u: (
                scal2[pairing[scal1[a, r], scal1[b, s], x], u],
                pairing[a, b, operad.act[r, s, x, u]],
            ),
        ),
    ]
    verdict = run_laws(laws)
    if not verdict.passed:
        first = verdict.failures[0]
        raise ConsistencyError(f"graded structure violates {first.law} at {first.witness}")
    for table in (scal1, scal2, pairing, proj1, embed2):
        table.flags.writeable = False  # shared by every caller of the cache
    return GradedAlgebra2(
        operad=operad, deg1=deg1, deg2=deg2, pairing=pairing, proj1=proj1, embed2=embed2
    )


def gr_gamma(mod: BhpModule) -> GradedAlgebra2:
    """Graded object of (M, [M,M]_R) — the derived-series flavour."""
    pair = CpModule(mod.sr, mod.group, mod.scal, mod.bracket, derived_module(mod))
    if not verify_cp_module(pair).passed:  # theorem: always a CP pair
        raise ConsistencyError("(M, [M,M]_R) is not a CP pair")
    return gr(pair)


def gr_z(mod: BhpModule) -> GradedAlgebra2:
    """Graded object of (M, Z_R(M)) — the center flavour."""
    pair = CpModule(mod.sr, mod.group, mod.scal, mod.bracket, r_center(mod))
    if not verify_cp_module(pair).passed:
        raise ConsistencyError("(M, Z_R(M)) is not a CP pair")
    return gr(pair)


# ---------------------------------------------------------------------------
# linear maps


def is_linear(f, dom: BhpModule, cod: BhpModule) -> bool:
    """Additive + scalar-equivariant + bracket-equivariant table."""
    table = np.asarray(f, dtype=np.int64)
    nm, ne, nee = dom.nm, dom.sr.re.order, dom.sr.ree.order
    checks = [
        ((nm, nm), lambda m, n: (table[dom.group.add[m, n]], cod.group.add[table[m], table[n]])),
        ((nm, ne), lambda m, r: (table[dom.scal[m, r]], cod.scal[table[m], r])),
        (
            (nm, nm, nee),
            lambda m, n, x: (table[dom.bracket[m, n, x]], cod.bracket[table[m], table[n], x]),
        ),
    ]
    return all(not law_failures("linear", dims, law) for dims, law in checks)


def is_cp_linear(f, dom: CpModule, cod: CpModule) -> bool:
    table = np.asarray(f, dtype=np.int64)
    if not all(int(cod.amask[table[a]]) for a in dom.aset):
        return False
    return is_linear(table, dom, cod)


# ---------------------------------------------------------------------------
# canonical modules over a square ring


def regular_module(sr: SquareRing) -> BhpModule:
    """R_e as a right module over itself: scal = ring product and
    [r,s]·x = P((r,s)·x)."""
    ensure_verified(sr)
    ne = sr.re.order
    bracket = sr.p[sr.act[:, :, :, sr.one]]
    mod = BhpModule(sr, sr.re.group, sr.re.mul, bracket.reshape(ne, ne, sr.ree.order))
    _require_pass(verify_bhp_module(mod), "regular module")
    return mod


def ree_module(sr: SquareRing) -> BhpModule:
    """R_ee as a zero-bracket module with x·r via the action's right slot."""
    ensure_verified(sr)
    nee = sr.ree.order
    scal = sr.act[sr.one, sr.one]  # (nee, ne)
    bracket = np.zeros((nee, nee, nee), dtype=np.int64)
    mod = BhpModule(sr, sr.ree, scal, bracket)
    _require_pass(verify_bhp_module(mod), "R_ee module")
    return mod


def rbar_regular_module(sr: SquareRing) -> BhpModule:
    """R̄ = R_e/im P as a zero-bracket module (scal through the projection)."""
    bar = cokernel_p(sr)
    k = bar.order
    reps = np.array([int(np.flatnonzero(bar.proj == i)[0]) for i in range(k)], dtype=np.int64)
    scal = bar.proj[sr.re.mul[np.ix_(reps, np.arange(sr.re.order))]]
    bracket = np.zeros((k, k, sr.ree.order), dtype=np.int64)
    mod = BhpModule(sr, bar.ring.group, scal, bracket)
    _require_pass(verify_bhp_module(mod), "R̄ module")
    return mod


def zero_module(sr: SquareRing) -> CpModule:
    ensure_verified(sr)
    g = FiniteGroup(np.zeros((1, 1), dtype=np.int64), np.zeros(1, dtype=np.int64))
    mod = CpModule(
        sr,
        g,
        np.zeros((1, sr.re.order), dtype=np.int64),
        np.zeros((1, 1, sr.ree.order), dtype=np.int64),
        (0,),
    )
    _require_pass(verify_cp_module(mod), "zero module")
    return mod


def free_cp_pair(sr: SquareRing) -> CpModule:
    """(R_e, P(R_ee)): the free CP pair on one generator."""
    base = regular_module(sr)
    pair = CpModule(sr, base.group, base.scal, base.bracket, sr.im_p())
    _require_pass(verify_cp_module(pair), "free CP pair")
    return pair


def _require_pass(verdict: Verdict, what: str) -> None:
    if not verdict.passed:
        first = verdict.failures[0]
        raise ConsistencyError(f"{what} fails {first.law} at {first.witness} ({first.detail})")
