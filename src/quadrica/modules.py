"""BHP- and CP-modules over a square ring, with the MC-axiom verifier,
elementary-property suite, submodule/center/quotient machinery and the
graded-algebra functors over the truncated operad.

A module is a (possibly non-commutative) finite group M with a scalar action
m·r and a bracket [m,n]·x indexed by R_ee.  A CP-module is a pair (M,A): the
bracket kills A (MC7a) and lands in A (MC7b), and A is a scalar-stable
subgroup (MC0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_cap, get_config
from .errors import ConsistencyError, NotNormal, PreconditionUnmet
from .groups import (
    FiniteGroup,
    _closure,
    _frozen_table,
    _generating_set,
    closed_sets_between,
    representatives,
    sweep_generators,
)
from .squarering import (OperadTrunc2, SquareRing, cokernel_p, ensure_verified, operad_of,
                         verify_square_ring)
from .verdict import Verdict, _additive, run_laws

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
    "MC0": "A is a subgroup (0 in A, A + A in A) stable under the action of R_e",
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
# law's dims with some of its additive arguments running over a generating
# set (of the carrier, of R_e or of R_ee); ``run_laws`` says when it stands
# for the law.


def _bhp_laws(mod: BhpModule, *, with_mc7: bool):
    sr = mod.sr
    nm, ne, nee = mod.nm, sr.re.order, sr.ree.order
    madd = mod.group.add
    scal, bracket = mod.scal, mod.bracket
    add, mul = sr.re.add, sr.re.mul
    eadd = sr.ree.add
    one, h, p, t, act = sr.one, sr.h, sr.p, sr.t, sr.act
    G, G_R, G_ee = map(sweep_generators, (mod.group, sr.re.group, sr.ree))
    # the first two clauses of MC5 run the added element over G.  A pair
    # module's brackets are central by MC2 and MC4 at the generators of A,
    # so there n (in the first clause) and x run over G and G_ee too, and
    # MC2 and MC4 run n over G and the generators of A, MC4 x over G_ee
    # and T(H(2)) (see ``verify_bhp_module``)
    if with_mc7:
        mc2 = mc4 = None
        mc5_n, mc5_x = nm, nee
    else:
        n_axis = tuple(sorted({*G, *_generating_set(madd, mod.aset)}))
        mc2 = (nm, n_axis, ne)
        mc4 = (nm, n_axis, tuple(sorted({*G_ee, int(t[h[sr.two]])})))
        mc5_n, mc5_x = G, G_ee
    laws = [
        ("MC1", (nm,), lambda m: (scal[m, one], m), None),
        (
            "MC1",
            (nm, ne, ne),
            lambda m, r, s: (scal[scal[m, r], s], scal[m, mul[r, s]]),
            None,
        ),
        ("MC1", (nm, ne, ne), _additive(scal, 1, add, madd), (nm, ne, G_R)),
        (
            "MC2",
            (nm, nm, ne),
            lambda m, n, r: (
                scal[madd[m, n], r],
                madd[madd[scal[m, r], scal[n, r]], bracket[m, n, h[r]]],
            ),
            mc2,
        ),
        ("MC3", (nm, nee), lambda m, x: (scal[m, p[x]], bracket[m, m, x]), None),
        ("MC4", (nm, nm, nee), lambda m, n, x: (bracket[m, n, t[x]], bracket[n, m, x]), mc4),
        # [m,n]·x additive in m, n and x: (m, m2, n, x), (m, n, n2, x), (m, n, x, y)
        ("MC5", (nm, nm, nm, nee), _additive(bracket, 0, madd, madd), (nm, G, mc5_n, mc5_x)),
        ("MC5", (nm, nm, nm, nee), _additive(bracket, 1, madd, madd), (nm, nm, G, mc5_x)),
        ("MC5", (nm, nm, nee, nee), _additive(bracket, 2, eadd, madd), (nm, nm, nee, G_ee)),
        (
            "MC6",
            (nm, nm, ne, ne, nee, ne),
            lambda m, n, r, s, x, u: (
                scal[bracket[scal[m, r], scal[n, s], x], u],
                bracket[m, n, act[r, s, x, u]],
            ),
            (G, G, G_R, G_R, G_ee, G_R),
        ),
    ]
    if with_mc7:
        laws.append(
            (
                "MC7",
                (nm, nm, nee, nm, nee),
                lambda m, m2, x, n, y: (bracket[bracket[m, m2, x], n, y], 0),
                (G, G, nee, G, nee),
            )
        )
    return laws


def _cp_laws(mod: CpModule):
    sr = mod.sr
    nm, ne, nee = mod.nm, sr.re.order, sr.ree.order
    A, amask = mod.aset, mod.amask
    add, scal, bracket = mod.group.add, mod.scal, mod.bracket
    return [
        ("MC0", (1,), lambda z: (amask[z], 1), None),  # 0 ∈ A
        ("MC0", (A, A), lambda a, b: (amask[add[a, b]], 1), None),
        ("MC0", (A, ne), lambda a, r: (amask[scal[a, r]], 1), None),
        ("MC7a", (A, nm, nee), lambda a, n, x: (bracket[a, n, x], 0), None),
        ("MC7b", (nm, nm, nee), lambda m, n, x: (amask[bracket[m, n, x]], 1), None),
    ]


def _module_laws(mod: BhpModule):
    """Every law of the module's verdict, in verdict order."""
    if isinstance(mod, CpModule):
        return _bhp_laws(mod, with_mc7=False) + _cp_laws(mod)
    return _bhp_laws(mod, with_mc7=True)


def verify_bhp_module(mod: BhpModule) -> Verdict:
    """The verdict of ``mod``, cached on the module: MC1–MC7, or for a
    pair module MC0 + MC1–MC6 + MC7a/MC7b (MC7 is implied and not
    re-checked).  MC0 makes A a subgroup: it holds 0 and A + A ⊆ A, and
    −a, a multiple of a in a finite group, lies in A too.  The verdict
    equals the exhaustive sweep of every law, witnesses included; the
    additivity clause of MC1, the three clauses of MC5, MC6 and MC7, and
    in a pair module MC2 and MC4, are decided on generator tuples when
    every other law holds (see ``verdict.run_laws``).  Let G, G_R and
    G_ee be ``sweep_generators`` of M, R_e and R_ee ({0} for a trivial
    group, so that a sweep over them is never empty); each generates its
    group.  In a
    pair module let G_A be the elements of A picked the same way (the
    least element of A not yet in the span of those picked, until the
    span holds A); once MC0 holds, G_A generates A.

    The verdict starts from the square ring's, cached on the ring and
    computed there once if absent.  A ring that fails gives the module
    its verdict, and no module law is swept, so the proofs below may use
    the ring's laws.

    Lemma.  A map φ: X → M from a finite group X, with
    φ(u + g) = φ(u) + φ(g) for all u ∈ X and g in a generating set G of X,
    is a homomorphism.  Let S be the set of g for which this holds.
    If S is not empty, u = 0 gives φ(0) = 0; then for g, g' ∈ S,
    φ(u + g + g') = φ(u) + φ(g) + φ(g') = φ(u) + φ(g + g'), so S is closed
    under +.  In a finite group that makes S a subgroup, so S ⊇ ⟨G⟩ = X.
    (If X = 0 there is nothing to prove.)  Two homomorphisms that agree on
    G are equal; so two maps that are additive in each of some arguments
    are equal once they agree whenever those arguments lie in G (fix all
    of them but one, and take them one at a time).

    * MC1, clause 3, m·(r+s) = m·r + m·s: the lemma for r ↦ m·r on R_e,
      so s runs over G_R.  Clauses 1–2 are swept in full.
    * MC5, clauses 1–2: the lemma for m ↦ [m,n]·x and n ↦ [m,n]·x, so
      the added element runs over G.  Clause 3, [m,n]·(x+y) =
      [m,n]·x + [m,n]·y: the lemma for x ↦ [m,n]·x on R_ee, so y runs
      over G_ee.  None of the three needs another law.
    * MC7, given MC5: [[m,m']·x, n]·y is additive in m, m' and n, being
      built from the maps that MC5 makes additive, and so is 0; generator
      triples (m, m', n) decide it.  (In a pair module MC7 follows from
      MC7a and MC7b: [m,m']·x lies in A, which the bracket kills.)
    * A pair module goes further, in five steps.
      1. A is central.  For a ∈ G_A, MC2 at (m, a, 1 + 1), with
         m·(1+1) = m + m by MC1 (clauses 1 and 3), gives
         m + a + m + a = m + m + a + a + [m,a]·H(1+1); MC4 at
         (m, a, T(H(1+1))), with T(T(y)) = y (a ring law), gives
         [m,a]·H(1+1) = [a,m]·T(H(1+1)), which is 0 by MC7a; cancelling
         gives a + m = m + a.  The centralizer of m is a subgroup that
         holds G_A, so it holds A.  The reduced sweeps hold these
         instances: MC2 runs n over G ∪ G_A and r over R_e, and MC4 runs
         n over G ∪ G_A and x over G_ee and T(H(1+1)).
      2. Brackets lie in A by MC7b, so they are central too, and a sum of
         two bracket-valued homomorphisms is again a homomorphism.
      3. MC5, clauses 1–2, further: x runs over G_ee in both, and n over
         G in clause 1.  Clause 2: for n' ∈ G, both sides are additive in
         x, by clause 3 and step 2, so they agree once they agree for
         x ∈ G_ee; the lemma for n ↦ [m,n]·x then covers every n'.
         Clause 1: for m' ∈ G, both sides are additive in x (clause 3)
         and in n (clause 2), so they agree once they agree for n ∈ G and
         x ∈ G_ee; the lemma for m ↦ [m,n]·x then covers every m'.
      4. MC2, n over G ∪ G_A: fix r, and let S be the set of n at which
         (m+n)·r = m·r + n·r + [m,n]·H(r) holds for every m; S holds G.
         For n, n' ∈ S, MC2 at n' (for m + n), at n, and at n' (for n)
         give, with the central brackets moved to the end,
         (m+n+n')·r = m·r + n·r + n'·r + [m,n]·H(r) + [m+n,n']·H(r) and
         m·r + (n+n')·r + [m,n+n']·H(r) =
         m·r + n·r + n'·r + [n,n']·H(r) + [m,n+n']·H(r).  By MC5 both
         bracket sums are [m,n]·H(r) + [m,n']·H(r) + [n,n']·H(r), so
         n + n' ∈ S.  S is closed under +, hence a subgroup, hence M.
      5. MC4, [m,n]·T(x) = [n,m]·x, n over G ∪ G_A and x over G_ee and
         T(H(1+1)): both sides are additive in n (MC5, clauses 2 and 1)
         and in x (T is additive, a ring law, and MC5's x-clause), so
         they agree once they agree for n ∈ G and x ∈ G_ee.
      A plain module keeps MC2, MC4 and the dims of MC5 above in full:
      there centrality of brackets rests on MC7, whose reduced form rests
      on MC5.
    * MC6, given MC1, MC2, MC4, MC5 and MC7 (in a pair module MC7a and
      MC7b, which imply MC7), and the additivity laws of the ring's
      action: both sides are additive in each of m, n, r, s, x and u, so
      (G, G, G_R, G_R, G_ee, G_R) decides it.  A bracket α has
      (α + α')·u = α·u + α'·u + [α,α']·H(u) by MC2, and [α,α']·H(u) = 0
      by MC7, so α ↦ α·u is additive on brackets.  The right side
      [m,n]·((r,s)·x·u) is additive in m and n by MC5, and in r, s, x and
      u by action-additive-1 to -4 followed by MC5's x-clause.  On the
      left, ([m·r, n·s]·x)·u: in m, MC2 writes (m+m')·r as
      m·r + m'·r + [m,m']·H(r), MC5 splits the bracket over that sum, and
      the last term [[m,m']·H(r), n·s]·x is a bracket of a bracket, 0 by
      MC7.  In n the extra term is [m·r, β]·x with β a bracket, which is
      [β, m·r]·T(x) by MC4, so 0 again.  In r, m·(r+r') = m·r + m·r' by
      MC1 and MC5 splits the bracket; s the same.  In x, MC5's x-clause;
      in u, α·(u+u') = α·u + α·u' by MC1.  Each sum of brackets is then
      carried through α ↦ α·u.

    The laws these proofs use are swept in full, or rest on the lemma
    alone (clause 3 of MC1 and of MC5, clauses 1–2 of MC5 in a plain
    module), or come earlier in the chain: MC7 after MC5; in a pair
    module steps 1–2 read only instances that the reduced sweeps hold,
    step 3 reads steps 1–2, steps 4–5 read step 3; MC6 comes last.  So no
    proof leans on its own conclusion.  Each reduced form sweeps a subset
    of its law's cells, so a reduced form that fails means a law that
    fails, and then the full sweeps give the witnesses."""
    verdict = mod.sr._verdict
    if verdict is None:
        verdict = verify_square_ring(mod.sr)
    if verdict.passed:
        verdict = run_laws(_module_laws(mod), all_witnesses=get_config().exhaustive_witnesses)
    mod._verdict = verdict
    return verdict


# One body for both kinds: ``_module_laws`` picks the laws by the type.
verify_cp_module = verify_bhp_module


def ensure_module_verified(mod: BhpModule) -> None:
    if mod._verdict is None:
        verify_bhp_module(mod)
    mod._verdict.require(PreconditionUnmet, "module")


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

    laws = [
        (
            "brackets-central",
            (nm, nm, nee, nm),
            lambda m, n, x, q: (madd[bracket[m, n, x], q], madd[q, bracket[m, n, x]]),
        ),
        (
            "bracket-H2-commutator",
            (nm, nm),
            lambda m, n: (bracket[m, n, h[two]], g.commutator(n, m)),
        ),
        (
            "class-le-2",
            (nm, nm, nm),
            lambda m, n, q: (madd[g.commutator(m, n), q], madd[q, g.commutator(m, n)]),
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
            lambda m, n, x, y: (scal[bracket[m, n, x], p[y]], 0),
        ),
    ]
    cfg = get_config()
    return run_laws(laws, all_witnesses=cfg.exhaustive_witnesses)


# ---------------------------------------------------------------------------
# submodules, centers, quotients


def generated_submodule(mod: BhpModule, seed) -> tuple[int, ...]:
    """Least sub-BHP-module containing seed: its closure under +, scal and
    bracket (``groups._closure``).  Cross-checked against the additive normal
    form: sums of generator multiples e·r and generator brackets [e,e']·x."""
    ensure_module_verified(mod)
    seeds = np.unique(np.fromiter(seed, dtype=np.int64))
    closure = np.flatnonzero(
        _closure(mod.group.add, seeds, scal=mod.scal, bracket=mod.bracket)
    ).tolist()
    atoms = np.concatenate([mod.scal[seeds].ravel(), mod.bracket[np.ix_(seeds, seeds)].ravel()])
    normal_form = list(mod.group.subgroup_closure(atoms))
    if normal_form != closure:
        raise ConsistencyError(
            "generated submodule disagrees with its additive normal form: "
            f"closure {closure} vs {normal_form}"
        )
    return tuple(closure)


def r_center(mod: BhpModule) -> tuple[int, ...]:
    """Z_R(M) = elements m with [m,n]·x = 0 for every n and x."""
    ensure_module_verified(mod)
    out = tuple(np.flatnonzero((mod.bracket == 0).all(axis=(1, 2))).tolist())
    g = mod.group
    _assert_chain(("[M,M]", g.commutator_subgroup()), ("Z_R", out), ("Z", g.center()))
    return out


def derived_module(mod: BhpModule) -> tuple[int, ...]:
    """[M,M]_R: the submodule generated by all bracket values."""
    ensure_module_verified(mod)
    out = generated_submodule(mod, np.unique(mod.bracket).tolist())
    _assert_chain(("[M,M]", mod.group.commutator_subgroup()), ("[M,M]_R", out),
                  ("Z_R", r_center(mod)))
    return out


def _assert_chain(*chain: tuple[str, tuple[int, ...]]) -> None:
    """Each named set of ``chain`` lies in the next.  The whole chain
    [M,M] <= [M,M]_R <= Z_R(M) <= Z(M) is asserted, link by link, by
    ``derived_module`` and ``r_center``; cheap, so always asserted."""
    if not all(set(a) <= set(b) for (_, a), (_, b) in zip(chain, chain[1:])):
        raise ConsistencyError("inclusion chain broken: "
                               + ", ".join(f"{name}={sorted(s)}" for name, s in chain))


def quotient_bhp(mod: BhpModule, members) -> tuple[BhpModule, np.ndarray]:
    """Quotient by a normal sub-BHP-module; induced tables re-checked for
    well-definedness and the result re-verified.  ``FiniteGroup.quotient``
    refuses a set that is not a normal subgroup; the laws
    ``scalar-stable`` (a·r in it for a in it) and ``bracket-stable``
    ([m,n]·x in it for n in it) refuse the rest, before
    ``scal-well-defined`` and ``bracket-well-defined``.  By MC4,
    [n,m]·x = [m,n]·T(x), so the other slot of the bracket needs no law."""
    ensure_module_verified(mod)
    s = tuple(sorted({int(m) for m in members}))
    group_q, proj = mod.group.quotient(s)
    reps = representatives(proj)
    scal_q = proj[mod.scal[reps]]
    bracket_q = proj[mod.bracket[np.ix_(reps, reps, np.arange(mod.sr.ree.order))]]
    inside = proj == 0  # the class of 0 is s
    run_laws([
        ("scalar-stable", (s, mod.sr.re.order), lambda a, r: (inside[mod.scal[a, r]], 1)),
        ("bracket-stable", (mod.nm, s, mod.sr.ree.order),
         lambda m, n, x: (inside[mod.bracket[m, n, x]], 1)),
        ("scal-well-defined", (mod.nm, mod.sr.re.order),
         lambda a, r: (proj[mod.scal[a, r]], scal_q[proj[a], r])),
        ("bracket-well-defined", (mod.nm, mod.nm, mod.sr.ree.order),
         lambda a, b, x: (proj[mod.bracket[a, b, x]], bracket_q[proj[a], proj[b], x])),
    ]).require(NotNormal, f"quotient by {s}")
    out = BhpModule(mod.sr, group_q, scal_q, bracket_q)
    verify_bhp_module(out).require(ConsistencyError, "quotient by a normal submodule")
    return out, proj


def quotient_cp(mod: CpModule, members) -> tuple[CpModule, np.ndarray]:
    """Quotient of (M,A) by a normal submodule N: the pair (M/N, B) with B
    the image of A in M/N."""
    base_q, proj = quotient_bhp(mod, members)
    aset_q = sorted({int(proj[a]) for a in mod.aset})
    out = CpModule(mod.sr, base_q.group, base_q.scal, base_q.bracket, aset_q)
    verify_cp_module(out).require(ConsistencyError, "CP quotient")
    return out, proj


def submodule_module(mod: BhpModule, members) -> tuple[BhpModule, np.ndarray]:
    """A submodule as a module in its own right; returns (module, embedding)."""
    ensure_module_verified(mod)
    s = tuple(sorted({int(m) for m in members}))
    if s != generated_submodule(mod, s):
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
    verify_bhp_module(out).require(ConsistencyError, f"submodule {s}, reindexed,")
    return out, embed


# the largest carrier ``admissible_intermediates`` accepts: the number of
# intermediate subgroups it lists can grow exponentially with the carrier
_ADMISSIBLE_MAX_ORDER = 16


def admissible_intermediates(mod: BhpModule) -> list[tuple[int, ...]]:
    """All scalar-stable subgroups A with [M,M]_R <= A <= Z_R(M); each pair
    (M,A) is a CP-module and is re-verified here."""
    ensure_module_verified(mod)
    check_cap("admissible_intermediates carrier", mod.nm, _ADMISSIBLE_MAX_ORDER)
    lower = derived_module(mod)
    upper = r_center(mod)

    def closure(seed: frozenset[int]) -> frozenset[int]:
        return frozenset(np.flatnonzero(_closure(mod.group.add, seed, scal=mod.scal)).tolist())

    out = closed_sets_between(closure, lower, upper)
    for aset in out:
        pair = CpModule(mod.sr, mod.group, mod.scal, mod.bracket, aset)
        verify_cp_module(pair).require(ConsistencyError, f"intermediate pair (M, {aset})")
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
    reps1: np.ndarray  # deg1 index -> least element of its coset
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
        ("bar-add-r", (n, k, k), _additive(scal, 1, badd, madd)),
        ("bar-add-m", (n, n, k), _additive(scal, 0, madd, madd)),
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
    """The graded object of a verified pair, its induced tables checked as
    laws.  pairing-well-defined, [m,n]·x read in A equals the pairing of
    the classes of m and n, is decided on (G, G, G_ee), G and G_ee as in
    ``verify_bhp_module``, once every other law of the build holds (see
    ``verdict.run_laws``).  Both sides are additive in m, n and x.  On the
    left, the bracket is additive in each argument (MC5) with values in A
    (MC7b), and ``index2`` is an isomorphism from A onto the degree-2
    group, whose table is that of A renumbered.  On the right, ``proj1``
    is the quotient map, a homomorphism, and the pairing is additive in
    each slot by pairing-additive-1 to -3, which are swept in full.  So by
    the lemma of ``verify_bhp_module`` the two sides agree everywhere once
    they agree on generators."""
    sr = pair.sr
    operad = operad_of(sr)
    bar = operad.op1
    nee = sr.ree.order

    G = sweep_generators(pair.group)
    group1, proj1 = pair.group.quotient(pair.aset)
    k1 = group1.order
    reps1 = representatives(proj1)
    kbar, breps = bar.order, bar.reps

    scal1 = proj1[pair.scal[np.ix_(reps1, breps)]]
    embed2 = np.array(pair.aset, dtype=np.int64)
    index2 = np.full(pair.nm, -1, dtype=np.int64)
    index2[embed2] = np.arange(len(pair.aset))
    group2 = FiniteGroup(
        index2[pair.group.add[np.ix_(embed2, embed2)]], index2[pair.group.neg[embed2]]
    )
    scal2 = index2[pair.scal[np.ix_(embed2, breps)]]
    pairing = index2[pair.bracket[np.ix_(reps1, reps1, np.arange(nee))]]
    deg1 = BarModule(group1, scal1)
    deg2 = BarModule(group2, scal2)
    add2 = group2.add
    laws = [
        ("deg1-well-defined", (pair.nm, sr.re.order),
         lambda m, r: (proj1[pair.scal[m, r]], scal1[proj1[m], bar.proj[r]])),
        ("deg2-well-defined", (pair.aset, sr.re.order),
         lambda a, r: (index2[pair.scal[a, r]], scal2[index2[a], bar.proj[r]])),
        ("pairing-well-defined", (pair.nm, pair.nm, nee),
         lambda m, n, x: (index2[pair.bracket[m, n, x]], pairing[proj1[m], proj1[n], x]),
         (G, G, sweep_generators(sr.ree))),
        *_bar_module_laws(deg1, bar),
        *_bar_module_laws(deg2, bar),
        ("pairing-additive-1", (k1, k1, k1, nee), _additive(pairing, 0, group1.add, add2)),
        ("pairing-additive-2", (k1, k1, k1, nee), _additive(pairing, 1, group1.add, add2)),
        ("pairing-additive-3", (k1, k1, nee, nee), _additive(pairing, 2, sr.ree.add, add2)),
        (
            "pairing-equivariant",
            (k1, k1, kbar, kbar, nee, kbar),
            lambda a, b, r, s, x, u: (
                scal2[pairing[scal1[a, r], scal1[b, s], x], u],
                pairing[a, b, operad.act[r, s, x, u]],
            ),
        ),
    ]
    run_laws(laws).require(ConsistencyError, "graded object")
    for table in (scal1, scal2, pairing, proj1, reps1, embed2):
        table.flags.writeable = False  # shared by every caller of the cache
    return GradedAlgebra2(
        operad=operad, deg1=deg1, deg2=deg2, pairing=pairing, proj1=proj1, reps1=reps1,
        embed2=embed2,
    )


def gr_gamma(mod: BhpModule) -> GradedAlgebra2:
    """Graded object of (M, [M,M]_R) — the derived-series flavour."""
    pair = CpModule(mod.sr, mod.group, mod.scal, mod.bracket, derived_module(mod))
    verify_cp_module(pair).require(ConsistencyError, "(M, [M,M]_R)")  # theorem: a CP pair
    return gr(pair)


def gr_z(mod: BhpModule) -> GradedAlgebra2:
    """Graded object of (M, Z_R(M)) — the center flavour."""
    pair = CpModule(mod.sr, mod.group, mod.scal, mod.bracket, r_center(mod))
    verify_cp_module(pair).require(ConsistencyError, "(M, Z_R(M))")  # theorem: a CP pair
    return gr(pair)


# ---------------------------------------------------------------------------
# linear maps


def _linear_laws(table: np.ndarray, dom: BhpModule, cod: BhpModule) -> list[tuple]:
    """The laws of a linear map: additive, scalar- and bracket-equivariant."""
    nm, ne, nee = dom.nm, dom.sr.re.order, dom.sr.ree.order
    return [
        ("additive", (nm, nm), _additive(table, 0, dom.group.add, cod.group.add)),
        ("scalar-equivariant", (nm, ne),
         lambda m, r: (table[dom.scal[m, r]], cod.scal[table[m], r])),
        ("bracket-equivariant", (nm, nm, nee),
         lambda m, n, x: (table[dom.bracket[m, n, x]], cod.bracket[table[m], table[n], x])),
    ]


def _cp_linear_laws(table: np.ndarray, dom: CpModule, cod: CpModule) -> list[tuple]:
    """The laws of a linear pair map: A into B, then ``_linear_laws``."""
    return [("A into B", (dom.aset,), lambda a: (cod.amask[table[a]], 1)),
            *_linear_laws(table, dom, cod)]


def is_linear(f, dom: BhpModule, cod: BhpModule) -> bool:
    """Additive + scalar-equivariant + bracket-equivariant table."""
    return run_laws(_linear_laws(np.asarray(f, dtype=np.int64), dom, cod)).passed


def is_cp_linear(f, dom: CpModule, cod: CpModule) -> bool:
    """A linear table that maps A into B."""
    return run_laws(_cp_linear_laws(np.asarray(f, dtype=np.int64), dom, cod)).passed


# ---------------------------------------------------------------------------
# canonical modules over a square ring


def regular_module(sr: SquareRing) -> BhpModule:
    """R_e as a right module over itself: scal = ring product and
    [r,s]·x = P((r,s)·x)."""
    ensure_verified(sr)
    ne = sr.re.order
    bracket = sr.p[sr.act[:, :, :, sr.one]]
    mod = BhpModule(sr, sr.re.group, sr.re.mul, bracket.reshape(ne, ne, sr.ree.order))
    verify_bhp_module(mod).require(ConsistencyError, "regular module")
    return mod


def ree_module(sr: SquareRing) -> BhpModule:
    """R_ee as a zero-bracket module with x·r via the action's right slot."""
    ensure_verified(sr)
    nee = sr.ree.order
    scal = sr.act[sr.one, sr.one]  # (nee, ne)
    bracket = np.zeros((nee, nee, nee), dtype=np.int64)
    mod = BhpModule(sr, sr.ree, scal, bracket)
    verify_bhp_module(mod).require(ConsistencyError, "R_ee module")
    return mod


def rbar_regular_module(sr: SquareRing) -> BhpModule:
    """R̄ = R_e/im P as a zero-bracket module (scal through the projection)."""
    bar = cokernel_p(sr)
    k = bar.order
    scal = bar.proj[sr.re.mul[bar.reps]]
    bracket = np.zeros((k, k, sr.ree.order), dtype=np.int64)
    mod = BhpModule(sr, bar.ring.group, scal, bracket)
    verify_bhp_module(mod).require(ConsistencyError, "R̄ module")
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
    verify_cp_module(mod).require(ConsistencyError, "zero module")
    return mod


def free_cp_pair(sr: SquareRing) -> CpModule:
    """(R_e, P(R_ee)): the free CP pair on one generator."""
    base = regular_module(sr)
    pair = CpModule(sr, base.group, base.scal, base.bracket, sr.im_p())
    verify_cp_module(pair).require(ConsistencyError, "free CP pair")
    return pair

