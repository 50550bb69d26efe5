"""Defect calculus and quadraticity certification.

For a map f: M → N between modules over a commutative square ring the three
defect families are

    d_f(m,m')   = f(m+m') − f(m') − f(m)
    f_(r)(m)    = f(m·r) − f(m)·r
    f_[x](m,m') = f([m,m']·x) − [f(m),f(m')]·x

and f is quadratic when the defects are central/bilinear/homogeneous in the
appropriate senses.  Every decision here is made by several genuinely
different characterizations (for plain maps the eight relations, the
clause-level definition and a reduced route; for pair maps the definition,
a reduced route and factorization), and the routes are required to agree —
a built-in machine check of the theory.  Each route is written once, as a
list of laws law(q, *grid) over a stack T[q] of candidate tables and its
defect stacks: the batch deciders sweep the whole stack of one route.

A single-map decision is the stack T = [f; f_(0); …; f_(ne−1)] of the map
over its scalar defects, decided by every route at once.  The routes take
their clause bodies from one per-decision source (``_Clauses``), so a
clause that two routes share (membership in B, vanishing on A, the
bilinearity of d_f, the homogeneity of the f_(r), …) is one object, and
``verdict.Sweeps`` sweeps it once for both, each route stamping its own
label on the result.  Only raw sweep results are shared: each route
applies the reduced-form rule to its own laws.  The witness engine
(``run_laws``) runs only when f fails, so a rejected map's verdicts are
those of sweeping each route on its own.  The Hom enumerator certifies its
leaves the same way.  The module also provides
the three-defects identity, composition with closed-form defect formulas,
the pointwise Hom CP-module, pullback/pushforward, promotion of a plain
quadratic map to a CP one, and factorization property checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import check_cap, get_config
from .errors import (
    CertificateInvalid,
    ConsistencyError,
    NonCommutativeRing,
    NotComposable,
    PreconditionUnmet,
    SearchSpaceTooLarge,
)
from .groups import FiniteGroup, _frozen_table, sweep_generators
from .modules import (
    BhpModule,
    CpModule,
    _cp_linear_laws,
    derived_module,
    ensure_module_verified,
    generated_submodule,
    gr,
    r_center,
    submodule_module,
    verify_cp_module,
)
from .squarering import is_commutative
from .verdict import Sweeps, Verdict, _additive, passing_candidates, run_laws

__all__ = [
    "MapTable",
    "DefectBundle",
    "QuadCertificate",
    "RELATION_TEXT",
    "defects",
    "is_bhp_quadratic",
    "is_cp_quadratic",
    "certificate_valid",
    "cp_implies_bhp",
    "three_defects_check",
    "compose_quadratic",
    "enumerate_cp_quadratic",
    "batch_cp_quadratic",
    "HomModule",
    "hom_module",
    "pullback",
    "pushforward",
    "promote_to_cp",
    "factorization_check",
]


class MapTable:
    """A total map between module carriers, as a table of element indices.

    The table is a read-only copy, like every table of a group, a ring or a
    module, so what is derived from it cannot go stale.  ``_decision`` is
    the last quadraticity decision made on the map, as ``(passed,
    defects)``, or None; ``three_defects_check`` reads it.  Its defects are
    the certificate's, read-only.  It holds no certificate: a certificate
    holds its map, and the cycle would keep both alive until the cycle
    collector runs."""

    __slots__ = ("dom", "cod", "table", "_decision")

    def __init__(self, dom: BhpModule, cod: BhpModule, table):
        if dom.sr != cod.sr:
            raise PreconditionUnmet("domain and codomain live over different square rings")
        self.dom = dom
        self.cod = cod
        self.table = _frozen_table(table)
        self._decision = None
        if self.table.shape != (dom.nm,):
            raise PreconditionUnmet(f"map table shape {self.table.shape}, expected ({dom.nm},)")
        if self.table.size and (self.table.min() < 0 or self.table.max() >= cod.nm):
            raise PreconditionUnmet("map table entries out of range")

    def __call__(self, m):
        return self.table[m]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MapTable)
            and self.dom == other.dom
            and self.cod == other.cod
            and np.array_equal(self.table, other.table)
        )

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.table.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MapTable({list(map(int, self.table))})"


@dataclass(frozen=True, eq=False)
class DefectBundle:
    """All three defect families as tables: ``d[m,m']``, ``scalar[r,m]``,
    ``bracket[x,m,m']`` (with a leading candidate axis in defect stacks)."""

    d: np.ndarray
    scalar: np.ndarray
    bracket: np.ndarray


@dataclass(eq=False)
class QuadCertificate:
    """Outcome of a quadraticity decision.  ``verdict`` is the primary
    route (the eight relations for plain maps, the four defining clauses
    for pair maps); ``routes`` holds the independent confirmations that
    were run alongside it.  Certificates can be recomputed from scratch
    and compared — see ``certificate_valid``."""

    kind: str  # "bhp" | "cp"
    map: MapTable
    defects: DefectBundle
    verdict: Verdict
    routes: tuple[tuple[str, Verdict], ...]
    passed: bool
    graded: dict | None = None
    scalar_defects_quadratic: bool | None = None

    def failed_laws(self) -> tuple[str, ...]:
        return self.verdict.failed_laws()


RELATION_TEXT = {
    "1(a)": "[f(m+m'),f(n)]·x = [f(m),f(n)]·x + [f(m'),f(n)]·x",
    "2(b)": "[f(m·r),f(n)]·x = ([f(m),f(n)]·x)·r",
    "3(c)": "[f([m,m']·x),f(n)]·y = 0",
    "4(d)": "f(m+m'+m'') + f(m) + f(m') + f(m'') = "
            "f(m+m') + f(m'+m'') + f(m+m'') − [f(m'),f(m+m'')]",
    "5(e)": "f(m·r+n·s) = f(m+n)·rs − f(n)·rs − f(m)·rs + f(m·r) + f(n·s) − [f(m),f(n)]·H(rs)",
    "6(f)": "f([m,m']·x+n) = f([m,m']·x) + f(n)",
    "7(g)": "f(m·sr) − f(m·s)·r = (f(m·r) − f(m)·r)·s²",
    "8(h)": "f([m,n]·x·r) = (f([m,n]·x))·r",
    "BHP1": "images of d_f, f_(r), f_[x] are central in the generated image of f",
    "BHP2": "d_f and the f_[x] are bilinear (linear in each variable)",
    "BHP3": "f_(r)(m·s) = f_(r)(m)·s²",
    "BHPc1": "m ↦ [f(m),n]·x is linear for n in the image of f",
    "BHPc2": "d_f is bilinear",
    "BHPc3": "f_(r)(m·s) = f_(r)(m)·s²",
    "BHPc4": "f_(r) vanishes on the derived submodule",
    "CP1": "f(A) and the images of d_f, f_(r), f_[x] are contained in B",
    "CP2": "d_f and the f_[x] are bilinear",
    "CP3": "f_(r)(m·s) = f_(r)(m)·s²",
    "CP4": "d_f(M,A) = d_f(A,M) = 0, f_(r)(A) = 0, f_[x](M,A) = f_[x](A,M) = 0",
    "CPc1": "f(A) and the images of d_f and f_(r) are contained in B",
    "CPc2": "d_f is bilinear",
    "CPc3": "f_(r)(m·s) = f_(r)(m)·s²",
    "CPc4": "d_f(M,A) = d_f(A,M) = 0 = f_(r)(A)",
    "FAC1": "f(A) ⊆ B",
    "FAC2": "d_f induces a bilinear form on classes mod A with values in B",
    "FAC3": "f_(r) induces a divided-power (degree-2) form on classes mod A with values in B",
    "zero": "f(0) = 0",
    "three-defects": "d_{f_(r)}(m,m') = f_[H(r)](m,m') + d_f(m,m')·(r²−r)",
    "three-defects-r2": "d_{f_(2)}(m,m') = d_f(m,m') + d_f(m',m)",
}


# ---------------------------------------------------------------------------
# defects


def _scalar_stack(dom: BhpModule, cod: BhpModule, T: np.ndarray) -> np.ndarray:
    """scalar[q,r,m] = f_(r)(m) for the candidate f = T[q]."""
    return cod.group.sub(T[:, dom.scal.T], cod.scal[T].transpose(0, 2, 1))


def _defect_stacks(dom: BhpModule, cod: BhpModule, T: np.ndarray) -> DefectBundle:
    """The three defect families of every candidate table ``T[q]``, by their
    definitions: ``d[q,m,m']``, ``scalar[q,r,m]``, ``bracket[q,x,m,m']``."""
    csub = cod.group.sub
    xs = np.arange(dom.sr.ree.order)
    d = csub(csub(T[:, dom.group.add], T[:, None, :]), T[:, :, None])
    bracket = csub(
        T[:, np.transpose(dom.bracket, (2, 0, 1))],
        cod.bracket[T[:, None, :, None], T[:, None, None, :], xs[None, :, None, None]],
    )
    return DefectBundle(d=d, scalar=_scalar_stack(dom, cod, T), bracket=bracket)


def _first(stacks: DefectBundle) -> DefectBundle:
    """The defects of the first candidate, as read-only copies: a view
    would keep the whole stack alive, and a certificate shares its defects
    with the decision its map keeps (``MapTable``)."""
    first = DefectBundle(d=stacks.d[0].copy(), scalar=stacks.scalar[0].copy(),
                         bracket=stacks.bracket[0].copy())
    for values in (first.d, first.scalar, first.bracket):
        values.flags.writeable = False
    return first


def _checked_pair(dom: BhpModule, cod: BhpModule) -> None:
    """The preconditions of every decision about maps dom → cod: one square
    ring, commutative, under two verified modules."""
    if dom.sr != cod.sr:
        raise PreconditionUnmet("domain and codomain live over different square rings")
    ensure_module_verified(dom)
    ensure_module_verified(cod)
    if not is_commutative(dom.sr):
        raise NonCommutativeRing("quadratic-map calculus requires a commutative square ring")


def _one_map(f: MapTable) -> tuple[np.ndarray, DefectBundle]:
    """The stack of the single map f and its defect stacks."""
    _checked_pair(f.dom, f.cod)
    T = f.table[None]
    return T, _defect_stacks(f.dom, f.cod, T)


def _map_stack(f: MapTable) -> np.ndarray:
    """The stack [f; f_(0); …; f_(ne−1)] of f over its scalar defects: the
    candidates of one decision (see ``_decide``)."""
    _checked_pair(f.dom, f.cod)
    T = f.table[None]
    return np.concatenate([T, _scalar_stack(f.dom, f.cod, T)[0]])


def defects(f: MapTable) -> DefectBundle:
    """Compute all three defect families of f by their definitions."""
    return _first(_one_map(f)[1])


# ---------------------------------------------------------------------------
# clause families and the routes built from them


class _Clauses:
    """The clause bodies of one decision: laws law(q, *grid) over the stack
    ``T`` of candidate tables and its defect stacks ``D``.

    Each family of clauses (or shared table) is built once, on first use,
    by ``get``; so every route that uses a family holds the same body
    objects, and a shared ``verdict.Sweeps`` sweeps each clause once for
    all of them.  A family's clauses carry no label: a route puts its own
    on them (``laws``).  A batch decider builds only the families of the
    route it is asked for."""

    __slots__ = ("dom", "cod", "T", "D", "_made")

    def __init__(self, dom: BhpModule, cod: BhpModule, T: np.ndarray, D: DefectBundle):
        self.dom, self.cod, self.T, self.D = dom, cod, T, D
        self._made: dict = {}

    def get(self, family, *args):
        """``family(self, *args)``, built once per decision."""
        key = (family, *args)
        made = self._made.get(key)
        if made is None:
            made = self._made[key] = family(self, *args)
        return made

    def laws(self, label: str, family, *args) -> list[tuple]:
        """The clauses of ``family`` as laws labelled ``label``."""
        return [(label, *clause) for clause in self.get(family, *args)]


def _image_brackets(c: _Clauses) -> np.ndarray:
    """B[q,m,n,x] = [f(m),f(n)]·x for the candidate f = T[q]."""
    cod, T = c.cod, c.T
    return cod.bracket[T[:, :, None, None], T[:, None, :, None], np.arange(cod.sr.ree.order)]


def _generating_sets(dom: BhpModule) -> tuple[tuple[int, ...], ...]:
    """G, G_R and G_ee: ``sweep_generators`` of the domain, of R_e and of
    R_ee."""
    return tuple(map(sweep_generators, (dom.group, dom.sr.re.group, dom.sr.ree)))


def _zero(c: _Clauses):
    T = c.T
    return [((1,), lambda q, i: (T[q, i * 0], 0))]


def _additive_brackets(c: _Clauses):
    """m ↦ [f(m),f(n)]·x is additive: relation 1(a), the first clause of
    BHPc1; m' runs over G and x over G_ee (see ``_bilinear_clauses``)."""
    dom, cod = c.dom, c.cod
    nm, nee = dom.nm, dom.sr.ree.order
    madd, nadd = dom.group.add, cod.group.add
    G, _, G_ee = _generating_sets(dom)
    B = c.get(_image_brackets)
    return [((nm, nm, nm, nee), _additive(B, 1, madd, nadd), (nm, G, nm, G_ee))]


def _scalar_brackets(c: _Clauses):
    """m ↦ [f(m),f(n)]·x commutes with scalars: relation 2(b), the second
    clause of BHPc1; m, r and x run over G, G_R and G_ee (see
    ``_bilinear_clauses``)."""
    dom, cod = c.dom, c.cod
    nm, ne, nee = dom.nm, dom.sr.re.order, dom.sr.ree.order
    dscal, nscal = dom.scal, cod.scal
    G, G_R, G_ee = _generating_sets(dom)
    B = c.get(_image_brackets)
    return [((nm, nm, ne, nee),
             lambda q, m, n, r, x: (B[q, dscal[m, r], n, x], nscal[B[q, m, n, x], r]),
             (G, nm, G_R, G_ee))]


def _bracket_brackets(c: _Clauses):
    """m ↦ [f(m),f(n)]·y kills brackets, [f([m,m']·x),f(n)]·y = 0:
    relation 3(c), the third clause of BHPc1; m, m' run over G and x, y
    over G_ee (see ``_bilinear_clauses``).  BHPc1 states its right side as
    [[f(m),f(n)]·y, [f(m'),f(n)]·y]·x, a bracket of a bracket in the
    codomain, which is 0 by MC7 (in a pair module MC7a and MC7b imply
    it), so the two are one clause."""
    dom = c.dom
    nm, nee, dbr = dom.nm, dom.sr.ree.order, dom.bracket
    G, _, G_ee = _generating_sets(dom)
    B = c.get(_image_brackets)
    return [((nm, nm, nee, nm, nee),
             lambda q, m, m2, x, n, y: (B[q, dbr[m, m2, x], n, y], 0),
             (G, G, G_ee, nm, G_ee))]


def _relation_laws(c: _Clauses):
    """The eight-relation characterization of a quadratic map."""
    dom, cod, T = c.dom, c.cod, c.T
    nm, ne, nee = dom.nm, dom.sr.re.order, dom.sr.ree.order
    madd, dscal, dbr = dom.group.add, dom.scal, dom.bracket
    nadd, nsub, nscal = cod.group.add, cod.group.sub, cod.scal
    mul, h = dom.sr.re.mul, dom.sr.h
    B = c.get(_image_brackets)
    return [
        *c.laws("zero", _zero),
        *c.laws("1(a)", _additive_brackets),
        *c.laws("2(b)", _scalar_brackets),
        *c.laws("3(c)", _bracket_brackets),
        (
            "4(d)",
            (nm, nm, nm),
            lambda q, m, m2, m3: (
                nadd[nadd[nadd[T[q, madd[madd[m, m2], m3]], T[q, m]], T[q, m2]], T[q, m3]],
                nsub(
                    nadd[nadd[T[q, madd[m, m2]], T[q, madd[m2, m3]]], T[q, madd[m, m3]]],
                    cod.group.commutator(T[q, m2], T[q, madd[m, m3]]),
                ),
            ),
        ),
        (
            "5(e)",
            (nm, nm, ne, ne),
            lambda q, m, n, r, s: (
                T[q, madd[dscal[m, r], dscal[n, s]]],
                nsub(
                    nadd[
                        nadd[
                            nsub(
                                nsub(
                                    nscal[T[q, madd[m, n]], mul[r, s]],
                                    nscal[T[q, n], mul[r, s]],
                                ),
                                nscal[T[q, m], mul[r, s]],
                            ),
                            T[q, dscal[m, r]],
                        ],
                        T[q, dscal[n, s]],
                    ],
                    B[q, m, n, h[mul[r, s]]],
                ),
            ),
        ),
        (
            "6(f)",
            (nm, nm, nee, nm),
            lambda q, m, m2, x, n: (
                T[q, madd[dbr[m, m2, x], n]],
                nadd[T[q, dbr[m, m2, x]], T[q, n]],
            ),
        ),
        (
            "7(g)",
            (nm, ne, ne),
            lambda q, m, r, s: (
                nsub(T[q, dscal[m, mul[s, r]]], nscal[T[q, dscal[m, s]], r]),
                nscal[nsub(T[q, dscal[m, r]], nscal[T[q, m], r]), mul[s, s]],
            ),
        ),
        (
            "8(h)",
            (nm, nm, nee, ne),
            lambda q, m, n, x, r: (
                T[q, dscal[dbr[m, n, x], r]],
                nscal[T[q, dbr[m, n, x]], r],
            ),
        ),
    ]


def _bilinear_clauses(phi_dims: tuple, phi, dom: BhpModule, cod: BhpModule,
                      phi_reduced: tuple | None = None):
    """phi(q, extra_dims..., m, m') must be linear in each of m, m'.  ``phi``
    indexes as phi[(q, *extra, m, m')]; extra dimensions come first, and
    ``phi_reduced`` (by default ``phi_dims``) is their axes in the reduced
    forms.  Six clauses ``(dims, law, reduced)``, in this order: additivity
    in the first slot and in the second (``verdict._additive`` at m and at
    m'), ``_first_scal``, ``_second_scal``, ``_first_br``, ``_second_br``.

    Every law carries a reduced form over G, G_R and G_ee
    (``_generating_sets``), by the lemma in the docstring of
    ``modules.verify_bhp_module``: a map ψ from a finite group with
    ψ(u + g) = ψ(u) + ψ(g) for every u and every g of a generating set is a
    homomorphism, and two maps additive in some arguments agree once they
    agree whenever those arguments lie in generating sets.  M and N are
    verified modules, so their module axioms hold; in N, brackets are
    central, and α ↦ α·r is additive on brackets (MC2 and MC7).

    * First- and second-slot additivity, with the added element in G: the
      lemma for m ↦ φ(m, n) and for n ↦ φ(m, n), with no other law
      needed.
    * ``_first_br``, φ([m,m']·x, n) = [φ(m,n), φ(m',n)]·x, on m, m' ∈ G and
      x ∈ G_ee with n swept in full, once both additivity laws of φ hold.
      In m, the left side is m ↦ [m,m']·x, additive by MC5 of M, followed
      by φ(·, n), additive in the first slot; the right side is m ↦ φ(m,n),
      additive, followed by [·, φ(m',n)]·x, additive by MC5 of N.  The same
      holds in m', and in x: x ↦ [m,m']·x is additive by MC5 of M, and the
      right side by MC5 of N.  So for m, m' ∈ G the two sides agree for
      every x; then for m' ∈ G they agree on G as maps of m, hence for
      every m; then for each m they agree on G as maps of m', hence for
      every m'.  ``_second_br`` is the same argument for φ(n, ·), with
      second-slot additivity.  n is swept in full: [φ(m,n), φ(m',n)]·x is
      not additive in n.
    * ``_first_scal``, φ(m·r, n) = φ(m,n)·r, on m ∈ G and r ∈ G_R with n
      swept in full, once first-slot additivity holds.  In r, for fixed m
      and n: m·(r+s) = m·r + m·s by MC1 of M, so r ↦ φ(m·r, n) is additive
      by first-slot additivity, and r ↦ φ(m,n)·r is additive by MC1 of N;
      the two agree on G_R, hence for every r.  In m, for fixed r and n,
      let S be the set of m for which the law holds; it contains G.  MC2 of
      M and first-slot additivity give
      φ((m+m')·r, n) = φ(m·r, n) + φ(m'·r, n) + φ([m,m']·H(r), n), and MC2
      of N gives φ(m+m',n)·r = φ(m,n)·r + φ(m',n)·r + [φ(m,n), φ(m',n)]·H(r).
      The last terms agree on every route (below), so S is closed under +,
      hence a subgroup, hence all of M.  ``_second_scal``,
      φ(n, m·r) = φ(n,m)·r, is the same argument in the second slot, with
      second-slot additivity and ``_second_br``.  n is swept in full:
      φ(m,n)·r is not additive in n, since MC2 of N adds
      [φ(m,n), φ(m,n')]·H(r).

    ``verdict.run_laws`` trusts a route's reduced forms only when every
    other law of the route holds, so a proof may use those laws.  Per
    route, the last terms of MC2 agree as follows.

    * All six clauses, of d_f and of every f_[x] on the plain and pair
      definition routes (BHP2, CP2, and the gate of
      ``three_defects_check``), of d_f on the plain and pair reduced routes
      (BHPc2, CPc2): ``_first_br`` at x = H(r) says
      φ([m,m']·H(r), n) = [φ(m,n), φ(m',n)]·H(r), and ``_second_br`` the
      same in the second slot.
    * The factorization route (``_factorization_laws``) holds no bracket
      law: FAC2 takes the first four clauses of d_f, and FAC3 takes
      first-slot additivity, ``_first_scal`` and ``_second_scal`` of the
      polarizations pol of the f_(r).  Both terms vanish there.  The M-side
      term [m,m']·H(r) lies in A by MC7b of M, and the route's laws make
      d_f and every f_(r), hence pol, blind to adding an element of A on
      the right: φ(u + a, n) = φ(u, n) and φ(n, u + a) = φ(n, u).  (For pol
      in its first slot, u + a + n = u + n + a + c with c = −a − n + a + n,
      a group commutator; a group commutator is a bracket, [m,n]·H(2)
      (``modules.elementary_properties``), so c lies in A by MC7b.)  The
      N-side term is a bracket of values of φ, which are sums of elements
      of B by the route's membership laws; the bracket is additive (MC5 of
      N) and kills B (MC7a of N), so it is 0.  ``_second_scal`` of pol also
      needs pol additive in its second slot, which FAC3 does not sweep: pol
      is symmetric, so first-slot additivity gives it.  Indeed
      n + m = m + n + c with c a group commutator, in A, so
      f_(r)(n + m) = f_(r)(m + n); and B is abelian, since a group
      commutator of two elements of B is a bracket of an element of B, 0 by
      MC7a.

    The f_[x] also run x over G_ee (``phi_reduced`` is (G_ee,)); the
    polarizations keep r in full, since f_(r) is quadratic in r.  On every
    route that holds the f_[x] (BHP2, CP2 and the gate of
    ``three_defects_check``) f_[x] is additive in x.  With α = [m,m']·x
    and β = [m,m']·y, MC5 of M gives α + β = [m,m']·(x+y), and
    f(α + β) = d_f(α, β) + f(α) + f(β).  On CP2, α lies in A by MC7b of M,
    so d_f(α, β) = 0 by CP4.  On BHP2 and the gate,
    d_f(α, β) = [d_f(m,β), d_f(m',β)]·x by ``_first_br`` of d_f, which is 0:
    BHP1 puts d_f(m,β) in the submodule S generated by the image of f and
    makes its brackets with S vanish.  MC5 of N splits
    [f(m),f(m')]·(x+y), and brackets are central in N, so
    f_[x+y](m,m') = f_[x](m,m') + f_[y](m,m').  The values of the f_[x]
    commute and have vanishing brackets with each other: on CP2 they lie
    in B, since f([m,m']·x) ∈ f(A) ⊆ B (MC7b of M, CP1) and
    [f(m),f(m')]·x ∈ B (MC7b of N), and B is central and killed by the
    bracket (MC7a of N); on BHP2 and the gate they lie in S with
    vanishing brackets there (BHP1), so they commute (a group commutator
    is a bracket at H(2)).  So both sides of each of the six clauses are
    additive in x: sums of values of the f_[x], α·r of such values (MC2
    of N, whose bracket term vanishes) and brackets of such values (0).  Once
    a clause holds for x ∈ G_ee, it holds for every x, and the proofs
    above take it from there.

    The other reduced forms of the routes:

    * Membership of d_f in B (CP1, CPc1, FAC2) on pairs of G: d_f is
      additive in each slot by the two additivity clauses, which
      all three routes hold, and B is a subgroup (MC0 of N).  The m with
      d_f(m, g) ∈ B for every g ∈ G are closed under +, so they are all
      of M; then the same in the second slot.
    * Membership of the f_[x] in B (CP1) on G_ee × G × G: it holds
      outright, f([m,m']·x) ∈ f(A) ⊆ B by MC7b of M and the first clause
      of CP1, and [f(m),f(m')]·x ∈ B by MC7b of N.
    * d_f(M, A) = 0 and d_f(A, M) = 0 (CP4, CPc4) with the M slot over G:
      for a ∈ A, m ↦ d_f(m, a) is additive in the first slot, so it is 0
      once it is 0 on G; m ↦ d_f(a, m) the same in the second slot.
    * f_[x](M, A) = 0 and f_[x](A, M) = 0 (CP4) with the M slot over G:
      they hold outright.  [m,a]·x = [a,m]·T(x) by MC4, 0 by MC7a, so
      f([m,a]·x) = f(0) = 0 by the zero law; [f(m),f(a)]·x is 0 in the
      same way, f(a) ∈ B by CP1; and so for [a,m]·x.
    * 1(a), the first clause of BHPc1, [f(m+m'),f(n)]·x =
      [f(m),f(n)]·x + [f(m'),f(n)]·x, with m' ∈ G and x ∈ G_ee: the lemma
      for m ↦ [f(m),f(n)]·x, and both sides are additive in x by MC5 of N.
    * 3(c), [f([m,m']·x),f(n)]·y = 0, also the bracket clause of BHPc1
      (``_bracket_brackets``), with m, m' ∈ G and x, y ∈ G_ee: the left
      side is additive in m, m' and the inner element of R_ee (MC5 of M
      followed by 1(a)) and in the outer one (MC5 of N).  n is swept in
      full: f is not additive.
    * 2(b), the second clause of BHPc1, [f(m·r),f(n)]·x =
      ([f(m),f(n)]·x)·r, with m ∈ G, r ∈ G_R and x ∈ G_ee.  In x: MC5 of
      N, then α ↦ α·r on brackets.  In r: m·(r+s) = m·r + m·s by MC1 of M,
      then 1(a); on the right MC1 of N.  In m: MC2 of M writes (m+m')·r as
      m·r + m'·r + [m,m']·H(r), and 1(a) splits the left side into
      [f(m·r),f(n)]·x + [f(m'·r),f(n)]·x + [f([m,m']·H(r)),f(n)]·x, whose
      last term is 0 by 3(c), which the reduced route holds as the bracket
      clause of BHPc1; the right side is additive in m by 1(a).

    The chain: the additivity laws and 1(a) rest on the lemma alone; the
    bracket laws, 3(c) and the clauses on d_f and A on them; the outright
    clauses on laws swept in full; x of the f_[x] on the bracket law and
    the vanishing clauses of d_f; the scalar laws and 2(b) on the
    additivity, bracket and membership laws.  No reduced form's proof
    uses a scalar law or 2(b), so the argument is not circular.  Each reduced form sweeps a subset of its law's cells."""
    nm, ne, nee = dom.nm, dom.sr.re.order, dom.sr.ree.order
    madd, dscal, dbr = dom.group.add, dom.scal, dom.bracket
    nadd, nscal, nbr = cod.group.add, cod.scal, cod.bracket
    G, G_R, G_ee = _generating_sets(dom)
    k = phi_dims  # leading extra dims: () for d, (nee,) for f_[x], (ne,) for pol
    kr = k if phi_reduced is None else phi_reduced
    return [
        (k + (nm, nm, nm), _additive(phi, 1 + len(k), madd, nadd), kr + (nm, G, nm)),
        (k + (nm, nm, nm), _additive(phi, 2 + len(k), madd, nadd), kr + (nm, nm, G)),
        (k + (nm, ne, nm), lambda *a: _first_scal(a, phi, dscal, nscal), kr + (G, G_R, nm)),
        (k + (nm, ne, nm), lambda *a: _second_scal(a, phi, dscal, nscal), kr + (G, G_R, nm)),
        (k + (nm, nm, nee, nm), lambda *a: _first_br(a, phi, dbr, nbr), kr + (G, G, G_ee, nm)),
        (k + (nm, nm, nee, nm), lambda *a: _second_br(a, phi, dbr, nbr), kr + (G, G, G_ee, nm)),
    ]


# In the four helpers below ``extra`` starts with the candidate index q.


def _first_scal(args, phi, dscal, nscal):
    *extra, m, r, n = args
    return phi[(*extra, dscal[m, r], n)], nscal[phi[(*extra, m, n)], r]


def _second_scal(args, phi, dscal, nscal):
    *extra, m, r, n = args
    return phi[(*extra, n, dscal[m, r])], nscal[phi[(*extra, n, m)], r]


def _first_br(args, phi, dbr, nbr):
    *extra, m, m2, x, n = args
    return (
        phi[(*extra, dbr[m, m2, x], n)],
        nbr[phi[(*extra, m, n)], phi[(*extra, m2, n)], x],
    )


def _second_br(args, phi, dbr, nbr):
    *extra, m, m2, x, n = args
    return (
        phi[(*extra, n, dbr[m, m2, x])],
        nbr[phi[(*extra, n, m)], phi[(*extra, n, m2)], x],
    )


def _polarization(dom: BhpModule, cod: BhpModule, scalar: np.ndarray) -> np.ndarray:
    """pol[..., r, m, n] = f_(r)(m+n) − f_(r)(n) − f_(r)(m), for the scalar
    defects ``scalar[..., r, m]`` of one map or of a stack."""
    madd, nsub = dom.group.add, cod.group.sub
    return nsub(nsub(scalar[..., madd], scalar[..., None, :]), scalar[..., :, None])


def _bilinear(c: _Clauses, defect: str):
    """``_bilinear_clauses`` of d_f ("d"), of the f_[x] ("bracket") or of the
    polarizations of the f_(r) ("pol")."""
    dom = c.dom
    if defect == "d":
        return _bilinear_clauses((), c.D.d, dom, c.cod)
    if defect == "bracket":
        G_ee = _generating_sets(dom)[2]
        return _bilinear_clauses((dom.sr.ree.order,), c.D.bracket, dom, c.cod, (G_ee,))
    pol = _polarization(dom, c.cod, c.D.scalar)
    return _bilinear_clauses((dom.sr.re.order,), pol, dom, c.cod)


def _homogeneity(c: _Clauses):
    dom, cod, sd = c.dom, c.cod, c.D.scalar
    nm, ne, mul = dom.nm, dom.sr.re.order, dom.sr.re.mul
    return [((ne, nm, ne),
             lambda q, r, m, s: (sd[q, r, dom.scal[m, s]], cod.scal[sd[q, r, m], mul[s, s]]))]


def _central_rows(cod: BhpModule, T: np.ndarray) -> np.ndarray:
    """central[q, v] == 1 iff v lies in the submodule generated by the image
    of candidate q and its brackets with that submodule vanish.  Candidates
    with the same image share one row."""
    rows: dict[frozenset, np.ndarray] = {}
    central = np.empty((len(T), cod.nm), dtype=np.int64)
    for q, table in enumerate(T):
        key = frozenset(table.tolist())
        if key not in rows:
            iarr = np.array(generated_submodule(cod, key), dtype=np.int64)
            rows[key] = np.zeros(cod.nm, dtype=np.int64)
            rows[key][iarr] = (cod.bracket[iarr][:, iarr, :] == 0).all(axis=(1, 2))
        central[q] = rows[key]
    return central


def _centrality(c: _Clauses):
    """Defect values must be central inside the generated image of f."""
    central = _central_rows(c.cod, c.T)
    dom = c.dom
    nm, ne, nee = dom.nm, dom.sr.re.order, dom.sr.ree.order
    d, scalar, bracket = c.D.d, c.D.scalar, c.D.bracket
    return [
        ((nm, nm), lambda q, m, n: (central[q, d[q, m, n]], 1)),
        ((ne, nm), lambda q, r, m: (central[q, scalar[q, r, m]], 1)),
        ((nee, nm, nm), lambda q, x, m, n: (central[q, bracket[q, x, m, n]], 1)),
    ]


def _central_bilinear_laws(c: _Clauses):
    """The first two clauses of the definition: central defect images,
    bilinear d_f and f_[x]."""
    return (c.laws("BHP1", _centrality) + c.laws("BHP2", _bilinear, "d")
            + c.laws("BHP2", _bilinear, "bracket"))


def _def_route_laws(c: _Clauses):
    """Clause-by-clause transcription of the definition of a quadratic map:
    central defect images, bilinear d_f and f_[x], homogeneous f_(r)."""
    return _central_bilinear_laws(c) + c.laws("BHP3", _homogeneity)


def _cor_route_laws(c: _Clauses):
    """Reduced characterization: linearity of m ↦ [f(m),n]·x for n in im f,
    bilinearity of d_f, homogeneity, and f_(r) killing the derived part."""
    scalar = c.D.scalar
    return [
        *c.laws("BHPc1", _additive_brackets),
        *c.laws("BHPc1", _scalar_brackets),
        *c.laws("BHPc1", _bracket_brackets),
        *c.laws("BHPc2", _bilinear, "d"),
        *c.laws("BHPc3", _homogeneity),
        ("BHPc4", (c.dom.sr.re.order, derived_module(c.dom)),
         lambda q, r, m: (scalar[q, r, m], 0)),
    ]


def _membership(c: _Clauses):
    """f(A) and the images of d_f, the f_(r) and the f_[x] lie in B, in this
    order; the clauses of d_f and the f_[x] run on generators (proofs in
    ``_bilinear_clauses``)."""
    dom, T, bmask = c.dom, c.T, c.cod.amask
    nm, ne, nee = dom.nm, dom.sr.re.order, dom.sr.ree.order
    G, _, G_ee = _generating_sets(dom)
    d, scalar, bracket = c.D.d, c.D.scalar, c.D.bracket
    return [
        ((dom.aset,), lambda q, a: (bmask[T[q, a]], 1), None),
        ((nm, nm), lambda q, m, n: (bmask[d[q, m, n]], 1), (G, G)),
        ((ne, nm), lambda q, r, m: (bmask[scalar[q, r, m]], 1), None),
        ((nee, nm, nm), lambda q, x, m, n: (bmask[bracket[q, x, m, n]], 1), (G_ee, G, G)),
    ]


def _vanishing(c: _Clauses):
    """d_f(M,A) = d_f(A,M) = 0, f_(r)(A) = 0, then f_[x](M,A) = f_[x](A,M) = 0;
    the M slot runs over G (proofs in ``_bilinear_clauses``)."""
    dom = c.dom
    nm, ne, nee = dom.nm, dom.sr.re.order, dom.sr.ree.order
    A = dom.aset
    G = _generating_sets(dom)[0]
    d, scalar, bracket = c.D.d, c.D.scalar, c.D.bracket
    return [
        ((nm, A), lambda q, m, a: (d[q, m, a], 0), (G, A)),
        ((A, nm), lambda q, a, m: (d[q, a, m], 0), (A, G)),
        ((ne, A), lambda q, r, a: (scalar[q, r, a], 0), None),
        ((nee, nm, A), lambda q, x, m, a: (bracket[q, x, m, a], 0), (nee, G, A)),
        ((nee, A, nm), lambda q, x, a, m: (bracket[q, x, a, m], 0), (nee, A, G)),
    ]


def _cp_def_route_laws(c: _Clauses):
    """The four defining clauses of a quadratic pair map."""
    return (c.laws("zero", _zero) + c.laws("CP1", _membership)
            + c.laws("CP2", _bilinear, "d") + c.laws("CP2", _bilinear, "bracket")
            + c.laws("CP3", _homogeneity) + c.laws("CP4", _vanishing))


def _cp_cor_route_laws(c: _Clauses):
    """Reduced pair characterization: no bracket-defect conditions at all."""
    return (c.laws("CPc1", _membership)[:3] + c.laws("CPc2", _bilinear, "d")
            + c.laws("CPc3", _homogeneity) + c.laws("CPc4", _vanishing)[:3])


def _factorization_laws(c: _Clauses):
    """Pointwise form of the tensor/divided-power factorization: d_f and
    f_(r) only see classes mod A, take values in B, and are bilinear resp.
    degree-2 with bilinear polarization."""
    dom = c.dom
    nm, ne, A, madd = dom.nm, dom.sr.re.order, dom.aset, dom.group.add
    d, scalar = c.D.d, c.D.scalar
    in_a, in_d, in_scalar, _ = c.get(_membership)
    pol_add, _, pol_scal, pol_scal2, _, _ = c.laws("FAC3", _bilinear, "pol")
    return [
        ("FAC1", *in_a),
        ("FAC2", *in_d),
        ("FAC2", (nm, A, nm), lambda q, m, a, n: (d[q, madd[m, a], n], d[q, m, n])),
        ("FAC2", (nm, A, nm), lambda q, m, a, n: (d[q, n, madd[m, a]], d[q, n, m])),
        *c.laws("FAC2", _bilinear, "d")[:4],  # sums and scalars, both slots
        ("FAC3", *in_scalar),
        ("FAC3", (ne, nm, A), lambda q, r, m, a: (scalar[q, r, madd[m, a]], scalar[q, r, m])),
        *c.laws("FAC3", _homogeneity),
        pol_add,
        pol_scal,
        pol_scal2,
    ]


# ---------------------------------------------------------------------------
# deciders


_BHP_ROUTES = {
    "relations": _relation_laws,
    "definition": _def_route_laws,
    "reduced": _cor_route_laws,
}
_CP_ROUTES = {
    "definition": _cp_def_route_laws,
    "reduced": _cp_cor_route_laws,
    "factorization": _factorization_laws,
}
_ROUTES = {"bhp": _BHP_ROUTES, "cp": _CP_ROUTES}


def _single(laws, q: int = 0):
    """A route's laws on the one map ``q`` of their stack (the stack of one
    map by default), reduced forms included."""
    return [(label, dims, partial(law, q), *reduced) for label, dims, law, *reduced in laws]


def _decide(kind: str, f: MapTable, T: np.ndarray) -> QuadCertificate:
    """Decide f = T[0] and its scalar defects T[1:] (``_map_stack``) from
    one stack: one defect build, one clause source, one ``Sweeps``.

    The first route of ``kind`` is the primary, the others confirm it; a
    route whose outcome for f differs from the primary's is an internal
    error, in either direction.  Every route is decided by masked sweeps
    of the stack, each clause swept once across routes.  When f fails,
    ``run_laws`` gives every route's verdict with its witnesses, reusing
    what the sweeps found, and each list is read at once, so that a
    certificate holds its failures and not the stacks of its decision.
    When f passes, every route must pass every
    f_(r) too, and for pair maps the graded maps of f and of every f_(r)
    are checked as one stack; a failure raises ConsistencyError naming
    the first law it fails, primary route first.  The outcome is kept on
    f as ``f._decision``."""
    dom, cod = f.dom, f.cod
    stacks = _defect_stacks(dom, cod, T)
    bundle = _first(stacks)
    c = _Clauses(dom, cod, T, stacks)
    routes = [(name, build(c)) for name, build in _ROUTES[kind].items()]
    (_, primary), *secondary = routes
    sweeps = Sweeps(len(T))
    passing = passing_candidates(primary, len(T), sweeps=sweeps, lead=True)
    outcomes = []
    if not passing[0]:
        verdict = run_laws(primary, all_witnesses=get_config().exhaustive_witnesses,
                           sweeps=sweeps)
        for name, laws in secondary:
            outcome = run_laws(laws, sweeps=sweeps)
            if outcome.passed:
                raise ConsistencyError(
                    f"routes disagree: primary fails {verdict.failures[0].law} "
                    f"but {name} passes"
                )
            outcomes.append((name, outcome))
        for listed in (verdict, *(outcome for _, outcome in outcomes)):
            listed.failures  # read now: unread, a list keeps c and sweeps alive
        f._decision = (False, bundle)
        return QuadCertificate(kind=kind, map=f, defects=bundle, verdict=verdict,
                               routes=tuple(outcomes), passed=False)
    for name, laws in secondary:
        mask = passing_candidates(laws, len(T), sweeps=sweeps, lead=True)
        if not mask[0]:
            first = run_laws(laws, sweeps=sweeps).failures[0]
            raise ConsistencyError(
                f"routes disagree: primary passes but {name} fails "
                f"{first.law} at {first.witness}"
            )
        passing &= mask
        outcomes.append((name, _passed(laws)))
    # the candidates in order, each through the routes and then gr, so the
    # first failure is the one that deciding them one by one would meet
    stop = len(T) if passing.all() else int(np.argmin(passing))
    graded = None
    if kind == "cp":
        fbar, f2 = _graded_maps(dom, cod, T[:stop])
        graded = {"fbar": fbar[0], "f2": f2[0]}
    if stop < len(T):
        verdicts = (run_laws(laws, sweeps=sweeps, candidate=stop) for _, laws in routes)
        law = next(v.failures[0].law for v in verdicts if not v.passed)
        raise ConsistencyError(
            f"scalar defect f_({stop - 1}) of a certified quadratic map fails {law}"
        )
    f._decision = (True, bundle)
    return QuadCertificate(kind=kind, map=f, defects=bundle, verdict=_passed(primary),
                           routes=tuple(outcomes), passed=True, graded=graded,
                           scalar_defects_quadratic=True)


def _passed(laws) -> Verdict:
    """The verdict of a route whose laws all hold."""
    return Verdict.from_failures((), [label for label, *_ in laws])


def _pair_map(f, refusal: str) -> MapTable:
    """f, refused unless it is a MapTable between pair modules."""
    if not (isinstance(f, MapTable) and isinstance(f.dom, CpModule)
            and isinstance(f.cod, CpModule)):
        raise PreconditionUnmet(refusal)
    return f


def is_bhp_quadratic(f: MapTable) -> QuadCertificate:
    """Decide quadraticity of a plain map.  Primary route: the eight
    relations; confirmed against the clause-level definition and against
    the reduced four-condition characterization.  For a passing map the
    scalar defects are certified quadratic as well."""
    return _decide("bhp", f, _map_stack(f))


def is_cp_quadratic(f: MapTable) -> QuadCertificate:
    """Decide quadraticity of a pair map (M,A) → (N,B).  Primary route:
    the four defining clauses; confirmed against the reduced (no bracket
    conditions) characterization and the pointwise factorization one.
    A passing certificate carries the induced degree-1 and degree-2 maps,
    verified linear over the quotient ring, and its scalar defects are
    certified quadratic, with their induced maps, as well."""
    f = _pair_map(f, "pair deciders need CP modules on both sides")
    return _decide("cp", f, _map_stack(f))


def _graded_maps(dom: CpModule, cod: CpModule, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The induced maps on M/A and on A of every candidate T[q], ``fbar[q]``
    and ``f2[q]``, with their linearity verified as one stack.  The first
    candidate that fails raises ConsistencyError, named as a check of that
    one map would: fbar well defined, f2 into B, then linearity.  That is
    the law order, so a -1 of f2, which the linearity laws read as an index
    from the end, is named by f2-into-B first."""
    gdom, gcod = gr(dom), gr(cod)
    fbar = gcod.proj1[T[:, gdom.reps1]]
    index_b = np.full(cod.nm, -1, dtype=np.int64)
    index_b[gcod.embed2] = np.arange(len(gcod.embed2))
    f2 = index_b[T[:, gdom.embed2]]  # -1 where T[q] leaves B on A
    k1d, k2d, kbar = gdom.deg1.order, gdom.deg2.order, gdom.operad.op1.order
    laws = [
        ("fbar-well-defined", (dom.nm,),
         lambda q, m: (gcod.proj1[T[q, m]], fbar[q, gdom.proj1[m]])),
        ("f2-into-B", (k2d,), lambda q, a: (f2[q, a] >= 0, 1)),
        ("fbar-additive", (k1d, k1d), _additive(fbar, 1, gdom.deg1.group.add, gcod.deg1.group.add)),
        ("fbar-equivariant", (k1d, kbar),
         lambda q, a, r: (fbar[q, gdom.deg1.scal[a, r]], gcod.deg1.scal[fbar[q, a], r])),
        ("f2-additive", (k2d, k2d), _additive(f2, 1, gdom.deg2.group.add, gcod.deg2.group.add)),
        ("f2-equivariant", (k2d, kbar),
         lambda q, a, r: (f2[q, gdom.deg2.scal[a, r]], gcod.deg2.scal[f2[q, a], r])),
    ]
    ok = passing_candidates(laws, len(T))
    if not ok.all():
        run_laws(_single(laws, int(np.argmin(ok)))).require(ConsistencyError, "induced graded map")
    return fbar, f2


def certificate_valid(cert: QuadCertificate) -> bool:
    """Recompute the certificate from scratch and compare the outcome."""
    try:
        fresh = _decide(cert.kind, cert.map, _map_stack(cert.map))
    except (PreconditionUnmet, NonCommutativeRing):
        return False
    return fresh.passed == cert.passed and fresh.failed_laws() == cert.failed_laws()


def cp_implies_bhp(cert: QuadCertificate) -> QuadCertificate:
    """A quadratic pair map is quadratic as a plain map; verified anew."""
    if cert.kind != "cp":
        raise PreconditionUnmet("needs a pair certificate")
    cert.verdict.require(PreconditionUnmet, "pair certificate")
    out = is_bhp_quadratic(MapTable(cert.map.dom, cert.map.cod, cert.map.table))
    out.verdict.require(ConsistencyError, "pair-quadratic map, decided as a plain map,")
    return out


# ---------------------------------------------------------------------------
# three-defects identity


def three_defects_check(f: MapTable) -> Verdict:
    """d_{f_(r)}(m,m') = f_[H(r)](m,m') + d_f(m,m')·(r²−r), plus its r=2
    specialization d_{f_(2)}(m,m') = d_f(m,m') + d_f(m',m).  Requires the
    centrality and bilinearity clauses of the definition (BHP1 and BHP2)
    to hold first: the gate, refused with PreconditionUnmet.

    A map whose last decision (``f._decision``) passed skips the gate and
    takes its defects from that decision; any other map builds its defects
    and sweeps the gate.  The skip is sound because a passing certificate
    implies the gate's laws in full:

    * a plain certificate passed the definition route, whose laws include
      every law of the gate, BHP1 and BHP2;
    * a pair certificate passed CP2, which holds the same ``_bilinear``
      families of d_f and of the f_[x] as BHP2.  By CP1 every value of
      d_f, of the f_(r) and of the f_[x] lies in B.  Each such value is
      built from values of f by +, −, ·r and brackets, so it lies in the
      submodule S generated by the image of f; and MC7a of N kills
      brackets with elements of B, so its brackets with S vanish.  That
      is BHP1 (``_central_rows``).

    A verdict passed by a route is that of its full sweeps (the reduced
    forms are proved in ``_bilinear_clauses``), so the gate would pass.
    The map's table is read-only, so the decision is always that of its
    table."""
    dom, cod = f.dom, f.cod
    if f._decision is not None and f._decision[0]:
        _checked_pair(dom, cod)
        bundle = f._decision[1]
    else:
        T, stacks = _one_map(f)
        run_laws(_single(_central_bilinear_laws(_Clauses(dom, cod, T, stacks)))).require(
            PreconditionUnmet, "map for the three-defects identity")
        bundle = _first(stacks)
    nm, ne = dom.nm, dom.sr.re.order
    nadd, nscal = cod.group.add, cod.scal
    d, bracket = bundle.d, bundle.bracket
    d_fr = _polarization(dom, cod, bundle.scalar)  # d_{f_(r)}(m,m') at [r, m, m']
    h, mul, rsub = dom.sr.h, dom.sr.re.mul, dom.sr.re.group.sub
    two = dom.sr.two

    laws = [
        (
            "three-defects",
            (ne, nm, nm),
            lambda r, m, m2: (
                d_fr[r, m, m2],
                nadd[bracket[h[r], m, m2], nscal[d[m, m2], rsub(mul[r, r], r)]],
            ),
        ),
        (
            "three-defects-r2",
            (nm, nm),
            lambda m, m2: (d_fr[two, m, m2], nadd[d[m, m2], d[m2, m]]),
        ),
    ]
    return run_laws(laws)


# ---------------------------------------------------------------------------
# composition


def compose_quadratic(g: QuadCertificate, f: QuadCertificate) -> QuadCertificate:
    """Certify g∘f for pair-quadratic g and f, cross-checking the composite
    defects against their closed forms:

        d_{g∘f}(m,m')    = g(d_f(m,m')) + d_g(f(m),f(m'))
        (g∘f)_(r)(m)     = g(f_(r)(m)) + g_(r)(f(m))
        (g∘f)_[x](m,m')  = g(f_[x](m,m')) + g_[x](f(m),f(m'))
    """
    for cert in dict.fromkeys((f, g)):  # each distinct certificate once
        if cert.kind != "cp":
            raise PreconditionUnmet("composition works on pair certificates")
        cert.verdict.require(CertificateInvalid, "input certificate")
        if not certificate_valid(cert):
            raise CertificateInvalid("certificate does not re-verify from scratch")
    if f.map.cod != g.map.dom:
        raise NotComposable("codomain of f must be the domain of g (same pair)")
    F, G = f.map.table, g.map.table
    comp = MapTable(f.map.dom, g.map.cod, G[F])
    out = is_cp_quadratic(comp)
    out.verdict.require(ConsistencyError, "composite of quadratic pair maps")
    ladd = g.map.cod.group.add
    df, dg, dc = f.defects, g.defects, out.defects
    nm, ne, nee = f.map.dom.nm, f.map.dom.sr.re.order, f.map.dom.sr.ree.order
    run_laws([
        ("additive-defect-closed-form", (nm, nm),
         lambda m, m2: (dc.d[m, m2], ladd[G[df.d[m, m2]], dg.d[F[m], F[m2]]])),
        ("scalar-defect-closed-form", (ne, nm),
         lambda r, m: (dc.scalar[r, m], ladd[G[df.scalar[r, m]], dg.scalar[r, F[m]]])),
        ("bracket-defect-closed-form", (nee, nm, nm),
         lambda x, m, m2: (dc.bracket[x, m, m2],
                           ladd[G[df.bracket[x, m, m2]], dg.bracket[x, F[m], F[m2]]])),
    ]).require(ConsistencyError, "composite g∘f")
    return out


# ---------------------------------------------------------------------------
# enumeration and the Hom module


def _search_cells(ma: CpModule, nb: CpModule) -> list[tuple]:
    """The membership-in-B and vanishing-on-A clauses of d_f, the f_(r) and
    the f_[x], one family each, as cells (out, left, right, p): the defect
    f(out) − E[f(left), f(right), p] lies in B, and is 0 when left or right
    lies in A.  Per family: the cells' highest index, then the law body."""
    add, scal, br, amask = ma.group.add, ma.scal, ma.bracket, ma.amask
    m, m2 = np.indices(add.shape).reshape(2, -1)
    ms, r = np.indices(scal.shape).reshape(2, -1)
    mb, mb2, x = np.indices(br.shape).reshape(3, -1)
    nscal = np.broadcast_to(nb.scal[:, None, :], (nb.nm, *nb.scal.shape))
    allowed = np.stack([nb.amask, np.arange(nb.nm) == 0])
    return [(np.maximum.reduce([out, left, right]),
             partial(_cell_law, nb.group.sub, allowed, E, out, left, right, p,
                     amask[left] | amask[right]))
            for out, left, right, p, E in ((add[m, m2], m, m2, 0 * m, nb.group.add[:, :, None]),
                                           (scal[ms, r], ms, ms, r, nscal),
                                           (br[mb, mb2, x], mb, mb2, x, nb.bracket))]


def _cell_law(sub, allowed, E, out, left, right, p, touch, T, q, c):
    """The clause of the cells c on the partial tables T[q]."""
    defect = sub(T[q, out[c]], E[T[q, left[c]], T[q, right[c]], p[c]])
    return allowed[touch[c], defect], 1


def enumerate_cp_quadratic(ma: CpModule, nb: CpModule, limit: int = 1_000_000) -> list[MapTable]:
    """All quadratic pair maps (M,A) → (N,B), in lexicographic table order.

    The search runs level by level over partial tables with f(0) = 0.
    Level k is one stack of every partial table f(0), …, f(k) that passes
    each membership and vanishing clause (``_search_cells``) whose highest
    argument is at most k.  Level k+1 repeats each row of level k once per
    value of N, in value order, sets f(k+1), and keeps the rows that pass
    the clauses whose highest argument is k+1, each family swept as one
    law over the index set of its cells (``passing_candidates`` blocks the
    sweep and drops failing rows family by family).  Children follow
    their parents, in value order, so every level, the leaves included,
    is in lexicographic order with no sort.  The partial tables built are
    the nodes of a depth-first search that prunes on the same clauses:
    the root, then |N| children of every partial table kept.  So
    ``limit`` bounds that count, and ``SearchSpaceTooLarge`` is raised
    before a level that would take it past ``limit`` is built.

    The leaves then go through every route as one stack, with one defect
    build and the clauses that routes share swept once (``_Clauses``,
    ``verdict.Sweeps``); a route whose mask differs from the definition's
    raises ``ConsistencyError``.  The induced graded maps of the accepted
    tables are verified linear as one stack."""
    _checked_pair(ma, nb)
    cells = _search_cells(ma, nb)
    tables, nodes = np.zeros((1, 0), dtype=np.int64), 0
    for k in range(ma.nm):
        values = np.arange(nb.nm if k else 1)  # f(0) = 0
        nodes += len(tables) * len(values)
        if nodes > limit:
            raise SearchSpaceTooLarge(limit)
        tables = np.column_stack([np.repeat(tables, len(values), axis=0),
                                  np.tile(values, len(tables))])
        laws = [("search", (tuple(np.flatnonzero(hi == k).tolist()),), partial(law, tables))
                for hi, law in cells]
        tables = tables[passing_candidates(laws, len(tables))]
    c = _Clauses(ma, nb, tables, _defect_stacks(ma, nb, tables))
    sweeps = Sweeps(len(tables))
    masks = {route: passing_candidates(build(c), len(tables), sweeps=sweeps)
             for route, build in _CP_ROUTES.items()}
    keep = masks["definition"]
    for route, mask in masks.items():
        if not np.array_equal(mask, keep):
            leaf = int(np.flatnonzero(mask != keep)[0])
            verb = "accepts" if keep[leaf] else "rejects"
            raise ConsistencyError(
                f"routes disagree on leaf {leaf}: definition {verb} it, {route} does not"
            )
    _graded_maps(ma, nb, tables[keep])
    return [MapTable(ma, nb, table) for table in tables[keep]]


# -- batch deciders: the route laws above swept over a stack of candidate
# tables.  Used by the enumerator and by the equivalence censuses, which
# certify that the different characterizations of a quadratic map pick out
# identical sets of tables.


def _batch(dom: BhpModule, cod: BhpModule, tables, routes: dict, route: str) -> np.ndarray:
    if route not in routes:
        raise PreconditionUnmet(f"unknown route {route!r}")
    _checked_pair(dom, cod)
    T = np.ascontiguousarray(tables, dtype=np.int64)
    if T.ndim != 2 or T.shape[1] != dom.nm:
        raise PreconditionUnmet(f"tables must be (K, {dom.nm})")
    if T.size and (T.min() < 0 or T.max() >= cod.nm):
        raise PreconditionUnmet("table entries out of range")
    laws = routes[route](_Clauses(dom, cod, T, _defect_stacks(dom, cod, T)))
    return passing_candidates(laws, len(T))


def batch_cp_quadratic(ma: CpModule, nb: CpModule, tables, route: str = "definition") -> np.ndarray:
    """Pair-quadraticity filter; one boolean per candidate row.

    route "definition": the four defining clauses.
    route "reduced": the bracket-defect-free characterization.
    route "factorization": the pointwise tensor/divided-power properties.
    All three select the same tables; the equivalence is itself under test.
    """
    if not isinstance(ma, CpModule) or not isinstance(nb, CpModule):
        raise PreconditionUnmet("pair deciders need CP modules on both sides")
    return _batch(ma, nb, tables, _CP_ROUTES, route)


def batch_bhp_quadratic(
    dom: BhpModule, cod: BhpModule, tables, route: str = "relations"
) -> np.ndarray:
    """Plain-quadraticity filter; one boolean per candidate row.

    route "relations": the eight-relation characterization.
    route "definition": central defect images + bilinearity + homogeneity.
    route "reduced": linearity of m ↦ [f(m),n]·x for n in the image, d_f
    bilinear, homogeneity, scalar defects killing the derived submodule.
    """
    return _batch(dom, cod, tables, _BHP_ROUTES, route)


class HomModule(CpModule):
    """The CP-module of quadratic pair maps (M,A) → (N,B) with pointwise
    operations; ``maps[i]`` is the table of element i."""

    __slots__ = ("dom_pair", "cod_pair", "maps")


def _row_ranks(tables: np.ndarray, rows: np.ndarray, base: int) -> np.ndarray:
    """The index in ``tables`` (distinct rows) of each row of ``rows`` (last
    axis), or -1 where it is none of them.  A row is read as an int64 key,
    mixed radix ``base``, as many digits at a time as fit; after each chunk
    the keys become ranks among the tables' prefixes, so long rows cannot
    overflow."""
    k, width = tables.shape
    step = 1
    while step < width and k * base ** (step + 1) < 2**62:
        step += 1
    tkey = np.zeros(k, dtype=np.int64)
    rkey = np.zeros(rows.shape[:-1], dtype=np.int64)
    for c in range(0, width, step):
        weights = base ** np.arange(min(step, width - c) - 1, -1, -1, dtype=np.int64)
        span = base ** len(weights)
        tkey = tkey * span + tables[:, c : c + step] @ weights
        rkey = rkey * span + rows[..., c : c + step] @ weights
        keys = np.unique(tkey)
        pos = np.minimum(np.searchsorted(keys, rkey), len(keys) - 1)
        rkey = np.where(keys[pos] == rkey, pos, -1)
        tkey = np.searchsorted(keys, tkey)
    return np.where(rkey >= 0, np.argsort(tkey)[rkey], -1)


def hom_module(ma: CpModule, nb: CpModule, limit: int = 1_000_000) -> HomModule:
    """Carrier: every quadratic pair map (M,A) → (N,B), under pointwise
    (f+g)(m) = f(m)+g(m), (f·r)(m) = f(m)·r, ([f,g]·x)(m) = [f(m),g(m)]·x.
    Distinguished subgroup: maps with image in B killing A.  Each
    pointwise result must be a map of the carrier: the laws
    ``pointwise negation`` over f, ``pointwise sum`` over (f, g),
    ``pointwise bracket`` over (f, g, x) and ``pointwise scalar multiple``
    over (f, r).  The result must itself pass the full pair-module
    verification — the capstone closure theorem, machine-checked on every
    call."""
    maps = enumerate_cp_quadratic(ma, nb, limit=limit)
    tables = np.stack([f.table for f in maps])
    k, ne, nee = len(tables), ma.sr.re.order, ma.sr.ree.order
    check_cap("hom-module carrier", k, get_config().cap_group)
    # every pointwise result as a row of N-values, located among the tables
    # (-1 where it is none of them, refused by the laws below)
    fi, fj = tables[:, None, :], tables[None, :, :]
    xs, rs = np.arange(nee)[:, None], np.arange(ne)[:, None]
    neg = _row_ranks(tables, nb.group.neg[tables], nb.nm)
    add = _row_ranks(tables, nb.group.add[fi, fj], nb.nm)
    bracket = _row_ranks(tables, nb.bracket[fi[:, :, None], fj[:, :, None], xs], nb.nm)
    scal = _row_ranks(tables, nb.scal[tables[:, None, :], rs], nb.nm)
    run_laws([
        ("pointwise negation", (k,), lambda i: (neg[i] >= 0, 1)),
        ("pointwise sum", (k, k), lambda i, j: (add[i, j] >= 0, 1)),
        ("pointwise bracket", (k, k, nee), lambda i, j, x: (bracket[i, j, x] >= 0, 1)),
        ("pointwise scalar multiple", (k, ne), lambda i, r: (scal[i, r] >= 0, 1)),
    ]).require(ConsistencyError, "carrier of quadratic maps")
    group = FiniteGroup(add, neg)
    in_b = nb.amask[tables].all(axis=1)
    aset = np.flatnonzero(in_b & (tables[:, list(ma.aset)] == 0).all(axis=1))
    hom = HomModule(ma.sr, group, scal, bracket, aset)
    hom.dom_pair = ma
    hom.cod_pair = nb
    hom.maps = tuple(maps)
    verify_cp_module(hom).require(ConsistencyError, "hom module (closure theorem)")
    return hom


def _tables(hom: HomModule) -> np.ndarray:
    """The tables of the carrier's maps, one row per element."""
    return np.stack([f.table for f in hom.maps])


def _in_carrier(table: np.ndarray) -> tuple:
    """The law ``in-carrier``: each entry of a ``_row_ranks`` result names
    a map of the target carrier (-1 names none)."""
    return ("in-carrier", (len(table),), lambda i: (table[i] >= 0, 1))


def pullback(f: QuadCertificate, lc: CpModule, limit: int = 1_000_000) -> MapTable:
    """Precomposition h ↦ h∘f between hom modules, certified linear: the
    laws ``in-carrier`` and those of ``modules._cp_linear_laws``."""
    if f.kind != "cp":
        raise PreconditionUnmet("pullback needs a pair certificate")
    f.verdict.require(PreconditionUnmet, "pullback certificate")
    if not certificate_valid(f):
        raise CertificateInvalid("certificate does not re-verify from scratch")
    hom_src = hom_module(f.map.cod, lc, limit=limit)
    hom_dst = hom_module(f.map.dom, lc, limit=limit)
    table = _row_ranks(_tables(hom_dst), _tables(hom_src)[:, f.map.table], lc.nm)
    run_laws([_in_carrier(table), *_cp_linear_laws(table, hom_src, hom_dst)]).require(
        ConsistencyError, "precomposition by a quadratic pair map")
    return MapTable(hom_src, hom_dst, table)


def pushforward(g: QuadCertificate, ma: CpModule, limit: int = 1_000_000) -> QuadCertificate:
    """Postcomposition f ↦ g∘f between hom modules: the law ``in-carrier``,
    then certified quadratic, with the scalar-defect identity as the law
    ``(g_*)_(r) = g_(r)∘f`` over (r, f, m)."""
    if g.kind != "cp":
        raise PreconditionUnmet("pushforward needs a pair certificate")
    g.verdict.require(PreconditionUnmet, "pushforward certificate")
    if not certificate_valid(g):
        raise CertificateInvalid("certificate does not re-verify from scratch")
    hom_src = hom_module(ma, g.map.dom, limit=limit)
    hom_dst = hom_module(ma, g.map.cod, limit=limit)
    src, dst = _tables(hom_src), _tables(hom_dst)
    table = _row_ranks(dst, g.map.table[src], g.map.cod.nm)
    what = "postcomposition by a quadratic pair map"
    run_laws([_in_carrier(table)]).require(ConsistencyError, what)
    out = is_cp_quadratic(MapTable(hom_src, hom_dst, table))
    out.verdict.require(ConsistencyError, what)
    # (g_*)_(r) sends f_i to the map dst[scalar[r, i]]; its value at m is g_(r)(f_i(m))
    scalar = out.defects.scalar
    run_laws([("(g_*)_(r) = g_(r)∘f", (ma.sr.re.order, len(src), ma.nm),
               lambda r, i, m: (dst[scalar[r, i], m], g.defects.scalar[r, src[i, m]]))]).require(
        ConsistencyError, what)
    return out


def promote_to_cp(f: MapTable) -> QuadCertificate:
    """From a plain quadratic f: M → N to the pair map
    (M, [M,M]_R) → (im_R f, Z_R(im_R f)), certified quadratic."""
    is_bhp_quadratic(f).verdict.require(CertificateInvalid, "map to promote")
    dom_pair = CpModule(f.dom.sr, f.dom.group, f.dom.scal, f.dom.bracket, derived_module(f.dom))
    image = generated_submodule(f.cod, {int(v) for v in f.table})
    sub, embed = submodule_module(f.cod, image)
    index = np.full(f.cod.nm, -1, dtype=np.int64)
    index[embed] = np.arange(len(image))
    cod_pair = CpModule(sub.sr, sub.group, sub.scal, sub.bracket, r_center(sub))
    out = is_cp_quadratic(MapTable(dom_pair, cod_pair, index[f.table]))
    out.verdict.require(ConsistencyError, "promoted pair map")
    return out


def factorization_check(f: MapTable) -> Verdict:
    """The pointwise factorization properties of a quadratic pair map:
    d_f descends to a bilinear B-valued form on classes mod A, and f_(r)
    descends to a degree-2 form with bilinear polarization.  This is the
    factorization route of ``is_cp_quadratic``, read off its certificate."""
    cert = is_cp_quadratic(_pair_map(f, "factorization check needs CP modules on both sides"))
    cert.verdict.require(PreconditionUnmet, "map for the factorization check")
    return dict(cert.routes)["factorization"]
