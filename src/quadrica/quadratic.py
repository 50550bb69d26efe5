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
from .groups import FiniteGroup, generators
from .modules import (
    BhpModule,
    CpModule,
    derived_module,
    ensure_module_verified,
    generated_submodule,
    gr,
    is_cp_linear,
    r_center,
    submodule_module,
    verify_cp_module,
)
from .squarering import is_commutative
from .verdict import Sweeps, Verdict, law_failures, passing_candidates, run_laws

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
    """A total map between module carriers, as a table of element indices."""

    __slots__ = ("dom", "cod", "table")

    def __init__(self, dom: BhpModule, cod: BhpModule, table):
        if dom.sr != cod.sr:
            raise PreconditionUnmet("domain and codomain live over different square rings")
        self.dom = dom
        self.cod = cod
        self.table = np.ascontiguousarray(table, dtype=np.int64)
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


def _require_commutative(mod: BhpModule) -> None:
    if not is_commutative(mod.sr):
        raise NonCommutativeRing("quadratic-map calculus requires a commutative square ring")


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
    return DefectBundle(d=stacks.d[0], scalar=stacks.scalar[0], bracket=stacks.bracket[0])


def _checked_map(f: MapTable) -> None:
    """The preconditions of every decision about f."""
    ensure_module_verified(f.dom)
    ensure_module_verified(f.cod)
    _require_commutative(f.dom)


def _one_map(f: MapTable) -> tuple[np.ndarray, DefectBundle]:
    """The stack of the single map f and its defect stacks."""
    _checked_map(f)
    T = f.table[None]
    return T, _defect_stacks(f.dom, f.cod, T)


def _map_stack(f: MapTable) -> np.ndarray:
    """The stack [f; f_(0); …; f_(ne−1)] of f over its scalar defects: the
    candidates of one decision (see ``_decide``)."""
    _checked_map(f)
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


def _zero(c: _Clauses):
    T = c.T
    return [((1,), lambda q, i: (T[q, i * 0], np.zeros_like(i)))]


def _additive_brackets(c: _Clauses):
    """m ↦ [f(m),f(n)]·x is additive: relation 1(a), the first clause of BHPc1."""
    dom, cod = c.dom, c.cod
    nm, nee = dom.nm, dom.sr.ree.order
    madd, nadd = dom.group.add, cod.group.add
    B = c.get(_image_brackets)
    return [((nm, nm, nm, nee),
             lambda q, m, m2, n, x: (B[q, madd[m, m2], n, x], nadd[B[q, m, n, x], B[q, m2, n, x]]))]


def _relation_laws(c: _Clauses):
    """The eight-relation characterization of a quadratic map."""
    dom, cod, T = c.dom, c.cod, c.T
    nm, ne, nee = dom.nm, dom.sr.re.order, dom.sr.ree.order
    madd, dscal, dbr = dom.group.add, dom.scal, dom.bracket
    nadd, nsub, nneg, nscal = cod.group.add, cod.group.sub, cod.group.neg, cod.scal
    mul, h = dom.sr.re.mul, dom.sr.h
    B = c.get(_image_brackets)

    def grp_comm(a, b):
        return nadd[nadd[nadd[a, b], nneg[a]], nneg[b]]

    return [
        *c.laws("zero", _zero),
        *c.laws("1(a)", _additive_brackets),
        (
            "2(b)",
            (nm, nm, ne, nee),
            lambda q, m, n, r, x: (B[q, dscal[m, r], n, x], nscal[B[q, m, n, x], r]),
        ),
        (
            "3(c)",
            (nm, nm, nee, nm, nee),
            lambda q, m, m2, x, n, y: (B[q, dbr[m, m2, x], n, y], np.zeros_like(m + m2 + n)),
        ),
        (
            "4(d)",
            (nm, nm, nm),
            lambda q, m, m2, m3: (
                nadd[nadd[nadd[T[q, madd[madd[m, m2], m3]], T[q, m]], T[q, m2]], T[q, m3]],
                nsub(
                    nadd[nadd[T[q, madd[m, m2]], T[q, madd[m2, m3]]], T[q, madd[m, m3]]],
                    grp_comm(T[q, m2], T[q, madd[m, m3]]),
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


def _bilinear_clauses(phi_dims: tuple, phi, dom: BhpModule, cod: BhpModule):
    """phi(q, extra_dims..., m, m') must be linear in each of m, m'.  ``phi``
    indexes as phi[(q, *extra, m, m')]; extra dimensions come first.  Six
    clauses ``(dims, law, reduced)``, in this order: ``_first_add``,
    ``_second_add``, ``_first_scal``, ``_second_scal``, ``_first_br``,
    ``_second_br``.

    Four of the six laws carry a reduced form over G = ``generators(M)``
    (G = {0} when M = 0, so that G is never empty), by the lemma in the
    docstring of ``modules.verify_bhp_module``: a map ψ with
    ψ(m + g) = ψ(m) + ψ(g) for every m ∈ M and g ∈ G is a homomorphism, and
    two homomorphisms that agree on G are equal.

    * ``_first_add`` with m' ∈ G and ``_second_add`` with the added element
      in G: the lemma for m ↦ φ(m, n) and for n ↦ φ(m, n), with no other
      law needed.
    * ``_first_br``, φ([m,m']·x, n) = [φ(m,n), φ(m',n)]·x, on m, m' ∈ G with
      x and n swept in full, once both additivity laws of φ hold.  In m,
      the left side is m ↦ [m,m']·x, additive by MC5 of M, followed by
      φ(·, n), additive by ``_first_add``; the right side is m ↦ φ(m,n),
      additive, followed by [·, φ(m',n)]·x, additive by MC5 of N.  The same
      holds in m'.  So for m' ∈ G the two sides agree on G as maps of m,
      hence for every m; then for each m they agree on G as maps of m',
      hence for every m'.  ``_second_br`` is the same argument for
      φ(n, ·), with ``_second_add``.  n is swept in full:
      [φ(m,n), φ(m',n)]·x is not additive in n.

    Each reduced form sweeps a subset of its law's cells.  The scalar laws
    keep their full sweeps."""
    nm, ne, nee = dom.nm, dom.sr.re.order, dom.sr.ree.order
    madd, dscal, dbr = dom.group.add, dom.scal, dom.bracket
    nadd, nscal, nbr = cod.group.add, cod.scal, cod.bracket
    G = generators(dom.group) or (0,)
    k = phi_dims  # leading extra dims: () for d, (nee,) for the bracket defects
    return [
        (k + (nm, nm, nm), lambda *a: _first_add(a, phi, madd, nadd), k + (nm, G, nm)),
        (k + (nm, nm, nm), lambda *a: _second_add(a, phi, madd, nadd), k + (nm, nm, G)),
        (k + (nm, ne, nm), lambda *a: _first_scal(a, phi, dscal, nscal), None),
        (k + (nm, ne, nm), lambda *a: _second_scal(a, phi, dscal, nscal), None),
        (k + (nm, nm, nee, nm), lambda *a: _first_br(a, phi, dbr, nbr), k + (G, G, nee, nm)),
        (k + (nm, nm, nee, nm), lambda *a: _second_br(a, phi, dbr, nbr), k + (G, G, nee, nm)),
    ]


# In the six helpers below ``extra`` starts with the candidate index q.


def _first_add(args, phi, madd, nadd):
    *extra, m, m2, n = args
    return phi[(*extra, madd[m, m2], n)], nadd[phi[(*extra, m, n)], phi[(*extra, m2, n)]]


def _second_add(args, phi, madd, nadd):
    *extra, m, n, n2 = args
    return phi[(*extra, m, madd[n, n2])], nadd[phi[(*extra, m, n)], phi[(*extra, m, n2)]]


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


def _polarization(c: _Clauses) -> np.ndarray:
    """pol[q,r,m,n] = f_(r)(m+n) − f_(r)(n) − f_(r)(m)."""
    madd, nsub, scalar = c.dom.group.add, c.cod.group.sub, c.D.scalar
    return nsub(nsub(scalar[:, :, madd], scalar[:, :, None, :]), scalar[:, :, :, None])


def _bilinear(c: _Clauses, defect: str):
    """``_bilinear_clauses`` of d_f ("d"), of the f_[x] ("bracket") or of the
    polarizations of the f_(r) ("pol")."""
    dom = c.dom
    if defect == "d":
        return _bilinear_clauses((), c.D.d, dom, c.cod)
    if defect == "bracket":
        return _bilinear_clauses((dom.sr.ree.order,), c.D.bracket, dom, c.cod)
    return _bilinear_clauses((dom.sr.re.order,), c.get(_polarization), dom, c.cod)


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
        ((nm, nm), lambda q, m, n: (central[q, d[q, m, n]], np.ones_like(m + n))),
        ((ne, nm), lambda q, r, m: (central[q, scalar[q, r, m]], np.ones_like(r + m))),
        ((nee, nm, nm), lambda q, x, m, n: (central[q, bracket[q, x, m, n]], np.ones_like(x + m))),
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
    dom, cod = c.dom, c.cod
    nm, ne, nee = dom.nm, dom.sr.re.order, dom.sr.ree.order
    dscal, dbr = dom.scal, dom.bracket
    nscal, nbr = cod.scal, cod.bracket
    B, scalar = c.get(_image_brackets), c.D.scalar
    return [
        *c.laws("BHPc1", _additive_brackets),
        (
            "BHPc1",
            (nm, ne, nm, nee),
            lambda q, m, r, n, x: (B[q, dscal[m, r], n, x], nscal[B[q, m, n, x], r]),
        ),
        (
            "BHPc1",
            (nm, nm, nee, nm, nee),
            lambda q, m, m2, y, n, x: (
                B[q, dbr[m, m2, y], n, x],
                nbr[B[q, m, n, x], B[q, m2, n, x], y],
            ),
        ),
        *c.laws("BHPc2", _bilinear, "d"),
        *c.laws("BHPc3", _homogeneity),
        ("BHPc4", (ne, derived_module(dom)),
         lambda q, r, m: (scalar[q, r, m], np.zeros_like(r + m))),
    ]


def _membership(c: _Clauses):
    """f(A) and the images of d_f, the f_(r) and the f_[x] lie in B, in this
    order."""
    dom, T, bmask = c.dom, c.T, c.cod.amask
    nm, ne, nee = dom.nm, dom.sr.re.order, dom.sr.ree.order
    d, scalar, bracket = c.D.d, c.D.scalar, c.D.bracket
    return [
        ((dom.aset,), lambda q, a: (bmask[T[q, a]], np.ones_like(a))),
        ((nm, nm), lambda q, m, n: (bmask[d[q, m, n]], np.ones_like(m + n))),
        ((ne, nm), lambda q, r, m: (bmask[scalar[q, r, m]], np.ones_like(r + m))),
        ((nee, nm, nm), lambda q, x, m, n: (bmask[bracket[q, x, m, n]], np.ones_like(x + m))),
    ]


def _vanishing(c: _Clauses):
    """d_f(M,A) = d_f(A,M) = 0, f_(r)(A) = 0, then f_[x](M,A) = f_[x](A,M) = 0."""
    dom = c.dom
    nm, ne, nee = dom.nm, dom.sr.re.order, dom.sr.ree.order
    A = dom.aset
    d, scalar, bracket = c.D.d, c.D.scalar, c.D.bracket
    return [
        ((nm, A), lambda q, m, a: (d[q, m, a], np.zeros_like(m + a))),
        ((A, nm), lambda q, a, m: (d[q, a, m], np.zeros_like(m + a))),
        ((ne, A), lambda q, r, a: (scalar[q, r, a], np.zeros_like(r + a))),
        ((nee, nm, A), lambda q, x, m, a: (bracket[q, x, m, a], np.zeros_like(x + m + a))),
        ((nee, A, nm), lambda q, x, a, m: (bracket[q, x, a, m], np.zeros_like(x + m + a))),
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
    what the sweeps found.  When f passes, every route must pass every
    f_(r) too, and for pair maps the graded maps of f and of every f_(r)
    are checked as one stack; a failure raises ConsistencyError naming
    the first law it fails, primary route first."""
    dom, cod = f.dom, f.cod
    stacks = _defect_stacks(dom, cod, T)
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
        return QuadCertificate(kind=kind, map=f, defects=_first(stacks), verdict=verdict,
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
    return QuadCertificate(kind=kind, map=f, defects=_first(stacks), verdict=_passed(primary),
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
    one map would: fbar well defined, f2 into B, then linearity."""
    gdom, gcod = gr(dom), gr(cod)
    reps = np.array(
        [int(np.flatnonzero(gdom.proj1 == c)[0]) for c in range(gdom.deg1.order)],
        dtype=np.int64,
    )
    fbar = gcod.proj1[T[:, reps]]
    index_b = np.full(cod.nm, -1, dtype=np.int64)
    index_b[gcod.embed2] = np.arange(len(gcod.embed2))
    f2 = index_b[T[:, gdom.embed2]]  # -1 where T[q] leaves B on A
    k1d, k2d, kbar = gdom.deg1.order, gdom.deg2.order, gdom.operad.op1.order
    laws = [
        ("fbar-well-defined", (dom.nm,),
         lambda q, m: (gcod.proj1[T[q, m]], fbar[q, gdom.proj1[m]])),
        ("fbar-additive", (k1d, k1d),
         lambda q, a, b: (fbar[q, gdom.deg1.group.add[a, b]],
                          gcod.deg1.group.add[fbar[q, a], fbar[q, b]])),
        ("fbar-equivariant", (k1d, kbar),
         lambda q, a, r: (fbar[q, gdom.deg1.scal[a, r]], gcod.deg1.scal[fbar[q, a], r])),
        ("f2-additive", (k2d, k2d),
         lambda q, a, b: (f2[q, gdom.deg2.group.add[a, b]],
                          gcod.deg2.group.add[f2[q, a], f2[q, b]])),
        ("f2-equivariant", (k2d, kbar),
         lambda q, a, r: (f2[q, gdom.deg2.scal[a, r]], gcod.deg2.scal[f2[q, a], r])),
    ]
    ok = (f2 >= 0).all(axis=1) & passing_candidates(laws, len(T))
    if not ok.all():
        q = int(np.argmin(ok))
        well_defined, *linear = _single(laws, q)
        bad = law_failures(*well_defined)
        if bad:
            raise ConsistencyError(f"induced degree-1 map ill-defined at {bad[0].witness}")
        if (f2[q] < 0).any():
            raise ConsistencyError("induced degree-2 map leaves B")
        first = run_laws(linear).failures[0]
        raise ConsistencyError(f"induced graded map violates {first.law} at {first.witness}")
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
    if cert.kind != "cp" or not cert.passed:
        raise PreconditionUnmet("needs a passing pair certificate")
    out = is_bhp_quadratic(MapTable(cert.map.dom, cert.map.cod, cert.map.table))
    if not out.passed:
        raise ConsistencyError(
            f"pair-quadratic map fails the plain decision at {out.verdict.failures[0].law}"
        )
    return out


# ---------------------------------------------------------------------------
# three-defects identity


def three_defects_check(f: MapTable) -> Verdict:
    """d_{f_(r)}(m,m') = f_[H(r)](m,m') + d_f(m,m')·(r²−r), plus its r=2
    specialization d_{f_(2)}(m,m') = d_f(m,m') + d_f(m',m).  Requires the
    centrality and bilinearity clauses to hold first."""
    T, stacks = _one_map(f)
    gate = run_laws(_single(_central_bilinear_laws(_Clauses(f.dom, f.cod, T, stacks))))
    if not gate.passed:
        first = gate.failures[0]
        raise PreconditionUnmet(
            f"three-defects identity needs central/bilinear defects; "
            f"{first.law} fails at {first.witness}"
        )
    bundle = _first(stacks)
    dom, cod = f.dom, f.cod
    nm, ne = dom.nm, dom.sr.re.order
    madd = dom.group.add
    nadd, nsub, nscal = cod.group.add, cod.group.sub, cod.scal
    d, scalar, bracket = bundle.d, bundle.scalar, bundle.bracket
    h, mul, rsub = dom.sr.h, dom.sr.re.mul, dom.sr.re.group.sub
    two = dom.sr.two

    def d_fr(r, m, m2):
        return nsub(nsub(scalar[r, madd[m, m2]], scalar[r, m2]), scalar[r, m])

    laws = [
        (
            "three-defects",
            (ne, nm, nm),
            lambda r, m, m2: (
                d_fr(r, m, m2),
                nadd[bracket[h[r], m, m2], nscal[d[m, m2], rsub(mul[r, r], r)]],
            ),
        ),
        (
            "three-defects-r2",
            (nm, nm),
            lambda m, m2: (d_fr(two + np.zeros_like(m), m, m2), nadd[d[m, m2], d[m2, m]]),
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
    for cert in (f, g):
        if cert.kind != "cp":
            raise PreconditionUnmet("composition works on pair certificates")
        if not cert.passed:
            raise CertificateInvalid(f"input certificate fails {cert.failed_laws()}")
        if not certificate_valid(cert):
            raise CertificateInvalid("certificate does not re-verify from scratch")
    if f.map.cod != g.map.dom:
        raise NotComposable("codomain of f must be the domain of g (same pair)")
    F, G = f.map.table, g.map.table
    comp = MapTable(f.map.dom, g.map.cod, G[F])
    out = is_cp_quadratic(comp)
    if not out.passed:
        raise ConsistencyError(
            f"composite of quadratic pair maps fails {out.verdict.failures[0].law}"
        )
    ladd = g.map.cod.group.add
    df, dg, dc = f.defects, g.defects, out.defects
    checks = [
        ("composite additive defect", dc.d, ladd[G[df.d], dg.d[np.ix_(F, F)]]),
        ("composite scalar defects", dc.scalar, ladd[G[df.scalar], dg.scalar[:, F]]),
        (
            "composite bracket defects",
            dc.bracket,
            ladd[G[df.bracket], dg.bracket[:, F[:, None], F[None, :]]],
        ),
    ]
    for what, direct, closed in checks:
        if not np.array_equal(direct, closed):
            where = tuple(int(v) for v in np.argwhere(direct != closed)[0])
            raise ConsistencyError(f"{what} disagree with the closed form at {where}")
    return out


# ---------------------------------------------------------------------------
# enumeration and the Hom module


def _cp_constraint_schedule(ma: CpModule, nb: CpModule):
    """Constraints checkable as soon as their highest-indexed argument is
    assigned, used for depth-first pruning.  Everything here is a necessary
    condition (membership in B, vanishing on A) of the defining clauses."""
    nm, ne, nee = ma.nm, ma.sr.re.order, ma.sr.ree.order
    pairs: list[list[tuple[int, int, int]]] = [[] for _ in range(nm)]
    scals: list[list[tuple[int, int, int]]] = [[] for _ in range(nm)]
    bracks: list[list[tuple[int, int, int, int]]] = [[] for _ in range(nm)]
    for i in range(nm):
        for j in range(nm):
            s = int(ma.group.add[i, j])
            pairs[max(i, j, s)].append((i, j, s))
        for r in range(ne):
            j = int(ma.scal[i, r])
            scals[max(i, j)].append((i, r, j))
        for j in range(nm):
            for x in range(nee):
                b = int(ma.bracket[i, j, x])
                bracks[max(i, j, b)].append((i, j, x, b))
    return pairs, scals, bracks


def enumerate_cp_quadratic(ma: CpModule, nb: CpModule, limit: int = 1_000_000) -> list[MapTable]:
    """All quadratic pair maps (M,A) → (N,B), in lexicographic table order.

    The search is depth-first over tables with f(0) = 0, rejecting a
    partial table as soon as a membership or vanishing clause fails on the
    entries assigned so far.  It raises ``SearchSpaceTooLarge`` once it has
    visited more than ``limit`` partial tables.  The leaves then go through
    every route as one stack, with one defect build and the clauses that
    routes share swept once (``_Clauses``, ``verdict.Sweeps``); a route
    whose mask differs from the definition's raises ``ConsistencyError``.
    The induced graded maps of the accepted tables are verified linear as
    one stack."""
    if ma.sr != nb.sr:
        raise PreconditionUnmet("domain and codomain live over different square rings")
    ensure_module_verified(ma)
    ensure_module_verified(nb)
    _require_commutative(ma)
    nm, ncod = ma.nm, nb.nm
    pairs, scals, bracks = _cp_constraint_schedule(ma, nb)
    # the search reads single entries: Python lists index faster than arrays
    amask, bmask = ma.amask.tolist(), nb.amask.tolist()
    sub = nb.group.add[:, nb.group.neg].tolist()  # sub[a][b] = a − b
    nscal, nbr = nb.scal.tolist(), nb.bracket.tolist()
    F = [0] * nm
    found: list[list[int]] = []
    nodes = 0

    def ok_at(k: int) -> bool:
        for i, j, s in pairs[k]:
            dv = sub[sub[F[s]][F[j]]][F[i]]
            if not bmask[dv]:
                return False
            if (amask[i] or amask[j]) and dv != 0:
                return False
        for i, r, j in scals[k]:
            sv = sub[F[j]][nscal[F[i]][r]]
            if not bmask[sv]:
                return False
            if amask[i] and sv != 0:
                return False
        for i, j, x, b in bracks[k]:
            bv = sub[F[b]][nbr[F[i]][F[j]][x]]
            if not bmask[bv]:
                return False
            if (amask[i] or amask[j]) and bv != 0:
                return False
        return True

    def visit(k: int) -> None:
        """The node F[0..k]: checked, then extended if it passes."""
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise SearchSpaceTooLarge(limit)
        if not ok_at(k):
            return
        if k + 1 == nm:
            found.append(F.copy())
            return
        for v in range(ncod):
            F[k + 1] = v
            visit(k + 1)
        F[k + 1] = 0

    visit(0)
    tables = np.array(found, dtype=np.int64)  # the zero map passes every check
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
    ensure_module_verified(dom)
    ensure_module_verified(cod)
    _require_commutative(dom)
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


def _first_missing(neg, add, bracket, scal) -> str:
    """Which pointwise operation gives the first result outside the
    carrier, in the order of a cell-by-cell assembly: per map i, its
    negation, then per map j the sum and the brackets, then its scalar
    multiples."""
    for i in range(len(neg)):
        if neg[i] < 0:
            return "negation"
        for j in range(len(neg)):
            if add[i, j] < 0:
                return "sum"
            if (bracket[i, j] < 0).any():
                return "bracket"
        if (scal[i] < 0).any():
            return "scalar multiple"
    raise AssertionError("no result is outside the carrier")


def hom_module(ma: CpModule, nb: CpModule, limit: int = 1_000_000) -> HomModule:
    """Carrier: every quadratic pair map (M,A) → (N,B), under pointwise
    (f+g)(m) = f(m)+g(m), (f·r)(m) = f(m)·r, ([f,g]·x)(m) = [f(m),g(m)]·x.
    Distinguished subgroup: maps with image in B killing A.  The result
    must itself pass the full pair-module verification — the capstone
    closure theorem, machine-checked on every call."""
    maps = enumerate_cp_quadratic(ma, nb, limit=limit)
    tables = np.stack([f.table for f in maps])
    k = len(tables)
    check_cap("hom-module carrier", k, get_config().cap_group)
    # every pointwise result as a row of N-values, located among the tables
    fi, fj = tables[:, None, :], tables[None, :, :]
    xs = np.arange(ma.sr.ree.order)[:, None]
    rs = np.arange(ma.sr.re.order)[:, None]
    neg = _row_ranks(tables, nb.group.neg[tables], nb.nm)
    add = _row_ranks(tables, nb.group.add[fi, fj], nb.nm)
    bracket = _row_ranks(tables, nb.bracket[fi[:, :, None], fj[:, :, None], xs], nb.nm)
    scal = _row_ranks(tables, nb.scal[tables[:, None, :], rs], nb.nm)
    if min(t.min(initial=0) for t in (neg, add, bracket, scal)) < 0:
        what = _first_missing(neg, add, bracket, scal)
        raise ConsistencyError(f"pointwise {what} left the carrier of quadratic maps")
    group = FiniteGroup(add, neg)
    in_b = nb.amask[tables].all(axis=1)
    aset = np.flatnonzero(in_b & (tables[:, list(ma.aset)] == 0).all(axis=1))
    hom = HomModule(ma.sr, group, scal, bracket, aset)
    hom.dom_pair = ma
    hom.cod_pair = nb
    hom.maps = tuple(MapTable(ma, nb, t) for t in tables)
    verdict = verify_cp_module(hom)
    if not verdict.passed:
        first = verdict.failures[0]
        raise ConsistencyError(
            f"hom module fails {first.law} at {first.witness} — closure theorem violated"
        )
    return hom


def _tables(hom: HomModule) -> np.ndarray:
    """The tables of the carrier's maps, one row per element."""
    return np.stack([f.table for f in hom.maps])


def pullback(f: QuadCertificate, lc: CpModule, limit: int = 1_000_000) -> MapTable:
    """Precomposition h ↦ h∘f between hom modules, certified linear."""
    if f.kind != "cp" or not f.passed:
        raise PreconditionUnmet("pullback needs a passing pair certificate")
    if not certificate_valid(f):
        raise CertificateInvalid("certificate does not re-verify from scratch")
    hom_src = hom_module(f.map.cod, lc, limit=limit)
    hom_dst = hom_module(f.map.dom, lc, limit=limit)
    table = _row_ranks(_tables(hom_dst), _tables(hom_src)[:, f.map.table], lc.nm)
    if table.min() < 0:
        raise ConsistencyError("precomposition left the target hom carrier")
    out = MapTable(hom_src, hom_dst, table)
    if not is_cp_linear(table, hom_src, hom_dst):
        raise ConsistencyError("precomposition by a quadratic pair map is not linear")
    return out


def pushforward(g: QuadCertificate, ma: CpModule, limit: int = 1_000_000) -> QuadCertificate:
    """Postcomposition f ↦ g∘f between hom modules, certified quadratic,
    with the scalar-defect identity (g_*)_(r)(f) = g_(r)∘f cross-checked."""
    if g.kind != "cp" or not g.passed:
        raise PreconditionUnmet("pushforward needs a passing pair certificate")
    if not certificate_valid(g):
        raise CertificateInvalid("certificate does not re-verify from scratch")
    hom_src = hom_module(ma, g.map.dom, limit=limit)
    hom_dst = hom_module(ma, g.map.cod, limit=limit)
    table = _row_ranks(_tables(hom_dst), g.map.table[_tables(hom_src)], g.map.cod.nm)
    if table.min() < 0:
        raise ConsistencyError("postcomposition left the target hom carrier")
    out = is_cp_quadratic(MapTable(hom_src, hom_dst, table))
    if not out.passed:
        raise ConsistencyError("postcomposition by a quadratic pair map is not quadratic")
    gd = g.defects
    for r in range(ma.sr.re.order):
        for i, h in enumerate(hom_src.maps):
            expect = gd.scalar[r][h.table]
            got = hom_dst.maps[int(out.defects.scalar[r, i])].table
            if not np.array_equal(expect, got):
                raise ConsistencyError(
                    f"(g_*)_({r}) disagrees with g_({r})∘f at map {i}"
                )
    return out


def promote_to_cp(f: MapTable) -> QuadCertificate:
    """From a plain quadratic f: M → N to the pair map
    (M, [M,M]_R) → (im_R f, Z_R(im_R f)), certified quadratic."""
    base = is_bhp_quadratic(f)
    if not base.passed:
        raise CertificateInvalid(
            f"map is not quadratic: fails {base.verdict.failures[0].law}"
        )
    dom_pair = CpModule(f.dom.sr, f.dom.group, f.dom.scal, f.dom.bracket, derived_module(f.dom))
    image = generated_submodule(f.cod, {int(v) for v in f.table})
    sub, embed = submodule_module(f.cod, image)
    index = np.full(f.cod.nm, -1, dtype=np.int64)
    index[embed] = np.arange(len(image))
    cod_pair = CpModule(sub.sr, sub.group, sub.scal, sub.bracket, r_center(sub))
    out = is_cp_quadratic(MapTable(dom_pair, cod_pair, index[f.table]))
    if not out.passed:
        raise ConsistencyError(
            f"promoted pair map fails {out.verdict.failures[0].law}"
        )
    return out


def factorization_check(f: MapTable) -> Verdict:
    """The pointwise factorization properties of a quadratic pair map:
    d_f descends to a bilinear B-valued form on classes mod A, and f_(r)
    descends to a degree-2 form with bilinear polarization."""
    f = _pair_map(f, "factorization check needs CP modules on both sides")
    T, stacks = _one_map(f)
    c, sweeps = _Clauses(f.dom, f.cod, T, stacks), Sweeps(1)
    gate = run_laws(_cp_def_route_laws(c), sweeps=sweeps)
    if not gate.passed:
        first = gate.failures[0]
        raise PreconditionUnmet(
            f"factorization needs a quadratic pair map; {first.law} fails at {first.witness}"
        )
    return run_laws(_factorization_laws(c), sweeps=sweeps)
