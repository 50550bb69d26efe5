"""Complete censuses of small modules and pairs over a fixed square ring.

Completeness argument for ``module_census``: every module table is pinned
down by finitely many generator values, because the axioms force

  * ``[m,n]·x`` biadditive in (m,n) and additive in x with ``[m,n]·0 = 0``,
    hence determined by its values on carrier generators and R_ee generators;
  * ``m·r`` additive in r with ``m·1 = m``, hence determined on an additive
    basis of R_e; when the non-unit basis vector is P(x0), the value there is
    forced to ``[m,m]·x0``.

So enumerating all generator assignments and filtering with the full verifier
yields exactly the modules with the chosen carrier — nothing can be missed,
and nothing invalid survives.  Carriers run over all abelian groups of order
≤ max_order; invalid carriers (wrong exponent for the ring) are generated
anyway and rejected by the verifier rather than excluded by hand.
"""

from __future__ import annotations

import itertools

import numpy as np

from quadrica.groups import FiniteGroup, cyclic, direct_product
from quadrica.modules import BhpModule, CpModule, verify_bhp_module, verify_cp_module
from quadrica.squarering import SquareRing


def abelian_carriers(max_order: int = 4):
    """All abelian groups of order ≤ max_order with their generator data:
    (group, generators, exponent vector per element)."""
    assert max_order <= 4, "carrier list is hand-rolled for tiny orders"
    out = []
    for n in (1, 2, 3, 4):
        if n > max_order:
            continue
        g = cyclic(n)
        gens = [] if n == 1 else [1]
        vecs = [(i,) if gens else () for i in range(n)]
        out.append((g, gens, vecs))
    if max_order >= 4:
        g = direct_product(cyclic(2), cyclic(2))
        # index a*2 + b  <->  exponent vector (a, b)
        out.append((g, [2, 1], [(i // 2, i % 2) for i in range(4)]))
    return out


def _ring_basis(sr: SquareRing):
    """(one, v, decomposition) with every r = a·one + b·v uniquely, v possibly
    absent (cyclic R_e).  Raises if R_e does not split this way."""
    re = sr.re
    ne = re.order
    add = re.add
    one = int(re.one)
    span = {0}
    cur = 0
    for _ in range(ne):
        cur = int(add[cur, one])
        span.add(cur)
    if len(span) == ne:
        coords = {}
        cur = 0
        for a in range(ne):
            coords[cur] = (a, 0)
            cur = int(add[cur, one])
        return one, None, coords
    v = next(i for i in range(ne) if i not in span)
    coords = {}
    for a in range(ne):
        for b in range(ne):
            r = 0
            for _ in range(a):
                r = int(add[r, one])
            for _ in range(b):
                r = int(add[r, v])
            coords.setdefault(r, (a, b))
    if len(coords) != ne:
        raise AssertionError("R_e is not generated by the unit and one extra element")
    return one, v, coords


def _bracket_from_gens(g: FiniteGroup, vecs, gen_count, nee, assignment):
    """Biadditive + x-additive extension of generator values.
    assignment[(i, j)] = value at generators i, j and the R_ee generator
    (R_ee of the census rings is trivial or Z/2, so there is at most one)."""
    assert nee <= 2, "x-additive extension below assumes R_ee is trivial or Z/2"
    nm = g.order
    bracket = np.zeros((nm, nm, nee), dtype=np.int64)
    for m in range(nm):
        for n in range(nm):
            for x in range(1, nee):
                total = 0
                for i in range(gen_count):
                    for j in range(gen_count):
                        reps = vecs[m][i] * vecs[n][j] * x
                        total = int(g.add[total, g.repeat(assignment[(i, j)], reps)])
                bracket[m, n, x] = total
    return bracket


def module_candidates(sr: SquareRing, max_order: int = 4):
    """Every candidate module table over sr with carrier order ≤ max_order,
    verified or not (see the completeness argument above)."""
    nee = sr.ree.order
    one, v, coords = _ring_basis(sr)
    im_p = {int(p) for p in sr.p}
    x0 = None
    if v is not None:
        for x in range(nee):
            if int(sr.p[x]) == v:
                x0 = x
                break
        if x0 is None:
            raise AssertionError("extra basis vector is not P(x0); census rule missing")
    for g, gens, vecs in abelian_carriers(max_order):
        nm = g.order
        gen_count = len(gens)
        pairs = list(itertools.product(range(gen_count), repeat=2))
        if nee == 1:
            assignments = [{pair: 0 for pair in pairs}]
        else:
            assignments = [
                dict(zip(pairs, vals))
                for vals in itertools.product(range(nm), repeat=len(pairs))
            ]
        for assignment in assignments:
            bracket = _bracket_from_gens(g, vecs, gen_count, nee, assignment)
            # scal: forced on <one>; on v (if present) forced to [m,m]·x0
            scal = np.zeros((nm, sr.re.order), dtype=np.int64)
            ok = True
            for r, (a, b) in coords.items():
                for m in range(nm):
                    val = g.repeat(m, a)
                    if b:
                        if x0 is None:
                            ok = False
                            break
                        w = bracket[m, m, x0]
                        val = int(g.add[val, g.repeat(int(w), b)])
                    scal[m, r] = val
                if not ok:
                    break
            if not ok:
                continue
            yield BhpModule(sr, g, scal, bracket)


def module_census(sr: SquareRing, max_order: int = 4) -> list[BhpModule]:
    """Every module over sr with carrier order ≤ max_order, one per table."""
    return [m for m in module_candidates(sr, max_order) if verify_bhp_module(m).passed]


def pair_candidates(mod: BhpModule):
    """mod with each subgroup containing 0 as its distinguished part."""
    nm = mod.nm
    add, neg = mod.group.add, mod.group.neg
    members = list(range(1, nm))
    for k in range(nm):
        for rest in itertools.combinations(members, k):
            aset = (0,) + rest
            inset = set(aset)
            if any(int(add[a, b]) not in inset for a in aset for b in aset):
                continue
            if any(int(neg[a]) not in inset for a in aset):
                continue
            yield CpModule(mod.sr, mod.group, mod.scal, mod.bracket, aset)


def pair_census(mod: BhpModule) -> list[CpModule]:
    """Every distinguished subgroup making mod a verified pair module."""
    return [p for p in pair_candidates(mod) if verify_cp_module(p).passed]


def all_tables(dom_order: int, cod_order: int) -> np.ndarray:
    """Every map table dom → cod, in lexicographic order."""
    return np.array(
        list(itertools.product(range(cod_order), repeat=dom_order)), dtype=np.int64
    ).reshape(-1, dom_order)
