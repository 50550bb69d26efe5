"""Loop-based reference deciders for quadratic maps.

This is an intentionally naive re-implementation of the defining clauses —
plain Python integers, nested lists, explicit nested loops, no shared code
with the vectorized engine — kept as an independent oracle the fast path is
tested against.  Do not "optimize" it; slowness and independence are the
point.
"""

from __future__ import annotations

__all__ = ["naive_cp_quadratic", "naive_bhp_quadratic"]


def _tables(mod):
    """A module's addition, negation, scalar action and bracket as lists."""
    add = [[int(v) for v in row] for row in mod.group.add]
    neg = [int(v) for v in mod.group.neg]
    scal = [[int(v) for v in row] for row in mod.scal]
    br = [[[int(v) for v in cell] for cell in row] for row in mod.bracket]
    return add, neg, scal, br


def _defects(dom, cod, table):
    """The defect families d_f(m,n), f_(r)(m) and f_[x](m,n) of the map
    ``table``, as functions."""
    madd, _, dscal, dbr = _tables(dom)
    nadd, nneg, nscal, nbr = _tables(cod)
    f = [int(v) for v in table]

    def sub(a: int, b: int) -> int:
        return nadd[a][nneg[b]]

    def d(m: int, n: int) -> int:
        return sub(sub(f[madd[m][n]], f[n]), f[m])

    def fr(r: int, m: int) -> int:
        return sub(f[dscal[m][r]], nscal[f[m]][r])

    def fx(x: int, m: int, n: int) -> int:
        return sub(f[dbr[m][n][x]], nbr[f[m]][f[n]][x])

    return d, fr, fx


def _defects_bilinear_and_homogeneous(dom, cod, d, fr, fx) -> bool:
    """d_f and every f_[x] linear in each slot (sums, scalar multiples and
    brackets), and every f_(r) homogeneous: f_(r)(m·s) = f_(r)(m)·s²."""
    madd, _, dscal, dbr = _tables(dom)
    nadd, _, nscal, nbr = _tables(cod)
    mul = [[int(v) for v in row] for row in dom.sr.re.mul]
    nm, ne, nee = len(madd), len(mul), dom.sr.ree.order

    forms = [d] + [lambda m, n, x=x: fx(x, m, n) for x in range(nee)]
    for phi in forms:
        for m in range(nm):
            for m2 in range(nm):
                for n in range(nm):
                    if phi(madd[m][m2], n) != nadd[phi(m, n)][phi(m2, n)]:
                        return False
                    if phi(n, madd[m][m2]) != nadd[phi(n, m)][phi(n, m2)]:
                        return False
                for r in range(ne):
                    if phi(dscal[m][r], m2) != nscal[phi(m, m2)][r]:
                        return False
                    if phi(m2, dscal[m][r]) != nscal[phi(m2, m)][r]:
                        return False
                for y in range(nee):
                    for n in range(nm):
                        if phi(dbr[m][m2][y], n) != nbr[phi(m, n)][phi(m2, n)][y]:
                            return False
                        if phi(n, dbr[m][m2][y]) != nbr[phi(n, m)][phi(n, m2)][y]:
                            return False

    for r in range(ne):
        for m in range(nm):
            for s in range(ne):
                if fr(r, dscal[m][s]) != nscal[fr(r, m)][mul[s][s]]:
                    return False
    return True


def _defect_values(nm, ne, nee, d, fr, fx):
    """Every value of every defect family."""
    out = set()
    for m in range(nm):
        for n in range(nm):
            out.add(d(m, n))
            out.update(fx(x, m, n) for x in range(nee))
        out.update(fr(r, m) for r in range(ne))
    return out


def naive_cp_quadratic(ma, nb, table) -> bool:
    """Decide whether ``table`` is a quadratic pair map (M,A) → (N,B):
    f(A) and all defect values in B, defects vanishing against A, the
    additive and bracket defects linear in each slot, and the scalar
    defects homogeneous of degree two."""
    f = [int(v) for v in table]
    nm, ne, nee = len(f), ma.sr.re.order, ma.sr.ree.order
    ain = set(int(a) for a in ma.aset)
    bin_ = set(int(b) for b in nb.aset)
    d, fr, fx = _defects(ma, nb, table)

    if nm and f[0] != 0:
        return False

    for a in ain:
        if f[a] not in bin_:
            return False

    if not _defect_values(nm, ne, nee, d, fr, fx) <= bin_:
        return False

    for m in range(nm):
        for n in range(nm):
            if (m in ain or n in ain) and d(m, n) != 0:
                return False
            for x in range(nee):
                if (m in ain or n in ain) and fx(x, m, n) != 0:
                    return False
        for r in range(ne):
            if m in ain and fr(r, m) != 0:
                return False

    return _defects_bilinear_and_homogeneous(ma, nb, d, fr, fx)


def naive_bhp_quadratic(dom, cod, table) -> bool:
    """Decide whether ``table`` is a quadratic map M → N: every defect value
    lies in the submodule S generated by the image of f and is central
    there ([v,s]·x = [s,v]·x = 0 for s in S), the additive and bracket
    defects are linear in each slot, and the scalar defects are homogeneous
    of degree two."""
    nadd, nneg, nscal, nbr = _tables(cod)
    f = [int(v) for v in table]
    nm, ne, nee = len(f), dom.sr.re.order, dom.sr.ree.order

    # S: the least subset holding 0 and f(M), closed under +, −, ·r and [,]·x
    image = {0} | set(f)
    grew = True
    while grew:
        grew = False
        for a in list(image):
            new = {nneg[a]} | set(nscal[a])
            for b in list(image):
                new.add(nadd[a][b])
                new.update(nbr[a][b])
            if not new <= image:
                image |= new
                grew = True

    d, fr, fx = _defects(dom, cod, table)
    for v in _defect_values(nm, ne, nee, d, fr, fx):
        if v not in image:
            return False
        for s in image:
            for x in range(nee):
                if nbr[v][s][x] != 0 or nbr[s][v][x] != 0:
                    return False

    return _defects_bilinear_and_homogeneous(dom, cod, d, fr, fx)
