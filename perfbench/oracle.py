"""An independent check of quadratic maps, written as plain loops from the
definitions.

It reads only the operation tables of the two modules (group law, inverse,
scalar action, bracket, distinguished subgroup) and of the ring's
multiplication, and evaluates every clause at every argument:

* the three defects, ``d_f(m,m') = f(m+m') - f(m') - f(m)``,
  ``f_(r)(m) = f(m·r) - f(m)·r`` and ``f_[x](m,m') = f([m,m']·x) - [f(m),f(m')]·x``;
* bilinearity of ``d_f`` and of every ``f_[x]``: each is linear in each slot,
  that is additive, equivariant for ``·r`` and for ``[-,-]·x``;
* homogeneity ``f_(r)(m·s) = f_(r)(m)·s²``;
* for a pair map (M,A) -> (N,B): ``f(0) = 0``; ``f(A)`` and the values of all
  three defects lie in B; ``d_f`` and ``f_[x]`` vanish when either slot lies
  in A, and ``f_(r)`` vanishes on A;
* for a plain map: the defect values are central in the submodule generated
  by the image of f.

Nothing here imports the library's deciders; a disagreement with them is a
fault in one of the two.
"""

from __future__ import annotations


class Tables:
    """One module's tables as nested lists."""

    __slots__ = ("nm", "ne", "nee", "add", "neg", "scal", "br", "brx", "aset", "inb", "sq")

    def __init__(self, mod):
        self.nm, self.ne, self.nee = mod.nm, mod.sr.re.order, mod.sr.ree.order
        self.add = mod.group.add.tolist()
        self.neg = mod.group.neg.tolist()
        self.scal = mod.scal.tolist()
        self.br = mod.bracket.tolist()
        # brx[x][a][b] = [a,b]·x, the layout the inner loops want
        self.brx = mod.bracket.transpose(2, 0, 1).tolist()
        mul = mod.sr.re.mul.tolist()
        self.sq = [mul[s][s] for s in range(self.ne)]
        aset = getattr(mod, "aset", None)
        self.aset = list(aset) if aset is not None else None
        self.inb = [False] * self.nm
        for a in self.aset or ():
            self.inb[a] = True


def _sub(t: Tables, a: int, b: int) -> int:
    return t.add[a][t.neg[b]]


def defects(F, M: Tables, N: Tables):
    """(d, sd, bd) with d[m][n], sd[r][m] and bd[x][m][n]."""
    R = range(M.nm)
    d = [[_sub(N, _sub(N, F[M.add[m][n]], F[n]), F[m]) for n in R] for m in R]
    sd = [[_sub(N, F[M.scal[m][r]], N.scal[F[m]][r]) for m in R] for r in range(M.ne)]
    bd = [[[_sub(N, F[M.br[m][n][x]], N.br[F[m]][F[n]][x]) for n in R] for m in R]
          for x in range(M.nee)]
    return d, sd, bd


def _linear_in_each_slot(phi, M: Tables, N: Tables):
    """First violated instance of slot-wise linearity of phi, or None."""
    R = range(M.nm)
    nadd, nscal = N.add, N.scal
    for m in R:
        pm = phi[m]
        for m2 in R:
            pm2, ps = phi[m2], phi[M.add[m][m2]]
            for n in R:
                if ps[n] != nadd[pm[n]][pm2[n]]:
                    return ("additive-1", m, m2, n)
                if phi[n][M.add[m][m2]] != nadd[phi[n][m]][phi[n][m2]]:
                    return ("additive-2", m, m2, n)
    for m in R:
        for r in range(M.ne):
            mr = M.scal[m][r]
            for n in R:
                if phi[mr][n] != nscal[phi[m][n]][r]:
                    return ("scalar-1", m, r, n)
                if phi[n][mr] != nscal[phi[n][m]][r]:
                    return ("scalar-2", m, r, n)
    for x in range(M.nee):
        nbr = N.brx[x]
        for m in R:
            pm = phi[m]
            for m2 in R:
                pm2 = phi[m2]
                b = M.br[m][m2][x]
                pb = phi[b]
                for n in R:
                    if pb[n] != nbr[pm[n]][pm2[n]]:
                        return ("bracket-1", m, m2, x, n)
                    pn = phi[n]
                    if pn[b] != nbr[pn[m]][pn[m2]]:
                        return ("bracket-2", m, m2, x, n)
    return None


def _homogeneous(sd, M: Tables, N: Tables):
    for r in range(M.ne):
        for m in range(M.nm):
            for s in range(M.ne):
                if sd[r][M.scal[m][s]] != N.scal[sd[r][m]][M.sq[s]]:
                    return ("homogeneous", r, m, s)
    return None


def _bilinear_and_homogeneous(d, sd, bd, M: Tables, N: Tables):
    bad = _linear_in_each_slot(d, M, N)
    if bad:
        return ("d_f",) + bad
    for x, phi in enumerate(bd):
        bad = _linear_in_each_slot(phi, M, N)
        if bad:
            return ("f_[x]", x) + bad
    return _homogeneous(sd, M, N)


def pair_violation(F, M: Tables, N: Tables):
    """First violated clause of the definition of a quadratic pair map, or None."""
    F = [int(v) for v in F]
    if F[0] != 0:
        return ("f(0)",)
    R = range(M.nm)
    inb = N.inb
    for a in M.aset:
        if not inb[F[a]]:
            return ("f(A) in B", a)
    d, sd, bd = defects(F, M, N)
    for m in R:
        for n in R:
            if not inb[d[m][n]]:
                return ("d_f in B", m, n)
            for x in range(M.nee):
                if not inb[bd[x][m][n]]:
                    return ("f_[x] in B", x, m, n)
        for r in range(M.ne):
            if not inb[sd[r][m]]:
                return ("f_(r) in B", r, m)
    for a in M.aset:
        for m in R:
            if d[m][a] or d[a][m]:
                return ("d_f kills A", m, a)
            for x in range(M.nee):
                if bd[x][m][a] or bd[x][a][m]:
                    return ("f_[x] kills A", x, m, a)
        for r in range(M.ne):
            if sd[r][a]:
                return ("f_(r) kills A", r, a)
    return _bilinear_and_homogeneous(d, sd, bd, M, N)


def generated_submodule(values, N: Tables) -> set:
    """Least subset holding 0 and the values, closed under +, -, ·r and [-,-]·x."""
    members = {0} | set(values)
    frontier = list(members)
    while frontier:
        a = frontier.pop()
        new = {N.neg[a], *N.scal[a]}
        for b in list(members):
            new.add(N.add[a][b])
            new.add(N.add[b][a])
            new.update(N.br[a][b])
            new.update(N.br[b][a])
        fresh = new - members
        members |= fresh
        frontier.extend(fresh)
    return members


def plain_violation(F, M: Tables, N: Tables):
    """First violated clause of the definition of a quadratic map, or None."""
    F = [int(v) for v in F]
    image = generated_submodule(F, N)
    central = [
        v in image and all(N.br[v][i][x] == 0 and N.br[i][v][x] == 0
                           for i in image for x in range(N.nee))
        for v in range(N.nm)
    ]
    d, sd, bd = defects(F, M, N)
    R = range(M.nm)
    for m in R:
        for n in R:
            if not central[d[m][n]]:
                return ("d_f central", m, n)
            for x in range(M.nee):
                if not central[bd[x][m][n]]:
                    return ("f_[x] central", x, m, n)
        for r in range(M.ne):
            if not central[sd[r][m]]:
                return ("f_(r) central", r, m)
    return _bilinear_and_homogeneous(d, sd, bd, M, N)


class Oracle:
    """Decides maps between modules, keeping each module's tables once."""

    def __init__(self):
        self._tables: dict[int, tuple] = {}

    def tables(self, mod) -> Tables:
        # keyed by identity; the module is kept alive so the key stays unique
        hit = self._tables.get(id(mod))
        if hit is None:
            hit = self._tables[id(mod)] = (mod, Tables(mod))
        return hit[1]

    def is_quadratic(self, dom, cod, table, pair: bool) -> bool:
        M, N = self.tables(dom), self.tables(cod)
        bad = pair_violation(table, M, N) if pair else plain_violation(table, M, N)
        return bad is None
