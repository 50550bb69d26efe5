"""Inputs of the benchmark, built afresh on every call.

``census_blocks()`` builds every module over the ``rnil`` and ``sym`` rings
at n = 2 whose carrier is an abelian group of order at most 4, every pair
structure on each of them, and all map tables between them.  The enumeration rests on the same completeness argument as the
acceptance census: the module axioms make ``[m,n]·x`` biadditive in (m, n) and
additive in x, and ``m·r`` additive in r with ``m·1 = m`` and
``m·P(x) = [m,m]·x``, so a module is fixed by the bracket on generator pairs.
Every candidate so built is run through the library's verifier, which keeps
exactly the modules.
"""

from __future__ import annotations

import itertools

import numpy as np

from quadrica import CpModule, BhpModule, build_example, verify_bhp_module, verify_cp_module
from quadrica.groups import cyclic, direct_product

CENSUS_KINDS = ("rnil", "sym")


def _carriers():
    """(group, coordinate vector of each element) for the abelian groups of
    order 1 to 4; the generators are the unit vectors."""
    out = []
    for n in (1, 2, 3, 4):
        out.append((cyclic(n), [(i,) for i in range(n)] if n > 1 else [()]))
    out.append((direct_product(cyclic(2), cyclic(2)), [(i // 2, i % 2) for i in range(4)]))
    return out


def _multiple(add, a: int, k: int) -> int:
    out = 0
    for _ in range(k):
        out = int(add[out, a])
    return out


def _ring_basis(sr):
    """Coordinates (a, b) of each r in R_e as a·1 + b·P(x0), with x0 or None
    when R_e is cyclic on the unit."""
    add, one, ne = sr.re.group.add, int(sr.one), sr.re.order
    cyc = {_multiple(add, one, a): (a, 0) for a in range(ne)}
    if len(cyc) == ne:
        return cyc, None
    for x0 in range(sr.ree.order):
        v = int(sr.p[x0])
        coords = {}
        for a in range(ne):
            for b in range(ne):
                coords.setdefault(int(add[_multiple(add, one, a), _multiple(add, v, b)]), (a, b))
        if len(coords) == ne:
            return coords, x0
    raise ValueError("R_e is not spanned by 1 and an element of im P")


def census_modules(sr) -> list:
    """Every module over sr on an abelian carrier of order at most 4."""
    nee = sr.ree.order
    if nee > 2:
        raise ValueError("bracket extension assumes R_ee of order at most 2")
    coords, x0 = _ring_basis(sr)
    found = []
    for g, vec in _carriers():
        nm, rank = g.order, len(vec[0])
        slots = list(itertools.product(range(rank), repeat=2))
        choices = itertools.product(range(nm), repeat=len(slots)) if nee == 2 else [(0,) * len(slots)]
        for values in choices:
            gen = dict(zip(slots, values))
            bracket = np.zeros((nm, nm, nee), dtype=np.int64)
            for m, n in itertools.product(range(nm), repeat=2):
                total = 0
                for i, j in slots:
                    total = int(g.add[total, _multiple(g.add, gen[i, j], vec[m][i] * vec[n][j])])
                bracket[m, n, nee - 1] = total
            scal = np.zeros((nm, sr.re.order), dtype=np.int64)
            for r, (a, b) in coords.items():
                for m in range(nm):
                    part = _multiple(g.add, int(bracket[m, m, x0]), b) if b else 0
                    scal[m, r] = int(g.add[_multiple(g.add, m, a), part])
            mod = BhpModule(sr, g, scal, bracket)
            if verify_bhp_module(mod).passed:
                found.append(mod)
    return found


def pair_structures(mod) -> list:
    """Every subgroup A of the carrier that makes (M, A) a pair module."""
    add, neg, nm = mod.group.add, mod.group.neg, mod.nm
    out = []
    for k in range(nm):
        for rest in itertools.combinations(range(1, nm), k):
            aset = (0,) + rest
            members = set(aset)
            if any(int(add[a, b]) not in members or int(neg[a]) not in members
                   for a in aset for b in aset):
                continue
            pair = CpModule(mod.sr, mod.group, mod.scal, mod.bracket, aset)
            if verify_cp_module(pair).passed:
                out.append(pair)
    return out


def all_tables(dom_order: int, cod_order: int) -> np.ndarray:
    """Every map table dom -> cod, in lexicographic order."""
    rows = list(itertools.product(range(cod_order), repeat=dom_order))
    return np.array(rows, dtype=np.int64).reshape(-1, dom_order)


def census_blocks() -> list:
    """Build both rings, their module and pair censuses, and every block of
    map candidates: (key, dom, cod, tables) with key = (ring, "plain" or
    "pair", index of dom, index of cod)."""
    blocks = []
    for kind in CENSUS_KINDS:
        modules = census_modules(build_example(kind, 2))
        pairs = [p for m in modules for p in pair_structures(m)]
        for label, family in (("plain", modules), ("pair", pairs)):
            for i, dom in enumerate(family):
                for j, cod in enumerate(family):
                    blocks.append(((kind, label, i, j), dom, cod, all_tables(dom.nm, cod.nm)))
    return blocks
