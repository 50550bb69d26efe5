"""Finite groups as Cayley tables, additive notation, neutral element 0.

Carriers are dense index ranges 0..n-1.  Groups here may be non-commutative
(module carriers are class-<=2 nilpotent in general), so nothing assumes
commutativity unless it checked it first.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, FrozenSet, Iterable, Sequence

import numpy as np

from .config import check_cap, get_config
from .errors import NotAGroup, NotNormal
from .verdict import law_failures

__all__ = [
    "FiniteGroup",
    "build_group",
    "generators",
    "cyclic",
    "direct_product",
    "dihedral",
    "closed_sets_between",
]


def _frozen_table(table) -> np.ndarray:
    """A read-only int64 copy of ``table``.  Groups, rings, square rings and
    modules cache what they derive from their tables (center, verdict,
    commutativity, operad, graded object), which is sound only if the tables
    never change; the copy leaves the caller's own array writable."""
    out = np.array(table, dtype=np.int64, order="C")
    out.flags.writeable = False
    return out


class FiniteGroup:
    """A validated finite group; use :func:`build_group` for raw tables."""

    __slots__ = ("order", "add", "neg", "_center", "_derived", "_generators")

    def __init__(self, add: np.ndarray, neg: np.ndarray):
        self.add = _frozen_table(add)
        self.neg = _frozen_table(neg)
        self.order = int(self.add.shape[0])
        self._center: tuple[int, ...] | None = None
        self._derived: tuple[int, ...] | None = None
        self._generators: tuple[int, ...] | None = None

    # -- element arithmetic (works on scalars and arrays) --------------------

    def sub(self, a, b):
        return self.add[a, self.neg[b]]

    def commutator(self, a, b):
        """[a,b] = a + b - a - b."""
        return self.sub(self.sub(self.add[a, b], a), b)

    def sum(self, elements: Iterable[int]) -> int:
        return reduce(lambda a, b: int(self.add[a, b]), elements, 0)

    def repeat(self, a: int, k: int) -> int:
        """k-fold sum of a (k >= 0)."""
        out = 0
        for _ in range(k):
            out = int(self.add[out, a])
        return out

    # -- derived structure ----------------------------------------------------

    @property
    def commutative(self) -> bool:
        return bool(np.array_equal(self.add, self.add.T))

    def center(self) -> tuple[int, ...]:
        if self._center is None:
            central = (self.add == self.add.T).all(axis=1)
            self._center = tuple(int(i) for i in np.flatnonzero(central))
        return self._center

    def commutator_subgroup(self) -> tuple[int, ...]:
        if self._derived is None:
            a, b = np.meshgrid(np.arange(self.order), np.arange(self.order))
            comms = np.unique(self.commutator(a, b))
            self._derived = self.subgroup_closure(comms)
        return self._derived

    @property
    def nilpotency_class(self) -> int | None:
        """1 (abelian), 2, or None for anything deeper than 2."""
        if self.commutative:
            return 1
        if set(self.commutator_subgroup()) <= set(self.center()):
            return 2
        return None

    def lower_central_series(self) -> list[tuple[int, ...]]:
        """[G, [G,G], [G,[G,G]], ...] down to the first repetition."""
        series = [tuple(range(self.order))]
        current = series[0]
        while True:
            comms = {int(self.commutator(a, b)) for a in range(self.order) for b in current}
            nxt = self.subgroup_closure(comms)
            if nxt == current:
                break
            series.append(nxt)
            current = nxt
            if current == (0,):
                break
        return series

    # -- subgroups -------------------------------------------------------------

    def subgroup_closure(self, seed: Iterable[int]) -> tuple[int, ...]:
        """Least subgroup containing seed, by fixed-point iteration."""
        members = {0}
        members.update(int(s) for s in seed)
        frontier = list(members)
        while frontier:
            a = frontier.pop()
            for b in list(members):
                for c in (int(self.add[a, b]), int(self.add[b, a])):
                    if c not in members:
                        members.add(c)
                        frontier.append(c)
            n = int(self.neg[a])
            if n not in members:
                members.add(n)
                frontier.append(n)
        return tuple(sorted(members))

    def is_subgroup(self, members: Iterable[int]) -> bool:
        s = tuple(sorted(int(m) for m in members))
        return s == self.subgroup_closure(s)

    def is_normal(self, members: Iterable[int]) -> bool:
        s = set(int(m) for m in members)
        return all(
            int(self.add[self.add[g, m], self.neg[g]]) in s
            for g in range(self.order)
            for m in s
        )

    def quotient(self, members: Iterable[int]) -> tuple["FiniteGroup", np.ndarray]:
        """Quotient by a normal subgroup; returns (Q, projection table)."""
        s = tuple(sorted(int(m) for m in members))
        if s != self.subgroup_closure(s):
            raise NotNormal(f"{s} is not a subgroup")
        if not self.is_normal(s):
            bad = next(
                (g, m)
                for g in range(self.order)
                for m in s
                if int(self.add[self.add[g, m], self.neg[g]]) not in set(s)
            )
            raise NotNormal(f"subgroup not normal, conjugation witness {bad}")
        proj = np.full(self.order, -1, dtype=np.int64)
        reps: list[int] = []
        for a in range(self.order):
            if proj[a] >= 0:
                continue
            idx = len(reps)
            reps.append(a)
            for m in s:
                proj[int(self.add[a, m])] = idx
        k = len(reps)
        rep_arr = np.array(reps, dtype=np.int64)
        qadd = proj[self.add[np.ix_(rep_arr, rep_arr)]]
        qneg = proj[self.neg[rep_arr]]
        return FiniteGroup(qadd, qneg), proj

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and np.array_equal(self.add, other.add)

    def __hash__(self) -> int:
        return hash(self.add.tobytes())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FiniteGroup(order={self.order})"


def generators(group: FiniteGroup) -> tuple[int, ...]:
    """A generating set of ``group``, picked greedily: the least element not
    yet in the subgroup generated by the elements picked so far.  Empty for
    the trivial group.  Cached on the group, whose tables are read-only."""
    if group._generators is None:
        picked: list[int] = []
        span = {0}
        for a in range(group.order):
            if a not in span:
                picked.append(a)
                span = set(group.subgroup_closure(picked))
        group._generators = tuple(picked)
    return group._generators


def _find_neutral(add: np.ndarray) -> int | None:
    n = add.shape[0]
    idx = np.arange(n)
    for e in range(n):
        if np.array_equal(add[e], idx) and np.array_equal(add[:, e], idx):
            return e
    return None


def build_group(add_table) -> FiniteGroup:
    """Validate a Cayley table; renumbers so the neutral element is 0.

    Raises NotAGroup with a witness when associativity, neutrality or
    inverses fail.
    """
    add = np.asarray(add_table, dtype=np.int64)
    if add.ndim != 2 or add.shape[0] != add.shape[1]:
        raise NotAGroup(f"table shape {add.shape} is not square")
    n = add.shape[0]
    if n == 0:
        raise NotAGroup("empty carrier")
    check_cap("group carrier", n, get_config().cap_group)
    if add.min() < 0 or add.max() >= n:
        raise NotAGroup("table entries out of range")
    e = _find_neutral(add)
    if e is None:
        raise NotAGroup("no two-sided neutral element")
    if e != 0:
        perm = np.arange(n)
        perm[[0, e]] = perm[[e, 0]]
        inv = perm  # an involution
        add = perm[add[np.ix_(inv, inv)]]
    bad = law_failures(
        "associativity", (n, n, n), lambda a, b, c: (add[add[a, b], c], add[a, add[b, c]])
    )
    if bad:
        raise NotAGroup(f"associativity fails at {bad[0].witness}: {bad[0].detail}")
    neg = np.full(n, -1, dtype=np.int64)
    for a in range(n):
        zeros = np.flatnonzero(add[a] == 0)
        if zeros.size != 1 or add[int(zeros[0]), a] != 0:
            raise NotAGroup(f"element {a} has no two-sided inverse")
        neg[a] = int(zeros[0])
    return FiniteGroup(add, neg)


def cyclic(n: int) -> FiniteGroup:
    """Z/n, additive."""
    if n < 1:
        raise NotAGroup("order must be >= 1")
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n, (-idx) % n)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G x H with index (a, b) -> a*|H| + b."""
    nh = h.order
    pairs_a, pairs_b = np.divmod(np.arange(g.order * nh), nh)
    add = (
        g.add[np.ix_(pairs_a, pairs_a)] * nh + h.add[np.ix_(pairs_b, pairs_b)]
    )
    neg = g.neg[pairs_a] * nh + h.neg[pairs_b]
    return FiniteGroup(add, neg)


def dihedral(k: int) -> FiniteGroup:
    """Dihedral group of order 2k; element (i, s) -> 2i + s, written additively.

    (i,s) + (j,t) = (i + (-1)^s j mod k, s xor t).
    """
    n = 2 * k
    add = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        i, s = divmod(a, 2)
        for b in range(n):
            j, t = divmod(b, 2)
            rot = (i + (j if s == 0 else -j)) % k
            add[a, b] = 2 * rot + (s ^ t)
    return build_group(add)


def closed_sets_between(
    closure: Callable[[FrozenSet[int]], FrozenSet[int]],
    lower: Iterable[int],
    upper: Iterable[int],
) -> list[tuple[int, ...]]:
    """All closure-closed sets S with closure(lower) <= S <= upper.

    ``closure`` must be monotone and idempotent and ``upper`` itself closed;
    then seeding each found set with one extra element of ``upper`` reaches
    every intermediate closed set.
    """
    upper_set = frozenset(int(u) for u in upper)
    base = closure(frozenset(int(x) for x in lower))
    if not base <= upper_set:
        return []
    found = {base}
    frontier = [base]
    while frontier:
        current = frontier.pop()
        for z in upper_set - current:
            grown = closure(current | {z})
            if grown <= upper_set and grown not in found:
                found.add(grown)
                frontier.append(grown)
    return sorted((tuple(sorted(s)) for s in found), key=lambda s: (len(s), s))
