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
from .errors import NotAGroup, NotNormal, PreconditionUnmet
from .verdict import run_laws

__all__ = [
    "FiniteGroup",
    "build_group",
    "generators",
    "sweep_generators",
    "cyclic",
    "direct_product",
    "dihedral",
    "closed_sets_between",
    "representatives",
]


def _frozen_table(table) -> np.ndarray:
    """A read-only int64 copy of ``table``.  Groups, rings, square rings,
    modules and maps cache what they derive from their tables (center,
    verdict, commutativity, operad, graded object, decision), which is
    sound only if the tables never change; the copy leaves the caller's
    own array writable."""
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

    def _commutators_with(self, members: tuple[int, ...]) -> tuple[int, ...]:
        """[G, S]: the subgroup generated by the commutators [g, s] of every
        g of the carrier and s of ``members``."""
        comms = self.commutator(np.arange(self.order)[:, None], np.array(members)[None, :])
        return self.subgroup_closure(np.unique(comms))

    def commutator_subgroup(self) -> tuple[int, ...]:
        if self._derived is None:
            self._derived = self._commutators_with(tuple(range(self.order)))
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
        while series[-1] != (0,):
            nxt = self._commutators_with(series[-1])
            if nxt == series[-1]:
                break
            series.append(nxt)
        return series

    # -- subgroups -------------------------------------------------------------

    def subgroup_closure(self, seed: Iterable[int]) -> tuple[int, ...]:
        """Least subgroup containing seed: its closure under + with 0, since
        in a finite group -a is a multiple of a."""
        return tuple(np.flatnonzero(_closure(self.add, seed)).tolist())

    def is_subgroup(self, members: Iterable[int]) -> bool:
        s = tuple(sorted(int(m) for m in members))
        return s == self.subgroup_closure(s)

    def is_normal(self, members: Iterable[int]) -> bool:
        return run_laws([self._normal_law(tuple(sorted({int(m) for m in members})))]).passed

    def _normal_law(self, s: tuple[int, ...]) -> tuple:
        """The law ``normal``: the conjugate g + m − g lies in ``s`` for
        every g of the carrier and m of ``s`` (an ascending tuple)."""
        inside = np.zeros(self.order, dtype=bool)
        inside[_elements(self.order, s)] = True
        add, neg = self.add, self.neg
        return ("normal", (self.order, s), lambda g, m: (inside[add[add[g, m], neg[g]]], 1))

    def quotient(self, members: Iterable[int]) -> tuple["FiniteGroup", np.ndarray]:
        """Quotient by a normal subgroup; returns (Q, projection table).  Each
        element is labelled by the least element of its coset, and classes
        are numbered in the order of those least elements (see
        ``representatives``).  A set that is not a subgroup is refused
        first; a subgroup fails the law ``normal`` at its first (g, m)."""
        s = tuple(sorted(int(m) for m in members))
        if s != self.subgroup_closure(s):
            raise NotNormal(f"{s} is not a subgroup")
        run_laws([self._normal_law(s)]).require(NotNormal, f"subgroup {s}")
        reps, proj = np.unique(self.add[:, s].min(axis=1), return_inverse=True)
        qadd = proj[self.add[np.ix_(reps, reps)]]
        qneg = proj[self.neg[reps]]
        return FiniteGroup(qadd, qneg), proj

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        return isinstance(other, FiniteGroup) and np.array_equal(self.add, other.add)

    def __hash__(self) -> int:
        return hash(self.add.tobytes())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FiniteGroup(order={self.order})"


def _closure(add: np.ndarray, seed: Iterable[int], members: np.ndarray | None = None, *,
             scal: np.ndarray | None = None, bracket: np.ndarray | None = None) -> np.ndarray:
    """The least set that contains 0, ``seed`` and ``members`` (None, or a
    mask) and is closed under the table ``add``, as a mask: each round adds
    every sum of two members, until no sum is new.  With ``scal`` (|M|×|R_e|)
    the set is also closed under the scalar action, and with ``bracket``
    (|M|×|M|×|R_ee|) under brackets of two members: a round then adds their
    images too, until no image is new.  This is the one closure of the package: subgroups, ideals,
    scalar-stable subgroups and submodules are all computed here.

    Raises PreconditionUnmet when ``seed`` names an element outside the
    carrier (see ``_elements``)."""
    seed = _elements(len(add), seed)
    mask = np.zeros(len(add), dtype=bool) if members is None else members.copy()
    mask[0] = True
    mask[seed] = True
    while True:
        idx = mask.nonzero()[0]
        mask[add[idx[:, None], idx]] = True
        if scal is not None:
            mask[scal[idx]] = True
        if bracket is not None:
            mask[bracket[idx[:, None], idx]] = True
        if np.count_nonzero(mask) == len(idx):
            return mask


def _elements(order: int, members: Iterable[int]) -> np.ndarray:
    """``members`` as an int64 array, refused with PreconditionUnmet if one
    lies outside the carrier 0..order−1 (numpy would wrap −1 to order−1)."""
    out = np.fromiter(members, dtype=np.int64)
    outside = out[(out < 0) | (out >= order)]
    if outside.size:
        raise PreconditionUnmet(f"element {int(outside[0])} is outside the carrier 0..{order - 1}")
    return out


def representatives(proj: np.ndarray) -> np.ndarray:
    """The least element of each class of the projection ``proj``, in class
    order.  For ``FiniteGroup.quotient`` these are in increasing order,
    since it numbers classes by their least element."""
    return np.unique(proj, return_index=True)[1]


def _generating_set(add: np.ndarray, members: Iterable[int] | None = None) -> tuple[int, ...]:
    """The least element of ``members`` (by default the whole table) not yet
    in the closure of 0 and the elements picked so far under ``add``, picked
    until that closure holds every member.  For a subgroup, the picks
    generate it."""
    want = np.zeros(len(add), dtype=bool)
    want[slice(None) if members is None else _elements(len(add), members)] = True
    picked: list[int] = []
    span = np.arange(len(add)) == 0  # {0} is closed: 0 is neutral
    while (missing := want & ~span).any():
        picked.append(int(np.argmax(missing)))
        span = _closure(add, picked[-1:], span)
    return tuple(picked)


def generators(group: FiniteGroup) -> tuple[int, ...]:
    """A generating set of ``group``, picked greedily: the least element not
    yet in the subgroup generated by the elements picked so far.  Empty for
    the trivial group.  Cached on the group, whose tables are read-only."""
    if group._generators is None:
        group._generators = _generating_set(group.add)
    return group._generators


def sweep_generators(group: FiniteGroup) -> tuple[int, ...]:
    """``generators`` of ``group`` as the axis of a reduced form: (0,) for
    the trivial group, so that a sweep over it is never empty."""
    return generators(group) or (0,)


def _find_neutral(add: np.ndarray) -> int | None:
    n = add.shape[0]
    idx = np.arange(n)
    for e in range(n):
        if np.array_equal(add[e], idx) and np.array_equal(add[:, e], idx):
            return e
    return None


def build_group(add_table) -> FiniteGroup:
    """Validate a Cayley table; renumbers so the neutral element is 0.

    Raises NotAGroup when there is no neutral element, and with a witness
    when the law ``associativity`` fails, or then the law ``inverse``:
    ν(a) + a = 0 for ν(a) the first right inverse of a.

    Associativity is decided by Light's test (A. H. Clifford and G. B.
    Preston, *The Algebraic Theory of Semigroups*, vol. I, 1961, §1.2) on a
    generating set S of the table as a magma, picked greedily: the least
    element not yet in the closure of {0} ∪ S under + alone.  If
    (x+a)+y = x+(a+y) for every x, y and every a ∈ S, the table is
    associative.  Proof: let T be the set of such a.  0 ∈ T, since 0 is
    neutral.  For a, b ∈ T and any x, y,
    (x+(a+b))+y = ((x+a)+b)+y = (x+a)+(b+y) = x+(a+(b+y)) = x+((a+b)+y),
    using a ∈ T, then b ∈ T at x+a, then a ∈ T at b+y, then b ∈ T at a.
    So T is closed under + and contains 0 and S, hence T is the whole
    carrier.  The law runs with S on its middle axis as its reduced form,
    so a table that fails is swept in full, and the witness is the
    lexicographically first of the full sweep.  A group's closure under +
    alone is a subgroup, so S is also ``generators`` of the result.
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
    S = _generating_set(add)
    run_laws([(
        "associativity", (n, n, n), lambda a, b, c: (add[add[a, b], c], add[a, add[b, c]]),
        (n, S, n),
    )]).require(NotAGroup, "group table")
    # ν(a) is the first right inverse of a, so a + ν(a) = 0, or 0 if a has
    # none, and then a ≠ 0 (the row of 0 holds 0) and ν(a) + a = a ≠ 0.
    # So the law ν(a) + a = 0 holds iff a + ν(a) = 0 = ν(a) + a for every a.
    # It is exact: in an associative table with neutral 0, a right inverse
    # b of an element a with a two-sided inverse c equals c,
    # c = c + (a + b) = (c + a) + b = b, so then ν(a) = c.
    neg = np.argmax(add == 0, axis=1)
    run_laws([("inverse", (n,), lambda a: (add[neg[a], a], 0))]).require(NotAGroup, "group table")
    group = FiniteGroup(add, neg)
    group._generators = S  # a group's closure under + alone is a subgroup
    return group


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
