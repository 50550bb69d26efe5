"""Near-rings and commutative rings as operation tables.

The additive part of a near-ring need not be commutative.  Left
distributivity r(s+t) = rs + rt always holds; plain right distributivity is
demanded only for standalone near-rings — the square-ring assembly path
relaxes it, because there (r+s)t picks up a correction term (axiom AC7).
"""

from __future__ import annotations

import numpy as np

from .config import check_cap, get_config
from .errors import NotARing
from .groups import FiniteGroup, _frozen_table, build_group, cyclic
from .verdict import law_failures

__all__ = ["NearRing", "CommutativeRing", "build_near_ring", "zmod"]


class NearRing:
    """Validated near-ring on 0..n-1 (zero = 0); see module docstring."""

    __slots__ = ("group", "mul", "one", "order")

    def __init__(
        self,
        group: FiniteGroup,
        mul,
        one: int,
        *,
        right_distributive: bool = True,
    ):
        self.group = group
        self.mul = _frozen_table(mul)
        self.one = int(one)
        self.order = group.order
        self._validate(right_distributive)

    # table views ------------------------------------------------------------

    @property
    def add(self) -> np.ndarray:
        return self.group.add

    @property
    def neg(self) -> np.ndarray:
        return self.group.neg

    @property
    def two(self) -> int:
        return int(self.add[self.one, self.one])

    def _validate(self, right_distributive: bool) -> None:
        n = self.order
        check_cap("ring carrier", n, get_config().cap_ring)
        if self.mul.shape != (n, n):
            raise NotARing(f"mul table shape {self.mul.shape}, expected {(n, n)}")
        if self.mul.min() < 0 or self.mul.max() >= n:
            raise NotARing("mul entries out of range")
        if not (0 <= self.one < n):
            raise NotARing(f"unit index {self.one} out of range")
        add, mul, one = self.add, self.mul, self.one
        laws = [
            ("mul-associative", (n, n, n), lambda a, b, c: (mul[mul[a, b], c], mul[a, mul[b, c]])),
            ("unit", (n,), lambda a: (mul[one, a], a)),
            ("unit-right", (n,), lambda a: (mul[a, one], a)),
            ("zero-left", (n,), lambda a: (mul[0, a], np.zeros_like(a))),
            ("zero-right", (n,), lambda a: (mul[a, 0], np.zeros_like(a))),
            ("left-distributive", (n, n, n), lambda a, b, c: (mul[a, add[b, c]], add[mul[a, b], mul[a, c]])),
        ]
        if right_distributive:
            laws.append(
                ("right-distributive", (n, n, n), lambda a, b, c: (mul[add[a, b], c], add[mul[a, c], mul[b, c]]))
            )
        for label, dims, law in laws:
            bad = law_failures(label, dims, law)
            if bad:
                raise NotARing(f"{label} fails at {bad[0].witness}: {bad[0].detail}")

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        return (
            isinstance(other, NearRing)
            and self.one == other.one
            and np.array_equal(self.add, other.add)
            and np.array_equal(self.mul, other.mul)
        )

    def __hash__(self) -> int:
        return hash((self.add.tobytes(), self.mul.tobytes(), self.one))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(order={self.order})"


class CommutativeRing(NearRing):
    """Near-ring with commutative addition and multiplication."""

    def __init__(self, group: FiniteGroup, mul, one: int):
        super().__init__(group, mul, one, right_distributive=True)
        if not group.commutative:
            raise NotARing("addition is not commutative")
        if not np.array_equal(self.mul, self.mul.T):
            a, b = map(int, np.argwhere(self.mul != self.mul.T)[0])
            raise NotARing(f"multiplication not commutative at ({a}, {b})")

    def ideal_closure(self, gens) -> tuple[int, ...]:
        """Least ideal containing gens (two-sided = one-sided here)."""
        seed = {int(g) for g in gens}
        multiples = {int(self.mul[g, r]) for g in seed for r in range(self.order)}
        return self.group.subgroup_closure(seed | multiples)

    def annihilator(self, members) -> tuple[int, ...]:
        """{r : r*m = 0 for all m in members}."""
        ms = sorted(int(m) for m in members)
        ok = np.ones(self.order, dtype=bool)
        for m in ms:
            ok &= self.mul[:, m] == 0
        return tuple(int(i) for i in np.flatnonzero(ok))


def build_near_ring(add_table, mul_table, *, right_distributive: bool = True) -> NearRing:
    """Validate raw tables; the unit is located automatically."""
    group = build_group(add_table)
    mul = np.asarray(mul_table, dtype=np.int64)
    n = group.order
    if mul.shape != (n, n):
        raise NotARing(f"mul table shape {mul.shape}, expected {(n, n)}")
    idx = np.arange(n)
    ones = [
        e
        for e in range(n)
        if np.array_equal(mul[e], idx) and np.array_equal(mul[:, e], idx)
    ]
    if not ones:
        raise NotARing("no two-sided multiplicative unit")
    return NearRing(group, mul, ones[0], right_distributive=right_distributive)


def zmod(n: int) -> CommutativeRing:
    """The ring Z/n (n >= 1; n = 1 gives the zero ring with one = zero)."""
    idx = np.arange(n)
    return CommutativeRing(cyclic(n), (idx[:, None] * idx[None, :]) % n, 1 % n)
