"""Square rings: the tuple (R_e -> R_ee -> R_e) with H, P, T and the
four-slot action (r,s)·x·t, verified axiom by axiom with witnesses.

A square ring packages a near-ring R_e (left-distributive; its right
distributivity holds only up to the AC7 correction), an abelian group R_ee,
a quadriadditive action making R_ee a two-sided monoid module, an arbitrary
set map H, a group homomorphism P and an additive involution T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import get_config
from .errors import ConsistencyError, NotARing, PreconditionUnmet
from .groups import FiniteGroup, _frozen_table
from .rings import NearRing
from .verdict import Verdict, law_failures, run_laws

__all__ = [
    "SquareRing",
    "RingBar",
    "OperadTrunc2",
    "verify_square_ring",
    "ensure_verified",
    "cokernel_p",
    "operad_of",
    "is_commutative",
    "AXIOM_TEXT",
]

# Verbatim statements, used by reports.
AXIOM_TEXT = {
    "AC0": "PHP = P + P",
    "AC1": "P((r,r)·x·s) = r P(x) s",
    "AC2": "T = HP - Id",
    "AC3": "PT = P",
    "AC4": "(P(x),r)·y = (r,P(x))·y = 0 = y·P(x)",
    "AC5": "H(r+s) = H(r) + H(s) + (s,r)·H(2)",
    "AC6": "H(rs) = (r,r)·H(s) + H(r)·s",
    "AC7": "(r+s)t = rt + st + P((r,s)·H(t))",
    "AC8": "T((r,s)·x·t) = (s,r)·T(x)·t",
    "ree-commutative": "x + y = y + x in R_ee",
    "T-involution": "T(T(x)) = x",
    "T-additive": "T(x+y) = T(x) + T(y)",
    "P-additive": "P(x+y) = P(x) + P(y)",
    "action-additive-1": "(r+r',s)·x·t = (r,s)·x·t + (r',s)·x·t",
    "action-additive-2": "(r,s+s')·x·t = (r,s)·x·t + (r,s')·x·t",
    "action-additive-3": "(r,s)·(x+y)·t = (r,s)·x·t + (r,s)·y·t",
    "action-additive-4": "(r,s)·x·(t+t') = (r,s)·x·t + (r,s)·x·t'",
    "action-left-monoid": "(r,s)·((r',s')·x) = (rr',ss')·x",
    "action-right-monoid": "(x·t)·t' = x·(tt')",
    "action-unit": "(1,1)·x·1 = x",
    "action-split-left": "(r,s)·x·t = ((r,s)·x)·t",
    "action-split-right": "(r,s)·x·t = (r,s)·(x·t)",
    "H(1)=0": "H(1) = 0",
    "PxPy=0": "P(x) P(y) = 0",
    "imP-central": "P(x) + r = r + P(x)",
    "commutator-form": "r + s - r - s = P((s,r)·H(2))",
}


class SquareRing:
    """Carrier tuple; run :func:`verify_square_ring` before using it."""

    __slots__ = ("re", "ree", "act", "h", "p", "t", "_verdict", "_commutative", "_operad")

    def __init__(self, re: NearRing, ree: FiniteGroup, act, h, p, t):
        self.re = re
        self.ree = ree
        self.act = _frozen_table(act)
        self.h = _frozen_table(h)
        self.p = _frozen_table(p)
        self.t = _frozen_table(t)
        ne, nee = re.order, ree.order
        expect = (ne, ne, nee, ne)
        if self.act.shape != expect:
            raise PreconditionUnmet(f"action shape {self.act.shape}, expected {expect}")
        for name, table, size, rng in (
            ("H", self.h, ne, nee),
            ("P", self.p, nee, ne),
            ("T", self.t, nee, nee),
        ):
            if table.shape != (size,):
                raise PreconditionUnmet(f"{name} shape {table.shape}, expected ({size},)")
            if size and (table.min() < 0 or table.max() >= rng):
                raise PreconditionUnmet(f"{name} entries out of range")
        if self.act.size and (self.act.min() < 0 or self.act.max() >= nee):
            raise PreconditionUnmet("action entries out of range")
        self._verdict: Verdict | None = None
        self._commutative: bool | None = None
        self._operad: OperadTrunc2 | None = None

    @property
    def one(self) -> int:
        return self.re.one

    @property
    def two(self) -> int:
        return self.re.two

    def im_p(self) -> tuple[int, ...]:
        return tuple(int(v) for v in np.unique(self.p))

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        return (
            isinstance(other, SquareRing)
            and self.re == other.re
            and self.ree == other.ree
            and np.array_equal(self.act, other.act)
            and np.array_equal(self.h, other.h)
            and np.array_equal(self.p, other.p)
            and np.array_equal(self.t, other.t)
        )

    def __hash__(self) -> int:
        return hash(
            (self.re, self.ree, self.act.tobytes(), self.h.tobytes(), self.p.tobytes(), self.t.tobytes())
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SquareRing(|R_e|={self.re.order}, |R_ee|={self.ree.order})"


def verify_square_ring(sr: SquareRing) -> Verdict:
    """Exhaustive check of the structural laws, AC0–AC8, and the derived
    identities.  A derived identity failing while every axiom passes is a
    contradiction with proved facts and raises ConsistencyError."""
    ne, nee = sr.re.order, sr.ree.order
    add = sr.re.add
    mul = sr.re.mul
    one, two = sr.one, sr.two
    eadd, eneg = sr.ree.add, sr.ree.neg
    act, h, p, t = sr.act, sr.h, sr.p, sr.t
    zero_e = np.int64(0)

    laws = [
        ("ree-commutative", (nee, nee), lambda x, y: (eadd[x, y], eadd[y, x])),
        ("T-involution", (nee,), lambda x: (t[t[x]], x)),
        ("T-additive", (nee, nee), lambda x, y: (t[eadd[x, y]], eadd[t[x], t[y]])),
        ("P-additive", (nee, nee), lambda x, y: (p[eadd[x, y]], add[p[x], p[y]])),
        (
            "action-additive-1",
            (ne, ne, ne, nee, ne),
            lambda r, r2, s, x, u: (act[add[r, r2], s, x, u], eadd[act[r, s, x, u], act[r2, s, x, u]]),
        ),
        (
            "action-additive-2",
            (ne, ne, ne, nee, ne),
            lambda r, s, s2, x, u: (act[r, add[s, s2], x, u], eadd[act[r, s, x, u], act[r, s2, x, u]]),
        ),
        (
            "action-additive-3",
            (ne, ne, nee, nee, ne),
            lambda r, s, x, y, u: (act[r, s, eadd[x, y], u], eadd[act[r, s, x, u], act[r, s, y, u]]),
        ),
        (
            "action-additive-4",
            (ne, ne, nee, ne, ne),
            lambda r, s, x, u, u2: (act[r, s, x, add[u, u2]], eadd[act[r, s, x, u], act[r, s, x, u2]]),
        ),
        (
            "action-left-monoid",
            (ne, ne, ne, ne, nee),
            lambda r, s, r2, s2, x: (act[r, s, act[r2, s2, x, one], one], act[mul[r, r2], mul[s, s2], x, one]),
        ),
        (
            "action-right-monoid",
            (nee, ne, ne),
            lambda x, u, u2: (act[one, one, act[one, one, x, u], u2], act[one, one, x, mul[u, u2]]),
        ),
        ("action-unit", (nee,), lambda x: (act[one, one, x, one], x)),
        (
            "action-split-left",
            (ne, ne, nee, ne),
            lambda r, s, x, u: (act[r, s, x, u], act[one, one, act[r, s, x, one], u]),
        ),
        (
            "action-split-right",
            (ne, ne, nee, ne),
            lambda r, s, x, u: (act[r, s, x, u], act[r, s, act[one, one, x, u], one], ),
        ),
        ("AC0", (nee,), lambda x: (p[h[p[x]]], add[p[x], p[x]])),
        ("AC1", (ne, nee, ne), lambda r, x, s: (p[act[r, r, x, s]], mul[mul[r, p[x]], s])),
        ("AC2", (nee,), lambda x: (t[x], eadd[h[p[x]], eneg[x]])),
        ("AC3", (nee,), lambda x: (p[t[x]], p[x])),
        ("AC4", (nee, ne, nee), lambda x, r, y: (act[p[x], r, y, one], np.zeros_like(y))),
        ("AC4", (nee, ne, nee), lambda x, r, y: (act[r, p[x], y, one], np.zeros_like(y))),
        ("AC4", (nee, nee), lambda x, y: (act[one, one, y, p[x]], np.zeros_like(y))),
        (
            "AC5",
            (ne, ne),
            lambda r, s: (h[add[r, s]], eadd[eadd[h[r], h[s]], act[s, r, h[two], one]]),
        ),
        (
            "AC6",
            (ne, ne),
            lambda r, s: (h[mul[r, s]], eadd[act[r, r, h[s], one], act[one, one, h[r], s]]),
        ),
        (
            "AC7",
            (ne, ne, ne),
            lambda r, s, u: (mul[add[r, s], u], add[add[mul[r, u], mul[s, u]], p[act[r, s, h[u], one]]]),
        ),
        ("AC8", (ne, ne, nee, ne), lambda r, s, x, u: (t[act[r, s, x, u]], act[s, r, t[x], u])),
    ]
    derived = [
        ("H(1)=0", (1,), lambda _: (h[one] + _ * zero_e, np.zeros_like(_))),
        ("PxPy=0", (nee, nee), lambda x, y: (mul[p[x], p[y]], np.zeros_like(x + y))),
        ("imP-central", (nee, ne), lambda x, r: (add[p[x], r], add[r, p[x]])),
        (
            "commutator-form",
            (ne, ne),
            lambda r, s: (add[add[add[r, s], sr.re.neg[r]], sr.re.neg[s]], p[act[s, r, h[two], one]]),
        ),
    ]
    cfg = get_config()
    verdict = run_laws(laws, all_witnesses=cfg.exhaustive_witnesses)
    derived_verdict = run_laws(derived, all_witnesses=cfg.exhaustive_witnesses)
    if verdict.passed and not derived_verdict.passed:
        first = derived_verdict.failures[0]
        raise ConsistencyError(
            f"axioms pass but derived law {first.law} fails at {first.witness} ({first.detail})"
        )
    full = verdict.merge(derived_verdict)
    sr._verdict = full
    if not full.passed:
        sr._commutative = None
    return full


def ensure_verified(sr: SquareRing) -> None:
    """Gate used by every downstream constructor."""
    if sr._verdict is None:
        verify_square_ring(sr)
    assert sr._verdict is not None
    if not sr._verdict.passed:
        first = sr._verdict.failures[0]
        raise PreconditionUnmet(
            f"square ring fails {first.law} at {first.witness} ({first.detail})"
        )


@dataclass(frozen=True, eq=False)
class RingBar:
    """The quotient ring on R_e / im P with its projection table."""

    ring: NearRing
    proj: np.ndarray
    commutative: bool

    @property
    def order(self) -> int:
        return self.ring.order


def cokernel_p(sr: SquareRing) -> RingBar:
    """R_e / im P as an honest ring (im P is central, hence normal)."""
    ensure_verified(sr)
    group_q, proj = sr.re.group.quotient(sr.im_p())
    k = group_q.order
    reps = np.array([int(np.flatnonzero(proj == i)[0]) for i in range(k)], dtype=np.int64)
    mul_q = proj[sr.re.mul[np.ix_(reps, reps)]]
    bad = law_failures(
        "quotient-mul-well-defined",
        (sr.re.order, sr.re.order),
        lambda a, b: (proj[sr.re.mul[a, b]], mul_q[proj[a], proj[b]]),
    )
    if bad:
        raise NotARing(f"coset multiplication ill-defined at {bad[0].witness}")
    ring = NearRing(group_q, mul_q, int(proj[sr.one]), right_distributive=True)
    commutative = bool(np.array_equal(mul_q, mul_q.T))
    return RingBar(ring=ring, proj=proj, commutative=commutative)


@dataclass(frozen=True, eq=False)
class OperadTrunc2:
    """Two-level truncated operad: degree 1 = R_e/im P, degree 2 = R_ee with
    the action reduced to cosets, plus the slot-swapping symmetry T."""

    op1: RingBar
    op2: FiniteGroup
    act: np.ndarray  # (k, k, nee, k) over coset indices
    t: np.ndarray

    @property
    def sizes(self) -> tuple[int, int]:
        return (self.op1.order, self.op2.order)


def operad_of(sr: SquareRing) -> OperadTrunc2:
    """The truncated operad of a verified square ring, built once per ring
    and cached on it: the action is reduced mod im P and its
    well-definedness re-checked, not assumed.  A build that raises is not
    cached, so every later call raises again."""
    ensure_verified(sr)
    if sr._operad is None:
        sr._operad = _build_operad(sr)
    return sr._operad


def _build_operad(sr: SquareRing) -> OperadTrunc2:
    bar = cokernel_p(sr)
    proj = bar.proj
    k = bar.order
    reps = np.array([int(np.flatnonzero(proj == i)[0]) for i in range(k)], dtype=np.int64)
    ract = sr.act[np.ix_(reps, reps, np.arange(sr.ree.order), reps)]
    ract.flags.writeable = False  # shared by every caller of the cache
    bad = law_failures(
        "operad-action-well-defined",
        (sr.re.order, sr.re.order, sr.ree.order, sr.re.order),
        lambda r, s, x, u: (sr.act[r, s, x, u], ract[proj[r], proj[s], x, proj[u]]),
    )
    if bad:
        raise ConsistencyError(
            f"action does not descend to cosets of im P at {bad[0].witness}"
        )
    return OperadTrunc2(op1=bar, op2=sr.ree, act=ract, t=sr.t)


def is_commutative(sr: SquareRing) -> bool:
    """True iff R_e/im P is commutative and the three one-slot actions agree.

    On a positive answer the known consequences (x·rs = x·sr, commutativity
    of R_e's addition, rP(x) = P(x)r², (r,r)·x = x·r²) are re-asserted;
    their failure would contradict verified axioms.
    """
    ensure_verified(sr)
    if sr._commutative is not None:
        return sr._commutative
    ne, nee = sr.re.order, sr.ree.order
    act, mul, one = sr.act, sr.re.mul, sr.one
    bar = cokernel_p(sr)
    slots_agree = not law_failures(
        "actions-coincide",
        (ne, nee),
        lambda r, x: (act[r, one, x, one], act[one, r, x, one]),
    ) and not law_failures(
        "actions-coincide",
        (ne, nee),
        lambda r, x: (act[one, r, x, one], act[one, one, x, r]),
    )
    result = bool(bar.commutative and slots_agree)
    if result:
        consequences = [
            ("x·rs=x·sr", (nee, ne, ne), lambda x, r, s: (act[one, one, x, mul[r, s]], act[one, one, x, mul[s, r]])),
            ("Re-add-commutative", (ne, ne), lambda r, s: (sr.re.add[r, s], sr.re.add[s, r])),
            ("rP(x)=P(x)r^2", (ne, nee), lambda r, x: (mul[r, sr.p[x]], mul[sr.p[x], mul[r, r]])),
            ("(r,r)x=x·r^2", (ne, nee), lambda r, x: (act[r, r, x, one], act[one, one, x, mul[r, r]])),
        ]
        for label, dims, law in consequences:
            bad = law_failures(label, dims, law)
            if bad:
                raise ConsistencyError(
                    f"commutative square ring violates {label} at {bad[0].witness}"
                )
    sr._commutative = result
    return result
