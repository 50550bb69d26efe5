"""The canonical square-ring families, and converters between classes of
nilpotent algebras and modules over the matching family.

Each family is built over a finite commutative base ring R from R's own
tables (its addition, negation, product and unit); ``build_example`` takes
R = ℤ/n.  An element (r,s) of R⊕R sits at index r·|R| + s.  Families:

* ``classical``  R → 0 → R: plain commutative-ring module theory.
* ``rnil``       R → I₂ → R with H(r) = r²−r and P = 0, where I₂ is the
  ideal generated by the elements r²−r.  Modules are class-≤2 nilpotent
  R-groups.  (This finite family stands in for the integer version, whose
  carrier is infinite.)
* ``lambda``     R → R → R with H = P = 0: modules are class-≤2 nilpotent
  Lie R-algebras.
* ``tensor``     pair ring R⊕R with (r,s)(r',s') = (rr', r²s'+sr'),
  R_ee = R⊕R, H(r,s) = (s,s), P(x,y) = (0,x+y): modules are class-≤2
  nilpotent (not necessarily commutative) R-algebras.
* ``sym``        same R_e, R_ee = R, H(r,s) = 2s, P(x) = (0,x): modules
  are class-≤2 nilpotent commutative R-algebras.
* ``gamma``      same R_e, R_ee = R, H(r,s) = s, P(x) = (0,2x): modules
  are class-≤2 nilpotent divided-power R-algebras.  The optional
  deformation ε (the integer ε as the element ε·1, with ε·I₂ = 0) twists
  the addition of R_e into (r,s)+(r',s') = (r+r', s+s'+εrr').
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InvalidEpsilon, NotAnAlgebra, PreconditionUnmet
from .groups import FiniteGroup, cyclic, direct_product
from .modules import BhpModule, verify_bhp_module
from .rings import CommutativeRing, NearRing, zmod
from .squarering import SquareRing, ensure_verified, is_commutative
from .verdict import _additive, run_laws

__all__ = [
    "ExampleSpec",
    "AlgebraData",
    "FAMILY_KINDS",
    "ALGEBRA_KINDS",
    "build_example",
    "commutativity_census",
    "module_from_algebra",
    "i2_ideal",
]

FAMILY_KINDS = ("classical", "rnil", "lambda", "tensor", "sym", "gamma")
ALGEBRA_KINDS = ("lie", "assoc", "comm", "divided")


@dataclass(frozen=True)
class ExampleSpec:
    kind: str
    n: int
    epsilon: int | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise PreconditionUnmet(f"unknown family {self.kind!r}; pick from {FAMILY_KINDS}")
        if self.n < 1:
            raise PreconditionUnmet("modulus must be positive")
        if self.epsilon is not None and self.kind != "gamma":
            raise PreconditionUnmet("epsilon only applies to the gamma family")


def _r2_minus_r(base: CommutativeRing) -> np.ndarray:
    """r²−r at each element r of R."""
    r = np.arange(base.order)
    return base.group.sub(base.mul[r, r], r)


def i2_ideal(base: CommutativeRing) -> tuple[int, ...]:
    """The ideal generated by the elements r²−r (computed, not assumed)."""
    return base.ideal_closure(_r2_minus_r(base).tolist())


def _pairs(n: int):
    """The layout of R⊕R for |R| = n, as in ``groups.direct_product``: the
    components r and s of each index, and ``index(r, s) = r·n + s``."""
    idx = np.arange(n, dtype=np.int64)
    return np.repeat(idx, n), np.tile(idx, n), lambda r, s: r * n + s


def _pair_re(base: CommutativeRing, eps: int = 0) -> NearRing:
    """R⊕R with multiplication (r,s)(r',s') = (rr', r²s'+sr'), addition
    possibly deformed by the element ε: (r,s)+(r',s') = (r+r', s+s'+εrr')."""
    add, neg, mul = base.add, base.neg, base.mul
    r, s, pair = _pairs(base.order)
    r1, s1, r2, s2 = r[:, None], s[:, None], r[None, :], s[None, :]
    group = FiniteGroup(pair(add[r1, r2], add[add[s1, s2], mul[eps, mul[r1, r2]]]),
                        pair(neg[r], add[neg[s], mul[eps, mul[r, r]]]))
    prod = pair(mul[r1, r2], add[mul[mul[r1, r1], s2], mul[s1, r2]])
    return NearRing(group, prod, pair(base.one, 0), right_distributive=False)


def _action(base: CommutativeRing, first: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(e,e')·x·e'' = r·r'·x·r'' in R, where r, r', r'' are ``first`` at
    e, e', e'': the scalars act through their first components."""
    mul = base.mul
    return mul[mul[mul[first[:, None, None, None], first[None, :, None, None]],
                   x[None, None, :, None]], first[None, None, None, :]]


def _integer(base: CommutativeRing, k: int) -> int:
    """The integer k as the element k·1 of R."""
    order = len(base.group.subgroup_closure([base.one]))  # the additive order of 1
    return base.group.repeat(base.one, k % order)


def build_example(spec, n: int | None = None, epsilon: int | None = None) -> SquareRing:
    """Build one of the six square-ring families over ℤ/n.  The result has
    passed the full axiom verifier, and family-specific structural facts
    (the shape of T, the vanishing of H(2)) are re-asserted."""
    if not isinstance(spec, ExampleSpec):
        spec = ExampleSpec(str(spec), int(n), epsilon)
    base = zmod(spec.n)
    builder = {
        "classical": _build_classical,
        "rnil": _build_rnil,
        "lambda": _build_lambda,
        "tensor": _build_tensor,
        "sym": _build_sym,
        "gamma": _build_gamma,
    }[spec.kind]
    sr = builder(base, spec)
    ensure_verified(sr)
    _structural_asserts(sr, base, spec)
    return sr


def _build_classical(base: CommutativeRing, spec: ExampleSpec) -> SquareRing:
    n = base.order
    ree = cyclic(1)
    return SquareRing(
        base,
        ree,
        np.zeros((n, n, 1, n), dtype=np.int64),
        np.zeros(n, dtype=np.int64),
        np.zeros(1, dtype=np.int64),
        np.zeros(1, dtype=np.int64),
    )


def _scaled_subgroup_square_ring(base: CommutativeRing, members, h) -> SquareRing:
    """Shared core of rnil and lambda: R_ee is the additive subgroup
    ``members`` of R, the action is (r,s)·x·t = rsxt, H is ``h`` (values in
    ``members``), P = 0 and T = −Id."""
    vals = np.array(members, dtype=np.int64)
    index = np.full(base.order, -1, dtype=np.int64)
    index[vals] = np.arange(len(vals))
    ree = FiniteGroup(index[base.add[np.ix_(vals, vals)]], index[base.neg[vals]])
    act = index[_action(base, np.arange(base.order), vals)]
    return SquareRing(base, ree, act, index[h], np.zeros(len(vals), dtype=np.int64),
                      index[base.neg[vals]])


def _build_rnil(base: CommutativeRing, spec: ExampleSpec) -> SquareRing:
    return _scaled_subgroup_square_ring(base, i2_ideal(base), _r2_minus_r(base))


def _build_lambda(base: CommutativeRing, spec: ExampleSpec) -> SquareRing:
    return _scaled_subgroup_square_ring(base, range(base.order), np.zeros(base.order, dtype=np.int64))


def _build_tensor(base: CommutativeRing, spec: ExampleSpec) -> SquareRing:
    """R_ee = R⊕R in the layout of R_e; the scalars act on both slots."""
    r, s, pair = _pairs(base.order)
    act = _action(base, r, np.arange(base.order))
    return SquareRing(_pair_re(base), direct_product(base.group, base.group),
                      pair(act[:, :, r, :], act[:, :, s, :]), pair(s, s),
                      pair(0, base.add[r, s]), pair(s, r))


def _build_sym(base: CommutativeRing, spec: ExampleSpec) -> SquareRing:
    r, s, pair = _pairs(base.order)
    x = np.arange(base.order)
    return SquareRing(_pair_re(base), base.group, _action(base, r, x), base.add[s, s], pair(0, x), x)


def _build_gamma(base: CommutativeRing, spec: ExampleSpec) -> SquareRing:
    eps = _integer(base, spec.epsilon or 0)
    i2 = i2_ideal(base)
    if base.mul[eps, list(i2)].any():
        raise InvalidEpsilon(
            f"ε={eps} does not annihilate the ideal {i2} generated by the r²−r"
        )
    r, s, pair = _pairs(base.order)
    x = np.arange(base.order)
    return SquareRing(_pair_re(base, eps), base.group, _action(base, r, x), s,
                      pair(0, base.add[x, x]), x)


def _structural_asserts(sr: SquareRing, base: CommutativeRing, spec: ExampleSpec) -> None:
    """The T and H(2) that the family's construction promises, as laws:
    T swaps the two components (tensor) or is the identity (sym, gamma),
    and H(2) is 0, or ε in the gamma family."""
    laws, nee = [], sr.ree.order
    if spec.kind == "tensor":
        r, s, pair = _pairs(base.order)
        swap = pair(s, r)
        laws.append(("T-swaps-components", (nee,), lambda x: (sr.t[x], swap[x])))
    if spec.kind in ("sym", "gamma"):
        laws.append(("T-identity", (nee,), lambda x: (sr.t[x], x)))
    if spec.kind in ("tensor", "sym", "gamma"):
        expected = _integer(base, spec.epsilon or 0) if spec.kind == "gamma" else 0
        laws.append(("H(2)", (), lambda: (sr.h[sr.two], expected)))
    run_laws(laws).require(ConsistencyError, f"{spec.kind} family")


def _i2_is_2r(base: CommutativeRing) -> bool:
    """The criterion I₂ = 2R for the gamma family over ``base`` to be
    commutative."""
    r = np.arange(base.order)
    return set(i2_ideal(base)) == set(base.add[r, r].tolist())


def commutativity_census(specs) -> list[dict]:
    """Build each spec and report commutativity.  For the gamma family the
    census independently evaluates the criterion I₂ = 2R and insists the
    two answers agree."""
    rows = []
    for spec in specs:
        if not isinstance(spec, ExampleSpec):
            spec = ExampleSpec(*spec)
        sr = build_example(spec)
        comm = is_commutative(sr)
        row = {"kind": spec.kind, "n": spec.n, "epsilon": spec.epsilon, "commutative": comm}
        if spec.kind == "gamma":
            criterion = _i2_is_2r(zmod(spec.n))
            if criterion != comm:
                raise ConsistencyError(
                    f"gamma commutativity criterion I₂=2R gives {criterion}, "
                    f"verifier gives {comm}"
                )
            row["i2_equals_2R"] = criterion
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# algebra ↔ module dictionaries


@dataclass(frozen=True)
class AlgebraData:
    """A finite module over ℤ/n presented as a product of cyclic factors,
    with a structure table: ``product[m, n]`` for lie/assoc/comm kinds, or
    ``gamma_map[m]`` for the divided-power kind (its product is the
    polarization γ(m+n) − γ(m) − γ(n))."""

    n: int
    factors: tuple[int, ...]
    product: tuple | None = None
    gamma_map: tuple | None = None

    @property
    def order(self) -> int:
        out = 1
        for d in self.factors:
            out *= d
        return out


def _module_group(data: AlgebraData) -> tuple[FiniteGroup, np.ndarray]:
    """Group of the presented module plus the digit matrix (order × k)."""
    g = cyclic(data.factors[0]) if data.factors else cyclic(1)
    for d in data.factors[1:]:
        g = direct_product(g, cyclic(d))
    digits = np.array(
        [np.unravel_index(i, data.factors) for i in range(g.order)], dtype=np.int64
    ) if data.factors else np.zeros((1, 0), dtype=np.int64)
    return g, digits


def _scalar_table(data: AlgebraData, digits: np.ndarray) -> np.ndarray:
    """m·r by digitwise multiplication (each factor order divides n)."""
    dims = np.array(data.factors, dtype=np.int64)
    r = np.arange(data.n, dtype=np.int64)
    scaled = (digits[:, None, :] * r[None, :, None]) % dims[None, None, :]
    flat = np.zeros(scaled.shape[:2], dtype=np.int64)
    mult = 1
    for axis in range(len(data.factors) - 1, -1, -1):
        flat += scaled[:, :, axis] * mult
        mult *= data.factors[axis]
    return flat


def _algebra_laws(kind: str, g: FiniteGroup, prod: np.ndarray, scal_r: np.ndarray, n: int,
                  gam: np.ndarray | None) -> list:
    """The laws of ``kind`` data: the product bilinear with vanishing
    triple products, alternating (lie) or symmetric (comm), and for
    divided powers γ(0) = 0, γ(mr) = γ(m)r², γ∘γ = 0 and γ values that
    annihilate products."""
    order = g.order
    laws = [
        ("additive in the first slot", (order, order, order), _additive(prod, 0, g.add, g.add)),
        ("additive in the second slot", (order, order, order), _additive(prod, 1, g.add, g.add)),
        ("homogeneous in the first slot", (order, order, n),
         lambda m, q, r: (prod[scal_r[m, r], q], scal_r[prod[m, q], r])),
        ("homogeneous in the second slot", (order, order, n),
         lambda m, q, r: (prod[m, scal_r[q, r]], scal_r[prod[m, q], r])),
        ("triple products vanish (left)", (order, order, order),
         lambda m, q, u: (prod[prod[m, q], u], 0)),
        ("triple products vanish (right)", (order, order, order),
         lambda m, q, u: (prod[u, prod[m, q]], 0)),
    ]
    if kind == "lie":
        laws.append(("alternating", (order,), lambda m: (prod[m, m], 0)))
    if kind == "comm":
        laws.append(("commutative", (order, order), lambda m, q: (prod[m, q], prod[q, m])))
    if kind == "divided":
        # the product is the polarization of γ, whose value at (0, q) is
        # −γ(0), so γ(0) ≠ 0 would first fail additivity: check it first
        laws.insert(0, ("γ(0) = 0", (1,), lambda z: (gam[z], z)))
        laws += [
            ("γ(mr) = γ(m)r²", (order, n),
             lambda m, r: (gam[scal_r[m, r]], scal_r[scal_r[gam[m], r], r])),
            ("γ(γ(m)) = 0", (order,), lambda m: (gam[gam[m]], 0)),
            ("γ(m)·q = 0", (order, order), lambda m, q: (prod[gam[m], q], 0)),
            ("γ(m·q) = 0", (order, order), lambda m, q: (gam[prod[m, q]], 0)),
        ]
    return laws


def module_from_algebra(kind: str, data: AlgebraData) -> BhpModule:
    """Realize a class-≤2 nilpotent algebra as a module over the family it
    classifies: ``lie`` over the H=P=0 ring, ``assoc`` over the pair ring
    with R_ee = R⊕R, ``comm`` over the symmetric one, ``divided`` over the
    divided-power one (γ(m) = m·(0,1), m∗m = 2γ(m), γ(mr) = γ(m)r²).
    The data is validated, the module is verified, and the structure table
    is read back off the module to confirm the round trip."""
    if kind not in ALGEBRA_KINDS:
        raise PreconditionUnmet(f"unknown algebra kind {kind!r}; pick from {ALGEBRA_KINDS}")
    if any(data.n % d for d in data.factors):
        raise NotAnAlgebra(f"factor orders {data.factors} must divide the modulus {data.n}")
    g, digits = _module_group(data)
    order, n = g.order, data.n
    scal_r = _scalar_table(data, digits)

    if kind == "divided":
        if data.gamma_map is None:
            raise NotAnAlgebra("divided-power data needs a gamma_map table")
        gam = np.asarray(data.gamma_map, dtype=np.int64)
        if gam.shape != (order,):
            raise NotAnAlgebra(f"gamma_map must have shape ({order},)")
        prod = g.add[gam[g.add[np.arange(order)[:, None], np.arange(order)[None, :]]],
                     g.neg[g.add[gam[:, None], gam[None, :]]]]
    else:
        gam = None
        if data.product is None:
            raise NotAnAlgebra(f"{kind} data needs a product table")
        prod = np.asarray(data.product, dtype=np.int64)
        if prod.shape != (order, order):
            raise NotAnAlgebra(f"product must have shape ({order}, {order})")

    run_laws(_algebra_laws(kind, g, prod, scal_r, n, gam)).require(NotAnAlgebra, f"{kind} data")
    sr = build_example(_FAMILY_OF_KIND[kind], n)
    scal, bracket = _module_tables(kind, sr, g, scal_r, prod, gam)
    mod = BhpModule(sr, g, scal, bracket)
    verify_bhp_module(mod).require(NotAnAlgebra, f"{kind} module")
    _roundtrip_check(kind, mod, prod, gam, n)
    return mod


_FAMILY_OF_KIND = {"lie": "lambda", "assoc": "tensor", "comm": "sym", "divided": "gamma"}


def _module_tables(kind, sr, g, scal_r, prod, gam):
    order, n = g.order, scal_r.shape[1]
    m = np.arange(order)
    if kind == "lie":
        scal = scal_r
        x = np.arange(sr.ree.order)
        bracket = scal_r[prod[m[:, None, None], m[None, :, None]], x[None, None, :]]
        return scal, bracket
    # pair-carrier scalars (r,s): m·(r,s) = m·r + w(m)·s with w = m∗m or γ(m)
    w = prod[m, m] if kind != "divided" else gam
    r, s, _ = _pairs(n)
    scal = g.add[scal_r[m[:, None], r[None, :]], scal_r[w[m][:, None], s[None, :]]]
    if kind == "assoc":  # R_ee = R⊕R and [m,n]·(x,y) = (m∗n)x + (n∗m)y
        bracket = g.add[
            scal_r[prod[m[:, None, None], m[None, :, None]], r[None, None, :]],
            scal_r[prod[m[None, :, None], m[:, None, None]], s[None, None, :]],
        ]
    else:  # comm, divided: R_ee = R and [m,n]·x = (m∗n)x
        x = np.arange(n)
        bracket = scal_r[prod[m[:, None, None], m[None, :, None]], x[None, None, :]]
    return scal, bracket


def _roundtrip_check(kind, mod, prod, gam, n) -> None:
    """The product, [m,n]·1, and for divided powers γ(m) = m·(0,1), read
    back off the module."""
    one, pair = 1 % n, _pairs(n)[2]  # the unit of ℤ/n, and the layout of R⊕R
    x = pair(one, 0) if kind == "assoc" else one
    laws = [("product-read-back", (mod.nm, mod.nm),
             lambda m, m2: (mod.bracket[m, m2, x], prod[m, m2]))]
    if kind == "divided":
        laws.append(("gamma-read-back", (mod.nm,), lambda m: (mod.scal[m, pair(0, one)], gam[m])))
    run_laws(laws).require(ConsistencyError, f"{kind} module")
