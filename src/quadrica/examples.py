"""The canonical square-ring families over ℤ/n, and converters between
classes of nilpotent algebras and modules over the matching family.

Families (all over a finite commutative base ring R = ℤ/n):

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
  deformation ε (with ε·I₂ = 0) twists the addition of R_e into
  (r,s)+(r',s') = (r+r', s+s'+εrr').
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InvalidEpsilon, NotAnAlgebra, PreconditionUnmet
from .groups import FiniteGroup, cyclic, direct_product
from .modules import BhpModule, verify_bhp_module
from .rings import CommutativeRing, NearRing, zmod
from .squarering import SquareRing, ensure_verified, is_commutative
from .verdict import run_laws

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


def i2_ideal(base: CommutativeRing) -> tuple[int, ...]:
    """The ideal generated by the elements r²−r (computed, not assumed)."""
    n = base.order
    gens = {int(base.group.sub(base.mul[r, r], r)) for r in range(n)}
    return base.ideal_closure(gens)


def _pair_re(n: int, eps: int = 0) -> NearRing:
    """R⊕R with multiplication (r,s)(r',s') = (rr', r²s'+sr'), addition
    possibly deformed by ε: (r,s)+(r',s') = (r+r', s+s'+εrr')."""
    e = np.arange(n * n, dtype=np.int64)
    r, s = np.divmod(e, n)
    r1, s1 = r[:, None], s[:, None]
    r2, s2 = r[None, :], s[None, :]
    add = ((r1 + r2) % n) * n + (s1 + s2 + eps * r1 * r2) % n
    neg = ((-r) % n) * n + (-s + eps * r * r) % n
    group = FiniteGroup(add.astype(np.int64), neg.astype(np.int64))
    mul = ((r1 * r2) % n) * n + (r1 * r1 * s2 + s1 * r2) % n
    return NearRing(group, mul.astype(np.int64), one=1 * n + 0, right_distributive=False)


def _first_component_action(n: int) -> np.ndarray:
    """(r,s)·x·(t,u) acting through first components: r·r'·x·t in R."""
    ne = n * n
    r = np.arange(ne, dtype=np.int64) // n
    x = np.arange(n, dtype=np.int64)
    prod = (
        r[:, None, None, None] * r[None, :, None, None] * x[None, None, :, None] * r[None, None, None, :]
    ) % n
    return prod.astype(np.int64)


def build_example(spec, n: int | None = None, epsilon: int | None = None) -> SquareRing:
    """Build one of the six square-ring families over ℤ/n.  The result has
    passed the full axiom verifier, and family-specific structural facts
    (the shape of T, the vanishing of H(2)) are re-asserted."""
    if not isinstance(spec, ExampleSpec):
        spec = ExampleSpec(str(spec), int(n), epsilon)
    base = zmod(spec.n)
    n = spec.n
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
    _structural_asserts(sr, spec)
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


def _scaled_subgroup_square_ring(base, members, h_values) -> SquareRing:
    """Shared core of rnil and lambda: R_ee is an additive subgroup of R,
    the action is (r,s)·x·t = rsxt, P = 0, T = −Id."""
    n = base.order
    members = tuple(members)
    nee = len(members)
    index = np.full(n, -1, dtype=np.int64)
    index[list(members)] = np.arange(nee)
    vals = np.array(members, dtype=np.int64)
    add_e = index[(vals[:, None] + vals[None, :]) % n]
    neg_e = index[(-vals) % n]
    ree = FiniteGroup(add_e, neg_e)
    r = np.arange(n, dtype=np.int64)
    act = index[
        (r[:, None, None, None] * r[None, :, None, None] * vals[None, None, :, None] * r[None, None, None, :]) % n
    ]
    h = index[h_values % n]
    p = np.zeros(nee, dtype=np.int64)
    t = index[(-vals) % n]
    return SquareRing(base, ree, act, h, p, t)


def _build_rnil(base: CommutativeRing, spec: ExampleSpec) -> SquareRing:
    n = base.order
    r = np.arange(n, dtype=np.int64)
    return _scaled_subgroup_square_ring(base, i2_ideal(base), (r * r - r) % n)


def _build_lambda(base: CommutativeRing, spec: ExampleSpec) -> SquareRing:
    n = base.order
    return _scaled_subgroup_square_ring(base, range(n), np.zeros(n, dtype=np.int64))


def _build_tensor(base: CommutativeRing, spec: ExampleSpec) -> SquareRing:
    n = base.order
    re = _pair_re(n)
    ree = direct_product(cyclic(n), cyclic(n))  # (x,y) at index x*n+y
    e = np.arange(n * n, dtype=np.int64)
    s = e % n
    h = s * n + s
    x, y = np.divmod(e, n)
    p = ((x + y) % n).astype(np.int64)  # (0, x+y) sits at index x+y
    t = y * n + x
    # (x,y) ↦ (r r' x r'', r r' y r''): the scalar action applied to both slots
    act_first = _first_component_action(n)
    xi, yi = np.divmod(np.arange(n * n), n)
    act = act_first[:, :, xi, :] * n + act_first[:, :, yi, :]
    return SquareRing(re, ree, act.astype(np.int64), h, p, t)


def _build_sym(base: CommutativeRing, spec: ExampleSpec) -> SquareRing:
    n = base.order
    re = _pair_re(n)
    ree = cyclic(n)
    e = np.arange(n * n, dtype=np.int64)
    h = (2 * (e % n)) % n
    p = np.arange(n, dtype=np.int64)  # (0,x) sits at index x
    t = np.arange(n, dtype=np.int64)
    act = _first_component_action(n)
    return SquareRing(re, ree, act, h, p, t)


def _build_gamma(base: CommutativeRing, spec: ExampleSpec) -> SquareRing:
    n = base.order
    eps = int(spec.epsilon or 0) % n
    i2 = i2_ideal(base)
    if any((eps * v) % n for v in i2):
        raise InvalidEpsilon(
            f"ε={eps} does not annihilate the ideal {i2} generated by the r²−r"
        )
    re = _pair_re(n, eps=eps)
    ree = cyclic(n)
    e = np.arange(n * n, dtype=np.int64)
    h = e % n
    p = (2 * np.arange(n, dtype=np.int64)) % n  # (0,2x) sits at index 2x
    t = np.arange(n, dtype=np.int64)
    act = _first_component_action(n)
    return SquareRing(re, ree, act, h, p, t)


def _structural_asserts(sr: SquareRing, spec: ExampleSpec) -> None:
    n = spec.n
    if spec.kind == "tensor":
        e = np.arange(n * n)
        x, y = np.divmod(e, n)
        if not np.array_equal(sr.t, y * n + x):
            raise ConsistencyError("tensor family: T must swap the two components")
    if spec.kind in ("sym", "gamma"):
        if not np.array_equal(sr.t, np.arange(sr.ree.order)):
            raise ConsistencyError(f"{spec.kind} family: T must be the identity")
    if spec.kind in ("tensor", "sym", "gamma"):
        expected = 0 if spec.kind != "gamma" else (int(spec.epsilon or 0) % n)
        if int(sr.h[sr.two]) != expected:
            raise ConsistencyError(
                f"{spec.kind} family: H(2) = {int(sr.h[sr.two])}, expected {expected}"
            )


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
            base = zmod(spec.n)
            i2 = set(i2_ideal(base))
            two_r = {(2 * r) % spec.n for r in range(spec.n)}
            if (i2 == two_r) != comm:
                raise ConsistencyError(
                    f"gamma commutativity criterion I₂=2R gives {i2 == two_r}, "
                    f"verifier gives {comm}"
                )
            row["i2_equals_2R"] = i2 == two_r
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
        ("additive in the first slot", (order, order, order),
         lambda m, m2, q: (prod[g.add[m, m2], q], g.add[prod[m, q], prod[m2, q]])),
        ("additive in the second slot", (order, order, order),
         lambda m, q, q2: (prod[m, g.add[q, q2]], g.add[prod[m, q], prod[m, q2]])),
        ("homogeneous in the first slot", (order, order, n),
         lambda m, q, r: (prod[scal_r[m, r], q], scal_r[prod[m, q], r])),
        ("homogeneous in the second slot", (order, order, n),
         lambda m, q, r: (prod[m, scal_r[q, r]], scal_r[prod[m, q], r])),
        ("triple products vanish (left)", (order, order, order),
         lambda m, q, u: (prod[prod[m, q], u], np.zeros_like(m + q + u))),
        ("triple products vanish (right)", (order, order, order),
         lambda m, q, u: (prod[u, prod[m, q]], np.zeros_like(m + q + u))),
    ]
    if kind == "lie":
        laws.append(("alternating", (order,), lambda m: (prod[m, m], np.zeros_like(m))))
    if kind == "comm":
        laws.append(("commutative", (order, order), lambda m, q: (prod[m, q], prod[q, m])))
    if kind == "divided":
        # the product is the polarization of γ, whose value at (0, q) is
        # −γ(0), so γ(0) ≠ 0 would first fail additivity: check it first
        laws.insert(0, ("γ(0) = 0", (1,), lambda z: (gam[z], z)))
        laws += [
            ("γ(mr) = γ(m)r²", (order, n),
             lambda m, r: (gam[scal_r[m, r]], scal_r[gam[m], (r * r) % n])),
            ("γ(γ(m)) = 0", (order,), lambda m: (gam[gam[m]], np.zeros_like(m))),
            ("γ(m)·q = 0", (order, order), lambda m, q: (prod[gam[m], q], np.zeros_like(m + q))),
            ("γ(m·q) = 0", (order, order), lambda m, q: (gam[prod[m, q]], np.zeros_like(m + q))),
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
    _roundtrip_check(kind, mod, prod, gam)
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
    e = np.arange(n * n)
    r_part, s_part = np.divmod(e, n)
    scal = g.add[scal_r[m[:, None], r_part[None, :]], scal_r[w[m][:, None], s_part[None, :]]]
    if kind == "assoc":
        x = np.arange(n * n)
        xr, ys = np.divmod(x, n)
        bracket = g.add[
            scal_r[prod[m[:, None, None], m[None, :, None]], xr[None, None, :]],
            scal_r[prod[m[None, :, None], m[:, None, None]], ys[None, None, :]],
        ]
    else:  # comm, divided: R_ee = R and [m,n]·x = (m∗n)x
        x = np.arange(n)
        bracket = scal_r[prod[m[:, None, None], m[None, :, None]], x[None, None, :]]
    return scal, bracket


def _roundtrip_check(kind, mod, prod, gam) -> None:
    sr, order = mod.sr, mod.nm
    n = int(round(np.sqrt(sr.re.order))) if kind != "lie" else sr.re.order
    m = np.arange(order)
    if kind == "lie":
        got = mod.bracket[:, :, 1 % sr.ree.order]
    elif kind == "assoc":
        got = mod.bracket[:, :, 1 * n + 0]  # [m,n]·(1,0)
    else:
        got = mod.bracket[:, :, 1 % n]
    if not np.array_equal(got, prod):
        raise ConsistencyError(f"{kind}: reading the product back off the module fails")
    if kind == "divided":
        got_gamma = mod.scal[:, 0 * n + 1]  # γ(m) = m·(0,1)
        if not np.array_equal(got_gamma, gam):
            raise ConsistencyError("divided: reading γ back off the module fails")
