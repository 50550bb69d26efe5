from __future__ import annotations

import numpy as np
import pytest

from quadrica import (
    ALGEBRA_KINDS,
    FAMILY_KINDS,
    AlgebraData,
    CommutativeRing,
    ExampleSpec,
    build_example,
    build_group,
    commutativity_census,
    is_commutative,
    module_from_algebra,
    set_config,
    verify_bhp_module,
    verify_square_ring,
)
from quadrica import examples
from quadrica.errors import CapExceeded, InvalidEpsilon, NotAnAlgebra, PreconditionUnmet


def test_kind_catalogues():
    assert FAMILY_KINDS == ("classical", "rnil", "lambda", "tensor", "sym", "gamma")
    assert ALGEBRA_KINDS == ("lie", "assoc", "comm", "divided")


def test_build_example_accepts_spec_objects():
    a = build_example(ExampleSpec("sym", 2))
    b = build_example("sym", 2)
    assert np.array_equal(a.re.mul, b.re.mul) and np.array_equal(a.act, b.act)


def test_unknown_kind():
    with pytest.raises(PreconditionUnmet):
        build_example("octonion", 2)


@pytest.mark.parametrize("n", [3, 4])
def test_tensor_family_projected_action_formula(n):
    """P of the two-slot action applied to an H value collapses to
    (0, 2*r*r'*s'') -- the computation that pins down which distributivity
    the pair ring drops."""
    sr = build_example("tensor", n)
    for e1 in range(n * n):
        r1 = e1 // n
        for e2 in range(n * n):
            r2 = e2 // n
            for e3 in range(n * n):
                s3 = e3 % n
                lhs = sr.p[sr.act[e1, e2, sr.h[e3], sr.one]]
                assert lhs == (2 * r1 * r2 * s3) % n  # (0, k) sits at index k


def test_gamma_epsilon_validity_sets():
    valid = {2: {0, 1}, 3: {0}, 4: {0, 2}}
    for n, eps_set in valid.items():
        for eps in range(n):
            if eps in eps_set:
                build_example("gamma", n, epsilon=eps)
            else:
                with pytest.raises(InvalidEpsilon):
                    build_example("gamma", n, epsilon=eps)


def test_gamma_commutativity_census():
    set_config(cap_ring=64, cap_group=256)
    rows = commutativity_census([ExampleSpec("gamma", n, 0) for n in range(2, 7)])
    assert [r["n"] for r in rows] == [2, 3, 4, 5, 6]
    assert all(r["commutative"] for r in rows)
    assert all(r["i2_equals_2R"] for r in rows)


def test_census_plain_rings_lack_the_gamma_column():
    rows = commutativity_census([("sym", 2, None), ("rnil", 3, None)])
    assert all(r["commutative"] for r in rows)
    assert all("i2_equals_2R" not in r for r in rows)


def _ring(add, mul, one) -> CommutativeRing:
    return CommutativeRing(build_group(add), mul, one)


def _f4() -> CommutativeRing:
    """F_4 = F_2[w]/(w² + w + 1), a + bw at index a + 2b."""
    def mul(i, j):
        a, b, c, d = i & 1, i >> 1, j & 1, j >> 1
        return (a * c + b * d) % 2 + 2 * ((a * d + b * c + b * d) % 2)  # w² = w + 1

    return _ring([[i ^ j for j in range(4)] for i in range(4)],
                 [[mul(i, j) for j in range(4)] for i in range(4)], 1)


def _z2_times_z2() -> CommutativeRing:
    """Z/2 × Z/2, componentwise, (a, b) at index a + 2b."""
    return _ring([[i ^ j for j in range(4)] for i in range(4)],
                 [[i & j for j in range(4)] for i in range(4)], 3)


def _dual_numbers(p: int) -> CommutativeRing:
    """Z/p[t]/(t²), a + bt at index a·p + b."""
    def add(i, j):
        return ((i // p + j // p) % p) * p + (i + j) % p

    def mul(i, j):
        (a, b), (c, d) = divmod(i, p), divmod(j, p)
        return ((a * c) % p) * p + (a * d + b * c) % p

    n = p * p
    return _ring([[add(i, j) for j in range(n)] for i in range(n)],
                 [[mul(i, j) for j in range(n)] for i in range(n)], p)


# every family builds and verifies over these rings, except that the pair
# rings R⊕R over Z/3[t]/(t²) have 81 elements, above the default ring cap
BASE_RINGS = {"F4": _f4, "Z2xZ2": _z2_times_z2, "Z2[t]": lambda: _dual_numbers(2),
              "Z3[t]": lambda: _dual_numbers(3)}
PAIR_FAMILIES = ("tensor", "sym", "gamma")


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("name", BASE_RINGS)
def test_families_compute_from_the_base_ring(name, kind):
    """Each family builder computes over the ring it is handed, not over
    ℤ/|R|: the pair families put R_e's unit at (1, 0) and take the first
    components of R_e's sum and product from R, and gamma is commutative
    exactly when I₂ = 2R."""
    base = BASE_RINGS[name]()
    build = getattr(examples, f"_build_{kind}")
    if name == "Z3[t]" and kind in PAIR_FAMILIES:
        with pytest.raises(CapExceeded) as info:
            build(base, ExampleSpec(kind, base.order))
        assert (info.value.what, info.value.size) == ("ring carrier", 81)
        return
    sr = build(base, ExampleSpec(kind, base.order))
    assert verify_square_ring(sr).passed
    if kind in PAIR_FAMILIES:
        n = base.order
        r = np.arange(n * n) // n  # (r, s) sits at index r·n + s
        assert sr.one == base.one * n
        assert np.array_equal(r[sr.re.add], base.add[r[:, None], r[None, :]])
        assert np.array_equal(r[sr.re.mul], base.mul[r[:, None], r[None, :]])
    if kind == "gamma":
        assert is_commutative(sr) == examples._i2_is_2r(base)
        assert is_commutative(sr) == (name == "Z2xZ2")


def _heisenberg_gamma_data() -> AlgebraData:
    """Divided-power data on (Z/2)^3 with index 4a + 2b + c: gamma(a,b,c)
    counts the cross term ab into the last coordinate, so its polar form
    is the Heisenberg pairing and every gamma value annihilates products."""
    return AlgebraData(
        n=2,
        factors=(2, 2, 2),
        gamma_map=tuple(1 if (i >> 2) & 1 and (i >> 1) & 1 else 0 for i in range(8)),
    )


def test_module_from_algebra_round_trips():
    lie = module_from_algebra(
        "lie",
        AlgebraData(n=3, factors=(3, 3), product=tuple((0,) * 9 for _ in range(9))),
    )
    assert verify_bhp_module(lie).passed
    assert lie.sr.re.order == 3  # realized over the exterior-style ring

    # m*q = 2mq on Z/4: bilinear, symmetric, and all triples vanish mod 4
    doubled = tuple(tuple((2 * m * q) % 4 for q in range(4)) for m in range(4))
    assoc = module_from_algebra(
        "assoc",
        AlgebraData(n=4, factors=(4,), product=doubled),
    )
    assert verify_bhp_module(assoc).passed
    assert assoc.nm == 4

    comm = module_from_algebra(
        "comm",
        AlgebraData(n=4, factors=(4,), product=doubled),
    )
    assert verify_bhp_module(comm).passed

    div = module_from_algebra("divided", _heisenberg_gamma_data())
    assert verify_bhp_module(div).passed
    assert div.nm == 8


def test_module_from_algebra_rejections():
    with pytest.raises(PreconditionUnmet):
        module_from_algebra("jordan", _heisenberg_gamma_data())
    with pytest.raises(NotAnAlgebra):  # factor order must divide the modulus
        module_from_algebra("lie", AlgebraData(n=2, factors=(3,), product=((0,) * 3,) * 3))
    # 1∗1 = 1 on Z/2 is not nilpotent: (1∗1)∗1 ≠ 0 is found first
    with pytest.raises(NotAnAlgebra, match=r"fails triple products vanish \(left\)"):
        module_from_algebra("lie", AlgebraData(n=2, factors=(2,), product=((0, 0), (0, 1))))
    # on (Z/2)², index 2a + b, (a, b)∗(a', b') = (0, aa') is bilinear and
    # nilpotent, but 2∗2 = 1
    lie = ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 1, 1))
    with pytest.raises(NotAnAlgebra) as info:
        module_from_algebra("lie", AlgebraData(n=2, factors=(2, 2), product=lie))
    assert str(info.value) == "lie data fails alternating at (2,): lhs=1 rhs=0"
    # a constant nonzero product is not additive
    with pytest.raises(NotAnAlgebra, match="fails additive in the first slot"):
        module_from_algebra("comm", AlgebraData(n=2, factors=(2, 2), product=tuple((0,) * 3 + (1,) for _ in range(4))))
    # on (Z/2)³, index 4a + 2b + c, m∗q = a(m)b(q)·(0, 0, 1): 4∗2 = 1, 2∗4 = 0
    comm = tuple(tuple((m >> 2) & (q >> 1) & 1 for q in range(8)) for m in range(8))
    with pytest.raises(NotAnAlgebra) as info:
        module_from_algebra("comm", AlgebraData(n=2, factors=(2, 2, 2), product=comm))
    assert str(info.value) == "comm data fails commutative at (2, 4): lhs=0 rhs=1"
    with pytest.raises(NotAnAlgebra):  # divided data needs its gamma table
        module_from_algebra("divided", AlgebraData(n=2, factors=(2,)))
    with pytest.raises(NotAnAlgebra) as info:  # gamma must vanish at zero
        module_from_algebra("divided", AlgebraData(n=2, factors=(2,), gamma_map=(1, 0)))
    assert str(info.value) == "divided data fails γ(0) = 0 at (0,): lhs=1 rhs=0"
    with pytest.raises(NotAnAlgebra):  # wrong product shape
        module_from_algebra("assoc", AlgebraData(n=2, factors=(2,), product=((0, 0),)))
