from __future__ import annotations

import numpy as np
import pytest

from quadrica import (
    SquareRing,
    build_example,
    cokernel_p,
    is_commutative,
    operad_of,
    rbar_regular_module,
    verify_square_ring,
)
from quadrica import squarering
from quadrica.errors import InvalidEpsilon, PreconditionUnmet
from quadrica.squarering import ensure_verified

from conftest import RING_SPECS, triangular_square_ring

AXIOMS = tuple(f"AC{i}" for i in range(9))


@pytest.mark.parametrize("spec", RING_SPECS, ids=lambda s: f"{s[0]}-{s[1]}" + (f"-e{s[2]}" if s[2] is not None else ""))
def test_families_satisfy_all_axioms(spec, ring_zoo):
    v = verify_square_ring(ring_zoo[spec])
    assert v.passed, [f.law for f in v.failures]
    for ax in AXIOMS:
        assert ax in v.checked
    # derived consequences are re-proved on every verify
    for law in ("H(1)=0", "PxPy=0", "imP-central", "commutator-form"):
        assert law in v.checked


def test_families_are_commutative(ring_zoo):
    assert all(is_commutative(sr) for sr in ring_zoo.values())


def test_unit_and_two():
    sym2 = build_example("sym", 2)
    assert sym2.one == 2  # the pair (1,0) at index 1*2+0
    assert sym2.two == 0  # (1,0)+(1,0) = (0,0) over Z/2
    rnil4 = build_example("rnil", 4)
    assert rnil4.one == 1 and rnil4.two == 2


def test_im_p():
    assert build_example("sym", 2).im_p() == (0, 1)
    assert build_example("rnil", 4).im_p() == (0,)  # P = 0 family
    assert build_example("tensor", 3).im_p() == (0, 1, 2)


def test_cokernel_orders():
    for kind, n, order in [
        ("classical", 3, 3),
        ("rnil", 4, 4),
        ("tensor", 3, 3),
        ("sym", 2, 2),
        ("gamma", 4, 8),
    ]:
        bar = cokernel_p(build_example(kind, n))
        assert bar.order == order
        assert bar.commutative


def test_cokernel_projection_is_multiplicative():
    sr = build_example("tensor", 3)
    bar = cokernel_p(sr)
    for a in range(sr.re.order):
        for b in range(sr.re.order):
            assert bar.proj[sr.re.mul[a, b]] == bar.ring.mul[bar.proj[a], bar.proj[b]]


def test_operad_sizes():
    expected = {
        ("classical", 3): (3, 1),
        ("rnil", 4): (4, 2),
        ("sym", 2): (2, 2),
        ("tensor", 3): (3, 9),
        ("gamma", 4): (8, 4),
    }
    for (kind, n), sizes in expected.items():
        assert operad_of(build_example(kind, n)).sizes == sizes


def test_operad_is_built_once_per_verified_ring():
    sr = build_example("gamma", 4)
    assert operad_of(sr) is operad_of(sr)
    with pytest.raises(ValueError):
        sr.act[0, 0, 0, 0] = 1
    with pytest.raises(ValueError):
        operad_of(sr).act[0, 0, 0, 0] = 1


def test_shape_of_t_per_family():
    n = 3
    tensor = build_example("tensor", n)
    e = np.arange(n * n)
    x, y = np.divmod(e, n)
    assert np.array_equal(tensor.t, y * n + x)  # swap
    assert np.array_equal(build_example("sym", n).t, np.arange(n))  # identity
    lam = build_example("lambda", n)
    assert np.array_equal(lam.t, (-np.arange(n)) % n)  # sign


def test_invalid_epsilon_is_refused():
    with pytest.raises(InvalidEpsilon):
        build_example("gamma", 3, epsilon=1)
    with pytest.raises(InvalidEpsilon):
        build_example("gamma", 4, epsilon=1)
    assert build_example("gamma", 4, epsilon=2).ree.order == 4


def test_tampered_involution_is_caught():
    sr = build_example("tensor", 2)
    n = 2
    broken = SquareRing(sr.re, sr.ree, sr.act, sr.h, sr.p, np.zeros(n * n, dtype=np.int64))
    v = verify_square_ring(broken)
    assert not v.passed
    assert any(f.law == "T-involution" for f in v.failures)
    # every reported witness must really violate its law, so none may be empty
    assert all(f.witness for f in v.failures)


def test_tampered_h_is_caught():
    sr = build_example("sym", 3)
    h = sr.h.copy()
    h[2] = (h[2] + 1) % sr.ree.order
    v = verify_square_ring(SquareRing(sr.re, sr.ree, sr.act, h, sr.p, sr.t))
    assert not v.passed


def test_ensure_verified_raises_on_garbage():
    sr = build_example("sym", 2)
    # P(0) = 1 cannot be additive, so the gate must refuse the structure
    broken = SquareRing(sr.re, sr.ree, sr.act, sr.h, np.array([1, 1]), sr.t)
    with pytest.raises(PreconditionUnmet):
        ensure_verified(broken)
    for _ in range(2):  # a failed build is never cached
        with pytest.raises(PreconditionUnmet):
            operad_of(broken)
        assert broken._operad is None


def test_noncommutative_ring_still_verifies_as_square_ring():
    sr = triangular_square_ring()
    assert verify_square_ring(sr).passed
    assert not is_commutative(sr)


def test_one_quotient_ring_serves_every_caller(monkeypatch):
    """R̄ = R_e/im P is built once per ring: ``rbar_regular_module``,
    ``is_commutative`` and ``operad_of`` share it."""
    sr = build_example("tensor", 3)
    fresh = SquareRing(sr.re, sr.ree, sr.act, sr.h, sr.p, sr.t)  # nothing cached
    builds = []
    build = squarering._build_bar
    monkeypatch.setattr(squarering, "_build_bar", lambda ring: builds.append(ring) or build(ring))
    rbar_regular_module(fresh)
    assert is_commutative(fresh)
    assert operad_of(fresh).op1 is cokernel_p(fresh)
    assert builds == [fresh]
